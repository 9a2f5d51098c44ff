"""Test-session setup: import hypothesis's patch writer before any test runs.

When a property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` while it reports the falsifying example.  That
module imports ``libcst``, which imports ``mypy_extensions.TypedDict`` and
emits a ``DeprecationWarning``; ``pyproject.toml`` turns that warning into an
error, so the run ended in a pytest INTERNALERROR that hid the example.
Importing the module here, with that one import's warning ignored, leaves
every warning filter of the run as it is.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:  # without libcst the plugin skips the patch itself
        pass
