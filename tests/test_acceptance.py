"""Acceptance checks: one test per verification criterion.

Each test delegates to the corresponding runner in cvteleport.verify, which
encodes the required tolerance; the runner's detail string is surfaced on
failure.  The same runners back the ``cvteleport verify`` CLI command.
The README's library quick start runs here too, so it cannot drift from
the code.
"""

import pathlib

from cvteleport import verify

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_criterion_1_closed_form_fidelity_values():
    ok, detail = verify.criterion_1()
    assert ok, detail


def test_criterion_2_noise_factor_and_gap_identities():
    ok, detail = verify.criterion_2()
    assert ok, detail


def test_criterion_3_protocol_integral_vs_convolution():
    ok, detail = verify.criterion_3()
    assert ok, detail


def test_criterion_4_closed_form_teleported_states():
    ok, detail = verify.criterion_4()
    assert ok, detail


def test_criterion_5_moment_transfer_relations():
    ok, detail = verify.criterion_5()
    assert ok, detail


def test_criterion_6_nonclassicality_thresholds():
    ok, detail = verify.criterion_6()
    assert ok, detail


def test_criterion_7_separability_criterion_and_reconstruction():
    ok, detail = verify.criterion_7()
    assert ok, detail


def test_criterion_8_moment_flow_integration():
    ok, detail = verify.criterion_8()
    assert ok, detail


def test_criterion_9_normalization_and_marginals():
    ok, detail = verify.criterion_9()
    assert ok, detail


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library quick start")) + len("```python\n")
    block = text[start:text.index("```", start)]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert "PhotonStats(mean=1.88" in printed
