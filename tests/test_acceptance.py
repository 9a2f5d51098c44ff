"""Acceptance checks: one test per verification criterion.

Each test delegates to the corresponding runner in cvteleport.verify, which
encodes the required tolerance; the runner's detail string is surfaced on
failure.  The same runners back the ``cvteleport verify`` CLI command.
The README's library quick start and its deterministic CLI examples run
here too, so they cannot drift from the code.
"""

import pathlib
import shlex

import pytest

from cvteleport import verify
from cvteleport.cli import main

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


@pytest.mark.parametrize("command", ["noise-sweep", "fidelity-table"])
def test_readme_cli_examples_print_what_they_show(capsys, command):
    # every cell as shown, except abs_delta, a rounding residue: below 1e-12 in both
    text = README.read_text()
    start = text.index(f"$ cvteleport {command} ")
    call, *shown = text[start:text.index("```", start)].splitlines()
    assert main(shlex.split(call)[2:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown) and printed[0] == shown[0]
    for want, got in zip(shown[1:], printed[1:]):
        for column, a, b in zip(shown[0].split(","), want.split(","), got.split(",")):
            if column == "abs_delta":
                assert float(a) < 1e-12 and float(b) < 1e-12, (want, got)
            else:
                assert a == b, (column, want, got)
