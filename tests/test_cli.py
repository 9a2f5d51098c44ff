"""CLI behavior: subcommands, formats, config, exit codes, schemas."""

import csv
import importlib.resources
import io
import json
import math
import time

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvteleport import ConfigurationError, load_grid, verify
from cvteleport.cli import (
    _FLAG_HELP,
    GRID_TOLERANCE,
    MAX_POINTS,
    _channel_points,
    build_parser,
    main,
)
from cvteleport.phase_space import check_geometry


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _schema(name):
    ref = importlib.resources.files("cvteleport") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def test_noise_sweep_single_point_csv(capsys):
    code, out, _ = _run(
        capsys, ["noise-sweep", "--squeezing", "1", "--nbar", "1", "--time", "0.5"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s_qc", "n_bar", "T", "n_tau", "n_d", "gap", "separable"]
    assert len(rows) == 2
    s_qc, n_bar, T, n_tau, n_d, gap, separable = rows[1]
    assert (s_qc, n_bar, T) == ("1", "1", "0.5")
    assert_allclose(float(n_tau), 1.56767, rtol=0, atol=5e-6)
    assert_allclose(float(n_d), 0.5, rtol=0, atol=1e-12)
    assert separable == "true"
    want_gap = (1.0 - math.sqrt(0.5)) ** 2 + 1.0 - math.sqrt(0.5) * (1.0 - math.exp(-2.0))
    assert_allclose(float(gap), want_gap, rtol=0, atol=1e-11)


def test_noise_sweep_is_deterministic(capsys):
    argv = ["noise-sweep", "--squeezing", "0:2:5", "--nbar", "0.5", "--time", "0:1:4"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 5 * 4


def test_noise_sweep_json_schema(capsys):
    code, out, _ = _run(
        capsys,
        ["noise-sweep", "--squeezing", "0:1:3", "--nbar", "1", "--time", "0.3",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("noise_sweep"))
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["separable"] is True  # s = 0 channel is never entangled


def test_noise_sweep_trivial_channel_gap(capsys):
    # unentangled, lossless channel still costs one vacuum unit
    code, out, _ = _run(capsys, ["noise-sweep"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[:3] == ["0", "0", "0"]
    assert float(row[3]) == 1.0 and float(row[5]) == 1.0


def test_fidelity_table_squeezed(capsys):
    code, out, _ = _run(
        capsys,
        ["fidelity-table", "--state", "squeezed:1", "--ntau", "1", "--grid-res", "128"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n_tau", "f_closed", "f_grid", "abs_delta"]
    n_tau, f_closed, f_grid, delta = map(float, rows[1])
    assert n_tau == 1.0
    assert_allclose(f_closed, (2.0 + 2.0 * math.cosh(2.0)) ** -0.5, rtol=1e-10)
    assert delta <= 1e-4
    assert_allclose(f_grid, f_closed, rtol=0, atol=1e-4)


def test_fidelity_table_fock_channel_sweep_json(capsys):
    code, out, _ = _run(
        capsys,
        ["fidelity-table", "--state", "fock:1", "--squeezing", "0.8", "--nbar", "0.5",
         "--time", "0:0.8:3", "--grid-res", "128", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("fidelity_table"))
    assert payload["state"] == "fock:1"
    assert len(payload["rows"]) == 3
    # fidelity decreases as the channel degrades
    vals = [r["f_closed"] for r in payload["rows"]]
    assert vals[0] > vals[1] > vals[2]


def test_fidelity_table_rejects_coherent(capsys):
    code, _, err = _run(capsys, ["fidelity-table", "--state", "coherent:1,0", "--ntau", "0.5"])
    assert code == 1
    assert "fock:m and squeezed:s_o" in err


def test_fidelity_table_accuracy_exit(capsys):
    # a grid too coarse for the overlap quadrature must fail loudly, not drift
    code, _, err = _run(
        capsys,
        ["fidelity-table", "--state", "fock:2", "--ntau", "0.4", "--grid-res", "24"],
    )
    assert code == 2
    assert "accuracy" in err


def test_usage_errors_exit_one(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    code, _, err = _run(capsys, ["noise-sweep", "--time", "0:1:0"])
    assert code == 1
    assert "at least one step" in err
    code, out, _ = _run(capsys, ["noise-sweep", "--time", "0:1:1"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, _, err = _run(capsys, ["noise-sweep", "--time", "1.5"])
    assert code == 1
    export = ["teleport-export", "--ntau", "0.3", "--out", str(tmp_path / "out"), "--state"]
    for argv, fragment in (
        (export + ["coherent:1"], "expects RE,IM"),
        (export + ["coherent:1,x"], "--state coherent expects a number"),
        (export + ["cat:1"], "unknown state selector"),
        (["fidelity-table", "--ntau", "0.3", "--state", "fock:x"], "integer index"),
        (["noise-sweep", "--nbar", "abc"], "--nbar expects a number"),
        (["noise-sweep", "--time", "0:1"], "START:STOP:STEPS"),
        (["noise-sweep", "--time", "0:1:2.5"], "steps must be an integer"),
        (["noise-sweep", "--format", "yaml"], "--format must be csv or json"),
        (["fidelity-table", "--ntau", "0.3"], "--state is required"),
        (["teleport-export", "--ntau", "0:1:3", "--out", str(tmp_path / "out")], "one noise point"),
        (["teleport-export", "--squeezing", "0:1:2", "--nbar", "0", "--time", "0",
          "--out", str(tmp_path / "out")], "one noise point"),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert fragment in err, err
    assert not (tmp_path / "out").exists()


def test_channel_lattice_is_capped(capsys, tmp_path):
    # each flag passes its 1000-step cap, but the lattice has 1e9 points
    # (about 1 KB each): it exits 1 before the first point, and writes nothing
    lattice = ["--squeezing", "0:1:1000", "--nbar", "0:1:1000", "--time", "0:1:1000"]
    for argv in (
        ["noise-sweep", *lattice, "--out", str(tmp_path / "sweep.csv")],
        ["fidelity-table", "--state", "fock:1", *lattice, "--out", str(tmp_path / "table.csv")],
        ["teleport-export", *lattice, "--out", str(tmp_path / "export")],
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 5.0, argv
        assert code == 1 and out == "", argv
        assert f"has 1000000000 points, at most {MAX_POINTS}" in err, err
    assert list(tmp_path.iterdir()) == []
    # the check runs before the first point: a lattice of MAX_POINTS points
    # starts, one of a few more does not
    assert MAX_POINTS == 100 * 100 * 10
    flags = ["noise-sweep", "--squeezing", "0:1:100", "--nbar", "0:1:100", "--time"]
    assert next(_channel_points(build_parser().parse_args([*flags, "0:1:10"]))).T == 0.0
    with pytest.raises(ConfigurationError, match=f"has 110000 points, at most {MAX_POINTS}"):
        next(_channel_points(build_parser().parse_args([*flags, "0:1:11"])))


@pytest.mark.parametrize(
    "argv",
    [
        ["noise-sweep", "--ntau", "5", "--state", "fock:99", "--grid-res", "99999",
         "--grid-extent", "-3"],
        # fidelity-table reads every flag another subcommand registers, so only
        # an unknown flag remains to reject.
        ["fidelity-table", "--state", "fock:1", "--ntau", "0.5", "--mutate-kernel", "0.05"],
        ["verify", "quick", "--state", "vacuum"],
        ["teleport-export", "--ntau", "0.3", "--format", "yaml"],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_channel_parameters_exit_one(capsys):
    code, out, err = _run(capsys, ["noise-sweep", "--squeezing", "nan", "--nbar", "0", "--time", "0.5"])
    assert code == 1
    assert out == ""
    assert err.startswith("cvteleport: error:") and "finite" in err
    code, _, _ = _run(capsys, ["noise-sweep", "--nbar", "inf", "--time", "0.5"])
    assert code == 1


def test_non_finite_ntau_names_the_flag(capsys, tmp_path):
    for argv in (
        ["teleport-export", "--state", "fock:1", "--ntau", "nan", "--out", str(tmp_path)],
        ["fidelity-table", "--state", "fock:1", "--ntau", "nan"],
        ["fidelity-table", "--state", "fock:1", "--ntau", "0:inf:3"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert "--ntau" in err and "finite" in err, err
    assert not (tmp_path / "report.json").exists()


def test_sizes_are_bounded(capsys):
    for argv, flag in (
        (["fidelity-table", "--state", "fock:1", "--ntau", "0.5", "--grid-res", "2049"], "--grid-res"),
        (["fidelity-table", "--state", "fock:1", "--ntau", "0.5", "--grid-res", "256.5"], "--grid-res"),
        (["fidelity-table", "--state", "fock:1", "--ntau", "0:1:1001"], "--ntau"),
        (["noise-sweep", "--time", "0:1:1001"], "--time"),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1, argv
        assert out == ""
        assert flag in err, err


def test_config_values_are_validated(capsys, tmp_path):
    # config-file values pass the same checks as the flags they stand for
    for line in ("level = bogus", "format = yaml"):
        conf = tmp_path / "verify.conf"
        conf.write_text(line + "\n")
        code, out, err = _run(capsys, ["verify", "--config", str(conf)])
        assert code == 1, line
        assert out == ""
        assert err.startswith("cvteleport: error:"), line
    # comment and blank lines are skipped; a line without "=" is rejected
    for text, fragment in (
        ("# a comment\n\nlevel = bogus\n", "bogus"),
        ("level\n", "expected key=value"),
    ):
        conf = tmp_path / "verify.conf"
        conf.write_text(text)
        code, out, err = _run(capsys, ["verify", "--config", str(conf)])
        assert code == 1, text
        assert out == ""
        assert fragment in err, err
    with pytest.raises(ConfigurationError, match="bogus"):
        verify.run_all("bogus")


def test_verify_quick_text(capsys):
    code, out, _ = _run(capsys, ["verify", "quick"])
    lines = out.strip().splitlines()
    # one line per criterion plus the overall verdict
    assert len(lines) == 10
    assert all(line.startswith("criterion ") for line in lines[:9])
    assert "[skipped]" in lines[2]  # the oracle lattice only runs at full level
    statuses = {line.split("[")[1].split("]")[0] for line in lines[:9]}
    assert statuses == {"pass", "skipped"}
    assert lines[-1] == "all passed"
    assert code == 0


def test_verify_json_schema(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["verify", "quick", "--format", "json", "--out", str(out_path)])
    payload = json.loads(out_path.read_text())
    jsonschema.validate(payload, _schema("verify_report"))
    assert payload["level"] == "quick"
    assert len(payload["results"]) == 9
    by_criterion = {r["criterion"]: r for r in payload["results"]}
    assert by_criterion[3]["status"] == "skipped"
    assert by_criterion[2]["status"] == "pass"
    assert payload["all_passed"] is True
    assert code == 0


def test_verify_detects_corrupted_kernel(capsys, monkeypatch):
    # a corrupted kernel that smooths at n_tau * 1.05; the closed-form
    # comparisons must catch it
    real = verify.teleport_state
    monkeypatch.setattr(verify, "teleport_state", lambda w, n: real(w, float(n) * 1.05))
    code, out, _ = _run(capsys, ["verify", "quick"])
    assert code == 2
    by_line = {int(l.split()[1]): l for l in out.strip().splitlines()[:9]}
    assert "[fail]" in by_line[4]
    # and a clean kernel passes again
    monkeypatch.undo()
    code, _, _ = _run(capsys, ["verify", "quick"])
    assert code == 0


def test_teleport_export(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        ["teleport-export", "--state", "fock:1", "--squeezing", "1", "--nbar", "0.5",
         "--time", "0.1", "--grid-res", "128", "--out", str(tmp_path)],
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(report, _schema("teleport_report"))
    assert report["state"] == "fock:1"
    assert report["channel"] == {"s_qc": 1.0, "n_bar": 0.5, "T": 0.1}
    expected_ntau = 2.0 * 0.1 + 0.9 * math.exp(-2.0)
    assert_allclose(report["n_tau"], expected_ntau, rtol=0, atol=1e-11)
    assert_allclose(report["teleported_moments"]["mean_photon"], 1.0 + expected_ntau, rtol=0, atol=1e-4)
    back_in = load_grid(str(tmp_path / "input_wigner"))
    back_out = load_grid(str(tmp_path / "teleported_wigner"))
    assert back_in.resolution == back_out.resolution == 128
    assert back_in.values.min() < 0  # fock 1 input carries negativity
    assert report["grid_min"]["teleported_wigner"] < 0  # survives below n_tau = 1/2
    assert report["thresholds"]["p_positive_after_teleport"] is False
    assert_allclose(report["thresholds"]["sub_poisson"], math.sqrt(2.0) - 1.0, rtol=0, atol=1e-4)
    assert report["thresholds"]["squeezing"] is None
    out_dir = tmp_path / "coherent"
    code, _, _ = _run(
        capsys,
        ["teleport-export", "--state", "coherent:1,0.5", "--ntau", "0.3", "--grid-res", "64",
         "--out", str(out_dir)],
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    jsonschema.validate(report, _schema("teleport_report"))
    assert report["state"] == "coherent:1,0.5"
    assert report["channel"] is None


def test_teleport_export_takes_one_noise_point(capsys, tmp_path):
    # a one-point range is one point; an empty --ntau is unset, as in fidelity-table
    argv = ["teleport-export", "--state", "vacuum", "--grid-res", "32", "--out"]
    code, _, _ = _run(capsys, argv + [str(tmp_path / "a"), "--ntau", "0.4:0.9:1"])
    assert code == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["n_tau"] == 0.4 and report["channel"] is None
    code, _, _ = _run(
        capsys,
        argv + [str(tmp_path / "b"), "--ntau", "", "--squeezing", "1:2:1", "--nbar", "0.5",
                "--time", "0.1"],
    )
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["channel"] == {"s_qc": 1.0, "n_bar": 0.5, "T": 0.1}
    code, _, err = _run(capsys, argv + [str(tmp_path / "c"), "--ntau", ""])
    assert code == 1
    assert "needs --ntau or all of --squeezing/--nbar/--time" in err


def test_teleport_export_positive_regime(capsys, tmp_path):
    code, _, _ = _run(
        capsys,
        ["teleport-export", "--state", "squeezed:0.5", "--ntau", "1.2",
         "--grid-res", "128", "--out", str(tmp_path)],
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["channel"] is None
    assert report["thresholds"]["p_positive_after_teleport"] is True
    assert report["grid_min"]["q_ordering"] >= -1e-9
    thr = report["thresholds"]["squeezing"]
    assert_allclose(thr, (1.0 - math.exp(-1.0)) / 2.0, rtol=0, atol=1e-5)
    # variance after teleport: e^{-2 s} + 2 n_tau along the squeezed axis
    assert_allclose(
        report["teleported_moments"]["quadrature_variance"],
        math.exp(-1.0) + 2.4,
        rtol=0,
        atol=1e-3,
    )


def _threshold_cases():
    # (selector, sub_poisson, squeezing): the closed forms of the selected input
    # sqrt(m(m+1)) - m and (1 - e^{-2|s|})/2, printed to 12 digits, or null
    cases = [(label, None, None) for label in
             ("vacuum", "fock:0", "coherent:-2,0", "coherent:1,0.5", "coherent:0,2.5")]
    cases += [(f"fock:{m}", float(f"{math.sqrt(m * (m + 1)) - m:.12g}"), None)
              for m in (1, 3, 20, 30)]
    cases += [(f"squeezed:{s}", None, float(f"{(1.0 - math.exp(-2.0 * abs(s))) / 2.0:.12g}"))
              for s in (0.5, -1.2)]
    return [(res, *case) for case in cases for res in (64, 256)
            if res == 64 or case[0] in ("vacuum", "fock:30", "squeezed:-1.2")]


@pytest.mark.parametrize("res, label, sub_poisson, squeezing", _threshold_cases(),
                         ids=lambda v: str(v))
def test_teleport_export_thresholds_are_the_inputs_closed_forms(
        capsys, tmp_path, res, label, sub_poisson, squeezing):
    # no moment of the input grid is read back: a classical input has no
    # threshold on any grid, and a Fock or squeezed one keeps its exact value
    code, _, _ = _run(capsys, ["teleport-export", "--state", label, "--ntau", "0.4",
                               "--grid-res", str(res), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(report, _schema("teleport_report"))
    thresholds = report["thresholds"]
    assert (thresholds["sub_poisson"], thresholds["squeezing"]) == (sub_poisson, squeezing)


def test_outdir_env_and_config(capsys, tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("state = fock:1\nntau = 0.8\ngrid-res = 128\n")
    monkeypatch.setenv("CVTELEPORT_OUTDIR", str(tmp_path))
    code, _, _ = _run(
        capsys, ["teleport-export", "--config", str(conf), "--out", "exports"]
    )
    assert code == 0
    report = json.loads((tmp_path / "exports" / "report.json").read_text())
    assert report["state"] == "fock:1"
    assert report["n_tau"] == 0.8
    # explicit flags beat config values
    code, _, _ = _run(
        capsys,
        ["teleport-export", "--config", str(conf), "--ntau", "0.2", "--out", "exports2"],
    )
    assert code == 0
    report2 = json.loads((tmp_path / "exports2" / "report.json").read_text())
    assert report2["n_tau"] == 0.2


def test_grid_header_schema(tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        ["teleport-export", "--state", "vacuum", "--ntau", "0.5", "--grid-res", "64",
         "--out", str(tmp_path)],
    )
    assert code == 0
    header = json.loads((tmp_path / "input_wigner.json").read_text())
    jsonschema.validate(header, _schema("grid_header"))
    assert header == {"sigma": 0.0, "extent": 6.0, "resolution": 64,
                      "envelope": [0.0, 0.0, 2.0, 2.0], "pure_origin": True}


def test_schema_bounds_mirror_the_code():
    # each schema bound that restates a limit of the code is that limit
    grid = _schema("grid_header")["properties"]
    side = grid["resolution"]["minimum"]
    check_geometry(1.0, side)
    with pytest.raises(ConfigurationError, match="resolution"):
        check_geometry(1.0, side - 1)
    extent = grid["extent"]["maximum"]
    check_geometry(extent, side)
    with pytest.raises(ConfigurationError, match="square overflows"):
        check_geometry(math.nextafter(extent, math.inf), side)
    row = _schema("fidelity_table")["properties"]["rows"]["items"]["properties"]
    assert row["abs_delta"]["maximum"] == GRID_TOLERANCE


def test_unwritable_out_exits_three(capsys, tmp_path):
    out = str(tmp_path / "missing" / "x.csv")
    code, stdout, err = _run(capsys, ["noise-sweep", "--out", out])
    assert code == 3
    assert stdout == ""
    assert err == f"cvteleport: i/o: [Errno 2] No such file or directory: {out!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_reexport_leaves_no_stale_report(capsys, tmp_path):
    out = tmp_path / "exp"
    argv = ["teleport-export", "--grid-res", "32", "--out", str(out)]
    assert _run(capsys, argv + ["--state", "vacuum", "--ntau", "0.3"])[0] == 0
    (out / "teleported_wigner.csv").unlink()
    (out / "teleported_wigner.csv").mkdir()
    code, _, err = _run(capsys, argv + ["--state", "fock:1", "--ntau", "0.5"])
    assert code == 3
    assert "teleported_wigner.csv" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("outdir", [None, "base"])
def test_empty_out_means_stdout(capsys, tmp_path, monkeypatch, outdir):
    if outdir is not None:
        monkeypatch.setenv("CVTELEPORT_OUTDIR", str(tmp_path / outdir))
    code, out, err = _run(capsys, ["noise-sweep", "--out", ""])
    assert code == 0 and err == ""
    assert out.startswith("s_qc,n_bar,T,n_tau")
    assert list(tmp_path.iterdir()) == []


def test_missing_channel_spec_is_usage_error(capsys):
    code, _, err = _run(capsys, ["teleport-export", "--state", "vacuum"])
    assert code == 1
    assert "--ntau" in err


# the flags each drawn subcommand registers, as build_parser adds them
_SUBCOMMAND_FLAGS = {
    "noise-sweep": ("--squeezing", "--nbar", "--time", "--out", "--format"),
    "fidelity-table": tuple(_FLAG_HELP),
    "teleport-export": tuple(flag for flag in _FLAG_HELP if flag != "--format"),
}
_SMALL = st.floats(0.0, 2.0).map(repr)
_NUMBERS = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-3, 60).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "5e-324"]),
)
_SELECTORS = st.one_of(
    st.sampled_from(["vacuum", "fock:0", "fock:1", "fock:3", "squeezed:0.5", "coherent:1,0.5"]),
    st.builds("fock:{}".format, st.integers(-2, 60)),
    st.builds("squeezed:{}".format, _NUMBERS),
    st.builds("coherent:{},{}".format, _NUMBERS, _NUMBERS),
    st.sampled_from(["fock:", "fock:1.5", "fock:x", "squeezed:", "coherent:1", "coherent:a,b",
                     "vacuum:1", "cat:1", "", ":"]),
)
_BAD_RANGES = st.sampled_from(["0:1", "0:1:0", "0:1:-2", "0:1:2.5", "0:1:1001", "a:b:3",
                               "::", "0:1:2:3", "1:0:x", "nan:1:3"])
_JUNK = st.text(max_size=8)
_VALID = {
    "--state": _SELECTORS,
    "--grid-extent": st.sampled_from(["4", "6", "8"]),
    "--format": st.sampled_from(["csv", "json", "text"]),
}


@st.composite
def _argv(draw, out_dir):
    # mostly well-formed flags and values, so that runs get past parsing
    def value(valid, other):
        return draw(valid if draw(st.integers(0, 3)) else other)

    command = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    argv = [command]
    budget = 50  # lattice and n_tau points of one run, so the draw stays fast
    for flag in _SUBCOMMAND_FLAGS[command]:
        # --config names a file (its own tests cover it); --out stays under out_dir
        if flag in ("--config", "--out", "--grid-res") or not draw(st.integers(0, 3)):
            continue
        steps = draw(st.integers(1, budget))
        budget //= steps
        ranged = st.builds("{}:{}:{}".format, _SMALL, _SMALL, st.just(steps))
        anything = st.one_of(_NUMBERS, ranged, _BAD_RANGES, _SELECTORS, _JUNK)
        argv += [flag, value(_VALID.get(flag, st.one_of(_SMALL, ranged)), anything)]
    if "--grid-res" in _SUBCOMMAND_FLAGS[command]:
        argv += ["--grid-res", value(st.sampled_from(["8", "16", "32"]), st.one_of(_NUMBERS, _JUNK))]
    if command == "teleport-export" or draw(st.booleans()):
        argv += ["--out", str(out_dir / command)]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_with_a_documented_code(capsys, tmp_path, data):
    # any argv over the registered flags ends in exit 0-3, never a traceback,
    # and a failure's last stderr line is the program's own one-line message
    argv = data.draw(_argv(tmp_path), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        assert err.splitlines()[-1].startswith("cvteleport"), (argv, err)
