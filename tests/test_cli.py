import json

import numpy as np
import pytest

from milnor_frames import RandomMetricSpec, sample_metric
from milnor_frames.cli import build_parser, main
from milnor_frames.frame_reduction import format_gram


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reduce_random(capsys):
    code, out, _ = run_cli(
        ["reduce", "--family", "rh2+abelian", "--dim", "4", "--random", "42", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] >= 0.0
    assert payload["k"] > 0.0
    assert len(payload["frame"]) == 16
    assert payload["residuals"]["orthonormality"] < 1e-8
    assert payload["residuals"]["bracket_pattern"] < 1e-8


def test_curvature_closed_form(capsys):
    code, out, _ = run_cli(
        ["curvature", "--family", "rh-line", "--dim", "3", "--lambda", "0", "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["eigenvalues"], [-1.0, -1.0, 0.0], atol=1e-12)
    assert payload["signature"] == [2, 1, 0]


def test_curvature_metric_file(tmp_path, capsys):
    G = sample_metric(RandomMetricSpec(seed=5), 3)
    path = tmp_path / "metric.txt"
    path.write_text(format_gram(G))
    code, out, _ = run_cli(
        ["curvature", "--family", "rh-line", "--dim", "3", "--metric", str(path), "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["eigenvalues"]) == 3


def test_json_round_trip_is_byte_identical(capsys):
    argv = ["solvsoliton", "--family", "rh-line", "--dim", "4", "--random", "9", "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    reemitted = json.dumps(json.loads(out), indent=2, sort_keys=True)
    assert reemitted == out.rstrip("\n")


def test_derivations_output(capsys):
    code, out, _ = run_cli(["derivations", "--family", "rh-line", "--dim", "4"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "dim 8"


def test_signature_sweep_deterministic(capsys):
    argv = [
        "signature-sweep", "--family", "rh2+abelian", "--dim", "4",
        "--samples", "10", "--seed", "3", "--json",
    ]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert sum(bucket["count"] for bucket in payload["histogram"]) == 10


def test_missing_metric_file_exits_1(capsys):
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "4", "--metric", "/no/such/file"],
        capsys,
    )
    assert code == 1
    assert "error" in err


def test_malformed_metric_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n3.0\n")
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "2", "--metric", str(path)], capsys
    )
    assert code == 1


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_metric_exits_1(tmp_path, capsys, bad):
    path = tmp_path / "metric.txt"
    path.write_text(f"1.0 0.0 0.0\n0.0 {bad} 0.0\n0.0 0.0 1.0\n")
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "3", "--metric", str(path)], capsys
    )
    assert code == 1
    assert "finite" in err


def test_dim_mismatch_exits_1(tmp_path, capsys):
    path = tmp_path / "metric.txt"
    path.write_text(format_gram(np.eye(3)))
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "4", "--metric", str(path)], capsys
    )
    assert code == 1
    assert "4" in err


def test_dim_too_small_exits_1(capsys):
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "2", "--random", "1"], capsys
    )
    assert code == 1


def test_bad_flags_exit_1():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["reduce", "--family", "nope", "--dim", "4"])
    assert excinfo.value.code == 1


def test_env_var_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("MILNOR_TOL", "1e-4")
    code, out, _ = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "3", "--random", "2", "--json"], capsys
    )
    assert code == 0

    for bad in ("-1", "inf"):
        monkeypatch.setenv("MILNOR_TOL", bad)
        code, _, err = run_cli(
            ["reduce", "--family", "rh-line", "--dim", "3", "--random", "2"], capsys
        )
        assert code == 1
        assert "positive" in err

    monkeypatch.setenv("MILNOR_TOL", "not-a-number")
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "3", "--random", "2"], capsys
    )
    assert code == 1


def test_numerical_failure_maps_to_exit_2(monkeypatch, capsys):
    from milnor_frames import cli as cli_mod

    def explode(config):
        raise np.linalg.LinAlgError("synthetic breakdown")

    monkeypatch.setitem(cli_mod._DISPATCH, "reduce", explode)
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "3", "--random", "1"], capsys
    )
    assert code == 2
    assert "numerical" in err


def test_eigen_failure_exits_2(monkeypatch, tmp_path, capsys):
    from milnor_frames import curvature

    def fail(a):
        raise np.linalg.LinAlgError("synthetic eigenvalue failure")

    path = tmp_path / "metric.txt"
    path.write_text(format_gram(sample_metric(RandomMetricSpec(seed=5), 5)))
    monkeypatch.setattr(curvature, "jacobi_eigh", fail)
    code, out, err = run_cli(
        ["curvature", "--family", "rh-line", "--dim", "5", "--metric", str(path)], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def test_curvature_text_output(capsys):
    code, out, _ = run_cli(
        ["curvature", "--family", "rh2+abelian", "--dim", "4", "--lambda", "2"], capsys
    )
    assert code == 0
    assert "signature (-,0,+) = (2, 1, 1)" in out


def test_verify_paper_reporting(monkeypatch, capsys):
    # exercise the CLI layer with stubbed results; the real checks run in
    # test_acceptance.py
    from milnor_frames import cli as cli_mod
    from milnor_frames.verify import CriterionResult

    fake = [
        CriterionResult(name="alpha", passed=True, detail="ok", elapsed=0.1),
        CriterionResult(name="beta", passed=False, detail="broken", elapsed=0.2),
    ]
    monkeypatch.setattr(cli_mod.verify_mod, "run_all", lambda: fake)
    code, out, _ = run_cli(["verify-paper"], capsys)
    assert code == 1
    assert "PASS  alpha: ok" in out
    assert "FAIL  beta: broken" in out
    assert "1/2 checks passed" in out

    monkeypatch.setattr(cli_mod.verify_mod, "run_all", lambda: fake[:1])
    code, out, _ = run_cli(["verify-paper", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["name"] == "alpha" and payload[0]["passed"] is True


def test_derivations_over_the_leibniz_cap_exits_1(monkeypatch, capsys):
    from milnor_frames import derivations

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(derivations, "_leibniz_operator", refuse)
    monkeypatch.setattr(derivations, "jacobi_defect", refuse)
    code, out, err = run_cli(["derivations", "--family", "rh-line", "--dim", "100"], capsys)
    assert code == 1
    assert out == ""
    assert "cap" in err


def test_dim_over_the_structure_tensor_cap_exits_1(monkeypatch, capsys):
    from milnor_frames import lie_core

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(lie_core, "_canonical_constants", refuse)
    code, out, err = run_cli(["derivations", "--family", "rh-line", "--dim", "204"], capsys)
    assert code == 1
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["signature-sweep", "--family", "rh-line", "--dim", "4"], 1),
        (["curvature", "--family", "rh2+abelian", "--dim", "4", "--metric", "METRIC"], 1),
        # the closed form builds no Riemann tensor
        (["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "1"], 0),
    ],
    ids=["signature-sweep", "curvature-metric", "curvature-lambda"],
)
def test_riemann_cap_in_the_cli(argv, code, monkeypatch, tmp_path, capsys):
    from milnor_frames import lie_core

    path = tmp_path / "metric.txt"
    path.write_text(format_gram(sample_metric(RandomMetricSpec(seed=5), 4)))
    monkeypatch.setattr(lie_core, "TENSOR_MAX_BYTES", 8 * 4**4 - 1)
    got, out, err = run_cli([str(path) if a == "METRIC" else a for a in argv], capsys)
    assert got == code
    if code:
        assert out == ""
        assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "nan", "--json"],
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "inf"],
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "-1"],
        ["solvsoliton", "--family", "rh-line", "--dim", "4", "--random", "3", "--tol", "nan"],
        ["solvsoliton", "--family", "rh-line", "--dim", "4", "--random", "3", "--tol", "inf"],
        ["signature-sweep", "--family", "rh-line", "--dim", "4", "--samples", "-3"],
    ],
    ids=["lambda-nan", "lambda-inf", "lambda-negative", "tol-nan", "tol-inf", "negative-samples"],
)
def test_malformed_numbers_exit_1(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_overflowing_lambda_exits_2(capsys):
    # λ² overflows to inf inside the closed-form Ricci operator
    code, out, err = run_cli(
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "1e300", "--json"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
