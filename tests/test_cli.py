import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import milnor_frames
from milnor_frames import RandomMetricSpec, build_family, derivation_basis, sample_metric
from milnor_frames.cli import build_parser, main
from milnor_frames.derivations import family_derivation_basis


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
    np.savetxt(path, G, fmt="%.17g")
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


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_derivations_prints_the_closed_form(family, n, capsys):
    code, out, _ = run_cli(["derivations", "--family", family, "--dim", str(n), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    closed = family_derivation_basis(n).mats
    assert payload["dim"] == len(closed) == (n - 2) ** 2 + n and payload["n"] == n
    printed = np.array(payload["basis"]).reshape(-1, n, n)
    assert np.array_equal(printed, closed)
    # the same space as the Leibniz null space: equal orthogonal projectors
    svd = derivation_basis(build_family(family, n)).mats.reshape(-1, n * n)
    flat = printed.reshape(-1, n * n)
    assert np.max(np.abs(flat.T @ flat - svd.T @ svd)) <= 1e-12


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
    np.savetxt(path, np.eye(3), fmt="%.17g")
    code, _, err = run_cli(
        ["reduce", "--family", "rh-line", "--dim", "4", "--metric", str(path)], capsys
    )
    assert code == 1
    assert "4" in err


@pytest.mark.parametrize("gram", [np.eye(3), -np.eye(3)], ids=["identity", "not-pd"])
@pytest.mark.parametrize("command", ["reduce", "solvsoliton", "curvature"])
def test_dim_mismatch_names_both_sizes(command, gram, tmp_path, capsys):
    # the size is checked before definiteness
    path = tmp_path / "metric.txt"
    np.savetxt(path, gram, fmt="%.17g")
    code, _, err = run_cli(
        [command, "--family", "rh-line", "--dim", "4", "--metric", str(path)], capsys
    )
    assert code == 1
    assert "Gram matrix is 3x3, algebra has dim 4" in err


@pytest.mark.parametrize("command", ["reduce", "curvature", "solvsoliton"])
def test_metric_file_is_factored_once(command, monkeypatch, tmp_path, capsys):
    # parse_gram only parses; the subcommand's Gram gate factors the file once
    path = tmp_path / "metric.txt"
    np.savetxt(path, sample_metric(RandomMetricSpec(seed=5), 5), fmt="%.17g")
    calls = []
    real = np.linalg.cholesky

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    code, _, _ = run_cli([command, "--family", "rh-line", "--dim", "5", "--metric", str(path)], capsys)
    assert code == 0
    assert len(calls) == 1


SINGULAR_GRAM_TEXT = """\
3209694336958.66 -454890.25341743167 470758.3931189687 -1728606.6272946296
-454890.25341743167 1.09 -0.06671755901985943 0.24498490654414226
470758.3931189687 -0.06671755901985943 0.06904503713718232 -0.25353070815130646
-1728606.6272946296 0.24498490654414226 -0.25353070815130646 0.9309549627584728
"""


@pytest.mark.parametrize("command", ["reduce", "solvsoliton", "curvature"])
def test_singular_gram_exits_1_naming_the_gram_matrix(command, tmp_path, capsys):
    # positive definite to Cholesky, but its factor has s_min / s_max = 2.8e-13
    path = tmp_path / "metric.txt"
    path.write_text(SINGULAR_GRAM_TEXT)
    code, _, err = run_cli(
        [command, "--family", "rh-line", "--dim", "4", "--metric", str(path)], capsys
    )
    assert code == 1
    assert "Gram matrix is singular" in err


@pytest.mark.parametrize(
    "argv",
    [["reduce", "--random", "1"], ["derivations"]],
    ids=["reduce", "derivations"],
)
def test_dim_too_small_exits_1(argv, capsys):
    code, out, err = run_cli(argv + ["--family", "rh-line", "--dim", "2"], capsys)
    assert code == 1
    assert out == ""
    assert "n >= 3" in err


def test_bad_flags_exit_1():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["reduce", "--family", "nope", "--dim", "4"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--family", "rh-line", "--dim", "4", "--random", "3"],
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "1"],
        ["derivations", "--family", "rh-line", "--dim", "4"],
        ["signature-sweep", "--family", "rh-line", "--dim", "4"],
    ],
    ids=["reduce", "curvature", "derivations", "signature-sweep"],
)
def test_tol_is_a_solvsoliton_flag_only(argv, capsys):
    # no other subcommand reads a tolerance, so none accepts one
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--tol", "1e-3"])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "-1", "not-a-number"])
def test_the_environment_sets_no_tolerance(bad, monkeypatch, capsys):
    argv = ["solvsoliton", "--family", "rh-line", "--dim", "4", "--random", "3", "--json"]
    want = run_cli(argv, capsys)
    monkeypatch.setenv("MILNOR_TOL", bad)
    assert run_cli(argv, capsys) == want
    assert want[0] == 0


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
    np.savetxt(path, sample_metric(RandomMetricSpec(seed=5), 5), fmt="%.17g")
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


@pytest.mark.parametrize("n", [25, 100])
def test_derivations_over_the_printed_basis_cap_exits_1(n, monkeypatch, capsys):
    from milnor_frames import cli as cli_mod
    from milnor_frames import derivations

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(cli_mod, "family_derivation_basis", refuse)
    monkeypatch.setattr(derivations, "_leibniz_gram", refuse)
    code, out, err = run_cli(["derivations", "--family", "rh-line", "--dim", str(n)], capsys)
    assert code == 1
    assert out == ""
    assert "cap" in err


def test_reader_closing_the_pipe_early_exits_0_quietly():
    # `derivations ... --json | head -c 10`: 3.2 MB of JSON into a pipe
    # whose reader leaves after 10 bytes
    env = dict(os.environ, PYTHONPATH=str(Path(milnor_frames.__file__).parents[1]))
    cmd = ["derivations", "--family", "rh-line", "--dim", "24", "--json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "milnor_frames.cli", *cmd],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "basis'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_dim_over_the_structure_tensor_cap_exits_1(monkeypatch, capsys):
    from milnor_frames import lie_core

    def refuse(*_):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(lie_core, "_almost_abelian_constants", refuse)
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
    np.savetxt(path, sample_metric(RandomMetricSpec(seed=5), 4), fmt="%.17g")
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


@pytest.mark.parametrize("lam", ["0", "1e-5", "1", "1e5"])
@pytest.mark.parametrize("family", ["rh2+abelian", "rh-line"])
def test_curvature_lambda_prints_the_dichotomy_member(family, lam, capsys):
    want = {"rh2+abelian": ([2, 2, 0], [2, 1, 1]), "rh-line": ([3, 1, 0], [3, 0, 1])}[family][float(lam) > 0]
    code, out, _ = run_cli(["curvature", "--family", family, "--dim", "4", "--lambda", lam, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["signature"] == want
    code, out, _ = run_cli(["curvature", "--family", family, "--dim", "4", "--lambda", lam], capsys)
    assert code == 0
    assert f"signature (-,0,+) = ({want[0]}, {want[1]}, {want[2]})" in out


def test_overflowing_lambda_exits_2(capsys):
    # λ² overflows to inf inside the closed-form Ricci operator
    code, out, err = run_cli(
        ["curvature", "--family", "rh-line", "--dim", "4", "--lambda", "1e300", "--json"], capsys
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")


def _strict_json(text):
    # RFC 8259 has no NaN or Infinity; json.loads would accept both
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("s", [1e-320, 1e-315, 5e-309, 3e-308, 1e-300, 1e300, 1e308])
def test_gram_gate_holds_at_both_ends_of_the_float_range(s, tmp_path, capsys):
    # G = s I: symmetric and definite at every s; only k = g_11^2 = 1/s can overflow
    path = tmp_path / "metric.txt"
    np.savetxt(path, s * np.eye(4), fmt="%.17g")
    argv = ["--family", "rh-line", "--dim", "4", "--metric", str(path), "--json"]
    code, out, err = run_cli(["reduce", *argv], capsys)
    if s <= 5e-309:
        assert code == 2 and out == "" and err.startswith("numerical failure:")
    else:
        assert code == 0
        payload = _strict_json(out)
        assert payload["lambda"] == 0.0 and payload["residuals"]["orthonormality"] < 1e-12
    code, out, _ = run_cli(["solvsoliton", *argv], capsys)
    assert code == 0
    assert _strict_json(out)["lambda"] == 0.0
    # Ric = diag(-2, 0, -2, -2) / s: the trace -6/s overflows below s = 3.3e-308,
    # the entries below 1.1e-308, and either is refused in one line
    code, out, err = run_cli(["curvature", *argv], capsys)
    if s <= 3e-308:
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("numerical failure:")
    else:
        assert code == 0
        assert _strict_json(out)["signature"] == [3, 1, 0]
