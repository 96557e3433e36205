import json
from pathlib import Path

import pytest

from deltaprime import asymptotic_coeffs, finite_coeffs, builtin_profile, moments, study
from deltaprime.cli import render, run

from oracles import step_boundary_data

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "table6_golden.txt"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_zero_table(capsys):
    code, out, _ = invoke(capsys, "moments", "--builtin", "zero")
    assert code == 0
    assert out == "m0=0 m1=0\n"


def test_moments_seba_json(capsys):
    code, out, _ = invoke(capsys, "moments", "--builtin", "seba-quadratic", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m0": 0.0, "m1": -1.0}


def test_moments_csv_full_precision(capsys):
    code, out, _ = invoke(capsys, "moments", "--builtin", "step", "--format", "csv")
    assert code == 0
    assert out == "m0,m1\n0.0,-1.0\n"


def test_table6_matches_golden(capsys):
    code, out, _ = invoke(capsys, "table6")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_sampled_resonances_match_golden(capsys):
    # seba-quadratic sampled at 201 uniform nodes pins the sampled path end to end
    code, out, _ = invoke(
        capsys, "resonances", "--profile", str(DATA / "seba_sampled_201.json"),
        "--alpha-min", "0", "--alpha-max", "60",
    )
    assert code == 0
    assert out == (DATA / "seba_sampled_201_resonances_golden.txt").read_text()


def test_wide_d2_0_resonances_match_golden(capsys):
    # 28 roots over 4,001 scan points, most of them predicted by Chebyshev
    # interpolants of g: the output equals a wholly tight scan's to the last digit
    code, out, _ = invoke(
        capsys, "resonances", "--profile", str(DATA / "d2_0.json"),
        "--alpha-min", "-1000", "--alpha-max", "1000", "--format", "csv",
    )
    assert code == 0
    assert out == (DATA / "d2_0_wide.csv").read_text()


def test_wide_d1_0_resonances_match_golden(capsys):
    # 23 roots; the one at -702.4113852728974 fails the root gate on Brent's
    # first bracket and is closed to adjacent doubles
    code, out, _ = invoke(
        capsys, "resonances", "--profile", str(DATA / "d1_0.json"),
        "--alpha-min", "-1000", "--alpha-max", "1000", "--format", "csv",
    )
    assert code == 0
    assert out == (DATA / "d1_0_wide.csv").read_text()


def test_wide_seba_resonances_match_golden(capsys):
    # 19 roots; the predicted scan shoots batches of 132 and 36 alphas here,
    # next to Brent's single shoots
    code, out, _ = invoke(
        capsys, "resonances", "--builtin", "seba-quadratic",
        "--alpha-min", "-1000", "--alpha-max", "1000", "--format", "csv",
    )
    assert code == 0
    assert out == (DATA / "seba_wide.csv").read_text()


def test_converge_matches_golden(capsys):
    code, out, _ = invoke(capsys, "converge", "--builtin", "seba-quadratic", "--alpha", "18.1746")
    assert code == 0
    assert out == (DATA / "converge_seba_golden.txt").read_text()


def test_converge_dirichlet_pair_matches_golden(capsys):
    # alpha = 10 is non-resonant: pins the Dirichlet-pair limit path end to end
    code, out, _ = invoke(capsys, "converge", "--builtin", "seba-quadratic", "--alpha", "10")
    assert code == 0
    assert out == (DATA / "converge_seba_10_golden.txt").read_text()


def test_byte_identical_reruns(capsys):
    args = ("resonances", "--builtin", "step", "--alpha-min", "-20",
            "--alpha-max", "20", "--format", "csv")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_byte_identical_reruns(capsys):
    args = ("scatter-eps", "--builtin", "seba-quadratic", "--alpha", "5.0",
            "--eps", "0.01", "--format", "json")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_scatter_eps_json_roundtrip(capsys):
    code, out, _ = invoke(
        capsys, "scatter-eps", "--builtin", "seba-quadratic",
        "--alpha", "18.1747", "--k", "1.0", "--eps", "0.001", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"R_re", "R_im", "T_re", "T_im", "T2", "regime"}
    c = finite_coeffs(builtin_profile("seba-quadratic"), 18.1747, 1.0, 0.001)
    assert data["R_re"] == c.R.real and data["R_im"] == c.R.imag
    assert data["T_re"] == c.T.real and data["T_im"] == c.T.imag
    assert data["regime"] == "finite-eps"


def test_theta_subcommand(capsys):
    code, out, _ = invoke(capsys, "theta", "--builtin", "seba-quadratic", "--alpha", "18.1747")
    assert code == 0
    assert out.startswith("alpha=18.1747 theta=-54.937")


def test_theta_and_scatter_limit_agree_within_tol_of_zero(capsys):
    code, out, _ = invoke(capsys, "theta", "--builtin", "seba-quadratic", "--alpha", "0.0005")
    assert code == 0
    assert out.startswith("alpha=0.0005 theta=1.0005")
    code, out, _ = invoke(
        capsys, "scatter-limit", "--builtin", "seba-quadratic",
        "--alpha", "0.0005", "--tol", "1e-3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["T2"] == 1.0


def test_scatter_limit_tight_tol_is_opaque(capsys):
    code, out, _ = invoke(
        capsys, "scatter-limit", "--builtin", "seba-quadratic",
        "--alpha", "18.1747", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["R_re"] == -1.0 and data["T2"] == 0.0


def test_scatter_limit_loose_tol_transmits(capsys):
    code, out, _ = invoke(
        capsys, "scatter-limit", "--builtin", "seba-quadratic",
        "--alpha", "18.1747", "--tol", "1e-3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["T2"] == pytest.approx(0.00132, rel=0.01)


def test_scatter_limit_takes_the_nearest_root(capsys):
    # [-0.5, 19.5] holds alpha = 0 and the root 18.1746, which is nearer 9.5
    code, out, _ = invoke(
        capsys, "scatter-limit", "--builtin", "seba-quadratic", "--alpha", "9.5", "--tol", "10",
    )
    assert code == 0
    assert "T2=0.00132444 " in out


def test_mirror_flag_reflects_profile(capsys):
    code, out, _ = invoke(capsys, "moments", "--builtin", "step", "--mirror", "--format", "csv")
    assert code == 0
    assert out == "m0,m1\n0.0,1.0\n"


def test_profile_file_source(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(
        '{"segments": [{"a": -1.0, "b": 0.0, "coeffs": [0.0, -6.0, -6.0]},'
        ' {"a": 0.0, "b": 1.0, "coeffs": [0.0, -6.0, 6.0]}]}'
    )
    code, out, _ = invoke(capsys, "moments", "--profile", str(path), "--format", "csv")
    assert code == 0
    assert out == "m0,m1\n0.0,-1.0\n"


def test_resonances_step_rows(capsys):
    code, out, _ = invoke(
        capsys, "resonances", "--builtin", "step",
        "--alpha-min", "-20", "--alpha-max", "20", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "alpha,theta,residual,bracket_lo,bracket_hi"
    alphas = [float(r.split(",")[0]) for r in rows[1:]]
    assert alphas == pytest.approx([-15.4182057, 0.0, 15.4182057], abs=1e-6)


def test_converge_csv_rows(capsys):
    code, out, _ = invoke(
        capsys, "converge", "--builtin", "seba-quadratic", "--alpha", "10.0",
        "--eps-list", "0.2,0.1", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "eps,error"
    assert len(rows) == 3


def test_converge_json_summary(capsys):
    code, out, _ = invoke(
        capsys, "converge", "--builtin", "seba-quadratic", "--alpha", "10.0",
        "--eps-list", "0.2,0.1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"entries", "fitted_rate", "limit_kind", "theta"}
    assert data["limit_kind"] == "non-resonant"
    assert data["theta"] is None


def test_converge_table_lines(capsys):
    code, out, _ = invoke(
        capsys, "converge", "--builtin", "seba-quadratic", "--alpha", "18.1747",
        "--eps-list", "0.2,0.1",
    )
    assert code == 0
    rep = study(builtin_profile("seba-quadratic"), 18.1747, (0.2, 0.1))
    lines = out.splitlines()
    assert lines[0].split() == ["eps", "error"]
    assert [line.split() for line in lines[1:3]] == [
        [f"{eps:.6g}", f"{err:.6g}"] for eps, err in rep.entries
    ]
    assert lines[3:] == [
        f"fitted_rate={rep.fitted_rate:.6g}",
        "limit_kind=resonant",
        f"theta={rep.theta:.6g}",
    ]


def test_scatter_asymptotic_json(capsys):
    code, out, _ = invoke(
        capsys, "scatter-asymptotic", "--builtin", "seba-quadratic",
        "--alpha", "18.1747", "--k", "2.0", "--eps", "0.01", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    c = asymptotic_coeffs(builtin_profile("seba-quadratic"), 18.1747, 0.02)
    assert (data["R_re"], data["R_im"]) == (c.R.real, c.R.imag)
    assert (data["T_re"], data["T_im"]) == (c.T.real, c.T.imag)
    assert data["regime"] == "asymptotic"


def test_shoot_csv_matches_closed_form(capsys):
    code, out, _ = invoke(
        capsys, "shoot", "--builtin", "step", "--alpha", "2.0", "--kappa2", "0.5",
        "--format", "csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "u1,du1,v1,dv1,wronskian_defect"
    values = [float(v) for v in row.split(",")]
    assert values[:4] == pytest.approx(step_boundary_data(2.0, 0.5), rel=1e-8)
    assert values[4] < 1e-12


@pytest.mark.parametrize(
    "argv,message",
    [
        (("shoot", "--builtin", "step", "--alpha", "nan"), "expected a finite number"),
        (
            ("converge", "--builtin", "seba-quadratic", "--alpha", "10.0",
             "--eps-list", "0.2,x"),
            "expected comma-separated numbers",
        ),
        # g(1e-4) ~ 1e-8 is small, but no root lies within 1e-8 of 1e-4
        (("theta", "--builtin", "seba-quadratic", "--alpha", "1e-4", "--tol", "1e-8"),
         "has no root within"),
        # the zero profile's only root is alpha = 0
        (("theta", "--builtin", "zero", "--alpha", "5"), "has no root within"),
        # refused before a 4e15-cell scan grid is built
        (("resonances", "--builtin", "seba-quadratic", "--alpha-min=-1e15", "--alpha-max=1e15"),
         "exceeds"),
        # refused before a 5e12-node study grid is built
        (("converge", "--builtin", "seba-quadratic", "--alpha", "10", "--eps-list", "0.2,1e-9"),
         "exceeds MAX_GRID_NODES"),
    ],
    ids=["finite-float", "eps-list", "theta-near-zero", "theta-zero-profile", "oversize-scan",
         "oversize-grid"],
)
def test_argument_rejections_exit_2(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_numerical_failure_exit_code(capsys):
    code, out, err = invoke(capsys, "shoot", "--builtin", "step", "--alpha", "1e9")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_step_cap_exit_code(capsys):
    code, out, err = invoke(capsys, "shoot", "--builtin", "seba-quadratic", "--alpha", "1e12")
    assert code == 3
    assert out == ""
    assert "steps" in err


def test_invalid_input_exit_code(capsys):
    code, _, err = invoke(capsys, "moments", "--builtin", "gaussian")
    assert code == 2
    assert "unknown profile name" in err


@pytest.mark.parametrize(
    "content, message",
    [(b'{"segments": [\xff]}', "'utf-8' codec"), (b"[" * 200_000, "maximum recursion depth")],
    ids=["not-utf8", "deep"],
)
def test_malformed_profile_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "p.json"
    path.write_bytes(content)
    code, _, err = invoke(capsys, "moments", "--profile", str(path))
    assert code == 2
    assert f"profile file {path}: invalid JSON ({message}" in err


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_render_rejects_unknown_format():
    from deltaprime import InvalidInputError

    with pytest.raises(InvalidInputError):
        render({"a": 1.0}, "yaml")


def test_render_moments_direct():
    m = moments(builtin_profile("step"))
    assert render(m, "table") == "m0=0 m1=-1"
    assert render(m, "csv") == "m0,m1\n0.0,-1.0"
    assert json.loads(render(m, "json")) == {"m0": 0.0, "m1": -1.0}


def test_resonances_step_root_where_u1_rounds_to_zero(capsys):
    code, out, _ = invoke(
        capsys, "resonances", "--builtin", "step",
        "--alpha-min", "-390", "--alpha-max", "-380", "--format", "csv",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 2
    assert float(rows[1].split(",")[1]) == pytest.approx(4.199163514713174e-09, rel=1e-10)
