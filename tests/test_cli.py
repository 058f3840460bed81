import json
import math
import subprocess
import sys

import numpy as np
import pytest

GAP_POINT = '{"n":3,"coords":[[2.5,0],[1.25,0],[0.5,0]]}'
WORKED_POINT = '{"n":3,"coords":[[1.5,0],[0.75,0],[0.5,0]]}'


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_membership_tilde_g_true():
    code, out, _ = run_cli("membership", "--set", "tilde-g", "--point", GAP_POINT)
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_membership_g_false_with_assert():
    code, out, _ = run_cli(
        "membership", "--set", "g", "--point", GAP_POINT, "--assert"
    )
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_membership_malformed_json_exit_2():
    code, _, err = run_cli("membership", "--set", "g", "--point", '{"n":3}')
    assert code == 2
    assert "coords" in err


def test_membership_point_from_file_and_stdin(tmp_path):
    pf = tmp_path / "point.json"
    pf.write_text(GAP_POINT)
    code, out, _ = run_cli("membership", "--set", "tilde-g", "--point", str(pf))
    assert code == 0 and json.loads(out)["verdict"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", "membership", "--set", "tilde-g",
         "--point", "-"],
        input=GAP_POINT, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


def test_band_validation_exit_2():
    code, _, err = run_cli(
        "membership", "--set", "g", "--point", GAP_POINT, "--band", "0.1"
    )
    assert code == 2 and "band" in err


def test_membership_bad_condition_exit_2():
    code, _, err = run_cli(
        "membership", "--set", "tilde-g", "--point", GAP_POINT, "--cond", "C99"
    )
    assert code == 2


def test_distance_seven_digits():
    code, out, _ = run_cli("distance", "--point", WORKED_POINT, "--grid", "512")
    assert code == 0
    rep = json.loads(out)
    assert f"{rep['closed_form']:.7f}" == "1.0986123"
    assert rep["lempert_upper"] == pytest.approx(math.atanh(0.8), abs=1e-9)


def test_schwarz_all_conditions():
    # the worked point, and a strict point whose S5 comes from K_Z
    for point, lam in ((WORKED_POINT, "--lambda0=-0.8,0"),
                       ('{"n":3,"coords":[[0.3,0],[0.2,0],[0.1,0]]}', "--lambda0=0.5,0")):
        code, out, _ = run_cli("schwarz", "--point", point, lam, "--cond", "all")
        assert code == 0
        rep = json.loads(out)
        assert len(rep["conditions"]) == 10
        assert rep["verdict"] is True


def test_interpolate_worked_family_eval():
    code, out, _ = run_cli(
        "interpolate", "--point", WORKED_POINT, "--worked-family", "--t", "0.5",
        "--eval=-0.8,0", "--eval", "0,0",
    )
    assert code == 0
    rep = json.loads(out)
    target = rep["evaluations"][0]["value"]["coords"]
    assert target[0][0] == pytest.approx(1.5, abs=1e-10)
    assert target[2][0] == pytest.approx(0.5, abs=1e-10)
    origin = rep["evaluations"][1]["value"]["coords"]
    assert max(abs(c[0]) + abs(c[1]) for c in origin) <= 1e-10


def test_interpolate_strict_build():
    point = '{"n":3,"coords":[[1.35,0],[0.675,0],[0.45,0]]}'
    code, out, _ = run_cli(
        "interpolate", "--point", point, "--lambda0=-0.8,0", "--eval=-0.8,0"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["disc"]["kind"] == "matrix_mobius"
    val = rep["evaluations"][0]["value"]["coords"]
    assert val[0][0] == pytest.approx(1.35, abs=1e-9)


def test_interpolate_evaluates_every_eval_point():
    from polydisc.interpolation import DiscFunction

    point = '{"n":3,"coords":[[1.35,0],[0.675,0],[0.45,0]]}'
    lams = ["-0.8,0", "0,0", "0.3,-0.4", "0.1,0.9"]
    code, out, _ = run_cli(
        "interpolate", "--point", point, "--lambda0=-0.8,0", *[f"--eval={t}" for t in lams]
    )
    assert code == 0
    rep = json.loads(out)
    disc = DiscFunction.from_json(rep["disc"])
    assert len(rep["evaluations"]) == len(lams)
    for text, ev in zip(lams, rep["evaluations"]):
        lam = complex(*map(float, text.split(",")))
        assert ev["lambda"] == [lam.real, lam.imag]
        assert ev["value"] == disc(lam).to_json()
    # -1.25 = 1 / conj(lambda0) is the pole of the Blaschke factor
    code, out, err = run_cli(
        "interpolate", "--point", point, "--lambda0=-0.8,0", "--eval=0,0", "--eval=-1.25,0"
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_witness_commands():
    code, out, _ = run_cli("witness", "--kind", "nonconvex", "--n", "4")
    assert code == 0 and json.loads(out)["midpoint_in_closure"] is False
    code, out, _ = run_cli("witness", "--kind", "noncircular", "--n", "3")
    assert code == 0 and json.loads(out)["rotated_in_closure"] is False
    code, out, _ = run_cli(
        "witness", "--kind", "separating",
        "--point", '{"n":3,"coords":[[4,0],[0,0],[0,0]]}',
    )
    rep = json.loads(out)
    assert code == 0 and rep["polynomial"]["value_at_target"] > 1.0


def test_oracle_sweep_clean():
    code, out, _ = run_cli(
        "oracle", "--dims", "2,3", "--samples", "600", "--assert"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0 and rep["checked"] >= 600


def test_oracle_sweep_parallel_matches_serial():
    base = ("oracle", "--dims", "2,3", "--samples", "300", "--seed", "11")
    _, out1, _ = run_cli(*base, "--jobs", "1")
    _, out2, _ = run_cli(*base, "--jobs", "2")
    assert json.loads(out1) == json.loads(out2)


def test_plot_slice_header_and_shape(tmp_path):
    out_file = tmp_path / "slice.csv"
    code, _, _ = run_cli(
        "plot-slice", "--point", WORKED_POINT, "--resolution", "11",
        "--output", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "re,im,in_tilde_g,in_g"
    assert len(lines) == 1 + 11 * 11
    # the raster must contain both inside and outside samples
    cells = {tuple(line.split(",")[2:]) for line in lines[1:]}
    assert ("1", "1") in cells and ("0", "0") in cells


def test_regress_command():
    code, out, _ = run_cli("regress", "--samples", "120", "--assert")
    assert code == 0
    rep = json.loads(out)
    assert max(rep["identities"]["max_rel_err"].values()) < 1e-9
    assert rep["membership_equivalence"]["disagreements"] == 0
    assert rep["schwarz_equivalence"]["disagreements"] == 0


def test_determinism_byte_identical():
    args = ("distance", "--point", WORKED_POINT, "--grid", "256", "--seed", "7")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_report_round_trips_through_own_schema():
    from polydisc.membership import in_tilde_g
    from polydisc.mobius import CPoint

    code, out, _ = run_cli("membership", "--set", "tilde-g", "--point", GAP_POINT)
    rep = json.loads(out)
    point = CPoint.from_json(rep["point"])
    again = in_tilde_g(point).to_json()
    assert again == rep


def _scalar_slice(point_json, res, re_lo, re_hi, im_lo, im_hi):
    """The plot-slice raster computed point by point through the scalar
    predicates, as the CSV reports it."""
    from polydisc.membership import in_g, in_tilde_g
    from polydisc.mobius import CPoint

    point = CPoint.from_json(json.loads(point_json))
    lines = ["re,im,in_tilde_g,in_g"]
    for a in range(res):
        re = re_lo + (re_hi - re_lo) * a / (res - 1)
        for b in range(res):
            im = im_lo + (im_hi - im_lo) * b / (res - 1)
            probe = CPoint((complex(re, im),) + point.coords[1:])
            tg = in_tilde_g(probe, cond="C7").verdict
            gg = in_g(probe).verdict if tg else False
            lines.append(f"{re!r},{im!r},{int(tg)},{int(gg)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "point, window",
    [
        (WORKED_POINT, None),
        ('{"n":4,"coords":[[0,0],[1.5,0.3],[0.5,-0.2],[0.3,0.1]]}', (-2.0, 3.5, -1.0, 0.25)),
    ],
)
def test_plot_slice_matches_scalar_replay(point, window):
    res = 23
    args = ["plot-slice", "--point", point, "--resolution", str(res)]
    if window is None:
        span = json.loads(point)["n"] + 0.5
        window = (-span, span, -span, span)
    else:
        for flag, v in zip(("--re-min", "--re-max", "--im-min", "--im-max"), window):
            args.append(f"{flag}={v!r}")
    code, out, _ = run_cli(*args)
    assert code == 0
    assert out == _scalar_slice(point, res, *window)


@pytest.mark.parametrize(
    "extra",
    [("--resolution", "1"), ("--resolution", "0"), ("--resolution", "-3"),
     ("--re-min", "inf"), ("--im-max", "nan"), ("--re-min=-1e308", "--re-max", "1e308")],
)
def test_plot_slice_bad_grid_exit_2(extra):
    code, out, err = run_cli("plot-slice", "--point", WORKED_POINT, *extra)
    assert code == 2 and out == ""
    assert "Traceback" not in err


def test_oracle_shard_points_match_scalar_draws(monkeypatch):
    from polydisc import cli, membership, sampling

    seen = []

    def recording(fn):
        return lambda s, *args: seen.append(s) or fn(s, *args)

    for name in ("in_g_batch", "in_gamma_batch", "in_b_gamma_batch"):
        monkeypatch.setattr(membership, name, recording(getattr(membership, name)))
    for n in (1, 2, 5, 8):
        for seed, kind in enumerate(("open", "closed", "torus")):
            seen.clear()
            assert cli._oracle_shard((kind, n, 70, seed)) == (70, 0)
            rng = np.random.default_rng(seed)
            if kind == "torus":
                draws = [[sampling.torus_point(rng) for _ in range(n)] for _ in range(70)]
            else:
                rmax = 0.95 if kind == "open" else 1.0
                draws = [sampling.g_point_disc(n, rng, rmax=rmax) for _ in range(70)]
            ref = [list(membership.symmetrize(z).coords) for z in draws]
            assert seen[0].tolist() == ref  # the shard's first predicate call


def test_oracle_band_reaches_predicates(monkeypatch, capsys):
    from polydisc import cli, membership

    bands = []

    def spy(fn):
        def wrapped(s, band=membership.BOUNDARY_BAND):
            bands.append(band)
            return fn(s, band)
        return wrapped

    for name in ("in_g_batch", "in_gamma_batch", "in_b_gamma_batch"):
        monkeypatch.setattr(membership, name, spy(getattr(membership, name)))
    assert cli.main(["oracle", "--dims", "2,3", "--samples", "60", "--band", "1e-3"]) == 0
    assert len(bands) >= 6 and set(bands) == {1e-3}  # the descents recurse
    bands.clear()
    assert cli.main(["oracle", "--dims", "2,3", "--samples", "60"]) == 0
    assert len(bands) >= 6 and set(bands) == {membership.BOUNDARY_BAND}
    capsys.readouterr()


@pytest.mark.parametrize(
    "point",
    ['{"coords":5}', '[["a",0]]', "not-json", '{"coords":[["a",0]]}',
     '{"coords":[[1,2,3]]}', '[1,2]', '{"coords":[[1e400,0]]}'],
)
def test_malformed_point_exit_2(point):
    code, out, err = run_cli("membership", "--set", "g", "--point", point)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("error:")


def _readme_commands():
    """(argv, exit code) for every `polydisc ...` line of the README's sh
    blocks, backslash continuations joined; the code is 0 unless the line
    ends in a `# exits N` comment."""
    import re
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cmds = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["polydisc"]:
                code = re.search(r"#\s*exits (\d)", line)
                cmds.append((argv[1:], int(code.group(1)) if code else 0))
    return cmds


def test_readme_has_cli_commands():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize(
    "argv, code", _readme_commands(), ids=lambda a: a[0] if isinstance(a, list) else str(a)
)
def test_readme_command_exit_code(argv, code, tmp_path, capsys):
    from polydisc import cli

    argv = list(argv)
    if "--output" in argv:
        k = argv.index("--output") + 1
        argv[k] = str(tmp_path / argv[k])
    assert cli.main(argv) == code
    capsys.readouterr()
