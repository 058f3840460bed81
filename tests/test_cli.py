import json
import math
import os
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


def test_membership_dimension_past_515_exit_2():
    # a point past the dimension bound is bad input, not a traceback with
    # exit 1 that reads as a false verdict
    for n, code in ((515, 0), (516, 2)):
        point = json.dumps({"n": n, "coords": [[0.1, 0]] + [[0, 0]] * (n - 2) + [[0.05, 0]]})
        got, _, err = run_cli("membership", "--set", "tilde-g", "--cond", "C7", "--point", point)
        assert got == code, err
    assert err.startswith("error:") and "Traceback" not in err


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


# the values each subcommand's parser sets: exactly what its handler reads
SUBCOMMAND_OPTIONS = {
    "membership": {"point", "output", "band", "assert_", "set", "cond"},
    "schwarz": {"point", "output", "band", "assert_", "lambda0", "cond"},
    "interpolate": {"point", "output", "seed", "lambda0", "nu", "eval",
                    "worked_family", "t", "extremal"},
    "distance": {"point", "output", "grid", "seed"},
    "witness": {"point", "output", "seed", "samples", "kind", "n"},
    "oracle": {"output", "band", "seed", "samples", "assert_", "dims", "jobs"},
    "plot-slice": {"point", "output", "resolution", "re_min", "re_max",
                   "im_min", "im_max"},
    "regress": {"output", "band", "seed", "samples", "assert_"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_options_are_the_ones_it_reads(command):
    from polydisc import cli

    (subs,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    dests = {a.dest for a in subs.choices[command]._actions if a.dest != "help"}
    assert dests == SUBCOMMAND_OPTIONS[command]


STRICT_POINT = '{"n":3,"coords":[[0.3,0],[0.2,0],[0.1,0]]}'
HUGE_POINT = '{"n":3,"coords":[[1.7e308,1.7e308],[1,0],[0.1,0]]}'  # |y_1| past the double range


@pytest.mark.parametrize(
    "argv",
    [("membership", "--set", "g", "--point", GAP_POINT, "--grid", "64"),  # not taken
     ("witness", "--kind", "separating"),  # needs --point
     ("witness", "--output", os.path.join(os.devnull, "x.json")),  # unwritable
     # each interpolate mode rejects the options it does not read
     ("interpolate", "--worked-family", "--point", STRICT_POINT, "--lambda0=0.2,0"),
     ("interpolate", "--worked-family", "--point", WORKED_POINT, "--lambda0=0.2,0"),
     ("interpolate", "--worked-family", "--point", WORKED_POINT, "--nu", "2"),
     ("interpolate", "--extremal", "--point", WORKED_POINT, "--lambda0=0.3,0"),
     ("interpolate", "--extremal", "--point", WORKED_POINT, "--nu", "2"),
     ("interpolate", "--extremal", "--point", WORKED_POINT, "--t", "0.2"),
     ("interpolate", "--point", STRICT_POINT, "--lambda0=0.5,0", "--t", "0.2"),
     # a lambda0 whose modulus overflows a double is out of range, not a crash
     ("schwarz", "--point", STRICT_POINT, "--lambda0=1.7e308,1.7e308"),
     ("interpolate", "--point", STRICT_POINT, "--lambda0=1.7e308,1.7e308"),
     ("interpolate", "--worked-family", "--extremal", "--point", WORKED_POINT),
     ("interpolate", "--worked-family", "--point", WORKED_POINT, "--seed", "9"),
     # the builders decide their edges at a fixed band and take none
     ("interpolate", "--point", STRICT_POINT, "--lambda0=0.5,0", "--band", "1e-3"),
     ("distance", "--point", WORKED_POINT, "--band", "1e-3"),
     # a coordinate whose modulus overflows a double is out of range, not a crash
     ("interpolate", "--extremal", "--point", HUGE_POINT),
     ("witness", "--kind", "separating", "--point", HUGE_POINT),
     # each membership set and witness kind rejects the options it does not read
     ("membership", "--set", "g", "--point", GAP_POINT, "--cond", "bogus"),
     ("membership", "--set", "gamma", "--point", GAP_POINT, "--cond", "C7"),
     ("membership", "--set", "b-gamma", "--point", GAP_POINT, "--cond", "ALL"),
     ("witness", "--kind", "separating", "--point", GAP_POINT, "--n", "7"),
     ("witness", "--kind", "nonconvex", "--seed", "3", "--samples", "5"),
     ("witness", "--kind", "noncircular", "--point", GAP_POINT),
     # an open-set raster reads no band
     ("plot-slice", "--point", WORKED_POINT, "--band", "1e-5")],
)
def test_option_misuse_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "error:" in err


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
    # the pool starts the largest dimension first; the strata still follow --dims
    base = ("oracle", "--dims", "2,5,1,2", "--samples", "240", "--seed", "1", "--band", "1e-16")
    _, out1, _ = run_cli(*base, "--jobs", "1")
    _, out2, _ = run_cli(*base, "--jobs", "2")
    assert out1 == out2
    rows = json.loads(out1)["strata"]
    assert [r["n"] for r in rows] == [2] * 3 + [5] * 3 + [1] * 3 + [2] * 3
    assert rows[:3] != rows[9:]  # the repeated dimension draws from its own seeds


@pytest.mark.parametrize("jobs, groups", [
    (2, [[5], [2, 1, 2]]),
    (3, [[5], [1, 2], [2]]),
    (8, [[5], [2], [2], [1]]),
], ids=["jobs-2", "jobs-3", "jobs-8"])
def test_oracle_deals_entries_largest_first_into_groups(monkeypatch, jobs, groups):
    # min(jobs, entries) shards: largest n first, each entry to the shard of
    # least sum of n so far, each shard in --dims order; the report is --jobs 1's
    from polydisc import cli

    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            seen.append([[n for n, _, _ in group] for group in work])
            return map(fn, work)

    argv = ["oracle", "--dims", "2,5,1,2", "--samples", "240", "--seed", "1", "--band", "1e-16"]
    serial = _main(argv + ["--jobs", "1"])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    assert _main(argv + ["--jobs", str(jobs)]) == serial
    assert seen == [len(groups), groups]


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


def test_tally_counts_checked_skipped_and_disagreeing_lists():
    # a decided list disagrees unless all its verdicts agree; a list with a
    # boundary flag is skipped, whatever its verdicts
    from polydisc.cli import _tally
    from polydisc.membership import ConditionMargin

    disagree = [ConditionMargin("C7", True, 0.5, False), ConditionMargin("C9", False, -0.25, False)]
    agree = [ConditionMargin("C7", False, -0.5, False), ConditionMargin("C9", False, -0.25, False)]
    boundary = [ConditionMargin("C7", True, 1e-9, True), ConditionMargin("C9", False, -0.25, False)]
    assert _tally([disagree, agree, boundary]) == {"checked": 2, "skipped_boundary": 1, "disagreements": 1}


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


def test_plot_slice_verdicts_equal_the_two_batch_predicates(capsys):
    # plot-slice reads in_tilde_g off the first level of the in_g descent;
    # every cell must equal the scalar in_tilde_g (C7) and in_g run
    # separately, also on slices whose pinned |q| is 1 or more
    from polydisc import cli
    from polydisc.membership import in_g, in_tilde_g
    from polydisc.mobius import CPoint

    rng = np.random.default_rng(2718)
    res, seen = 15, set()
    for n in range(2, 7):
        for aq in (0.4, 0.95, 1.0, 1.3):
            coords = [math.comb(n, j) * 0.9 * math.sqrt(rng.random())
                      * complex(np.exp(2j * np.pi * rng.random())) for j in range(1, n)]
            coords.append(aq * complex(np.exp(2j * np.pi * rng.random())))
            point = json.dumps({"n": n, "coords": [[c.real, c.imag] for c in coords]})
            assert cli.main(["plot-slice", "--point", point, "--resolution", str(res)]) == 0
            span = n + 0.5
            vals = [-span + (span - -span) * a / (res - 1) for a in range(res)]
            cells = [(re, im) for re in vals for im in vals]
            pts = [CPoint((complex(re, im), *coords[1:])) for re, im in cells]
            tg = [in_tilde_g(p, cond="C7").verdict for p in pts]
            gg = [in_g(p).verdict for p in pts]
            lines = ["re,im,in_tilde_g,in_g"] + [
                f"{re!r},{im!r},{int(t)},{int(g)}" for (re, im), t, g in zip(cells, tg, gg)
            ]
            assert capsys.readouterr().out == "\n".join(lines) + "\n", (n, aq)
            seen.update(zip(tg, gg))
    assert seen == {(False, False), (True, False), (True, True)}


def test_plot_slice_refuses_n_1_naming_the_dimension(monkeypatch):
    # the raster's first column is tilde-G_n, which needs n >= 2: the point
    # is refused with in_tilde_g's message, before the window or the raster
    from polydisc import cli, membership
    from polydisc.errors import DomainError
    from polydisc.mobius import CPoint

    def started(*args, **kwargs):
        raise AssertionError("the raster started")

    monkeypatch.setattr(cli, "binom", started)
    monkeypatch.setattr(membership, "_descent", started)
    with pytest.raises(DomainError) as info:
        membership.in_tilde_g(CPoint((0.3,)))
    for extra in ((), ("--re-min", "-1", "--re-max", "1", "--im-min", "-1", "--im-max", "1")):
        argv = ["plot-slice", "--point", '{"n":1,"coords":[[0.3,0]]}', *extra]
        assert _main(argv) == (2, "", f"error: {info.value}\n")


@pytest.mark.parametrize(
    "extra",
    [("--resolution", "1"), ("--resolution", "0"), ("--resolution", "-3"),
     ("--re-min", "inf"), ("--im-max", "nan"), ("--re-min=-1e308", "--re-max", "1e308")],
)
def test_plot_slice_bad_grid_exit_2(extra):
    code, out, err = run_cli("plot-slice", "--point", WORKED_POINT, *extra)
    assert code == 2 and out == ""
    assert "Traceback" not in err


def _stratum_points(kind, n, count, seed):
    """One oracle stratum's points, drawn one scalar call at a time from its
    own seed and symmetrized."""
    from polydisc import membership, sampling

    rng = np.random.default_rng(seed)
    if kind == "torus":
        draws = [[sampling.torus_point(rng) for _ in range(n)] for _ in range(count)]
    else:
        rmax = 0.95 if kind == "open" else 1.0
        draws = [sampling.g_point_disc(n, rng, rmax=rmax) for _ in range(count)]
    return np.array([membership.symmetrize(z).coords for z in draws])


@pytest.mark.parametrize("batch, count, groups, layout", [
    (None, 70, ((1,), (2,), (5,), (8,)), [[1], [2], [5], [8]]),
    (48, 70, ((1,), (2,), (5,), (8,)), [[1]] * 5 + [[2]] * 5 + [[5]] * 5 + [[8]] * 5),  # 16 draws per chunk
    (None, 8192 // 3 + 1, ((2,),), [[2], [2]]),  # one draw past the first chunk
    (None, 70, ((2, 5, 1, 2),), [[2, 5, 1, 2]]),  # several heights, a repeated n and n = 1
    (150, 70, ((3, 5),), [[3], [3, 5], [5]]),  # 50 draws per chunk: the second straddles two entries
], ids=["one-chunk", "five-chunks", "two-chunks", "mixed-chunk", "straddling-chunk"])
@pytest.mark.parametrize("band", [1e-7, 1e-16], ids=["band-1e-7", "band-1e-16"])  # 1e-16: mixed torus verdicts
def test_oracle_shard_verdicts_match_the_batch_predicates(monkeypatch, batch, count, groups, layout, band):
    # each stratum's points, chunk after chunk, are the scalar draws from its
    # own seed, and its verdict rows are its scalar predicate's on them
    from polydisc import cli, membership
    from polydisc.mobius import CPoint

    if batch is not None:
        monkeypatch.setattr(cli, "_BATCH", batch)
    points, chunks = [], []
    symmetrize_planes, chunk = membership._symmetrize_planes, cli._oracle_chunk

    def recording_planes(zr, zi):
        points.append(symmetrize_planes(zr, zi))
        return points[-1]

    def recording_chunk(segments, band):
        chunks.append((segments, chunk(segments, band)))
        return chunks[-1][1]

    monkeypatch.setattr(membership, "_symmetrize_planes", recording_planes)
    monkeypatch.setattr(cli, "_oracle_chunk", recording_chunk)
    predicates = (lambda s: membership.in_g(s).verdict, lambda s: membership.in_gamma(s, band).verdict,
                  lambda s: membership.in_b_gamma(s, band))
    torus_failures, chunk_dims = [], []
    for dims in groups:
        points.clear()
        chunks.clear()
        group = [(n, count, 40 + 3 * n + 9 * i) for i, n in enumerate(dims)]  # the old per-n seeds at i = 0
        failures = cli._oracle_shard(group, band)
        # one segment per symmetrize pass; an entry's rngs are one list throughout
        segments = [seg for segs, _ in chunks for seg in segs]
        assert len(points) == len(segments) and len(chunks) == -(-count * len(dims) // (cli._BATCH // 3))
        assert all(sum(m for *_, m in segs) <= cli._BATCH // 3 for segs, _ in chunks)
        owners = list(dict.fromkeys(id(rngs) for _, rngs, _ in segments))
        chunk_dims += [[group[owners.index(id(rngs))][0] for _, rngs, _ in segs] for segs, _ in chunks]
        verdicts = [v for _, vs in chunks for v in vs]
        for e, (n, _, seed) in enumerate(group):
            mine = [i for i, (_, rngs, _) in enumerate(segments) if owners.index(id(rngs)) == e]
            assert sum(segments[i][2] for i in mine) == count
            for k, (kind, predicate) in enumerate(zip(cli._STRATA, predicates)):
                ref = _stratum_points(kind, n, count, seed + k)
                got = np.concatenate([(points[i][0][:, k * m:(k + 1) * m] + 1j * points[i][1][:, k * m:(k + 1) * m]).T
                                      for i, m in ((i, segments[i][2]) for i in mine)])
                assert got.tolist() == ref.tolist(), (n, kind)
                rows = np.concatenate([verdicts[i][k] for i in mine])
                assert rows.tolist() == [predicate(CPoint(tuple(s))) for s in ref.tolist()], (n, kind)
                assert failures[e][k] == (count, count - int(np.count_nonzero(rows)))
            torus_failures.append(failures[e][2][1])
    assert chunk_dims == layout  # the n of each segment, chunk by chunk
    if band < 1e-7:
        assert any(0 < f < count for f in torus_failures)


def test_oracle_band_reaches_the_closed_strata(monkeypatch, capsys):
    # per chunk: b Gamma_n's residual step of each entry, then one open descent,
    # which reads no band, and one closed descent, which reads the band
    from polydisc import cli, membership

    calls = []

    def spy(name, band_of):
        fn = getattr(membership, name)

        def wrapped(*args):
            calls.append((name, band_of(*args)))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(membership, "_descent", spy("_descent", lambda pairs, band=None: band))
    monkeypatch.setattr(membership, "_b_gamma_step", spy("_b_gamma_step", lambda re, im, band: band))
    for argv, band in ((["--band", "1e-3"], 1e-3), ([], membership.BOUNDARY_BAND)):
        calls.clear()
        assert cli.main(["oracle", "--dims", "2,3", "--samples", "60", *argv]) == 0
        assert calls[:4] == [("_b_gamma_step", band)] * 2 + [("_descent", None), ("_descent", band)]
        assert {b for _, b in calls} == {None, band}
        assert [b for _, b in calls].count(None) == 1
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


def _main(argv):
    """(exit code, stdout, stderr) of cli.main in process; an argparse error
    is a SystemExit, and any other exception escapes."""
    import contextlib
    import io

    from polydisc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("set_id", ["tilde-gamma", "gamma", "b-gamma"])
def test_membership_closed_sets_print_the_library_payload(set_id):
    # each set prints the library's payload, and --assert exits 1 on a point
    # outside it; b-gamma's verdict is a bare bool, so the CLI builds its payload
    from polydisc import membership
    from polydisc.mobius import CPoint

    torus = '{"n":2,"coords":[[0,0],[-1,0]]}'  # symmetrize((1, -1)), in b Gamma_2
    outside = '{"n":3,"coords":[[4,0],[0,0],[0,0]]}'  # |y_1| > binom(3, 1)
    verdicts = set()
    for point_json in (WORKED_POINT, torus, outside):
        point = CPoint.from_json(json.loads(point_json))
        if set_id == "b-gamma":
            verdict = membership.in_b_gamma(point)
            payload = {"point": point.to_json(), "set": "b-gamma", "verdict": verdict}
        else:
            rep = {"tilde-gamma": membership.in_tilde_gamma, "gamma": membership.in_gamma}[set_id](point)
            payload, verdict = rep.to_json(), rep.verdict
        for assert_ in ((), ("--assert",)):
            got = _main(["membership", "--set", set_id, "--point", point_json, *assert_])
            code = 1 if assert_ and not verdict else 0
            assert got == (code, json.dumps(payload, indent=2) + "\n", ""), (point_json, assert_)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_schwarz_lambda0_of_three_parts_exit_2():
    argv = ["schwarz", "--point", WORKED_POINT, "--lambda0", "1,2,3"]
    assert _main(argv) == (2, "", "error: expected 're' or 're,im'\n")


def test_interpolate_worked_family_takes_its_own_lambda0():
    base = ("interpolate", "--point", WORKED_POINT, "--worked-family", "--t", "0.5", "--eval=0.2,0")
    runs = [_main(base + extra) for extra in ((), ("--lambda0=-0.8,0",), ("--lambda0=-0.8",))]
    assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2]


def test_regress_lets_a_crash_through(monkeypatch):
    # the Schwarz sampler catches nothing: a fault in a draw must surface
    from polydisc import schwarz

    real, calls = schwarz.SchwarzProblem, []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ZeroDivisionError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(schwarz, "SchwarzProblem", flaky)
    with pytest.raises(ZeroDivisionError, match="injected"):
        _main(("regress", "--samples", "20"))
    assert calls == [1]


_FUZZ_VALUES = {  # (valid, invalid) values of every option, sizes capped
    "--point": ([GAP_POINT, WORKED_POINT, STRICT_POINT, '{"n":2,"coords":[[0.5,0.1],[0.2,0]]}',
                 '{"n":4,"coords":[[0,0],[1.5,0.3],[0.5,-0.2],[0.3,0.1]]}',
                 '{"n":3,"coords":[[0,0],[0,0],[0,0]]}'],
                ['{"n":1,"coords":[[0.5,0]]}', '{"n":3}', "not-json", '{"coords":[[1e400,0]]}',
                 '{"coords":[]}', os.path.join(os.devnull, "point.json")]),
    "--output": (["-"], [os.path.join(os.devnull, "out.json")]),
    "--grid": (["8", "64"], ["7", "0", "-5", "x"]),
    "--band": (["1e-7", "1e-3"], ["0", "-1", "0.1", "nan", "inf", "x"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--samples": (["1", "50", "200"], ["0", "-3", "x"]),
    "--set": (["tilde-g", "tilde-gamma", "g", "gamma", "b-gamma"], ["h"]),
    "--cond": (["ALL", "all", "C7", "C10", "5"], ["C99", "12", "x"]),
    "--lambda0": (["0.5", "-0.8,0", "-0.8", "0.3,0.2"], ["0", "1", "2,0", "1,2,3", "nan", "x"]),
    "--nu": (["1", "0.5", "40"], ["0", "-1", "nan", "x"]),
    "--eval": (["0,0", "-0.8,0", "0.3,-0.4"], ["-1.25", "2", "nan", "x"]),
    "--t": (["0", "0.5", "0.3,0.2"], ["2", "x"]),
    "--kind": (["nonconvex", "noncircular", "separating"], ["x"]),
    "--n": (["2", "3", "5"], ["1", "0", "-1", "x"]),
    "--dims": (["2,3", "5", "1"], ["0", "", "2,,3", "x"]),
    "--jobs": (["1", "2"], ["0", "-1", "x"]),
    "--resolution": (["2", "8"], ["1", "0", "-3", "x"]),
    "--re-min": (["-1", "2.5", "-1e308"], ["inf", "nan", "x"]),
    "--re-max": (["1", "-2", "1e308"], ["x"]),
    "--im-min": (["-1", "0"], ["-inf", "x"]),
    "--im-max": (["1", "0.25"], ["nan", "x"]),
}
_FUZZ_FLAGS = ["--assert", "--worked-family", "--extremal", "--bogus"]


def test_extremal_off_the_slice_exits_2_naming_the_slice():
    point = '{"n":4,"coords":[[1.0,0.2],[0.9,0],[0.3,0.1],[0.05,0]]}'
    code, out, err = _main(["interpolate", "--point", point, "--extremal"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "slice J_n" in err


def test_cli_exit_contract_fuzz():
    # any argument vector over the eight subcommands exits 0, 1 or 2, and
    # nothing but argparse's own exit leaves main; options are mostly the
    # subcommand's own, so that most vectors reach its handler
    from hypothesis import example, given, seed, settings
    from hypothesis import strategies as st

    def value(flag):  # a valid value half the time
        valid, invalid = _FUZZ_VALUES[flag]
        return st.one_of(st.sampled_from(valid), st.sampled_from(valid + invalid))

    def option(flags):
        return st.sampled_from(flags).flatmap(
            lambda flag: value(flag).map(lambda v: [f"{flag}={v}"])
            if flag in _FUZZ_VALUES else st.just([flag]))

    def argv(command):
        own = ["--" + d.rstrip("_").replace("_", "-") for d in sorted(SUBCOMMAND_OPTIONS[command])]
        anything = sorted(_FUZZ_VALUES) + _FUZZ_FLAGS
        opts = st.lists(st.one_of(option(own), option(own), option(own), option(anything)), max_size=6)
        return opts.map(lambda o: [command] + [a for pair in o for a in pair])

    codes, plain_witness = [], []

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)).flatmap(argv))
    @example(["membership", f"--point={GAP_POINT}", "--set=g", "--assert"])
    def check(args):
        # the default, 10000, is too slow here; witness reads --samples only
        # for --kind=separating, and its other kinds refuse it
        if (args[0] in ("oracle", "regress") or "--kind=separating" in args) and not any(
                a.startswith("--samples=") for a in args):
            args.append("--samples=40")
        code, _, err = _main(args)
        assert code in (0, 1, 2), (args, code)
        assert "Traceback" not in err
        if code == 2:
            assert "error:" in err, args
        codes.append(code)
        if args[0] == "witness" and "--kind=separating" not in args:
            plain_witness.append(code)

    check()
    assert set(codes) == {0, 1, 2}
    assert 0 in plain_witness  # a nonconvex or noncircular witness ran to the end


@pytest.mark.parametrize("argv, gate", [
    (("membership", "--point", WORKED_POINT, "--band", "0.1"), lambda g: g._band(0.1)),
    (("oracle", "--samples", "0"), lambda g: g._count(0, "samples", 1, 2**24)),
    (("plot-slice", "--point", WORKED_POINT, "--resolution", "1"), lambda g: g._count(1, "resolution", 2, 2**11)),
    (("oracle", "--jobs", "65", "--samples", "3"), lambda g: g._count(65, "jobs", 1, 64)),
], ids=["band", "samples", "resolution", "jobs"])
def test_cli_refusals_are_the_library_gates(monkeypatch, argv, gate):
    # the CLI keeps no range of its own: each refusal is the message of the
    # library gate's DomainError, raised before any shard, pool or raster
    from polydisc import cli, membership, mobius
    from polydisc.errors import DomainError

    def started(*args, **kwargs):
        raise AssertionError("the refused work started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", started)
    monkeypatch.setattr(cli, "_oracle_shard", started)
    monkeypatch.setattr(membership, "_descent", started)
    with pytest.raises(DomainError) as info:
        gate(mobius)
    assert _main(argv) == (2, "", f"error: {info.value}\n")
