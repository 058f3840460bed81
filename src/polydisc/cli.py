"""Command-line front end.

Every check in the library is reachable from the shell with reproducible
numeric parameters: membership queries, Schwarz-condition suites,
interpolant construction and evaluation, distance reports, geometric
witness generation, forward-oracle sweeps, membership slice rasters (CSV),
and the identity/equivalence regressions.  Each subcommand accepts only
the options its handler reads, the shared ones from the table `_SHARED`.

Complex numbers in JSON are always [re, im] pairs; points are
{"n": int, "coords": [[re, im], ...]}.  Exit codes: 0 success, 1 a
predicate came back false under --assert, 2 malformed input or an option
the subcommand does not take.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import distances, geometry, interpolation, membership, sampling, schwarz
from .errors import DomainError, PolydiscError
from .mobius import CPoint, _array, _band, _count, _dimension, binom

_SETS = ("tilde-g", "tilde-gamma", "g", "gamma", "b-gamma")
_BATCH = 8192  # points per array batch in oracle and plot-slice; bounds memory
_STRATA = ("open", "closed", "torus")  # an oracle shard's sets: G_n, Gamma_n, b Gamma_n


def _parse_point(text: str) -> CPoint:
    """Point from inline JSON, from a file path, or from stdin ("-")."""
    stripped = text.strip()
    if stripped == "-":
        stripped = sys.stdin.read()
    elif not stripped.startswith("{"):
        try:
            with open(stripped) as fh:
                stripped = fh.read()
        except OSError as exc:
            raise DomainError(
                f"--point is neither inline JSON nor a readable file: {exc}"
            ) from None
    return CPoint.from_json(json.loads(stripped))


def _parse_complex(text: str) -> complex:
    parts = [float(p) for p in text.split(",")]
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise ValueError("expected 're' or 're,im'")


def _emit(args, payload: dict | str) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    text += "" if text.endswith("\n") else "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text)


def _refuse_unread(args, what: str, **reads: bool) -> None:
    """DomainError naming each option given on the command line (not None)
    that `what`, a mode of a subcommand, does not read."""
    unread = [f"--{k}" for k, ok in reads.items() if not ok and getattr(args, k) is not None]
    if unread:
        raise DomainError(f"{what} does not read {', '.join(unread)}")


def _cmd_membership(args) -> int:
    _refuse_unread(args, f"membership --set {args.set}", cond=args.set.startswith("tilde"))
    point = _parse_point(args.point)
    cond = "ALL" if args.cond is None else args.cond
    if args.set == "tilde-g":
        rep = membership.in_tilde_g(point, cond=cond, band=args.band)
    elif args.set == "tilde-gamma":
        rep = membership.in_tilde_gamma(point, cond=cond, band=args.band)
    elif args.set == "g":
        rep = membership.in_g(point, band=args.band)
    elif args.set == "gamma":
        rep = membership.in_gamma(point, band=args.band)
    else:
        verdict = membership.in_b_gamma(point, band=args.band)
        _emit(args, {"point": point.to_json(), "set": "b-gamma", "verdict": verdict})
        return 0 if (verdict or not args.assert_) else 1
    _emit(args, rep.to_json())
    return 0 if (rep.verdict or not args.assert_) else 1


def _cmd_schwarz(args) -> int:
    point = _parse_point(args.point)
    problem = schwarz.SchwarzProblem(lambda0=_parse_complex(args.lambda0), target=point)
    conds = range(2, 12) if args.cond == "all" else [int(args.cond)]
    margins = [schwarz.check_condition(problem, c, band=args.band) for c in conds]
    payload = problem.to_json()
    payload["conditions"] = [m.to_json() for m in margins]
    payload["verdict"] = all(m.holds for m in margins)
    _emit(args, payload)
    return 0 if (payload["verdict"] or not args.assert_) else 1


def _cmd_interpolate(args) -> int:
    """Strict mode (the default) reads --lambda0 and --nu; --worked-family
    reads --t and builds the family through its own point and lambda0,
    without --seed; --extremal reads neither --lambda0 nor --nu, its
    lambda0 being max_j D_j of the point."""
    point = _parse_point(args.point)
    built = not args.worked_family
    _refuse_unread(args, "this mode of interpolate", lambda0=not args.extremal,
                   nu=built and not args.extremal, t=args.worked_family, seed=built)
    lam0 = _parse_complex("0.5" if args.lambda0 is None else args.lambda0)
    rng = np.random.default_rng(_or_default(args, "seed"))
    if args.worked_family:
        if point != interpolation.WORKED_FAMILY_TARGET or (
                args.lambda0 is not None and lam0 != interpolation.WORKED_FAMILY_LAMBDA0):
            raise DomainError("--worked-family is the family through (3/2, 3/4, 1/2) at lambda0 = -0.8")
        t = _parse_complex("0" if args.t is None else args.t)
        disc = interpolation.worked_family(interpolation.np2(0.0, 0.3, -0.8, 0.625, t=t))
    elif args.extremal:
        _, disc = interpolation.extremal_disc(point, rng=rng)
    else:
        disc = interpolation.build_interpolant(
            point, lam0, nu=1.0 if args.nu is None else args.nu, rng=rng
        )
    lams = [_parse_complex(text) for text in args.eval or []]
    evaluations = [
        {"lambda": [lam.real, lam.imag], "value": CPoint(tuple(value)).to_json()}
        for lam, value in zip(lams, disc.values(lams))
    ]
    _emit(args, {"disc": disc.to_json(), "evaluations": evaluations})
    return 0


def _cmd_distance(args) -> int:
    point = _parse_point(args.point)
    rep = distances.distance_report(
        point, grid=args.grid, rng=np.random.default_rng(args.seed)
    )
    _emit(args, rep.to_json())
    return 0


def _cmd_witness(args) -> int:
    sep = args.kind == "separating"
    _refuse_unread(args, f"witness --kind {args.kind}", point=sep, seed=sep, samples=sep, n=not sep)
    n = 3 if args.n is None else args.n
    if args.kind == "nonconvex":
        a, b, c = geometry.nonconvex_witness(n)
        payload = {
            "kind": "nonconvex",
            "a": a.to_json(),
            "b": b.to_json(),
            "midpoint": c.to_json(),
            "a_in_closure": True,
            "b_in_closure": True,
            "midpoint_in_closure": False,
        }
    elif args.kind == "noncircular":
        y, iy = geometry.noncircular_witness(n)
        payload = {
            "kind": "noncircular",
            "point": y.to_json(),
            "rotated": iy.to_json(),
            "point_in_closure": True,
            "rotated_in_closure": False,
        }
    else:
        if args.point is None:
            raise DomainError("witness --kind separating needs --point")
        point = _parse_point(args.point)
        poly = geometry.separating_polynomial(
            point, samples=_or_default(args, "samples"),
            rng=np.random.default_rng(_or_default(args, "seed")),
        )
        payload = {"kind": "separating", "polynomial": poly.to_json()}
    _emit(args, payload)
    return 0


def _oracle_planes(n: int, rngs, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The symmetrized planes of the next m draws of each stratum at dimension n.
    The temporaries go at return, before the descents allocate, which lowers
    the chunk's peak heap and so what glibc trims and faults back per chunk."""
    zr, zi = np.empty((2, n, 3 * m))
    for k, z in enumerate((sampling.g_points_disc(n, rngs[0], m, rmax=0.95),
                           sampling.g_points_disc(n, rngs[1], m, rmax=1.0),
                           sampling.torus_points(rngs[2], m, n))):
        zr[:, k * m:(k + 1) * m], zi[:, k * m:(k + 1) * m] = z.real.T, z.imag.T
    sr, si = membership._symmetrize_planes(zr, zi)
    return [(sr[:, k * m:(k + 1) * m], si[:, k * m:(k + 1) * m]) for k in range(len(_STRATA))]


@np.errstate(all="ignore")
def _oracle_chunk(segments, band: float) -> list[tuple[np.ndarray, ...]]:
    """The verdicts (in G_n, Gamma_n, b Gamma_n) of the next m draws of each
    stream of every segment (n, rngs, m), from one open and one closed descent,
    the closed one also taking the truncations of b Gamma_n's residual steps."""
    strata = [_oracle_planes(n, rngs, m) for n, rngs, m in segments]
    steps = [membership._b_gamma_step(*torus, band) for _, _, torus in strata]
    truncations = [t for _, t in steps if t is not None]
    cuts = np.cumsum([m for *_, m in segments] + [t[0].shape[1] for t in truncations])[:-1]
    g = np.split(membership._descent([s[0] for s in strata])[0], cuts[:len(segments) - 1])
    gamma = np.split(membership._descent([s[1] for s in strata] + truncations, band)[0], cuts)
    truncated = iter(gamma[len(segments):])  # in the order of their segments
    for ok, t in steps:
        if t is not None:
            ok[ok] = next(truncated)
    return [(a, b, ok) for a, b, (ok, _) in zip(g, gamma, steps)]


def _oracle_shard(group, band: float = membership.BOUNDARY_BAND) -> list[list[tuple[int, int]]]:
    """(checked, failures) of each of _STRATA for each entry (n, count, seed) of
    group, stratum k drawing from seed + k, at most _BATCH // 3 draws per stratum
    and chunk; each sampler reads its stream in order, so chunking moves no draw."""
    rngs = [[np.random.default_rng(seed + k) for k in range(len(_STRATA))] for _, _, seed in group]
    bad = [[0] * len(_STRATA) for _ in group]
    edges = np.cumsum([0] + [count for _, count, _ in group]).tolist()
    for lo in range(0, edges[-1], _BATCH // 3):
        hi = lo + _BATCH // 3
        segs = [(i, min(hi, e) - max(lo, s)) for i, (s, e) in enumerate(zip(edges, edges[1:])) if s < hi and lo < e]
        chunk = _oracle_chunk([(group[i][0], rngs[i], m) for i, m in segs], band)
        for (i, m), verdicts in zip(segs, chunk):
            bad[i] = [b + m - int(np.count_nonzero(ok)) for b, ok in zip(bad[i], verdicts)]
    return [[(count, b) for b in row] for (_, count, _), row in zip(group, bad)]


def _cmd_oracle(args) -> int:
    dims = [int(d) for d in args.dims.split(",")]
    for n in dims:
        _dimension(n)
    jobs = _count(args.jobs, "jobs", 1, 64)  # the pool forks every worker at its start
    per = max(1, args.samples // (3 * len(dims)))
    tasks = [(n, per, args.seed + 3 * i) for i, n in enumerate(dims)]
    groups = [[] for _ in range(min(jobs, len(tasks)))]
    for t in sorted(tasks, reverse=True):  # largest first, to the least sum of n: time is about linear in n
        min(groups, key=lambda g: sum(n for n, _, _ in g)).append(t)
    work = [sorted(g, key=tasks.index) for g in groups]  # each shard in --dims order
    shard = functools.partial(_oracle_shard, band=args.band)
    if len(work) > 1:
        with ProcessPoolExecutor(max_workers=len(work)) as ex:
            done = list(ex.map(shard, work))
    else:
        done = [shard(work[0])]
    results = dict(zip(sum(work, []), sum(done, [])))
    payload = {"strata": [], "checked": 0, "failures": 0}
    for n, task in zip(dims, tasks):
        for kind, (count, bad) in zip(_STRATA, results[task]):
            payload["strata"].append({"stratum": kind, "n": n, "checked": count, "failures": bad})
            payload["checked"] += count
            payload["failures"] += bad
    _emit(args, payload)
    return 0 if (payload["failures"] == 0 or not args.assert_) else 1


@np.errstate(all="ignore")
def _cmd_plot_slice(args) -> int:
    res = _count(args.resolution, "resolution", 2, 2**11)  # the CSV of res**2 rows is held in memory
    point = membership._pairs_point(_parse_point(args.point))  # the raster's first column is tilde-G_n
    n = point.n
    span = binom(n, 1) + 0.5
    re_lo = args.re_min if args.re_min is not None else -span
    re_hi = args.re_max if args.re_max is not None else span
    im_lo = args.im_min if args.im_min is not None else -span
    im_hi = args.im_max if args.im_max is not None else span
    re_vals = [re_lo + (re_hi - re_lo) * a / (res - 1) for a in range(res)]
    im_vals = [im_lo + (im_hi - im_lo) * b / (res - 1) for b in range(res)]
    _array([re_vals, im_vals], 2, "a batch")  # a window past the double range
    # the cells after re, per im and indexed by 2 * in_tilde_g + in_g
    cells = [[f",{v},{t}" for t in ("0,0", "0,1", "1,0", "1,1")] for v in map(repr, im_vals)]
    fixed = np.array(point.coords[1:])[:, None]
    lines = ["re,im,in_tilde_g,in_g"]
    rows = max(1, _BATCH // res)  # raster rows (fixed re) per batch
    for a0 in range(0, res, rows):
        block = re_vals[a0:a0 + rows]
        re, im = np.empty((2, n, len(block) * res))
        re[0], im[0] = np.repeat(block, res), np.tile(im_vals, len(block))
        re[1:], im[1:] = fixed.real, fixed.imag
        gg, tg = membership._descent([(re, im)])  # tg: the first level's C7 verdict
        codes = (2 * tg + gg).reshape(len(block), res).tolist()
        for re_text, row in zip(map(repr, block), codes):
            lines.extend([re_text + cell[k] for cell, k in zip(cells, row)])
    _emit(args, "\n".join(lines))
    return 0


def _tally(margin_lists) -> dict:
    """Equivalence counts: a list of margins with a boundary slack is skipped;
    any other disagrees unless all its verdicts agree."""
    out = {"checked": 0, "skipped_boundary": 0, "disagreements": 0}
    for margins in margin_lists:
        if any(m.boundary for m in margins):
            out["skipped_boundary"] += 1
            continue
        out["checked"] += 1
        if len({m.holds for m in margins}) != 1:
            out["disagreements"] += 1
    return out


def _cmd_regress(args) -> int:
    rng = np.random.default_rng(args.seed)
    band = args.band
    rep = interpolation.identity_regressions(args.samples, rng=rng)

    def membership_margins():
        for n in (2, 3, 4, 5):
            for _ in range(max(1, args.samples // 4)):
                u = rng.random()
                if u < 0.5:
                    y = sampling.tilde_g_point(n, rng)
                elif u < 0.8:
                    y = sampling.exterior_point(n, rng)
                else:
                    y = sampling.near_boundary_point(n, rng, spread=band)
                yield membership.in_tilde_g(y, cond="ALL", band=band).per_condition
                yield membership.in_tilde_gamma(y, cond="ALL", band=band).per_condition

    def schwarz_margins():
        # 0.1 <= |lambda0| < 0.95, and the target's C7 slack is
        # binom(n, j) (1 - |q|^2) (1 - fill) >= 3 (1 - 0.85^2) 0.15 > 0.12:
        # the problem is never refused
        for n in (3, 4, 5):
            for _ in range(max(1, args.samples // 10)):
                y = sampling.tilde_g_point(n, rng, margin=0.85)
                al = 0.1 + 0.85 * rng.random()
                problem = schwarz.SchwarzProblem(lambda0=al * np.exp(2j * np.pi * rng.random()), target=y)
                yield [schwarz.check_condition(problem, c, band=band)
                       for c in (3, 4, 6, 7, 8, 9, 10, 11)]

    eq = _tally(membership_margins())
    sz = _tally(schwarz_margins())
    payload = {
        "identities": rep,
        "membership_equivalence": eq,
        "schwarz_equivalence": sz,
    }
    _emit(args, payload)
    ok = (
        max(rep["max_rel_err"].values()) < 1e-9
        and eq["disagreements"] == 0
        and sz["disagreements"] == 0
    )
    return 0 if (ok or not args.assert_) else 1


_SHARED = {  # options several subcommands read, by name
    "point": {"required": True, "help": "point JSON"},
    "output": {"default": "-", "help": "output path (default stdout)"},
    "grid": {"type": int, "default": 4096},
    "band": {"type": float, "default": membership.BOUNDARY_BAND},
    "seed": {"type": int, "default": 0},
    "samples": {"type": int, "default": 10000},
    "assert": {"dest": "assert_", "action": "store_true", "help": "exit 1 when the computed verdict is false"},
}


def _or_default(args, name: str):
    """A shared option that only some modes read (parsed with default None):
    its value, or its _SHARED default when not given."""
    value = getattr(args, name)
    return _SHARED[name]["default"] if value is None else value


def _subcommand(subs, name: str, fn, help: str, *shared: str):
    """Subcommand `name`, run by `fn`, with the named options of _SHARED."""
    s = subs.add_parser(name, help=help)
    for opt in shared:
        s.add_argument(f"--{opt}", **_SHARED[opt])
    s.set_defaults(fn=fn)
    return s


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polydisc",
        description="symmetrized-polydisc membership, Schwarz feasibility, "
        "interpolation and invariant distances",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    s = _subcommand(subs, "membership", _cmd_membership, "set membership with condition margins",
                    "point", "output", "band", "assert")
    s.add_argument("--set", choices=_SETS, default="tilde-g")
    s.add_argument("--cond", help="condition id (e.g. C7) or ALL (default; tilde sets only)")

    s = _subcommand(subs, "schwarz", _cmd_schwarz, "two-point Schwarz-lemma conditions",
                    "point", "output", "band", "assert")
    s.add_argument("--lambda0", required=True, help="complex 're,im'")
    s.add_argument("--cond", default="all", help="condition number 2..11 or all")

    s = _subcommand(subs, "interpolate", _cmd_interpolate, "construct and evaluate a disc map",
                    "point", "output", "seed")
    s.set_defaults(seed=None)  # not read by --worked-family: see _or_default
    s.add_argument("--lambda0", help="complex 're,im' (default 0.5)")
    s.add_argument("--nu", type=float, default=None)
    s.add_argument("--eval", action="append", help="lambda to evaluate (repeatable)")
    mode = s.add_mutually_exclusive_group()
    mode.add_argument("--worked-family", action="store_true", help="use the worked two-point family")
    s.add_argument("--t", help="family parameter (complex, default 0)")
    mode.add_argument("--extremal", action="store_true", help="extremal disc on J_n")

    _subcommand(subs, "distance", _cmd_distance, "invariant distance report from 0",
                "point", "output", "grid", "seed")

    s = _subcommand(subs, "witness", _cmd_witness, "geometric witnesses",
                    "output", "seed", "samples")
    s.set_defaults(seed=None, samples=None)  # read by --kind separating only: see _or_default
    s.add_argument("--point", help="point JSON (read by --kind separating)")
    s.add_argument("--kind", choices=("nonconvex", "noncircular", "separating"),
                   default="nonconvex")
    s.add_argument("--n", type=int, help="dimension (default 3; not read by --kind separating)")

    s = _subcommand(subs, "oracle", _cmd_oracle, "forward-oracle soundness sweep",
                    "output", "band", "seed", "samples", "assert")
    s.add_argument("--dims", default="2,3,4,5", help="comma-separated dimensions, each 1..515 (repeats allowed)")
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes, 1..64: the entries are dealt, largest first, into min(jobs, entries) "
                   "shards of about equal sum of n; 1 runs one in-process shard")

    s = _subcommand(subs, "plot-slice", _cmd_plot_slice, "CSV membership raster over y_1",
                    "point", "output")
    s.add_argument("--resolution", type=int, default=101)
    s.add_argument("--re-min", type=float, default=None)
    s.add_argument("--re-max", type=float, default=None)
    s.add_argument("--im-min", type=float, default=None)
    s.add_argument("--im-max", type=float, default=None)

    _subcommand(subs, "regress", _cmd_regress, "identity and equivalence regressions",
                "output", "band", "seed", "samples", "assert")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # None: an option the subcommand does not take, or one a mode reads and was not given
        band, samples = getattr(args, "band", None), getattr(args, "samples", None)
        if band is not None:
            _band(band)
        if samples is not None:
            _count(samples, "samples", 1, 2**24)  # oracle and regress run this many points: a bound on the run
        return args.fn(args)
    except (PolydiscError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
