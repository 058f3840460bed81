"""The four benchmark workloads.

Each workload draws its inputs from a seeded numpy Generator through
polydisc.sampling (outside the timed region), makes one timed call per
input through the public API, and checks the call's outputs afterwards
(untimed).  `run` is the timed call; `check` returns failure tags:
an exception type name for anything other than PolydiscError, "exit:<rc>"
for a CLI call that exits non-zero, "check:refused:<type>" for a
PolydiscError on an input drawn to be valid, and "check:<what>" for an
output that fails its reference check.  Every call into the package goes through
`tr.call(<span name>, ...)`, which records a span only in the traced run.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from polydisc import cli, clinalg, distances, geometry, interpolation, membership
from polydisc import mobius, sampling, schwarz
from polydisc.errors import PolydiscError
from polydisc.mobius import CPoint, binom
from tracer import Tracer

I2 = np.eye(2)


def _try(tr, name, fn, *args, **kwargs):
    """tr.call that returns the exception instead of raising it."""
    try:
        return tr.call(name, fn, *args, **kwargs)
    except Exception as exc:  # recorded by type, the run goes on
        return exc


# ---------------------------------------------------------------------------
# membership_reports
# ---------------------------------------------------------------------------

_STRATA = ("interior", "exterior", "near", "sym_g", "torus")
WIDE_POINTS = 200  # wide-magnitude points per run, checked outside the timed loop
_REPORT_CALLS = (
    ("tg", "membership.in_tilde_g_all", membership.in_tilde_g, {"cond": "ALL"}),
    ("tgam", "membership.in_tilde_gamma_all", membership.in_tilde_gamma, {"cond": "ALL"}),
    ("g", "membership.in_g", membership.in_g, {}),
    ("gam", "membership.in_gamma", membership.in_gamma, {}),
    ("bg", "membership.in_b_gamma", membership.in_b_gamma, {}),
)


def _reports_json(reports) -> list[str]:
    return [json.dumps(r.to_json()) for r in reports]


@dataclass(frozen=True)
class MemberInput:
    stratum: str
    point: CPoint


def _wide_point(n: int, rng: np.random.Generator) -> CPoint:
    """Coordinates with log-uniform magnitudes over the finite doubles."""
    mags = 10.0 ** rng.uniform(-307.0, 308.0, n)
    phases = np.exp(2j * math.pi * rng.random(n))
    return CPoint(tuple(complex(m * p) for m, p in zip(mags, phases)))


def _wide_truth(y: CPoint) -> bool | None:
    """True: every |coord| <= 1e-3, so every root of the polynomial is
    below 2 * 1e-3 ** (1/8) < 1 (Fujiwara) and y lies in G_n.  False: a
    coordinate exceeds its bound |y_j| <= binom(n, j), |q| <= 1 on the
    closure.  None: neither, no verdict is checked."""
    n = y.n
    if max(abs(c) for c in y.coords) <= 1e-3:
        return True
    if abs(y.q) > 1.0 or any(abs(y.y(j)) > binom(n, j) for j in range(1, n)):
        return False
    return None


class MembershipReports:
    """Explainable single-point queries through the five predicates."""

    name = "membership_reports"

    def inputs(self, rng):
        while True:
            n = int(rng.integers(2, 9))
            stratum = _STRATA[int(rng.integers(0, len(_STRATA)))]
            if stratum == "interior":
                y = sampling.tilde_g_point(n, rng)
            elif stratum == "exterior":
                y = sampling.exterior_point(n, rng)
            elif stratum == "near":
                y = sampling.near_boundary_point(n, rng, spread=1e-6)
            elif stratum == "sym_g":
                y = membership.symmetrize(sampling.g_point_disc(n, rng, rmax=0.95))
            else:
                y = membership.symmetrize([sampling.torus_point(rng) for _ in range(n)])
            yield MemberInput(stratum, y)

    def items(self, inp) -> int:
        return 1

    def wide_probe(self, seed: int) -> tuple[int, Counter]:
        """(failed points, failure tags) over WIDE_POINTS points whose
        coordinate magnitudes are log-uniform over the finite doubles, drawn
        from their own stream of `seed` and run untimed through the same
        calls and checks as the timed points.  These points show the known
        `abs(x) ** 2` overflow (ROADMAP item 4); they are kept out of the
        timed loop because they fail there on purpose, and a fixed count per
        seed makes the figure the same on every run of that seed."""
        rng = np.random.default_rng([seed, 1])
        tr = Tracer(False)
        failed = 0
        tags: Counter = Counter()
        for _ in range(WIDE_POINTS):
            inp = MemberInput("wide", _wide_point(int(rng.integers(2, 9)), rng))
            t = self.check(tr, inp, self.run(tr, inp))
            if t:
                failed += 1
                tags.update(set(t))
        return failed, tags

    def run(self, tr, inp):
        out = {key: _try(tr, span, fn, inp.point, **kw) for key, span, fn, kw in _REPORT_CALLS}
        reports = [r for r in out.values() if isinstance(r, membership.MembershipReport)]
        out["json"] = _try(tr, "membership.report_json", _reports_json, reports)
        return out

    def check(self, tr, inp, out) -> list[str]:
        tags = []
        for key, _, _, _ in _REPORT_CALLS:
            exc = out[key]
            if not isinstance(exc, Exception):
                continue
            if not isinstance(exc, PolydiscError):
                tags.append(f"{type(exc).__name__}@{key}")
            elif inp.stratum != "wide":
                # a wide point may be refused; every other stratum is valid input
                tags.append(f"check:refused:{type(exc).__name__}@{key}")
        if isinstance(out["json"], Exception):
            tags.append(f"{type(out['json']).__name__}@json")
        verdict = {
            k: (out[k] if k == "bg" else out[k].verdict)
            for k in ("tg", "tgam", "g", "gam", "bg")
            if not isinstance(out[k], Exception)
        }
        y = inp.point
        s = inp.stratum
        want: dict[str, bool] = {}
        if s == "interior":
            want = {"tg": True, "tgam": True}
        elif s == "exterior":
            want = dict.fromkeys(("tg", "tgam", "g", "gam", "bg"), False)
        elif s == "sym_g":
            want = {"g": True, "gam": True, "tg": True, "tgam": True}
        elif s == "torus":
            want = {"bg": True}
        elif s == "wide":
            truth = _wide_truth(y)
            if truth is not None:
                want = dict.fromkeys(("tg", "tgam", "g", "gam"), truth)
        for k, v in want.items():
            if k in verdict and verdict[k] != v:
                tags.append(f"check:{s}:{k}")
        for lo, hi in (("g", "tg"), ("gam", "tgam"), ("g", "gam")):
            if verdict.get(lo) and verdict.get(hi) is False:
                tags.append(f"check:{lo}=>{hi}")
        for key in ("tg", "tgam"):
            rep = out[key]
            if isinstance(rep, Exception):
                continue
            margins = rep.per_condition
            tr.count("membership.conditions", len(margins))
            tr.count("membership.boundary_flags", sum(m.boundary for m in margins))
            decided = [m.holds for m in margins if not m.boundary]
            if len(set(decided)) > 1:
                tags.append(f"check:{key}:conditions_disagree")
            if key == "tg" and s != "wide" and not any(m.boundary for m in margins):
                top = max(tr.call("mobius.d_norm", mobius.d_norm, j, y) for j in range(1, y.n))
                if (top < 1.0) != rep.verdict:
                    tags.append("check:d_norm")
        if not isinstance(out["g"], Exception):
            tr.count("membership.in_g.reports")
            tr.count("membership.in_g.levels", len(out["g"].recursion_trace))
        return tags


# ---------------------------------------------------------------------------
# verdict_sweep
# ---------------------------------------------------------------------------

ORACLE_DIMS = (2, 3, 4, 5)
ORACLE_SAMPLES = 1200  # 100 points per (stratum, n) shard
SLICE_DIMS = (2, 3, 4, 5)  # one plot-slice per n in every call
SLICE_RESOLUTION = 18
SLICE_REPLAY_ROWS = 4  # rows per plot-slice replayed in untraced calls


@dataclass(frozen=True)
class SweepInput:
    oracle_seed: int
    pinned: tuple[CPoint, ...]  # one per SLICE_DIMS entry

    @property
    def oracle_argv(self) -> list[str]:
        dims = ",".join(map(str, ORACLE_DIMS))
        return ["oracle", "--dims", dims, "--samples", str(ORACLE_SAMPLES),
                "--seed", str(self.oracle_seed)]

    def plot_argv(self, point: CPoint) -> list[str]:
        return ["plot-slice", "--point", json.dumps(point.to_json()),
                "--resolution", str(SLICE_RESOLUTION)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """polydisc.cli.main(argv) in-process with stdout captured."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on malformed arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


class VerdictSweep:
    """Bulk verdicts through the oracle and plot-slice CLI commands.

    One timed call is one oracle command followed by one plot-slice
    command per n in SLICE_DIMS.  A slice's cost depends mostly on its n,
    so every call carries the same mix of work."""

    name = "verdict_sweep"

    def inputs(self, rng):
        while True:
            seed = int(rng.integers(0, 2**31 - 1))
            yield SweepInput(seed, tuple(sampling.tilde_g_point(n, rng) for n in SLICE_DIMS))

    def items(self, inp) -> int:
        return ORACLE_SAMPLES + len(SLICE_DIMS) * SLICE_RESOLUTION**2

    def run(self, tr, inp):
        oracle = tr.call("cli.oracle", _cli, inp.oracle_argv)
        return oracle, [tr.call("cli.plot_slice", _cli, inp.plot_argv(p)) for p in inp.pinned]

    def check(self, tr, inp, out) -> list[str]:
        tags = []
        (rc, text), slices = out
        if rc != 0:
            tags.append(f"exit:{rc}@oracle")
        else:
            payload = json.loads(text)
            if payload["failures"] != 0:
                tags.append("check:oracle_failures")
            if payload["checked"] != ORACLE_SAMPLES:
                tags.append("check:oracle_checked")
        rng = np.random.default_rng(inp.oracle_seed)
        replay_ns = 0
        for point, (rc, text) in zip(inp.pinned, slices):
            if rc != 0:
                tags.append(f"exit:{rc}@plot_slice")
                continue
            mark = tr.mark()
            tags += self._check_slice(tr, point, text, rng)
            replay_ns += tr.top_ns(mark)
        if tr.enabled:
            mark = tr.mark()
            if not self._replay_oracle(tr, inp):
                tags.append("check:oracle_replay")
            tr.count("cli.replay_ns", replay_ns + tr.top_ns(mark))
            tr.count("cli.command_ns", tr.item_ns(("cli.oracle", "cli.plot_slice")))
        return tags

    @staticmethod
    def _check_slice(tr, point, text, rng) -> list[str]:
        """Row count, in_g => in_tilde_g on every row, and a replay of some
        rows (all of them in traced calls) through the scalar predicates."""
        lines = text.strip().split("\n")
        rows = [ln.split(",") for ln in lines[1:]]
        if lines[0] != "re,im,in_tilde_g,in_g" or len(rows) != SLICE_RESOLUTION**2:
            return ["check:plot_rows"]
        tags = []
        if any(r[3] == "1" and r[2] != "1" for r in rows):
            tags.append("check:in_g=>in_tilde_g")
        if tr.enabled:
            picks = range(len(rows))
        else:
            picks = rng.choice(len(rows), SLICE_REPLAY_ROWS, replace=False)
        coords = list(point.coords)
        for i in picks:
            re, im, tg, gg = rows[i]
            coords[0] = complex(float(re), float(im))
            probe = CPoint(tuple(coords))
            t = tr.call("membership.in_tilde_g_c7", membership.in_tilde_g, probe, cond="C7")
            g = tr.call("membership.in_g", membership.in_g, probe) if t.verdict else None
            if int(t.verdict) != int(tg) or int(bool(g and g.verdict)) != int(gg):
                return tags + ["check:plot_replay"]
        return tags

    @staticmethod
    def _replay_oracle(tr, inp) -> bool:
        """The oracle command's points again, through the public samplers
        and predicates (shard seeds follow the command's layout: one seed
        per (n, stratum), counting up from --seed).  True when every point
        is in its set."""
        per = ORACLE_SAMPLES // (3 * len(ORACLE_DIMS))
        seed = inp.oracle_seed
        ok = True
        for n in ORACLE_DIMS:
            for kind in ("open", "closed", "torus"):
                rng = np.random.default_rng(seed)
                seed += 1
                for _ in range(per):
                    if kind == "torus":
                        z = tr.call("sampling.draw", lambda: [sampling.torus_point(rng) for _ in range(n)])
                    else:
                        rmax = 0.95 if kind == "open" else 1.0
                        z = tr.call("sampling.draw", sampling.g_point_disc, n, rng, rmax=rmax)
                    s = tr.call("membership.symmetrize", membership.symmetrize, z)
                    if kind == "open":
                        ok &= tr.call("membership.in_g", membership.in_g, s).verdict
                    elif kind == "closed":
                        ok &= tr.call("membership.in_gamma", membership.in_gamma, s).verdict
                    else:
                        ok &= tr.call("membership.in_b_gamma", membership.in_b_gamma, s)
        return ok


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

RANGE_SAMPLES = 8  # seeded lambda per disc: evaluation, range check, round trip
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class BuildInput:
    kind: str  # "interp" (n = 3 strict problem) or "jn" (extremal on J_n)
    point: CPoint
    lambda0: complex
    lams: tuple[complex, ...]
    seed: int


def _interp_problem(rng) -> tuple[CPoint, complex]:
    """A strict n = 3 problem, filtered as in acceptance criterion 06."""
    while True:
        y = sampling.tilde_g_point(3, rng, margin=0.85)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        if abs(ys.y(1) * ys.y(2) - 9 * ys.q) < 1e-3:
            continue
        d1 = mobius.d_norm(1, ys)
        if not 1e-3 < d1 < 0.9:
            continue
        al = min(0.97, d1 * (1.05 + 0.4 * rng.random()))
        if al <= d1 + 1e-6:
            continue
        return y, complex(al * np.exp(2j * np.pi * rng.random()))


def _jn_point(n: int, rng) -> CPoint:
    """A point of J_n, filtered as in acceptance criterion 08."""
    while True:
        y = sampling.j_point(n, rng)
        top = max(mobius.d_norm(j, y) for j in range(1, n))
        if 0.05 < top < 0.95 and abs(y.q) <= top - 1e-3:
            return y


def _round_trip(disc):
    return interpolation.DiscFunction.from_json(json.loads(json.dumps(disc.to_json())))


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """2x2 product in Python scalars.  numpy's `@` goes through BLAS, whose
    vector kernels can leave this process's later float code slower, and
    the benchmark must not slow the program it measures."""
    (a, b), (c, d) = A.tolist()
    (e, f), (g, h) = B.tolist()
    return np.array([[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]])


def _kernels(tr, Z: np.ndarray) -> dict:
    """The clinalg kernels on one matrix Z carried by a certificate or disc."""
    ZZ = _mul(Z, Z.conj().T)
    out = {"Z": Z, "ZZ": ZZ, "norm": tr.call("clinalg.op_norm", clinalg.op_norm, Z)}
    out["eig"] = tr.call("clinalg.herm_eig", clinalg.herm_eig, ZZ)
    if out["norm"] < 1.0:
        out["sqrt"] = tr.call("clinalg.herm_sqrt", clinalg.herm_sqrt, I2 - ZZ)
        out["mobius"] = tr.call("clinalg.matricial_mobius", clinalg.matricial_mobius, Z, Z)
    out["takagi"] = tr.call("clinalg.takagi", clinalg.takagi, Z)
    return out


def _kernel_tags(k: dict) -> list[str]:
    Z, nrm = k["Z"], k["norm"]
    scale = max(1.0, nrm)
    tags = []
    if abs(k["eig"].lam_max - nrm * nrm) > RESIDUAL_TOL * scale * scale:
        tags.append("check:herm_eig")
    if "sqrt" in k:
        S = k["sqrt"]
        if np.abs(_mul(S, S) - (I2 - k["ZZ"])).max() > RESIDUAL_TOL:
            tags.append("check:herm_sqrt")
        if np.abs(k["mobius"]).max() > RESIDUAL_TOL:
            tags.append("check:matricial_mobius")
    U, s = k["takagi"]
    if np.abs(_mul(_mul(U, np.diag(s)), U.T) - Z).max() > RESIDUAL_TOL * scale:
        tags.append("check:takagi")
    return tags


class Constructions:
    """Half strict n = 3 interpolation problems, half extremal discs and
    distance certificates on J_n, n = 2..6.  One timed call solves one
    problem of each kind, so every call carries the same mix."""

    name = "constructions"

    def inputs(self, rng):
        while True:
            y, lam0 = _interp_problem(rng)
            interp = self._input("interp", y, lam0, rng)
            y = _jn_point(int(rng.integers(2, 7)), rng)
            yield (interp, self._input("jn", y, 0j, rng))

    @staticmethod
    def _input(kind, y, lam0, rng) -> BuildInput:
        lams = tuple(complex(sampling.unit_disc(rng, 0.98)) for _ in range(RANGE_SAMPLES))
        return BuildInput(kind, y, lam0, lams, int(rng.integers(0, 2**31 - 1)))

    def items(self, pair) -> int:
        return len(pair)

    def run(self, tr, pair):
        return [self._solve(tr, inp) for inp in pair]

    def check(self, tr, pair, outs) -> list[str]:
        return [t for inp, out in zip(pair, outs) for t in self._check(tr, inp, out)]

    def _solve(self, tr, inp):
        out = {"kernels": []}
        y = inp.point
        rng = np.random.default_rng(inp.seed)
        if inp.kind == "interp":
            lam0 = inp.lambda0
            p = schwarz.SchwarzProblem(lambda0=lam0, target=y)
            out["conds"] = [
                tr.call("schwarz.check_condition", schwarz.check_condition, p, c)
                for c in range(2, 12)
            ]
            out["certs"] = tr.call("schwarz.schur_certificates", schwarz.schur_certificates, p)
            out["kernels"] += [_kernels(tr, c.Z) for c in out["certs"] if c.Z is not None]
            disc = tr.call(
                "interpolation.build_interpolant", interpolation.build_interpolant,
                y, lam0, rng=rng,
            )
        else:
            lam0, disc = tr.call(
                "interpolation.extremal_disc", interpolation.extremal_disc, y, rng=rng
            )
            out["dist"] = tr.call(
                "distances.distance_report", distances.distance_report,
                y, grid=4096, rng=np.random.default_rng(inp.seed),
            )
        if disc.Z is not None:
            out["kernels"].append(_kernels(tr, disc.Z))
        out["ends"] = [tr.call("interpolation.disc_eval", disc, lam) for lam in (0.0, lam0)]
        out["values"] = [tr.call("interpolation.disc_eval", disc, lam) for lam in inp.lams]
        out["range"] = [
            tr.call("membership.in_tilde_gamma_c7", membership.in_tilde_gamma, v,
                    cond="C7", band=1e-9).verdict
            for v in out["values"]
        ]
        back = tr.call("interpolation.disc_json", _round_trip, disc)
        out["back"] = [tr.call("interpolation.disc_eval", back, lam) for lam in inp.lams]
        return out

    def _check(self, tr, inp, out) -> list[str]:
        tags = []
        y = inp.point
        at0, atl = out["ends"]
        if max(abs(c) for c in at0.coords) > RESIDUAL_TOL:
            tags.append("check:residual_at_0")
        if max(abs(a - b) for a, b in zip(atl.coords, y.coords)) > RESIDUAL_TOL:
            tags.append("check:residual_at_lambda0")
        if not all(out["range"]):
            tags.append("check:range")
        if any(a.coords != b.coords for a, b in zip(out["values"], out["back"])):
            tags.append("check:json_round_trip")
        for k in out["kernels"]:
            tags += _kernel_tags(k)
        if inp.kind == "interp":
            decided = [m.holds for m in out["conds"] if m.cond_id != "S2" and not m.boundary]
            if not all(decided):
                tags.append("check:schwarz_conditions")
            tr.count("schwarz.certificates", len(out["certs"]))
            tr.count("schwarz.feasible", sum(c.feasible for c in out["certs"]))
        else:
            rep = out["dist"]
            if rep.disc is None:
                tags.append("check:pinch_disc")
            if not rep.carath_lower <= rep.closed_form + 1e-9:
                tags.append("check:pinch_lower")
            if not rep.closed_form <= rep.lempert_upper + 1e-9:
                tags.append("check:pinch_upper")
            if not rep.lempert_upper - rep.closed_form <= 1e-9:
                tags.append("check:pinch_gap")
            tr.count("distances.reports")
            tr.count("distances.certified", rep.disc is not None and math.isfinite(rep.lempert_upper))
        return tags


# ---------------------------------------------------------------------------
# oracle_checks
# ---------------------------------------------------------------------------

TORUS_GRID = 8192
COSTARA_GRID = 4096
FALSIFIER_GRID = 64
SEPARATING_SAMPLES = 200


@dataclass(frozen=True)
class OracleInput:
    kind: str
    point: CPoint
    j: int = 0
    seed: int = 0


class OracleChecks:
    """Brute-force grid oracles against the closed forms at the grid sizes
    the test suite uses.  One timed call makes one check of each of the
    five kinds, so every call carries the same mix."""

    name = "oracle_checks"

    def inputs(self, rng):
        while True:
            yield tuple(self._round(rng))

    @staticmethod
    def _round(rng):
        """Yields one input of each of the five kinds."""
        # sup_on_torus against d_norm, drawn as in acceptance criterion 03
        while True:
            n = int(rng.integers(2, 7))
            y = sampling.tilde_g_point(n, rng)
            j = int(rng.integers(1, n))
            if abs(y.y(n - j)) <= 0.9 * binom(n, j):
                break
        yield OracleInput("sup_on_torus", y, j)
        # costara_sup against in_g, drawn as in test_costara_agrees_with_membership
        n = int(rng.integers(2, 5))
        u = rng.random()
        if u < 0.5:
            s = membership.symmetrize(sampling.g_point_disc(n, rng, rmax=0.9))
        else:
            s = sampling.tilde_g_point(n, rng) if u < 0.75 else sampling.exterior_point(n, rng)
        yield OracleInput("costara_sup", s)
        n = int(rng.integers(2, 7))
        y = sampling.tilde_g_point(n, rng)
        yield OracleInput("falsifier", y, int(rng.integers(1, n)))
        # separating polynomials for exterior points, as in criterion 09
        y = sampling.exterior_point(int(rng.integers(2, 6)), rng)
        yield OracleInput("separating", y, seed=int(rng.integers(0, 2**31 - 1)))
        yield OracleInput("carath", _jn_point(int(rng.integers(2, 7)), rng))

    def items(self, batch) -> int:
        return len(batch)

    def run(self, tr, batch):
        return [self._oracle(tr, inp) for inp in batch]

    def check(self, tr, batch, outs) -> list[str]:
        return [t for inp, out in zip(batch, outs) for t in self._check(tr, inp, out)]

    @staticmethod
    def _oracle(tr, inp):
        y = inp.point
        if inp.kind == "sup_on_torus":
            return (
                tr.call("mobius.sup_on_torus", mobius.sup_on_torus, inp.j, y, TORUS_GRID),
                tr.call("mobius.d_norm", mobius.d_norm, inp.j, y),
            )
        if inp.kind == "costara_sup":
            return (
                tr.call("membership.costara_sup", membership.costara_sup, y, COSTARA_GRID),
                tr.call("membership.in_g", membership.in_g, y),
            )
        if inp.kind == "falsifier":
            return tr.call(
                "membership.nonvanishing_falsifier", membership.nonvanishing_falsifier,
                y, inp.j, FALSIFIER_GRID,
            )
        if inp.kind == "separating":
            return tr.call(
                "geometry.separating_polynomial", geometry.separating_polynomial,
                y, samples=SEPARATING_SAMPLES, rng=np.random.default_rng(inp.seed),
            )
        return (
            tr.call("distances.carath_lower", distances.carath_lower, y, grid=TORUS_GRID),
            distances.dist_formula(y),
        )

    @staticmethod
    def _check(tr, inp, out) -> list[str]:
        y = inp.point
        if inp.kind == "sup_on_torus":
            sup, closed = out
            tr.count("mobius.sup_on_torus.grid_evals", TORUS_GRID)
            return [] if abs(closed - sup) <= 1e-4 else ["check:sup_on_torus"]
        if inp.kind == "costara_sup":
            sup, rep = out
            if abs(sup - 1.0) <= 1e-3 or (sup < 1.0) == rep.verdict:
                return []
            return ["check:costara_vs_in_g"]
        if inp.kind == "falsifier":
            # y is interior, so the bilinear form has no zero on the closed
            # bidisc: the minimum found is positive, attained at a point of
            # the closed bidisc, and equal to |g| recomputed there
            val, z, w = out
            c = float(binom(y.n, inp.j))
            g = abs(c - y.y(inp.j) * z - y.y(y.n - inp.j) * w + c * y.q * z * w)
            ok = val > 0.0 and abs(z) <= 1 + 1e-12 and abs(w) <= 1 + 1e-12
            return [] if ok and abs(g - val) <= 1e-12 * (1.0 + c) else ["check:falsifier"]
        if inp.kind == "separating":
            tr.count("geometry.separating_polynomial.terms", len(out.coeff_table))
            ok = out.value_at_target > 1.0 and out.sup_bound <= 1.0 + 1e-9
            return [] if ok else ["check:separating_polynomial"]
        (lower, _, _), closed = out
        ok = lower <= closed + 1e-9 and closed - lower <= 1e-4
        return [] if ok else ["check:carath_lower"]


def warm_up(wl) -> None:
    """One untimed call on the first input of seed 0; every call carries
    the workload's whole mix, so each entry point it uses runs once."""
    wl.run(Tracer(False), next(wl.inputs(np.random.default_rng(0))))


WORKLOADS = {
    w.name: w
    for w in (MembershipReports(), VerdictSweep(), Constructions(), OracleChecks())
}
