"""Point membership for the extended symmetrized polydisc and its relatives.

Five sets are decided here, each with explainable per-condition margins:

* tilde-G_n   (open extended symmetrized polydisc),
* tilde-Gamma_n (its closure),
* G_n         (symmetrized polydisc, via the recursive beta-descent),
* Gamma_n     (closed symmetrized polydisc),
* b Gamma_n   (distinguished boundary).

Each of these sets admits several equivalent characterizations, most with
their own formula, all read off one row of moduli per pair (`_tilde_slacks`).
Some condition ids are declared aliases that read one stored value, so a
sweep comparing them checks nothing: C2 is C7, C8 is C9, and Schwarz
conditions (4) and (11) are the closed C7 and C10 of the lifted point.
The authoritative verdict is always the beta-representation inequality
("C7"):

    |y_{n-j} - conj(y_j) q| + |y_j - conj(y_{n-j}) q| < binom(n,j) (1 - |q|^2)

whose closed analogue carries an extra clause at |q| = 1.  Open conditions
hold iff slack > 0; closed conditions hold iff slack >= -band, and any
condition with |slack| < band is flagged boundary-indeterminate.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .clinalg import _scaled, _svals, _svals_sq, _unscale
from .errors import DomainError
from .mobius import (
    CPoint,
    _band,
    _cabs,
    _check_poles,
    _count,
    _degenerate,
    _dimension,
    _number,
    _pair_terms,
    _point,
    _sup_formula,
    binom,
    circle,
)

__all__ = [
    "BOUNDARY_BAND",
    "ALL_CONDITIONS",
    "ConditionMargin",
    "MembershipReport",
    "in_tilde_g",
    "in_tilde_gamma",
    "in_g",
    "in_gamma",
    "in_b_gamma",
    "symmetrize",
    "costara_f",
    "costara_sup",
    "nonvanishing_falsifier",
]

BOUNDARY_BAND = 1e-7

ALL_CONDITIONS = ("C2", "C3", "C3p", "C4", "C4p", "C5", "C5p", "C6", "C7", "C8", "C9")
ALL_CONDITIONS_CLOSED = ALL_CONDITIONS + ("C10",)


class ConditionMargin(NamedTuple):
    cond_id: str
    holds: bool
    slack: float
    boundary: bool

    def to_json(self) -> dict:
        return _conditions_json((self,))[0]


class MembershipReport(NamedTuple):
    point: CPoint
    set_id: str
    verdict: bool
    per_condition: tuple[ConditionMargin, ...] = ()
    recursion_trace: tuple[CPoint, ...] = ()

    def condition(self, cond_id: str) -> ConditionMargin:
        for c in self.per_condition:
            if c.cond_id == cond_id:
                return c
        raise DomainError(f"the report has no condition {cond_id!r}")

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "set": self.set_id,
            "verdict": self.verdict,
            "conditions": _conditions_json(self.per_condition),
            "recursion_trace": [p.to_json() for p in self.recursion_trace],
        }


def _conditions_json(margins) -> list[dict]:
    """The JSON of each margin, read straight off its fields; a +-inf slack
    is written +-1e308, so a report stays strictly JSON-parsable."""
    return [
        {"cond": c, "holds": h, "slack": math.copysign(1e308, s) if s in _INFS else s, "boundary": b}
        for c, h, s, b in margins
    ]


_INFS = (math.inf, -math.inf)


# ---------------------------------------------------------------------------
# per-condition slacks, one row of moduli per pair
# ---------------------------------------------------------------------------

# Schwarz conditions (10), (8) and (9) on the row of `_pair_terms` at
# al = |lambda0|, doubles or Decimals alike; at al = 1 they are C7, the C5
# sum and C6.  x = |al^2 y_{n-j} - conj(y_j) q|, z = |y_j - conj(y_{n-j}) q|.


def _s10(c, al, aq, x, z):
    return c * (al * al - aq * aq) - (x + al * z)


def _s8(c, al, a, b, aq, x):
    return c * c * al * al - (a * a - al * al * b * b + c * c * aq * aq + 2 * c * x)


def _s9(c, al, a, b, aq, k):
    return c * c * al * al - (a * a + al * al * b * b - c * c * aq * aq + 2 * al * k)


# the columns of _tilde_slacks; C2 and C7 read _tilde_slack7 and C8 reads C9
_ROW_CONDS = ("C3", "C3p", "C4", "C4p", "C5", "C5p", "C6", "C9")


def _tilde_slacks(y: CPoint, band: float | None = None) -> dict[str, float]:
    """Every condition's slack (band None: the open set's; a float: the
    closed set's within band), the minimum over j = 1..floor(n/2) of one
    row per pair (plus the global clauses); C7, `_tilde_slack7`'s, stays on
    doubles where the row turns decimal."""
    coords = y.coords
    n, q = len(coords), coords[-1]
    rows = []
    for j in range(1, n // 2 + 1):
        c = math.comb(n, j)
        yj, ynj = coords[j - 1], coords[n - 1 - j]
        a, b, aq, x, z, k = _pair_terms(c, yj, ynj, q)
        degen = _degenerate(c, k, aq)
        c3 = 1 - _sup_formula(c, a, b, z, k, degen)
        c3p = 1 - _sup_formula(c, b, a, x, k, degen)
        c4 = (c * c - b * b) - (c * z + k)
        c4p = (c * c - a * a) - (c * x + k)
        if degen:
            c3, c3p = min(c3, c - b), min(c3p, c - a)
            if band is not None:
                c4, c4p = min(c4, c - a), min(c4p, c - b)
        # ||B_j|| off clinalg's Gram kernel; the scaled _svals, at about twice
        # the cost, only where a square overflows
        bj = _b_entries(coords, j)
        s2 = _svals_sq(*bj)[0]
        rows.append((
            c3, c3p, c4, c4p,
            min(_s8(c, 1, a, b, aq, x), c - b),
            min(_s8(c, 1, b, a, aq, z), c - a),
            _s9(c, 1, a, b, aq, k),
            1 - (math.sqrt(s2) if s2 < math.inf else _svals(*bj)[0]),
        ))
    out = dict(zip(_ROW_CONDS, map(float, map(min, zip(*rows)))))
    out["C6"] = min(out["C6"], 1.0 - _cabs(q))  # |q| < 1 (<= 1 closed)
    out["C2"] = out["C7"] = _tilde_slack7(coords, band)
    out["C8"] = out["C9"]
    if band is not None:
        out["C10"] = _closed_beta_slack(coords, band)
    return out


def _closed_beta_slack(coords: tuple[complex, ...], band: float) -> float:
    """Closed beta-representation test (condition C10): the minimum over
    j = 1..floor(n/2) of binom(n, j) - (|beta_j| + |beta_{n-j}|) for
    |q| < 1.  Schwarz condition (11) reads it on the lifted point, so for
    even n its slack is in that point's units binom(n+1, j).

    At |q| = 1 (within band) the representation y_j = conj(y_{n-j}) q is
    forced, and the free split beta_j = r y_j, beta_{n-j} = (1-r) y_{n-j}
    (r = 1/2 here; any r in [0,1] works) leaves only binom(n, j) - |y_j|
    to check; a residual of the forced relation above band decides at once
    with slack -residual.  Beyond the circle the slack is 1 - |q|.
    """
    n = len(coords)
    q = coords[-1]
    aq = _cabs(q)
    if aq > 1.0 + band:
        return 1.0 - aq
    slack = math.inf
    if abs(aq - 1.0) <= band:
        scale = 1.0 + max(_cabs(c) for c in coords)
        for j in range(1, n // 2 + 1):
            resid = _cabs(coords[j - 1] - coords[n - 1 - j].conjugate() * q)
            if resid > band * scale:
                return -resid
            slack = min(slack, math.comb(n, j) - _cabs(coords[j - 1]))
        return slack
    betas = _beta_coords(coords)
    for j in range(1, n // 2 + 1):
        s = math.comb(n, j) - (_cabs(betas[j - 1]) + _cabs(betas[n - 1 - j]))
        slack = min(slack, s)
    return slack


def _margins(slacks: dict[str, float], conds, closed: bool, band: float) -> tuple:
    """The ConditionMargin of each of conds: open conditions hold iff
    slack > 0, closed ones iff slack >= -band; |slack| < band is boundary."""
    pairs, new = zip(conds, map(slacks.__getitem__, conds)), tuple.__new__  # skips the field-wise __new__
    if closed:
        return tuple([new(ConditionMargin, (c, s >= -band, s, abs(s) < band)) for c, s in pairs])
    return tuple([new(ConditionMargin, (c, s > 0.0, s, abs(s) < band)) for c, s in pairs])


def _pairs_point(y) -> CPoint:
    """The point y, refused where it has no pair (y_j, y_{n-j}) to test."""
    if _point(y).n < 2:
        raise DomainError("extended symmetrized polydisc needs n >= 2")
    return y


def _tilde_report(y: CPoint, cond, closed: bool, band: float) -> MembershipReport:
    _pairs_point(y)
    avail = ALL_CONDITIONS_CLOSED if closed else ALL_CONDITIONS
    if cond == "ALL":
        wanted = avail
    elif cond in avail:
        wanted = (cond,)
    else:
        raise DomainError(f"condition {cond!r} not available for this set")
    set_band = band if closed else None  # the slacks of an open set read no band
    if cond in ("C2", "C7"):  # the verdict's own slack needs no table
        slacks = dict.fromkeys(("C2", "C7"), _tilde_slack7(y.coords, set_band))
    else:
        slacks = _tilde_slacks(y, set_band)
    auth = slacks["C7"]
    return MembershipReport(
        y,
        "tilde-gamma" if closed else "tilde-g",
        auth >= -band if closed else auth > 0.0,
        _margins(slacks, wanted, closed, band),
    )


def in_tilde_g(y: CPoint, cond: str = "ALL", band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the open extended symmetrized polydisc.

    `cond` selects which equivalent condition(s) to evaluate and report
    ("C2".."C9" or "ALL"); the verdict itself always comes from the
    beta-representation inequality C7.
    """
    return _tilde_report(y, cond, closed=False, band=_band(band))


def in_tilde_gamma(y: CPoint, cond: str = "ALL", band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the closed extended symmetrized polydisc."""
    return _tilde_report(y, cond, closed=True, band=_band(band))


# the one C7 slack, behind the C2/C7 reports and the G_n/Gamma_n descents


def _tilde_slack7(coords: tuple[complex, ...], band: float | None = None) -> float:
    """The C7 slack, bit for bit `_level`'s: min over j of binom(n, j) (1 - |q|^2)
    minus |y_{n-j} - conj(y_j) q| + |y_j - conj(y_{n-j}) q|; closed (a band
    given), at |q| = 1 within band, also binom(n, j) - |y_j|."""
    n = len(coords)
    q = coords[-1]
    aq = _cabs(q)
    unit_q = band is not None and abs(aq - 1.0) <= band
    slack = math.inf
    for j in range(1, n // 2 + 1):
        c, yj, ynj = math.comb(n, j), coords[j - 1], coords[n - 1 - j]
        x, z = ynj - yj.conjugate() * q, yj - ynj.conjugate() * q
        try:
            s = _s10(c, 1, aq, abs(x), abs(z))
        except OverflowError:
            s = _s10(c, 1, aq, _cabs(x), _cabs(z))
        slack = min(slack, min(s, c - _cabs(yj)) if unit_q else s)
    return slack


def _b_entries(coords: tuple[complex, ...], j: int) -> tuple[complex, complex, complex, complex]:
    """The entries (y_j / C, k, k, y_{n-j} / C), C = binom(n, j), of B_j in
    condition (9), k the principal root of a d - q, so det B_j = q.  Where
    a d - q overflows, the root is taken of the pair scaled exactly by
    (2^-e, 2^-e, 4^-e); |k|^2 <= |a| |d| + |q| keeps |k| near 2.55e308 / C
    at most, C >= 2, so every part of k is finite."""
    n, q = len(coords), coords[-1]
    c = float(math.comb(n, j))
    a, d = coords[j - 1] / c, coords[n - 1 - j] / c
    k = cmath.sqrt(a * d - q)
    if not cmath.isfinite(k):
        e, (sa, sd, _, _) = _scaled(a, d, cmath.sqrt(q), 0j)
        f = math.ldexp(1.0, -e)
        k = cmath.sqrt(sa * sd - q * f * f)
        k = complex(_unscale(k.real, e), _unscale(k.imag, e))
    return a, k, k, d


# ---------------------------------------------------------------------------
# G_n / Gamma_n / b Gamma_n
# ---------------------------------------------------------------------------


def _beta_coords(coords: tuple[complex, ...]) -> tuple[complex, ...]:
    """beta_j = (y_j - conj(y_{n-j}) p) / (1 - |p|^2) for j = 1..n-1."""
    n = len(coords)
    p = coords[-1]
    ap = abs(p)
    denom = 1.0 - ap * ap
    return tuple(
        (coords[j - 1] - coords[n - 1 - j].conjugate() * p) / denom
        for j in range(1, n)
    )


def _descent_report(s: CPoint, closed: bool, band: float) -> MembershipReport:
    """The recursive beta-descent of in_g (open) or in_gamma (closed): the margin is level
    0's C7 slack, flagged boundary when the slack of any level computed lies within band."""
    trace: list[CPoint] = []
    cur, set_band = s.coords, band if closed else None
    auth = slack = _tilde_slack7(cur, set_band) if s.n > 1 else 1.0 - _cabs(cur[0])
    tight = abs(slack)  # the smallest |slack| of the levels computed
    verdict: bool | None = None
    while len(cur) > 1:
        ap = _cabs(cur[-1])
        if closed and abs(ap - 1.0) <= band:
            verdict = _b_gamma_coords(cur, band)
            break
        if (ap > 1.0 + band or slack < -band) if closed else (ap >= 1.0 or slack <= 0.0):
            verdict = False
            break
        cur = _beta_coords(cur)
        # this level passed C7 (slack > 0, or >= -band closed) with |p| < 1, so
        # every beta is finite and bounded by its binomial: nothing to check
        trace.append(CPoint._unchecked(cur))
        slack = _tilde_slack7(cur, set_band)
        tight = min(tight, abs(slack))
    if verdict is None:
        verdict = _cabs(cur[0]) <= 1.0 + band if closed else _cabs(cur[0]) < 1.0
    margin = ConditionMargin("C7", auth >= -band if closed else auth > 0.0, auth, tight < band)
    return MembershipReport(s, "gamma" if closed else "g", verdict, (margin,), tuple(trace))


def in_g(s: CPoint, band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the symmetrized polydisc G_n.

    Recursive descent: s is in G_n iff s is in tilde-G_n and the recovered
    beta-point lies in G_{n-1}; the base case G_1 is the unit disc.  The
    beta-points visited are recorded in recursion_trace.
    """
    return _descent_report(_point(s), closed=False, band=_band(band))


def in_gamma(s: CPoint, band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the closed symmetrized polydisc Gamma_n.

    For |p| inside the unit circle: s in Gamma_n iff s in tilde-Gamma_n and
    the beta-point is in Gamma_{n-1}.  At |p| = 1 (within band) the point
    is in Gamma_n iff it lies on the distinguished boundary, which has its
    own characterization; beyond, it is out.
    """
    return _descent_report(_point(s), closed=True, band=_band(band))


def _b_gamma_coords(coords: tuple[complex, ...], band: float) -> bool:
    n = len(coords)
    if n == 1:
        return abs(_cabs(coords[0]) - 1.0) <= band
    p = coords[-1]
    if abs(_cabs(p) - 1.0) > band:
        return False
    scale = 1.0 + max(_cabs(c) for c in coords)
    for j in range(1, n):
        if _cabs(coords[j - 1] - coords[n - 1 - j].conjugate() * p) > band * scale:
            return False
    scaled = tuple((n - j) / n * coords[j - 1] for j in range(1, n))
    return _descent_report(CPoint(scaled), True, band).verdict


def in_b_gamma(s: CPoint, band: float = BOUNDARY_BAND) -> bool:
    """Distinguished boundary of Gamma_n: |p| = 1, y_j = conj(y_{n-j}) p,
    and the (n-1)/n-scaled truncation lies in Gamma_{n-1}."""
    return _b_gamma_coords(_point(s).coords, _band(band))


def symmetrize(z: list[complex] | tuple[complex, ...]) -> CPoint:
    """Elementary symmetric coordinates (s_1, ..., s_{n-1}, p) of z in C^n,
    by the stable one-point-at-a-time recurrence (exact on integer input)."""
    z = [_number(w) for w in z]
    n = len(z)
    _dimension(n)  # before the O(n^2) recurrence
    e = [complex(1.0)] + [complex(0.0)] * n
    for m, zm in enumerate(z, start=1):
        for k in range(m, 0, -1):
            e[k] = e[k] + zm * e[k - 1]
    return CPoint(tuple(e[1:]))


# ---------------------------------------------------------------------------
# the boolean core on planes, for oracle, plot-slice and a disc's range check
#
# Each column of the (n, m) real and imaginary planes is one point; every
# result equals the scalar function's on it bit for bit (up to the sign of
# zero, which no slack or verdict sees).  numpy's complex abs and product
# round differently from CPython's, so the kernels use np.hypot and CPython's
# real/imag product formula; squares are x * x on both paths.  A descent
# copies its planes to join the points of a height and to drop points.
# Callers pass finite planes.
# ---------------------------------------------------------------------------


def _conj_mul(ar, ai, br, bi):
    """conj(a) * b, rounded as CPython rounds it."""
    return ar * br + ai * bi, ar * bi - ai * br


@functools.cache
def _binoms(n: int) -> np.ndarray:
    """The column of binom(n, j) for j = 1..floor(n/2)."""
    return np.array([[float(math.comb(n, j))] for j in range(1, n // 2 + 1)])


def _level(re: np.ndarray, im: np.ndarray, aq: np.ndarray, unit=None):
    """One level of the beta-descent on planes with n >= 2 rows and |q| = aq:
    the C7 slack of every point, the planes of the beta numerators
    D_j = y_j - conj(y_{n-j}) q (j = 1..n-1) and w = 1 - |q|^2, the next
    level being D / w.  The C7 cross terms are |D_{n-j}| + |D_j|, in
    `_tilde_slack7`'s order; where the mask `unit` holds, binom(n, j) -
    |y_j| joins them."""
    br, bi = _conj_mul(re[-2::-1], im[-2::-1], re[-1], im[-1])
    dr, di = re[:-1] - br, im[:-1] - bi
    a = np.hypot(dr, di)
    h, c, w = len(re) // 2, _binoms(len(re)), 1.0 - aq * aq
    s = c * w - (a[::-1][:h] + a[:h])
    if unit is not None and unit.any():
        t = c - np.hypot(re[:h], im[:h])
        s = np.where(unit & (t < s), t, s)
    # min() from +inf as in the scalar loop: a NaN term never wins
    return np.fmin.reduce(s, axis=0, initial=math.inf), dr, di, w


@np.errstate(all="ignore")
def _tilde_slack7_batch(y: np.ndarray, band: float) -> np.ndarray:
    """_tilde_slack7(y, band), the closed C7 slack, on every row of the
    (m, n) array y, whose rows its callers have found finite."""
    re, im = y.real.T, y.imag.T
    aq = np.hypot(re[-1], im[-1])
    return _level(re, im, aq, np.abs(aq - 1.0) <= band)[0]


def _descent(pairs, band: float | None = None):
    """(verdict, level0): the in_g (band None) or in_gamma (closed, within band)
    verdict of every point of the (re, im) plane pairs, in input order, and at
    its first level C7 slack > 0, in_tilde_g's verdict (False at one row).
    One level runs per height, the pairs of that height joining the survivors."""
    joins, end = {}, 0  # by height: the first column and the planes of its pairs
    for r, i in pairs:
        joins.setdefault(len(r), []).append((end, r, i))
        end += r.shape[1]
    verdict, level0 = np.zeros(end, dtype=bool), np.zeros(end, dtype=bool)
    idx = np.arange(0)  # the points still descending; re and im, their planes, come with the first join
    for h in range(max(joins), 0, -1):
        new = joins.get(h)
        if new:  # after the survivors, so level 0 reads the columns from `old`
            old, parts = idx.size, [(np.arange(s, s + r.shape[1]), r, i) for s, r, i in new]
            parts = [(idx, re, im)] + parts if old else parts
            idx, re, im = (np.concatenate(p, axis=-1) for p in zip(*parts)) if len(parts) > 1 else parts[0]
        if h == 1 or not idx.size:
            continue
        aq = np.hypot(re[-1], im[-1])
        # the closed C7 clause at |q| = 1 is moot: those points go to b Gamma
        slack, dr, di, w = _level(re, im, aq)
        if new:
            level0[idx[old:]] = slack[old:] > 0.0
        if band is not None:
            keep = ~(aq > 1.0 + band)
            unit = keep & (np.abs(aq - 1.0) <= band)
            if unit.any():
                verdict[idx[unit]] = _b_gamma_planes(re[:, unit], im[:, unit], band)
            keep &= ~unit & ~(slack < -band)
        else:
            keep = ~((aq >= 1.0) | (slack <= 0.0))
        if not keep.all():
            idx, dr, di, w = idx[keep], dr[:, keep], di[:, keep], w[keep]
        re, im = dr / w, di / w
    a = np.hypot(re[0], im[0])
    verdict[idx] = (a <= 1.0 + band) if band is not None else (a < 1.0)
    return verdict, level0


def _b_gamma_step(re: np.ndarray, im: np.ndarray, band: float):
    """(ok, truncation): where |p| = 1 and y_j = conj(y_{n-j}) p hold within
    band, and the planes of those points' (n-1)/n-scaled truncations, in b
    Gamma_n iff they lie in Gamma_{n-1} (None at n = 1: ok decides)."""
    n, a = len(re), np.hypot(re, im)
    if n == 1:
        return np.abs(a[0] - 1.0) <= band, None
    ok = ~(np.abs(a[-1] - 1.0) > band)
    _, dr, di, _ = _level(re, im, a[-1])  # the forced relation's residual is |D|
    ok &= ~(np.hypot(dr, di) > band * (1.0 + a.max(axis=0))).any(axis=0)
    factor = np.array([[(n - j) / n] for j in range(1, n)])
    return ok, (factor * re[:-1, ok], factor * im[:-1, ok])


def _b_gamma_planes(re: np.ndarray, im: np.ndarray, band: float) -> np.ndarray:
    ok, truncation = _b_gamma_step(re, im, band)
    if truncation is not None:
        ok[ok] = _descent([truncation], band)[0]
    return ok


def _symmetrize_planes(zr: np.ndarray, zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The planes of symmetrize(z).coords for every point z of the planes."""
    er, ei = np.zeros((2, len(zr) + 1, zr.shape[1]))
    er[0] = 1.0
    for k, (ar, ai) in enumerate(zip(zr, zi), start=1):
        # e[1..k] += z_k e[0..k-1], both products read before the adds
        pr, pi = ar * er[:k] - ai * ei[:k], ar * ei[:k] + ai * er[:k]
        er[1:k + 1] += pr
        ei[1:k + 1] += pi
    return er[1:], ei[1:]


# ---------------------------------------------------------------------------
# Costara's rational function
# ---------------------------------------------------------------------------


def _costara_coeffs(s: CPoint) -> tuple[list[complex], list[complex]]:
    """Ascending coefficients (numerator, denominator) of f_s.

    num_k = (-1)^{k+1} (k+1) s_{k+1},  den_k = (-1)^k (n-k) s_k,  s_0 = 1.
    """
    n = _point(s).n
    num = [(-1.0) ** (k + 1) * (k + 1) * s.coords[k] for k in range(n)]
    den = [complex(n)] + [
        (-1.0) ** k * (n - k) * s.coords[k - 1] for k in range(1, n)
    ]
    return num, den


def _polyval(coeffs: list[complex], z: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@np.errstate(all="ignore")
def costara_f(s: CPoint, z: complex | np.ndarray) -> complex | np.ndarray:
    """Costara's rational function f_s at z, or elementwise over an array
    of points.  A value at one point that is not finite raises DomainError."""
    z = z if isinstance(z, (np.ndarray, np.generic)) else _number(z)  # numpy input keeps numpy arithmetic
    num, den = _costara_coeffs(s)
    d = _polyval(den, z)
    _check_poles(d, z, "f_s")
    val = _polyval(num, z) / d
    if np.ndim(z) == 0 and not cmath.isfinite(val):  # the grid oracles test a whole array
        raise DomainError(f"f_s is not finite at z={complex(z)}")
    return val


@np.errstate(all="ignore")
def costara_sup(s: CPoint, grid: int = 4096) -> float:
    """sup over the closed unit disc of |f_s|.

    If the denominator has a root in the closed disc (companion-matrix test,
    |root| <= 1 + 1e-10) where the numerator does not vanish, the sup is
    +inf.  Otherwise the poles are outside and the maximum principle reduces
    the sup to the boundary, sampled on the points circle(grid).
    """
    e = circle(grid)
    num, den = _costara_coeffs(s)
    scale = max(_cabs(c) for c in den)
    nscale = max(1.0, max(_cabs(c) for c in num))
    if not (math.isfinite(scale) and math.isfinite(nscale)):
        raise DomainError("a coefficient of f_s overflows the double range")
    desc = list(reversed(den))
    while desc and abs(desc[0]) <= 1e-14 * scale:
        desc.pop(0)
    if len(desc) > 1:
        for r in np.roots(np.array(desc, dtype=complex)):
            if abs(r) <= 1.0 + 1e-10:
                at = _cabs(_polyval(num, complex(r)))
                if math.isnan(at):
                    raise DomainError("the numerator of f_s overflows at a pole")
                if at > 1e-10 * nscale:
                    return math.inf
    sup = float(np.abs(costara_f(s, e)).max())
    if not math.isfinite(sup):
        raise DomainError("sup is not finite: f_s overflows on the grid")
    return sup


@np.errstate(all="ignore")
def nonvanishing_falsifier(
    y: CPoint, j: int, grid: int = 64
) -> tuple[float, complex, complex]:
    """Diagnostic search for a zero of
    g(z, w) = binom - y_j z - y_{n-j} w + binom q z w on the closed bidisc.

    Returns (min |g|, argmin z, argmin w).  The zero curve z(w) is traced
    over the sweep of w through circle(grid) (both variable roles), with z
    projected into the closed disc when it falls outside; a grid over the
    torus x torus is also sampled (grid**2 points, held in memory at once).
    A near-zero minimum falsifies condition (2); a large minimum certifies
    nothing (the verdict stays with C7).
    """
    e = circle(_count(grid, "grid", 8, 2**10))  # grid**2 torus points are held at once
    n = _point(y).n
    c = float(binom(n, j))
    yj, ynj, q = y.y(j), y.y(n - j), y.q
    # candidates in search order, so argmin keeps the first of equal minima: the
    # torus grid (row z, column w, from (1, 1)), then per radius and angle the zero
    # curve in both variable roles, dropping points where its denominator vanishes
    w = np.array([0.0, 0.5, 0.9, 1.0])[:, None, None] * e[:, None]
    den = c * q * w - np.array([yj, ynj])
    ok = np.abs(den) > 1e-300
    z = (np.array([ynj, yj]) * w - c) / np.where(ok, den, 1.0)
    z /= np.maximum(np.abs(z), 1.0)  # projected into the closed disc
    w, first = np.broadcast_to(w, z.shape), np.array([True, False])
    zs, ws = np.where(first, z, w)[ok], np.where(first, w, z)[ok]
    g = e.size  # a Python int: a numpy grid count could wrap in g * g
    t = g * g
    vals = np.empty(t + zs.size)
    np.abs((c - yj * e)[:, None] - (ynj * e)[None, :] + (c * q * e)[:, None] * e[None, :],
           out=vals[:t].reshape(g, g))
    np.abs(c - yj * zs - ynj * ws + c * q * zs * ws, out=vals[t:])
    k = int(np.argmin(vals))
    if math.isnan(vals[k]):
        raise DomainError("minimum is not a number: g overflows on the grid")
    zk, wk = (e[k // g], e[k % g]) if k < t else (zs[k - t], ws[k - t])
    return float(vals[k]), complex(zk), complex(wk)
