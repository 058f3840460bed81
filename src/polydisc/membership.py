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
sweep comparing them checks nothing: C2 is C7, C8 is C9, and the closed
condition C10 shares `_closed_beta_slack` with Schwarz condition (11).
The authoritative verdict is always the beta-representation inequality
("C7"):

    |y_{n-j} - conj(y_j) q| + |y_j - conj(y_{n-j}) q| < binom(n,j) (1 - |q|^2)

whose closed analogue carries an extra clause at |q| = 1.  Open conditions
hold iff slack > 0; closed conditions hold iff slack >= -band, and any
condition with |slack| < band is flagged boundary-indeterminate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mobius import (
    CPoint,
    _cabs,
    _check_poles,
    _degenerate,
    _pair_terms,
    _root,
    _sup_formula,
    binom,
    circle,
)

__all__ = [
    "BOUNDARY_BAND",
    "ALL_CONDITIONS",
    "ConditionMargin",
    "MembershipReport",
    "BetaVector",
    "in_tilde_g",
    "in_tilde_gamma",
    "beta_recover",
    "b_matrices",
    "in_g",
    "in_gamma",
    "in_b_gamma",
    "symmetrize",
    "in_tilde_g_batch",
    "in_g_batch",
    "in_gamma_batch",
    "in_b_gamma_batch",
    "symmetrize_batch",
    "costara_f",
    "costara_sup",
    "scale_point",
    "nonvanishing_falsifier",
]

BOUNDARY_BAND = 1e-7

ALL_CONDITIONS = ("C2", "C3", "C3p", "C4", "C4p", "C5", "C5p", "C6", "C7", "C8", "C9")
ALL_CONDITIONS_CLOSED = ALL_CONDITIONS + ("C10",)


@dataclass(frozen=True)
class ConditionMargin:
    cond_id: str
    holds: bool
    slack: float
    boundary: bool

    def to_json(self) -> dict:
        slack = self.slack
        if math.isinf(slack):  # keep reports strictly JSON-parsable
            slack = math.copysign(1e308, slack)
        return {
            "cond": self.cond_id,
            "holds": self.holds,
            "slack": slack,
            "boundary": self.boundary,
        }


@dataclass(frozen=True)
class MembershipReport:
    point: CPoint
    set_id: str
    verdict: bool
    per_condition: tuple[ConditionMargin, ...] = ()
    recursion_trace: tuple[CPoint, ...] = ()

    def condition(self, cond_id: str) -> ConditionMargin:
        for c in self.per_condition:
            if c.cond_id == cond_id:
                return c
        raise KeyError(cond_id)

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "set": self.set_id,
            "verdict": self.verdict,
            "conditions": [c.to_json() for c in self.per_condition],
            "recursion_trace": [p.to_json() for p in self.recursion_trace],
        }


@dataclass(frozen=True)
class BetaVector:
    """The unique beta-representation of a point with |q| < 1."""

    n: int
    betas: tuple[complex, ...]

    def reconstruct(self, q: complex) -> tuple[complex, ...]:
        n = self.n
        return tuple(
            self.betas[j - 1] + self.betas[n - 1 - j].conjugate() * q
            for j in range(1, n)
        )


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


def _c7(c, yj: complex, ynj: complex, q: complex, aq: float, unit_q: bool) -> float:
    """The C7 slack of one pair, on doubles as the batch twin reads it (the
    row's x and z, bit for bit); closed, at |q| = 1 within band, also
    binom(n, j) - |y_j|."""
    x, z = ynj - yj.conjugate() * q, yj - ynj.conjugate() * q
    try:
        s = _s10(c, 1, aq, abs(x), abs(z))
    except OverflowError:
        s = _s10(c, 1, aq, _cabs(x), _cabs(z))
    return min(s, c - _cabs(yj)) if unit_q else s


# the columns of _tilde_slacks; C2 reads C7 and C8 reads C9
_ROW_CONDS = ("C3", "C3p", "C4", "C4p", "C5", "C5p", "C6", "C7", "C9")


def _tilde_slacks(y: CPoint, closed: bool, band: float) -> dict[str, float]:
    """Every condition's slack, the minimum over j = 1..floor(n/2) of one
    row per pair (plus the global clauses); C7, `_tilde_slack7`'s, stays on
    doubles where the row turns decimal."""
    coords = y.coords
    n, q = len(coords), coords[-1]
    abs_q = _cabs(q)
    unit_q = closed and abs(abs_q - 1.0) <= band
    rows = []
    for j in range(1, n // 2 + 1):
        c = math.comb(n, j)
        yj, ynj = coords[j - 1], coords[n - 1 - j]
        c7 = _c7(c, yj, ynj, q, abs_q, unit_q)
        a, b, aq, x, z, k = _pair_terms(c, yj, ynj, q)
        degen = _degenerate(c, k, aq)
        c3 = 1 - _sup_formula(c, a, b, z, k, degen)
        c3p = 1 - _sup_formula(c, b, a, x, k, degen)
        c4 = (c * c - b * b) - (c * z + k)
        c4p = (c * c - a * a) - (c * x + k)
        if degen:
            c3, c3p = min(c3, c - b), min(c3p, c - a)
            if closed:
                c4, c4p = min(c4, c - a), min(c4p, c - b)
        # ||B_j||^2 = (T + sqrt(T^2 - 4 |det|^2)) / 2, det B_j = q (b_matrices)
        T = (a * a + b * b + 2 * k) / (c * c)
        rows.append((
            c3, c3p, c4, c4p,
            min(_s8(c, 1, a, b, aq, x), c - b),
            min(_s8(c, 1, b, a, aq, z), c - a),
            _s9(c, 1, a, b, aq, k),
            c7,
            1 - _root((T + _root(T * T - 4 * aq * aq)) / 2),
        ))
    out = dict(zip(_ROW_CONDS, map(float, map(min, zip(*rows)))))
    out["C6"] = min(out["C6"], 1.0 - abs_q)  # |q| < 1 (<= 1 closed)
    out["C2"], out["C8"] = out["C7"], out["C9"]
    if closed:
        cs = [math.comb(n, j) for j in range(1, n // 2 + 1)]
        out["C10"] = _closed_beta_slack(coords, band, cs, [1] * len(cs))
    return out


def _closed_beta_slack(
    coords: tuple[complex, ...], band: float, cs, ws
) -> float:
    """Closed beta-representation test: the minimum over j = 1..floor(n/2)
    of cs[j-1] - ws[j-1] (|beta_j| + |beta_{n-j}|) for |q| < 1, with the
    weights ws (1.0 for condition (10); Schwarz condition (11) reweights
    its lifted point).

    At |q| = 1 (within band) the representation y_j = conj(y_{n-j}) q is
    forced, and the free split beta_j = r y_j, beta_{n-j} = (1-r) y_{n-j}
    (r = 1/2 here; any r in [0,1] works) leaves only
    cs[j-1] - ws[j-1] |y_j| to check; a residual of the forced relation
    above band decides at once with slack -residual.  Beyond the circle
    the slack is 1 - |q|.
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
            slack = min(slack, cs[j - 1] - ws[j - 1] * _cabs(coords[j - 1]))
        return slack
    betas = _beta_coords(coords)
    for j in range(1, n // 2 + 1):
        s = cs[j - 1] - ws[j - 1] * (_cabs(betas[j - 1]) + _cabs(betas[n - 1 - j]))
        slack = min(slack, s)
    return slack


def _margins(slacks: dict[str, float], conds, closed: bool, band: float) -> tuple:
    """The ConditionMargin of each of conds: open conditions hold iff
    slack > 0, closed ones iff slack >= -band; |slack| < band is boundary."""
    pairs = zip(conds, map(slacks.__getitem__, conds))
    if closed:
        return tuple([ConditionMargin(c, s >= -band, s, abs(s) < band) for c, s in pairs])
    return tuple([ConditionMargin(c, s > 0.0, s, abs(s) < band) for c, s in pairs])


def _tilde_report(y: CPoint, cond, closed: bool, band: float) -> MembershipReport:
    if y.n < 2:
        raise DomainError("extended symmetrized polydisc needs n >= 2")
    avail = ALL_CONDITIONS_CLOSED if closed else ALL_CONDITIONS
    if cond == "ALL":
        wanted = avail
    elif cond in avail:
        wanted = (cond,)
    else:
        raise DomainError(f"condition {cond!r} not available for this set")
    if cond in ("C2", "C7"):  # the verdict's own slack needs no table
        slacks = dict.fromkeys(("C2", "C7"), _tilde_slack7(y.coords, closed, band))
    else:
        slacks = _tilde_slacks(y, closed, band)
    (auth,) = _margins(slacks, ("C7",), closed, band)
    return MembershipReport(
        point=y,
        set_id="tilde-gamma" if closed else "tilde-g",
        verdict=auth.holds,
        per_condition=_margins(slacks, wanted, closed, band),
    )


def in_tilde_g(y: CPoint, cond: str = "ALL", band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the open extended symmetrized polydisc.

    `cond` selects which equivalent condition(s) to evaluate and report
    ("C2".."C9" or "ALL"); the verdict itself always comes from the
    beta-representation inequality C7.
    """
    return _tilde_report(y, cond, closed=False, band=band)


def in_tilde_gamma(y: CPoint, cond: str = "ALL", band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the closed extended symmetrized polydisc."""
    return _tilde_report(y, cond, closed=True, band=band)


# the one C7 slack, behind the C2/C7 reports and the G_n/Gamma_n descents


def _tilde_slack7(coords: tuple[complex, ...], closed: bool, band: float) -> float:
    """The C7 slack: min over j of binom(n, j) (1 - |q|^2) minus
    |y_{n-j} - conj(y_j) q| + |y_j - conj(y_{n-j}) q|; closed, at |q| = 1
    within band, also binom(n, j) - |y_j|."""
    n = len(coords)
    q = coords[-1]
    aq = _cabs(q)
    unit_q = closed and abs(aq - 1.0) <= band
    slack = math.inf
    for j in range(1, n // 2 + 1):
        slack = min(slack, _c7(math.comb(n, j), coords[j - 1], coords[n - 1 - j], q, aq, unit_q))
    return slack


def beta_recover(y: CPoint) -> BetaVector:
    """The forced beta-representation beta_j = (y_j - conj(y_{n-j}) q) / (1 - |q|^2)."""
    if _cabs(y.q) >= 1.0:
        raise DomainError("beta recovery needs |q| < 1")
    return BetaVector(y.n, _beta_coords(y.coords))


def b_matrices(y: CPoint) -> list[np.ndarray]:
    """The symmetric matrices of condition (9): diag (y_j/C, y_{n-j}/C),
    off-diagonal any square root of y_j y_{n-j}/C^2 - q (principal branch);
    all have determinant q, and membership is equivalent to every norm < 1.
    """
    n = y.n
    if n < 2:
        raise DomainError("needs n >= 2")
    out = []
    for j in range(1, n // 2 + 1):
        c = float(binom(n, j))
        a = y.y(j) / c
        d = y.y(n - j) / c
        k = cmath.sqrt(a * d - y.q)
        out.append(np.array([[a, k], [k, d]], dtype=complex))
    return out


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


def in_g(s: CPoint, band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the symmetrized polydisc G_n.

    Recursive descent: s is in G_n iff s is in tilde-G_n and the recovered
    beta-point lies in G_{n-1}; the base case G_1 is the unit disc.  The
    beta-points visited are recorded in recursion_trace.
    """
    trace: list[CPoint] = []
    cur = s.coords
    verdict = True
    while len(cur) > 1:
        if _cabs(cur[-1]) >= 1.0 or _tilde_slack7(cur, closed=False, band=band) <= 0.0:
            verdict = False
            break
        cur = _beta_coords(cur)
        trace.append(CPoint(cur))
    if verdict:
        verdict = _cabs(cur[0]) < 1.0
    auth = _tilde_slack7(s.coords, False, band) if s.n > 1 else 1.0 - _cabs(s.coords[0])
    return MembershipReport(
        point=s,
        set_id="g",
        verdict=verdict,
        per_condition=_margins({"C7": auth}, ("C7",), False, band),
        recursion_trace=tuple(trace),
    )


def in_gamma(s: CPoint, band: float = BOUNDARY_BAND) -> MembershipReport:
    """Membership in the closed symmetrized polydisc Gamma_n.

    For |p| inside the unit circle: s in Gamma_n iff s in tilde-Gamma_n and
    the beta-point is in Gamma_{n-1}.  At |p| = 1 (within band) the point
    is in Gamma_n iff it lies on the distinguished boundary, which has its
    own characterization; beyond, it is out.
    """
    trace: list[CPoint] = []
    cur = s.coords
    verdict: bool | None = None
    while len(cur) > 1:
        ap = _cabs(cur[-1])
        if ap > 1.0 + band:
            verdict = False
            break
        if abs(ap - 1.0) <= band:
            verdict = _b_gamma_coords(cur, band)
            break
        if _tilde_slack7(cur, closed=True, band=band) < -band:
            verdict = False
            break
        cur = _beta_coords(cur)
        trace.append(CPoint(cur))
    if verdict is None:
        verdict = _cabs(cur[0]) <= 1.0 + band
    auth = _tilde_slack7(s.coords, True, band) if s.n > 1 else 1.0 - _cabs(s.coords[0])
    return MembershipReport(
        point=s,
        set_id="gamma",
        verdict=verdict,
        per_condition=_margins({"C7": auth}, ("C7",), True, band),
        recursion_trace=tuple(trace),
    )


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
    return in_gamma(CPoint(scaled), band=band).verdict


def in_b_gamma(s: CPoint, band: float = BOUNDARY_BAND) -> bool:
    """Distinguished boundary of Gamma_n: |p| = 1, y_j = conj(y_{n-j}) p,
    and the (n-1)/n-scaled truncation lies in Gamma_{n-1}."""
    return _b_gamma_coords(s.coords, band)


def symmetrize(z: list[complex] | tuple[complex, ...]) -> CPoint:
    """Elementary symmetric coordinates (s_1, ..., s_{n-1}, p) of z in C^n,
    by the stable one-point-at-a-time recurrence (exact on integer input)."""
    z = [complex(w) for w in z]
    n = len(z)
    if n < 1:
        raise DomainError("need at least one coordinate")
    e = [complex(1.0)] + [complex(0.0)] * n
    for m, zm in enumerate(z, start=1):
        for k in range(m, 0, -1):
            e[k] = e[k] + zm * e[k - 1]
    return CPoint(tuple(e[1:]))


# ---------------------------------------------------------------------------
# batch forms of the boolean core over (m, n) complex arrays
#
# Each row is one point; every result equals the scalar function's on that
# row bit for bit (up to the sign of zero, which no slack or verdict sees).
# numpy's complex abs and product round differently from CPython's, so the
# kernels use np.hypot and CPython's real/imag product formula instead;
# squares are x * x on both paths.  Rows that leave a descent early are
# dropped from the arrays of the next level.
# ---------------------------------------------------------------------------


def _cplx(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _conj_mul(ar, ai, br, bi):
    """conj(a) * b, rounded as CPython rounds it."""
    return ar * br + ai * bi, ar * bi - ai * br


@np.errstate(all="ignore")
def _tilde_slack7_batch(y: np.ndarray, closed: bool, band: float) -> np.ndarray:
    """_tilde_slack7 on every row of y."""
    n = y.shape[1]
    h = n // 2
    c = np.array([float(math.comb(n, j)) for j in range(1, h + 1)])
    re, im = y.real, y.imag
    qr, qi = re[:, -1:], im[:, -1:]
    aq = np.hypot(qr, qi)
    mirror = [n - 1 - j for j in range(1, h + 1)]
    jr, ji = re[:, :h], im[:, :h]
    nr, ni = re[:, mirror], im[:, mirror]
    pr, pi = _conj_mul(jr, ji, qr, qi)
    a = np.hypot(nr - pr, ni - pi)
    pr, pi = _conj_mul(nr, ni, qr, qi)
    s = c * (1.0 - aq * aq) - (a + np.hypot(jr - pr, ji - pi))
    if closed:
        t = c - np.hypot(jr, ji)
        s = np.where((np.abs(aq - 1.0) <= band) & (t < s), t, s)
    # min() from +inf as in the scalar loop: a NaN term never wins
    return np.fmin.reduce(s, axis=1, initial=math.inf)


def _beta_coords_batch(y: np.ndarray) -> np.ndarray:
    """_beta_coords on every row of y."""
    n = y.shape[1]
    re, im = y.real, y.imag
    pr, pi = re[:, -1:], im[:, -1:]
    ap = np.hypot(pr, pi)
    denom = 1.0 - ap * ap
    mirror = list(range(n - 2, -1, -1))
    br, bi = _conj_mul(re[:, mirror], im[:, mirror], pr, pi)
    return _cplx((re[:, :-1] - br) / denom, (im[:, :-1] - bi) / denom)


def in_tilde_g_batch(y: np.ndarray, band: float = BOUNDARY_BAND) -> np.ndarray:
    """in_tilde_g(y).verdict for every row of the (m, n) array y."""
    if y.shape[1] < 2:
        raise DomainError("extended symmetrized polydisc needs n >= 2")
    return _tilde_slack7_batch(y, closed=False, band=band) > 0.0


@np.errstate(all="ignore")
def in_g_batch(s: np.ndarray, band: float = BOUNDARY_BAND) -> np.ndarray:
    """in_g(s).verdict for every row of the (m, n) array s."""
    verdict = np.zeros(s.shape[0], dtype=bool)
    idx = np.arange(s.shape[0])
    cur = s
    while cur.shape[1] > 1 and idx.size:
        ap = np.hypot(cur[:, -1].real, cur[:, -1].imag)
        keep = ~((ap >= 1.0) | (_tilde_slack7_batch(cur, False, band) <= 0.0))
        cur, idx = _beta_coords_batch(cur[keep]), idx[keep]
    verdict[idx] = np.hypot(cur[:, 0].real, cur[:, 0].imag) < 1.0
    return verdict


@np.errstate(all="ignore")
def in_gamma_batch(s: np.ndarray, band: float = BOUNDARY_BAND) -> np.ndarray:
    """in_gamma(s).verdict for every row of the (m, n) array s."""
    verdict = np.zeros(s.shape[0], dtype=bool)
    idx = np.arange(s.shape[0])
    cur = s
    while cur.shape[1] > 1 and idx.size:
        ap = np.hypot(cur[:, -1].real, cur[:, -1].imag)
        inside = ~(ap > 1.0 + band)
        unit = inside & (np.abs(ap - 1.0) <= band)
        if unit.any():
            verdict[idx[unit]] = in_b_gamma_batch(cur[unit], band)
        inside &= ~unit
        cur, idx = cur[inside], idx[inside]
        keep = ~(_tilde_slack7_batch(cur, True, band) < -band)
        cur, idx = _beta_coords_batch(cur[keep]), idx[keep]
    verdict[idx] = np.hypot(cur[:, 0].real, cur[:, 0].imag) <= 1.0 + band
    return verdict


@np.errstate(all="ignore")
def in_b_gamma_batch(s: np.ndarray, band: float = BOUNDARY_BAND) -> np.ndarray:
    """in_b_gamma(s) for every row of the (m, n) array s."""
    n = s.shape[1]
    re, im = s.real, s.imag
    a = np.hypot(re, im)
    if n == 1:
        return np.abs(a[:, 0] - 1.0) <= band
    ok = ~(np.abs(a[:, -1] - 1.0) > band)
    pr, pi = re[:, -1:], im[:, -1:]
    mirror = list(range(n - 2, -1, -1))
    br, bi = _conj_mul(re[:, mirror], im[:, mirror], pr, pi)
    resid = np.hypot(re[:, :-1] - br, im[:, :-1] - bi)
    scale = 1.0 + a.max(axis=1)
    ok &= ~(resid > (band * scale)[:, None]).any(axis=1)
    factor = np.array([(n - j) / n for j in range(1, n)])
    verdict = np.zeros(s.shape[0], dtype=bool)
    rows = s[ok]
    verdict[ok] = in_gamma_batch(
        _cplx(factor * rows[:, :-1].real, factor * rows[:, :-1].imag), band
    )
    return verdict


@np.errstate(all="ignore")
def symmetrize_batch(z: np.ndarray) -> np.ndarray:
    """symmetrize(z).coords for every row of the (m, n) array z."""
    m, n = z.shape
    if n < 1:
        raise DomainError("need at least one coordinate")
    er = np.zeros((n + 1, m))
    ei = np.zeros((n + 1, m))
    er[0] = 1.0
    zr, zi = z.real.T, z.imag.T
    for k0 in range(n):
        ar, ai = zr[k0], zi[k0]
        for k in range(k0 + 1, 0, -1):
            br, bi = er[k - 1], ei[k - 1]
            er[k] = er[k] + (ar * br - ai * bi)
            ei[k] = ei[k] + (ar * bi + ai * br)
    return _cplx(er[1:].T, ei[1:].T)


# ---------------------------------------------------------------------------
# Costara's rational function
# ---------------------------------------------------------------------------


def _costara_coeffs(s: CPoint) -> tuple[list[complex], list[complex]]:
    """Ascending coefficients (numerator, denominator) of f_s.

    num_k = (-1)^{k+1} (k+1) s_{k+1},  den_k = (-1)^k (n-k) s_k,  s_0 = 1.
    """
    n = s.n
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
    of points."""
    num, den = _costara_coeffs(s)
    d = _polyval(den, z)
    _check_poles(d, z, "f_s")
    return _polyval(num, z) / d


@np.errstate(all="ignore")
def costara_sup(s: CPoint, grid: int = 4096) -> float:
    """sup over the closed unit disc of |f_s|.

    If the denominator has a root in the closed disc (companion-matrix test,
    |root| <= 1 + 1e-10) where the numerator does not vanish, the sup is
    +inf.  Otherwise the poles are outside and the maximum principle reduces
    the sup to the boundary, sampled on `grid` points.
    """
    if grid < 8:
        raise DomainError("grid must be at least 8")
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
    sup = float(np.abs(costara_f(s, circle(grid))).max())
    if not math.isfinite(sup):
        raise DomainError("sup is not finite: f_s overflows on the grid")
    return sup


def scale_point(s: CPoint, lam: complex) -> CPoint:
    """(s_1, ..., s_{n-1}, p) -> (s_1/lam, s_2/lam^2, ..., p/lam^n).

    Undoes the coordinatewise homogeneity of the symmetrization map:
    symmetrize(lam * z) rescaled by lam is symmetrize(z).
    """
    lam = complex(lam)
    if lam == 0:
        raise DomainError("lam must be nonzero")
    return CPoint(tuple(c / lam ** (k + 1) for k, c in enumerate(s.coords)))


@np.errstate(all="ignore")
def nonvanishing_falsifier(
    y: CPoint, j: int, grid: int = 64
) -> tuple[float, complex, complex]:
    """Diagnostic search for a zero of
    g(z, w) = binom - y_j z - y_{n-j} w + binom q z w on the closed bidisc.

    Returns (min |g|, argmin z, argmin w).  The zero curve z(w) is traced
    over a `grid`-point circle sweep of w (both variable roles), with z
    projected into the closed disc when it falls outside; a grid over the
    torus x torus is also sampled (grid**2 points, held in memory at once).
    A near-zero minimum falsifies condition (2); a large minimum certifies
    nothing (the verdict stays with C7).
    """
    n = y.n
    c = float(binom(n, j))
    yj, ynj, q = y.y(j), y.y(n - j), y.q
    e = circle(grid)
    # candidates in search order, so argmin keeps the first of equal minima:
    # (1, 1), the torus grid, then per radius and angle the zero curve in
    # both variable roles, dropping points where its denominator vanishes
    w = np.array([0.0, 0.5, 0.9, 1.0])[:, None, None] * e[:, None]
    den = c * q * w - np.array([yj, ynj])
    ok = np.abs(den) > 1e-300
    z = (np.array([ynj, yj]) * w - c) / np.where(ok, den, 1.0)
    z /= np.maximum(np.abs(z), 1.0)  # projected into the closed disc
    w, first = np.broadcast_to(w, z.shape), np.array([True, False])
    zs = np.concatenate(([1.0], np.repeat(e, grid), np.where(first, z, w)[ok]))
    ws = np.concatenate(([1.0], np.tile(e, grid), np.where(first, w, z)[ok]))
    vals = np.abs(c - yj * zs - ynj * ws + c * q * zs * ws)
    k = int(np.argmin(vals))
    if math.isnan(vals[k]):
        raise DomainError("minimum is not a number: g overflows on the grid")
    return float(vals[k]), complex(zs[k]), complex(ws[k])
