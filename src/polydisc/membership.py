"""Point membership for the extended symmetrized polydisc and its relatives.

Five sets are decided here, each with explainable per-condition margins:

* tilde-G_n   (open extended symmetrized polydisc),
* tilde-Gamma_n (its closure),
* G_n         (symmetrized polydisc, via the recursive beta-descent),
* Gamma_n     (closed symmetrized polydisc),
* b Gamma_n   (distinguished boundary).

Each of these sets admits several equivalent characterizations, most with
their own formula.  Some condition ids are declared aliases that share one
implementation, so a sweep comparing them checks nothing: C2 is C7 (the
C7 slack), C8 is C9 (one `_b_norm`), and the closed condition C10 shares
`_closed_beta_slack` with Schwarz condition (11).  The authoritative
verdict is always the beta-representation inequality ("C7"):

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
from .mobius import CPoint, _cabs, _check_poles, binom, circle, d_norm, degenerate_product

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
# per-condition slacks
# ---------------------------------------------------------------------------


def _b_norm(c: float, yj: complex, ynj: complex, q: complex) -> float:
    # closed-form operator norm of [[yj/c, k], [k, ynj/c]], k^2 = yj*ynj/c^2 - q
    a = yj / c
    d = ynj / c
    k = cmath.sqrt(a * d - q)
    T = abs(a) ** 2 + abs(d) ** 2 + 2 * abs(k) ** 2
    D = abs(q) ** 2  # |det|^2, det = q by construction
    disc = math.sqrt(max(T * T - 4.0 * D, 0.0))
    return math.sqrt(max((T + disc) / 2.0, 0.0))


def _cond_slack(y: CPoint, cond: str, closed: bool, band: float) -> float:
    """Minimum slack of `cond` over j = 1..floor(n/2) (plus global clauses)."""
    n = y.n
    q = y.q
    if cond in ("C2", "C7"):
        return _tilde_slack7(y.coords, closed, band)
    if cond == "C10":
        cs = [float(binom(n, j)) for j in range(1, n // 2 + 1)]
        return _closed_beta_slack(y.coords, band, cs, [1.0] * len(cs))
    slack = math.inf
    if cond == "C6":
        slack = 1.0 - abs(q)  # |q| < 1 (<= 1 closed) folded in once
    for j in range(1, n // 2 + 1):
        c = float(binom(n, j))
        yj, ynj = y.y(j), y.y(n - j)
        degen = degenerate_product(y, j)
        det_term = abs(yj * ynj - c * c * q)
        if cond == "C3":
            s = 1.0 - d_norm(j, y)
            if degen:
                s = min(s, c - abs(ynj))
        elif cond == "C3p":
            s = 1.0 - d_norm(n - j, y)
            if degen:
                s = min(s, c - abs(yj))
        elif cond == "C4":
            s = (c * c - abs(ynj) ** 2) - (
                c * abs(yj - ynj.conjugate() * q) + det_term
            )
            if closed and degen:
                s = min(s, c - abs(yj))
        elif cond == "C4p":
            s = (c * c - abs(yj) ** 2) - (
                c * abs(ynj - yj.conjugate() * q) + det_term
            )
            if closed and degen:
                s = min(s, c - abs(ynj))
        elif cond == "C5":
            s = c * c - (
                abs(yj) ** 2
                - abs(ynj) ** 2
                + c * c * abs(q) ** 2
                + 2 * c * abs(ynj - yj.conjugate() * q)
            )
            s = min(s, c - abs(ynj))
        elif cond == "C5p":
            s = c * c - (
                abs(ynj) ** 2
                - abs(yj) ** 2
                + c * c * abs(q) ** 2
                + 2 * c * abs(yj - ynj.conjugate() * q)
            )
            s = min(s, c - abs(yj))
        elif cond == "C6":
            s = c * c - (
                abs(yj) ** 2 + abs(ynj) ** 2 - c * c * abs(q) ** 2 + 2 * det_term
            )
        elif cond in ("C8", "C9"):
            s = 1.0 - _b_norm(c, yj, ynj, q)
        else:
            raise DomainError(f"unknown condition id {cond!r}")
        slack = min(slack, s)
    return slack


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
    if abs(q) > 1.0 + band:
        return 1.0 - abs(q)
    slack = math.inf
    if abs(abs(q) - 1.0) <= band:
        scale = 1.0 + max(abs(c) for c in coords)
        for j in range(1, n // 2 + 1):
            resid = abs(coords[j - 1] - coords[n - 1 - j].conjugate() * q)
            if resid > band * scale:
                return -resid
            slack = min(slack, cs[j - 1] - ws[j - 1] * abs(coords[j - 1]))
        return slack
    betas = _beta_coords(coords)
    for j in range(1, n // 2 + 1):
        s = cs[j - 1] - ws[j - 1] * (abs(betas[j - 1]) + abs(betas[n - 1 - j]))
        slack = min(slack, s)
    return slack


def _margin(y, cond, closed, band) -> ConditionMargin:
    s = _cond_slack(y, cond, closed, band)
    holds = (s >= -band) if closed else (s > 0.0)
    return ConditionMargin(cond, holds, s, abs(s) < band)


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
    margins = tuple(_margin(y, c, closed, band) for c in wanted)
    auth = _margin(y, "C7", closed, band)
    return MembershipReport(
        point=y,
        set_id="tilde-gamma" if closed else "tilde-g",
        verdict=auth.holds,
        per_condition=margins,
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
    aq = abs(q)
    slack = math.inf
    unit_q = closed and abs(aq - 1.0) <= band
    for j in range(1, n // 2 + 1):
        c = float(math.comb(n, j))
        yj, ynj = coords[j - 1], coords[n - 1 - j]
        s = c * (1.0 - aq * aq) - (
            abs(ynj - yj.conjugate() * q) + abs(yj - ynj.conjugate() * q)
        )
        if unit_q:
            s = min(s, c - abs(yj))
        slack = min(slack, s)
    return slack


def beta_recover(y: CPoint) -> BetaVector:
    """The forced beta-representation beta_j = (y_j - conj(y_{n-j}) q) / (1 - |q|^2)."""
    if abs(y.q) >= 1.0:
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
        p = cur[-1]
        if abs(p) >= 1.0 or _tilde_slack7(cur, closed=False, band=band) <= 0.0:
            verdict = False
            break
        cur = _beta_coords(cur)
        trace.append(CPoint(cur))
    if verdict:
        verdict = abs(cur[0]) < 1.0
    auth = _margin(s, "C7", False, band) if s.n >= 2 else ConditionMargin(
        "C7", abs(s.coords[0]) < 1.0, 1.0 - abs(s.coords[0]), abs(1.0 - abs(s.coords[0])) < band
    )
    return MembershipReport(
        point=s,
        set_id="g",
        verdict=verdict,
        per_condition=(auth,),
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
        p = cur[-1]
        if abs(p) > 1.0 + band:
            verdict = False
            break
        if abs(abs(p) - 1.0) <= band:
            verdict = _b_gamma_coords(cur, band)
            break
        if _tilde_slack7(cur, closed=True, band=band) < -band:
            verdict = False
            break
        cur = _beta_coords(cur)
        trace.append(CPoint(cur))
    if verdict is None:
        verdict = abs(cur[0]) <= 1.0 + band
    auth = _margin(s, "C7", True, band) if s.n >= 2 else ConditionMargin(
        "C7", abs(s.coords[0]) <= 1.0 + band, 1.0 - abs(s.coords[0]), abs(1.0 - abs(s.coords[0])) < band
    )
    return MembershipReport(
        point=s,
        set_id="gamma",
        verdict=verdict,
        per_condition=(auth,),
        recursion_trace=tuple(trace),
    )


def _b_gamma_coords(coords: tuple[complex, ...], band: float) -> bool:
    n = len(coords)
    if n == 1:
        return abs(abs(coords[0]) - 1.0) <= band
    p = coords[-1]
    if abs(abs(p) - 1.0) > band:
        return False
    scale = 1.0 + max(abs(c) for c in coords)
    for j in range(1, n):
        if abs(coords[j - 1] - coords[n - 1 - j].conjugate() * p) > band * scale:
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


def costara_f(s: CPoint, z: complex | np.ndarray) -> complex | np.ndarray:
    """Costara's rational function f_s at z, or elementwise over an array
    of points."""
    num, den = _costara_coeffs(s)
    d = _polyval(den, z)
    _check_poles(d, z, "f_s")
    return _polyval(num, z) / d


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
