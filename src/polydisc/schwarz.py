"""Two-point Schwarz-lemma feasibility for the extended symmetrized polydisc.

A problem asks for an analytic disc map psi with psi(0) = 0 and
psi(lambda0) = y0.  Ten checkable conditions (numbered 2..11 after the
existence statement itself) are reported with signed margins; conditions
3, 4, 6, 7, 8, 9, 10, 11 are mutually equivalent, 2 is stronger, and 5 is
the constructive Schur-pair certificate that the interpolation module
consumes.  Some are declared aliases that share one implementation, so a
sweep comparing them checks nothing: S3 is S6 (the closed-form sup-norm),
S7 is S10 (the closed inequality), and S4 and S11 are membership's closed
C7 and C10 slacks of the lifted point (`lift`; for even n in its units
binom(n+1, j)), S11 capped by |lambda0| - |q|.
S3/S6 and S7..S10 read one row of moduli per pair (`_branch_rows`); S8,
S9 and S10 are membership's C5, C6 and C7 expressions at alpha = |lambda0|.

Branching convention: for each index pair (j, n-j) the inequalities read
through Phi_j when |y_{n-j}| <= |y_j| ("DivideJ", ties included) and
through Phi_{n-j} otherwise ("DivideNJ").
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .clinalg import _entries, _inv2, _sq, _svals, herm_eig, op_norm
from .errors import DegenerateProblemError, DomainError
from .membership import (
    BOUNDARY_BAND,
    ConditionMargin,
    _closed_beta_slack,
    _s8,
    _s9,
    _s10,
    _tilde_slack7,
    costara_sup,
    in_tilde_g,
)
from .mobius import CPoint, _band, _cabs, _degenerate, _number, _pair_terms, _real, _sup_formula, binom, d_norm

__all__ = [
    "SchwarzProblem",
    "SchurCertificate",
    "check_condition",
    "lift",
    "k_rho",
    "schur_certificates",
    "in_J_n",
    "gn_schwarz_bound",
]

SCHWARZ_CONDITIONS = tuple(range(2, 12))


def _check_lambda0(lambda0: complex) -> complex:
    """_number(lambda0), refused unless 0 < |lambda0| < 1 (an overflowing modulus included)."""
    lam = _number(lambda0)
    if not 0.0 < _cabs(lam) < 1.0:
        raise DomainError("lambda0 must satisfy 0 < |lambda0| < 1")
    return lam


@dataclass(frozen=True)
class SchwarzProblem:
    lambda0: complex
    target: CPoint

    def __post_init__(self):
        object.__setattr__(self, "lambda0", _check_lambda0(self.lambda0))
        if not in_tilde_g(self.target, cond="C7").verdict:
            raise DomainError("target is not in the open extended symmetrized polydisc")

    @property
    def n(self) -> int:
        return self.target.n

    def branch(self, j: int) -> str:
        y = self.target
        return "DivideJ" if abs(y.y(j)) >= abs(y.y(y.n - j)) else "DivideNJ"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda0": [self.lambda0.real, self.lambda0.imag],
            "target": self.target.to_json(),
        }


@dataclass(frozen=True)
class SchurCertificate:
    j: int
    branch: str
    Z: np.ndarray | None
    w_j: complex
    K: np.ndarray | None
    alpha: np.ndarray | None
    feasible: bool
    marginal: bool
    slack: float


def lift(p: SchwarzProblem) -> CPoint:
    """The branch-selected lifted point: divide the larger coordinate of each
    pair and q by lambda0.  Odd n stays in C^n; even n lands in C^{n+1}
    with the binomial weights m / (m - j), m = n + 1, and the middle
    coordinate, a tie read DivideJ, split over the middle pair."""
    n = p.n
    lam = p.lambda0
    y = p.target
    m = n + 1 - n % 2
    coords = [0j] * m
    for j in range(1, n // 2 + 1):
        if p.branch(j) == "DivideJ":
            tj, tnj = y.y(j) / lam, y.y(n - j)
        else:
            tj, tnj = y.y(j), y.y(n - j) / lam
        if m > n:
            tj, tnj = m / (m - j) * tj, m / (m - j) * tnj
        coords[j - 1], coords[m - 1 - j] = tj, tnj
    coords[m - 1] = y.q / lam
    return CPoint(tuple(coords))


def _branch_rows(p: SchwarzProblem):
    """Per pair j = 1..floor(n/2): (j, binom, y_j, y_{n-j}, row), the pair
    read larger coordinate first (its branch), and row its `_pair_terms`
    at alpha = |lambda0|, as doubles."""
    y, n, al = p.target, p.n, abs(p.lambda0)
    for j in range(1, n // 2 + 1):
        yj, ynj = y.y(j), y.y(n - j)
        if p.branch(j) == "DivideNJ":
            yj, ynj = ynj, yj
        c = binom(n, j)
        yield j, c, yj, ynj, tuple(map(float, _pair_terms(c, yj, ynj, y.q, al)))


def check_condition(
    p: SchwarzProblem, cond: int, band: float = BOUNDARY_BAND
) -> ConditionMargin:
    """Signed margin of one numbered condition (2..11); holds iff slack >= -band."""
    band = _band(band)
    if cond not in SCHWARZ_CONDITIONS:
        raise DomainError(f"condition must be one of {SCHWARZ_CONDITIONS}")
    n = p.n
    y = p.target
    al = abs(p.lambda0)
    q = y.q
    if cond == 2:
        slack = min(al - d_norm(j, y) for j in range(1, n))
    elif cond == 4:
        slack = _tilde_slack7(lift(p).coords, band)
    elif cond == 5:
        slack = min(c.slack for c in schur_certificates(p, band=band))
    elif cond == 11:
        slack = min(al - abs(q), _closed_beta_slack(lift(p).coords, band))
    else:
        # (6) is (3) with the sup-norm written out, both the closed form D of
        # the branch; (7) is the bilinear nonvanishing statement, decided
        # through the equivalent closed inequality (10)
        slack = al - abs(q) if cond == 9 else math.inf
        for _, c, _, _, (a, b, aq, x, z, k) in _branch_rows(p):
            if cond in (3, 6):
                s = al - _sup_formula(c, a, b, z, k, _degenerate(c, k, aq))
            elif cond == 8:
                s = _s8(c, al, a, b, aq, x)
            elif cond == 9:
                s = _s9(c, al, a, b, aq, k)
            else:
                s = _s10(c, al, aq, x, z)
            slack = min(slack, s)
    return ConditionMargin(f"S{cond}", slack >= -band, slack, abs(slack) < band)


def _xj_terms(
    c: float, yj: complex, ynj: complex, q: complex, al: float
) -> tuple[float, float, float]:
    """(X_j, X_{n-j}, J) from binom c, the pair (y_j, y_{n-j}), q and
    |lambda0|, read off the pair's row, which must not be degenerate.  The
    X's are >= 2 exactly when the branch-selected sup-norm bound holds; J
    is the first norm constraint on the off-diagonal scaling nu^2."""
    t = _pair_terms(c, yj, ynj, q)
    if _degenerate(c, t[5], t[2]):
        raise DegenerateProblemError("X/J quantities are undefined when y_j y_{n-j} = binom^2 q")
    a, b, aq, _, _, k = map(float, t)
    a2, b2, q2, al2 = a * a, b * b, c * c * (aq * aq), al * al
    xj = al / k * (c * c - a2 - b2 / al2 + q2 / al2)
    xnj = al / k * (c * c - a2 / al2 - b2 + q2 / al2)
    return xj, xnj, al * (c * c - b2) / k


def _z_nu_general(
    c: float, yj: complex, ynj: complex, q: complex, lam0: complex, nu: float
) -> np.ndarray:
    """Z_nu = [[y_j / (c lambda0), nu w], [w / nu, y_{n-j} / c]] (Z_j at nu = 1) for a
    non-degenerate pair, w the principal root of (y_j y_{n-j} - c^2 q) / (c^2 lambda0)."""
    w = cmath.sqrt((yj * ynj - c * c * q) / (c * c * lam0))
    return np.array([[yj / (c * lam0), nu * w], [w / nu, ynj / c]])


def k_rho(Z: np.ndarray, rho: float) -> np.ndarray:
    """The feasibility matrix K_Z(rho), assembled entrywise:

        [ [(1-rho^2 Z*Z)(1-Z*Z)^{-1}]_11   [(1-rho^2)(1-ZZ*)^{-1} Z]_21 ]
        [ [(1-rho^2) Z*(1-ZZ*)^{-1}]_12    [(ZZ*-rho^2)(1-ZZ*)^{-1}]_22 ]

    Hermitian by construction.  The quadratic form it induces measures
    ||v(alpha)||^2 - rho^2 ||u(alpha)||^2 with a conjugated argument, so the
    alpha to feed u/v is the conjugate of an eigenvector (see _pair_route).
    """
    rho = _real(rho, "rho must lie in [0, 1)")
    if not 0.0 <= rho < 1.0:
        raise DomainError("rho must lie in [0, 1)")
    a, b, c, d = _entries(Z)
    if _svals(a, b, c, d)[0] >= 1.0:
        raise DomainError("Z must be a strict contraction")
    r2 = rho * rho
    sa, sb, sc, sd = _sq(a), _sq(b), _sq(c), _sq(d)
    be = a.conjugate() * b + c.conjugate() * d  # [Z*Z]_12
    ga = a * c.conjugate() + b * d.conjugate()  # [ZZ*]_12
    l11, _, l21, _ = _inv2(1.0 - sa - sc, -be, -be.conjugate(), 1.0 - sb - sd)
    _, r12, r21, r22 = _inv2(1.0 - sa - sb, -ga, -ga.conjugate(), 1.0 - sc - sd)
    k11 = (1.0 - r2 * (sa + sc)) * l11 - r2 * be * l21
    k12 = (1.0 - r2) * (r21 * a + r22 * c)
    k21 = (1.0 - r2) * (a.conjugate() * r12 + c.conjugate() * r22)
    k22 = ga.conjugate() * r12 + (sc + sd - r2) * r22
    return np.array([[k11, k12], [k21, k22]])


def _pair_route(c, yj, ynj, q: complex, lam: complex, nu: float, band: float, row) -> tuple:
    """Condition (5) on one index pair, read larger coordinate first, at Z_nu:
    (route, Z_nu, [Z_nu]_21, K, alpha, feasible, marginal, slack) from the
    pair's row of doubles.  The route is "degenerate" (y_j y_{n-j} = c^2 q:
    the diagonal pair, feasible iff both coordinates fit under |lambda0|),
    "strict" (||Z_nu|| < 1 - band or the branch sup-norm D < |lambda0| -
    band: feasible iff K_{Z_nu}(|lambda0|) has lambda_min <= band), else
    "marginal" (||Z_nu|| <= 1 + band: exactly extremal) or "infeasible",
    both with slack |lambda0| - D."""
    a, b, aq, _, z, k = row
    al = abs(lam)
    if _degenerate(c, k, aq):
        top = max(a, b) / c
        Z = np.array([[yj / (c * lam), 0.0], [0.0, ynj / c]])
        return ("degenerate", Z, 0.0, None, None, top <= al + band, abs(top - al) < band, al - top)
    Z = _z_nu_general(c, yj, ynj, q, lam, nu)
    w = complex(Z[1, 0])
    zn, D = op_norm(Z), _sup_formula(c, a, b, z, k, False)
    if zn < 1.0 - band or D < al - band:
        # alpha = conj(v_min) gives ||v(alpha)||^2 - |lambda0|^2 ||u(alpha)||^2 = lambda_min
        K = k_rho(Z, al)
        eig = herm_eig(K)
        return ("strict", Z, w, K, eig.v_min.conj(), eig.lam_min <= band, False, -eig.lam_min)
    marginal = zn <= 1.0 + band
    return ("marginal" if marginal else "infeasible", Z, w, None, None, marginal, marginal, al - D)


def schur_certificates(
    p: SchwarzProblem, band: float = BOUNDARY_BAND
) -> list[SchurCertificate]:
    """Condition (5) made constructive: per index pair, `_pair_route` at
    nu = 1, the route the slice construction takes.  A Z_j past the double
    range raises DomainError."""
    band, out = _band(band), []
    for j, c, yj, ynj, row in _branch_rows(p):
        _, Z, *fields = _pair_route(c, yj, ynj, p.target.q, p.lambda0, 1.0, band, row)
        if not np.isfinite(Z).all():  # y / lambda0 past the double range at a tiny lambda0
            raise DomainError(f"Z_{j} leaves the double range at this lambda0")
        out.append(SchurCertificate(j, p.branch(j), Z, *fields))
    return out


def _slice_point(n: int, y1: complex, yn1: complex, q: complex) -> tuple[complex, ...]:
    """Coordinates of the point of the proportionality slice J_n through
    (y_1, y_{n-1}, q): y_j = binom(n,j)/n * y_1 and y_{n-j} = binom(n,j)/n *
    y_{n-1} for 2 <= j <= n/2, the middle coordinate of even n averaged (for
    n <= 3 the point (y_1, y_{n-1}, q) itself)."""
    nn = binom(n, 1)
    coords = [0j] * n
    coords[0], coords[n - 2], coords[n - 1] = y1, yn1, q
    for j in range(2, n // 2 + 1):
        coords[j - 1] = binom(n, j) / nn * y1
        coords[n - 1 - j] = binom(n, j) / nn * yn1
    if n % 2 == 0:
        coords[n // 2 - 1] = binom(n, n // 2) / nn * (y1 + yn1) / 2.0
    return tuple(coords)


def in_J_n(y: CPoint) -> bool:
    """Membership in the proportionality slice J_n (all of the domain for
    n <= 3): each coordinate within 1e-9 (1 + max |y_j|) of the slice point
    through (y_1, y_{n-1}, q)."""
    if not in_tilde_g(y, cond="C7").verdict:
        return False
    tol = 1e-9 * (1.0 + max(abs(c) for c in y.coords))
    s = _slice_point(y.n, y.y(1), y.y(y.n - 1), y.q)
    return all(abs(a - b) <= tol for a, b in zip(y.coords, s))


@functools.cache
def _binom_row(n: int) -> tuple[int, ...]:
    """(binom(n, 0), ..., binom(n, n)), built once per n."""
    return tuple(math.comb(n, j) for j in range(n + 1))


def _pi_coords(n: int, mats: list) -> list[complex]:
    """pi_n(M_1, ..., M_k), k = floor(n/2) >= 1, unchecked, from the entry
    tuples (m11, m12, m21, m22) of the 2x2 matrices M_j: coordinate j is
    binom(n, j) [M_j]_11 and coordinate n-j is binom(n, j) [M_j]_22 (the
    middle one averaged for even n), last the determinant of M_1."""
    k, row = n // 2, _binom_row(n)
    out = [0j] * n
    for j in range(1, k + 1):
        c, (a, _, _, d) = row[j], mats[j - 1]
        out[j - 1], out[n - 1 - j] = c * a, c * d
    if n % 2 == 0:
        a, _, _, d = mats[k - 1]
        out[k - 1] = row[k] * (a + d) / 2.0
    a, b, c, d = mats[0]
    out[n - 1] = a * d - b * c
    return out


def gn_schwarz_bound(
    s0: CPoint, lambda0: complex, grid: int = 4096, band: float = BOUNDARY_BAND
) -> ConditionMargin:
    """Necessary Schwarz bound for the symmetrized polydisc: the sup of
    Costara's function over the closed disc must not exceed |lambda0|."""
    lam, band = _check_lambda0(lambda0), _band(band)
    slack = abs(lam) - costara_sup(s0, grid)
    return ConditionMargin("costara-sup", slack >= -band, slack, abs(slack) < band)
