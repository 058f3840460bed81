"""Two-point Schwarz-lemma feasibility for the extended symmetrized polydisc.

A problem asks for an analytic disc map psi with psi(0) = 0 and
psi(lambda0) = y0.  Ten checkable conditions (numbered 2..11 after the
existence statement itself) are reported with signed margins; conditions
3, 4, 6, 7, 8, 9, 10, 11 are mutually equivalent, 2 is stronger, and 5 is
the constructive Schur-pair certificate that the interpolation module
consumes.  Some are declared aliases that share one implementation, so a
sweep comparing them checks nothing: S3 is S6 (the closed-form sup-norm),
S7 is S10 (the closed inequality), and S11 runs the closed beta test of
membership condition C10 (`_closed_beta_slack`) on the lifted point.
S3/S6 and S7..S10 read one row of moduli per pair (`_branch_rows`); S8,
S9 and S10 are membership's C5, C6 and C7 expressions at alpha = |lambda0|.

Branching convention: for each index pair (j, n-j) the inequalities read
through Phi_j when |y_{n-j}| <= |y_j| ("DivideJ", ties included) and
through Phi_{n-j} otherwise ("DivideNJ").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .clinalg import _inv2, herm_eig, op_norm
from .errors import DegenerateProblemError, DomainError
from .membership import (
    BOUNDARY_BAND,
    ConditionMargin,
    _closed_beta_slack,
    _s8,
    _s9,
    _s10,
    costara_sup,
    in_tilde_g,
    in_tilde_gamma,
)
from .mobius import CPoint, _degenerate, _pair_terms, _sup_formula, binom, d_norm

__all__ = [
    "SchwarzProblem",
    "LiftedPoint",
    "SchurCertificate",
    "check_condition",
    "lift",
    "xj_quantities",
    "k_rho",
    "feasibility_alpha",
    "schur_certificates",
    "in_J_n",
    "assemble_pi",
    "gn_schwarz_bound",
    "supnorm_comparison",
]

SCHWARZ_CONDITIONS = tuple(range(2, 12))


@dataclass(frozen=True)
class SchwarzProblem:
    lambda0: complex
    target: CPoint

    def __post_init__(self):
        lam = complex(self.lambda0)
        object.__setattr__(self, "lambda0", lam)
        if not 0.0 < abs(lam) < 1.0:
            raise DomainError("lambda0 must satisfy 0 < |lambda0| < 1")
        if self.target.n < 2:
            raise DomainError("target must have dimension n >= 2")
        if not in_tilde_g(self.target, cond="C7").verdict:
            raise DomainError("target is not in the open extended symmetrized polydisc")

    @property
    def n(self) -> int:
        return self.target.n

    def branch(self, j: int) -> str:
        y = self.target
        return "DivideJ" if abs(y.y(y.n - j)) <= abs(y.y(j)) else "DivideNJ"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda0": [self.lambda0.real, self.lambda0.imag],
            "target": self.target.to_json(),
        }


@dataclass(frozen=True)
class LiftedPoint:
    parent: SchwarzProblem
    point: CPoint
    branch_choices: tuple[str, ...]


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


def lift(p: SchwarzProblem) -> LiftedPoint:
    """The branch-selected lifted point: divide the larger coordinate of each
    pair and q by lambda0.  Odd n stays in C^n; even n lands in C^{n+1} with
    binomial reweighting and the middle coordinate duplicated."""
    n = p.n
    lam = p.lambda0
    y = p.target
    choices = tuple(p.branch(j) for j in range(1, n // 2 + 1))
    if n % 2 == 1:
        coords = list(y.coords)
        for j in range(1, n // 2 + 1):
            if choices[j - 1] == "DivideJ":
                coords[j - 1] = y.y(j) / lam
            else:
                coords[n - 1 - j] = y.y(n - j) / lam
        coords[n - 1] = y.q / lam
        return LiftedPoint(p, CPoint(tuple(coords)), choices)
    m = n + 1
    coords = [0j] * m
    for j in range(1, n // 2):
        f = m / (m - j)
        if choices[j - 1] == "DivideJ":
            tj, tnj = y.y(j) / lam, y.y(n - j)
        else:
            tj, tnj = y.y(j), y.y(n - j) / lam
        coords[j - 1] = f * tj
        coords[m - 1 - j] = f * tnj
    f = m / (n // 2 + 1)
    coords[n // 2 - 1] = f * (y.y(n // 2) / lam)
    coords[n // 2] = f * y.y(n // 2)
    coords[m - 1] = y.q / lam
    return LiftedPoint(p, CPoint(tuple(coords)), choices)


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


def _beta_slack_11(p: SchwarzProblem, band: float) -> float:
    """Condition (11): the closed beta test on the lifted point, with the
    binomial reweighting (m - j)/m of the even-n lift (m = n + 1)."""
    n = p.n
    lifted = lift(p).point
    m = lifted.n
    cs = [binom(n, j) for j in range(1, n // 2 + 1)]
    ws = [(m - j) / m if n % 2 == 0 else 1.0 for j in range(1, n // 2 + 1)]
    return min(
        abs(p.lambda0) - abs(p.target.q),
        _closed_beta_slack(lifted.coords, band, cs, ws),
    )


def check_condition(
    p: SchwarzProblem, cond: int, band: float = BOUNDARY_BAND
) -> ConditionMargin:
    """Signed margin of one numbered condition (2..11); holds iff slack >= -band."""
    if cond not in SCHWARZ_CONDITIONS:
        raise DomainError(f"condition must be one of {SCHWARZ_CONDITIONS}")
    n = p.n
    y = p.target
    al = abs(p.lambda0)
    q = y.q
    if cond == 2:
        slack = min(al - d_norm(j, y) for j in range(1, n))
    elif cond == 4:
        lifted = lift(p).point
        slack = in_tilde_gamma(lifted, cond="C7", band=band).condition("C7").slack
    elif cond == 5:
        slack = min(c.slack for c in schur_certificates(p, band=band))
    elif cond == 11:
        slack = _beta_slack_11(p, band)
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
    slack = float(slack)  # S5 reads numpy scalars, which JSON refuses
    return ConditionMargin(f"S{cond}", slack >= -band, slack, abs(slack) < band)


def xj_quantities(p: SchwarzProblem, j: int) -> tuple[float, float, float]:
    """(X_j, X_{n-j}, J) for a non-degenerate pair; X's are >= 2 exactly when
    the branch-selected sup-norm bound holds, J is the first norm constraint
    on the off-diagonal scaling nu^2."""
    y = p.target
    return _xj_terms(binom(p.n, j), y.y(j), y.y(p.n - j), y.q, abs(p.lambda0))


def _xj_terms(
    c: float, yj: complex, ynj: complex, q: complex, al: float
) -> tuple[float, float, float]:
    """(X_j, X_{n-j}, J) from binom c, the pair (y_j, y_{n-j}), q and
    |lambda0|, read off the pair's row, which must not be degenerate."""
    t = _pair_terms(c, yj, ynj, q)
    if _degenerate(c, t[5], t[2]):
        raise DegenerateProblemError("X/J quantities are undefined when y_j y_{n-j} = binom^2 q")
    a, b, aq, _, _, k = map(float, t)
    a2, b2, q2, al2 = a * a, b * b, c * c * (aq * aq), al * al
    xj = al / k * (c * c - a2 - b2 / al2 + q2 / al2)
    xnj = al / k * (c * c - a2 / al2 - b2 + q2 / al2)
    return xj, xnj, al * (c * c - b2) / k


def k_rho(Z: np.ndarray, rho: float) -> np.ndarray:
    """The feasibility matrix K_Z(rho), assembled entrywise:

        [ [(1-rho^2 Z*Z)(1-Z*Z)^{-1}]_11   [(1-rho^2)(1-ZZ*)^{-1} Z]_21 ]
        [ [(1-rho^2) Z*(1-ZZ*)^{-1}]_12    [(ZZ*-rho^2)(1-ZZ*)^{-1}]_22 ]

    Hermitian by construction.  The quadratic form it induces measures
    ||v(alpha)||^2 - rho^2 ||u(alpha)||^2 with a conjugated argument, so the
    alpha to feed u/v is the conjugate of an eigenvector (see
    feasibility_alpha).
    """
    Z = np.asarray(Z, dtype=complex)
    if not 0.0 <= rho < 1.0:
        raise DomainError("rho must lie in [0, 1)")
    if op_norm(Z) >= 1.0:
        raise DomainError("Z must be a strict contraction")
    I = np.eye(2)
    inv_l = _inv2(I - Z.conj().T @ Z)
    inv_r = _inv2(I - Z @ Z.conj().T)
    k11 = ((I - rho**2 * Z.conj().T @ Z) @ inv_l)[0, 0]
    k12 = ((1 - rho**2) * inv_r @ Z)[1, 0]
    k21 = ((1 - rho**2) * Z.conj().T @ inv_r)[0, 1]
    k22 = ((Z @ Z.conj().T - rho**2 * I) @ inv_r)[1, 1]
    return np.array([[k11, k12], [k21, k22]])


def feasibility_alpha(K: np.ndarray) -> tuple[float, np.ndarray]:
    """(lambda_min, alpha) with alpha the conjugated minimizing eigenvector:
    ||v(alpha)||^2 - rho^2 ||u(alpha)||^2 = lambda_min <= 0 iff feasible."""
    eig = herm_eig(np.asarray(K))
    return eig.lam_min, eig.v_min.conj()


def schur_certificates(
    p: SchwarzProblem, band: float = BOUNDARY_BAND
) -> list[SchurCertificate]:
    """Condition (5) made constructive, one certificate per index pair.

    Degenerate product: the diagonal pair of classical Schwarz problems;
    feasible iff both coordinates fit under |lambda0|.  Otherwise the
    symmetric matrix Z_j with w_j^2 = (y_j y_{n-j} - binom^2 q)/(binom^2
    lambda0) is tested: norm 1 within band means the problem is exactly
    extremal (feasible but flagged marginal; the strict construction
    refuses it), norm < 1 delegates to the sign of K_{Z_j}(|lambda0|).
    """
    lam = p.lambda0
    al = abs(lam)
    out = []
    for j, c, yj, ynj, (a, b, aq, _, z, k) in _branch_rows(p):
        K = alpha = None
        if _degenerate(c, k, aq):
            w, top = 0.0, max(a, b) / c
            Z = np.array([[yj / (c * lam), 0.0], [0.0, ynj / c]])
            feasible, marginal, slack = top <= al + band, abs(top - al) < band, al - top
        else:
            w = cmath.sqrt((yj * ynj - c * c * p.target.q) / (c * c * lam))
            Z = np.array([[yj / (c * lam), w], [w, ynj / c]])
            zn = op_norm(Z)
            if zn >= 1.0 - band:
                # the branch's sup-norm D, read off the same row
                feasible = marginal = zn <= 1.0 + band
                slack = al - _sup_formula(c, a, b, z, k, False)
            else:
                K = k_rho(Z, al)
                lam_min, alpha = feasibility_alpha(K)
                feasible, marginal, slack = lam_min <= band, False, -lam_min
        out.append(SchurCertificate(
            j=j, branch=p.branch(j), Z=Z, w_j=w, K=K, alpha=alpha,
            feasible=feasible, marginal=marginal, slack=slack,
        ))
    return out


def in_J_n(y: CPoint, tol: float = 1e-9) -> bool:
    """Membership in the proportionality slice J_n (all of the domain for
    n <= 3): y_j = binom(n,j)/n * y_1 and y_{n-j} = binom(n,j)/n * y_{n-1}
    for 2 <= j <= n/2, with the middle coordinate averaged for even n."""
    n = y.n
    if not in_tilde_g(y, cond="C7").verdict:
        return False
    if n <= 3:
        return True
    nn = float(binom(n, 1))
    y1, yn1 = y.y(1), y.y(n - 1)
    scale = 1.0 + max(abs(c) for c in y.coords)
    top = n // 2 if n % 2 == 1 else n // 2 - 1
    for j in range(2, top + 1):
        f = binom(n, j) / nn
        if abs(y.y(j) - f * y1) > tol * scale:
            return False
        if abs(y.y(n - j) - f * yn1) > tol * scale:
            return False
    if n % 2 == 0:
        f = binom(n, n // 2) / nn
        if abs(y.y(n // 2) - f * (y1 + yn1) / 2.0) > tol * scale:
            return False
    return True


def assemble_pi(matrices: list[np.ndarray], parity: str) -> CPoint:
    """The assembly maps pi_{2k+1} / pi_{2k} from k contractive matrices with
    a common determinant to a point of tilde-G_n (n = 2k+1 or 2k)."""
    if parity not in ("odd", "even"):
        raise DomainError("parity must be 'odd' or 'even'")
    k = len(matrices)
    if k < 1:
        raise DomainError("need at least one matrix")
    mats = [np.asarray(M, dtype=complex) for M in matrices]
    dets = [M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] for M in mats]
    if max(abs(d - dets[0]) for d in dets) > 1e-11:
        raise DomainError("determinants of the assembly matrices disagree")
    for M in mats:
        if op_norm(M) > 1.0 + 1e-11:
            raise DomainError("assembly matrices must be contractions")
    n = 2 * k + 1 if parity == "odd" else 2 * k
    return CPoint(tuple(_pi_coords(n, mats)))


def _pi_coords(n: int, mats: list[np.ndarray]) -> np.ndarray:
    """pi_n(M_1, ..., M_k), k = floor(n/2), unchecked, as an (..., n) array
    for 2x2 matrices or (..., 2, 2) stacks M_j: coordinate j is
    binom(n, j) [M_j]_11 and coordinate n-j is binom(n, j) [M_j]_22 (the
    middle one averaged for even n), last the determinant of M_1."""
    k = n // 2
    M = mats[0]
    out = np.empty(M.shape[:-2] + (n,), dtype=complex)
    for j in range(1, k + 1):
        c, A = binom(n, j), mats[j - 1]
        out[..., j - 1] = c * A[..., 0, 0]
        out[..., n - 1 - j] = c * A[..., 1, 1]
    if n % 2 == 0:
        A = mats[k - 1]
        out[..., k - 1] = binom(n, k) * (A[..., 0, 0] + A[..., 1, 1]) / 2.0
    out[..., n - 1] = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return out


def gn_schwarz_bound(
    s0: CPoint, lambda0: complex, grid: int = 4096, band: float = BOUNDARY_BAND
) -> ConditionMargin:
    """Necessary Schwarz bound for the symmetrized polydisc: the sup of
    Costara's function over the closed disc must not exceed |lambda0|."""
    lam = complex(lambda0)
    if not 0.0 < abs(lam) < 1.0:
        raise DomainError("lambda0 must satisfy 0 < |lambda0| < 1")
    slack = abs(lam) - costara_sup(s0, grid)
    return ConditionMargin("costara-sup", slack >= -band, slack, abs(slack) < band)


def supnorm_comparison(y: CPoint, band: float = BOUNDARY_BAND) -> tuple[float, float]:
    """For (y_1, y_2, q) in tilde-G_3 with |y_2| <= |y_1|, the ordered pair
    (D_2(y), D_1(y)); the first never exceeds the second."""
    if y.n != 3:
        raise DomainError("supnorm_comparison is a statement about n = 3")
    if not in_tilde_g(y, cond="C7", band=band).verdict:
        raise DomainError("point is not in tilde-G_3")
    if abs(y.y(2)) > abs(y.y(1)):
        raise DomainError("requires |y_2| <= |y_1|")
    return d_norm(2, y), d_norm(1, y)
