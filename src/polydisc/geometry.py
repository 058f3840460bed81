"""Constructive geometry of the closed extended symmetrized polydisc:
separating polynomials for exterior points (polynomial convexity) and
explicit non-convexity / non-circularity witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstructionError, DomainError
from .membership import in_tilde_gamma
from .mobius import CPoint, _abs_phi, _array, _cabs, _count, _point, binom, circle
from .sampling import tilde_g_points

__all__ = [
    "SeparatingPoly",
    "separating_polynomial",
    "nonconvex_witness",
    "noncircular_witness",
]


@dataclass(frozen=True)
class SeparatingPoly:
    """A polynomial certificate that a point lies outside tilde-Gamma_n.

    coeff_table maps exponent multi-indices (length-n tuples) to complex
    coefficients; the certificate stores |f| at the target point and the
    empirical sup of |f| over sampled members of the set.  Truncation-case
    certificates can reach high degree with coefficient/power pairs whose
    separate magnitudes overflow doubles, so evaluation goes through the
    structured closed form when one is attached.
    """

    n: int
    coeff_table: dict[tuple[int, ...], complex]
    sup_bound: float
    value_at_target: float
    eps: float = 0.0  # separation headroom; |f(target)| >= 1 + eps
    _eval: object = field(default=None, compare=False, repr=False)

    def __call__(self, x: CPoint) -> complex:
        return complex(self.values(np.array([_point(x).coords]))[0])

    def values(self, pts: np.ndarray) -> np.ndarray:
        """f at every row of the (m, n) complex array pts (`mobius._array`)."""
        pts = _array(pts, 2, "points")
        if pts.shape[1] != self.n:
            raise DomainError(f"points must have n = {self.n} columns, not {pts.shape[1]}")
        cols = pts.T
        if self._eval is not None:
            return self._eval(cols)
        acc = np.zeros(len(pts), dtype=complex)
        for expo, coef in self.coeff_table.items():
            term = coef
            for e, c in zip(expo, cols):
                if e:
                    term = term * c**e
            acc = acc + term
        return acc

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                [list(expo), [coef.real, coef.imag]]
                for expo, coef in sorted(self.coeff_table.items())
            ],
            "sup_bound": self.sup_bound,
            "value_at_target": self.value_at_target,
            "eps": self.eps,
        }


def _monomial(n: int, j: int, scale: complex) -> dict[tuple[int, ...], complex]:
    expo = [0] * n
    expo[j - 1] = 1
    return {tuple(expo): scale}


def _find_witness(y: CPoint) -> tuple[int, complex, float]:
    """An index j and interior z with |Phi_j(z, y)| > 1 (guaranteed to exist
    for a non-boundary exterior point with all coordinate bounds holding).

    Radii are swept inward-out, one ring of 1024 angles at a time, and the
    sweep stops at the first radius whose largest value exceeds 1 + 1e-6
    (small |z| keeps the truncation degree of the separating polynomial
    low); that largest value is the witness, the first (j, angle) on ties.
    """
    peaks = []
    for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        zr = r * circle(1024)
        # |Phi_j| indexed (j - 1, angle); the coordinate bounds rule out a pole
        vr = _abs_phi(y, range(1, y.n // 2 + 1), zr, r)
        i, k = np.unravel_index(np.argmax(vr), vr.shape)
        if vr[i, k] > 1.0 + 1e-6:
            return int(i) + 1, complex(zr[k]), float(vr[i, k])
        peaks.append(vr[i, k])
    raise ConstructionError(
        f"no interior witness |Phi_j| > 1 found (best {np.max(peaks):.6g}); "
        "the point may be too close to the boundary"
    )


def separating_polynomial(
    y: CPoint,
    samples: int = 200,
    rng: np.random.Generator | None = None,
) -> SeparatingPoly:
    """Polynomial f with |f| <= 1 on tilde-Gamma_n and |f(y)| > 1.

    Case split: a coordinate functional when some |y_j| > binom(n, j) or
    |q| > 1; otherwise a truncation of the geometric-series expansion of
    Phi_j(z, .) for a witness pair (j, z), scaled by 1/(1 + eps) with
    eps = (|Phi_j(z, y)| - 1) / 6 and the truncation degree k chosen so the
    series tail 2 |z|^{k+1} / (1 - |z|) stays below eps.

    The empirical part of the certificate evaluates |f| at `samples`
    forward-generated interior points.
    """
    _count(samples, "samples", 1, 2**14)  # draws samples x (3 + ~3n/2) doubles at once: ~100 MB at n = 515
    n = _point(y).n
    rng = rng if rng is not None else np.random.default_rng(0)
    if math.inf in map(_cabs, y.coords):
        raise DomainError("a coordinate's modulus is past the double range")
    if in_tilde_gamma(y, cond="C7").verdict:
        raise DomainError("point is inside the closure; nothing to separate")
    table: dict[tuple[int, ...], complex] | None = None
    evaluator = None
    eps = 0.0
    for j in range(1, n):
        c = binom(n, j)
        if abs(y.y(j)) > c:
            table = _monomial(n, j, 1.0 / c)
            eps = (abs(y.y(j)) / c - 1.0) / 2.0
            break
    if table is None and abs(y.q) > 1.0:
        table = _monomial(n, n, 1.0)
        eps = (abs(y.q) - 1.0) / 2.0
    if table is None:
        # a degenerate product cannot reach here: its Phi_j is the constant
        # y_j / binom, which the coordinate scan already bounded by 1
        j, z, val = _find_witness(y)
        c = float(binom(n, j))
        eps = (val - 1.0) / 6.0
        r, k = abs(z), 0
        while 2.0 * r ** (k + 1) / (1.0 - r) >= eps:
            k += 1
            if k > 20000:
                raise ConstructionError("witness margin too thin to truncate")
        table = {}
        scale = 1.0 / (1.0 + eps)
        zi = 1.0 + 0j  # (z / binom)^i, accumulated to avoid overflow
        # keys x_j x_{n-j}^i and x_n x_{n-j}^i (x_{n-j} is x_j at the middle
        # index) never coincide; 0.0 + and 0.0 - turn a -0.0 part into 0.0
        e1, e2 = [0] * n, [0] * n
        e1[j - 1] = e2[n - 1] = 1
        for i in range(k + 1):
            e1[n - j - 1] = i + (2 * j == n)
            e2[n - j - 1] = i
            table[tuple(e1)] = 0.0 + scale * zi / c
            table[tuple(e2)] = 0.0 - scale * zi * z
            zi *= z / c

        def evaluator(x, j=j, z=z, k=k, c=c, scale=scale) -> np.ndarray:
            # scale * (x_j/c - x_n z) * sum_{i<=k} (x_{n-j} z / c)^i over
            # coordinate columns x, summed as a geometric series: term
            # magnitudes stay bounded even when the split coefficient/power
            # pair would overflow
            t = x[n - j - 1] * z / c
            far = np.abs(1.0 - t) > 1e-8
            series = np.where(
                far, (1.0 - t ** (k + 1)) / np.where(far, 1.0 - t, 1.0), k + 1
            )
            return scale * (x[j - 1] / c - x[n - 1] * z) * series

    poly = SeparatingPoly(n, table, sup_bound=0.0, value_at_target=0.0, eps=eps, _eval=evaluator)
    target_val = abs(poly(y))
    sup = float(np.abs(poly.values(tilde_g_points(n, rng, samples))).max(initial=0.0))
    if target_val <= 1.0 + eps:
        raise ConstructionError(
            f"certificate failed: |f(y)| = {target_val:.6g} <= 1 + eps"
        )
    return replace(poly, sup_bound=sup, value_at_target=target_val)


def nonconvex_witness(n: int) -> tuple[CPoint, CPoint, CPoint]:
    """Points a, b in tilde-Gamma_n whose midpoint c is outside.

    For n >= 3: a = (n, 0, ..., 0, n i, i), b = (-n i, 0, ..., 0, n, -i);
    the midpoint fails the j = 1 inequality since sqrt(2) n > binom(n, 1).
    For n = 2 the two special slots coincide, so the analogous pair uses
    the phase-locked coordinate sqrt(2)(1 +- i) with q = +-i.
    """
    if n < 2:
        raise DomainError("needs n >= 2")
    if n == 2:
        s2 = math.sqrt(2.0)
        a = CPoint((s2 * (1 + 1j), 1j))
        b = CPoint((s2 * (1 - 1j), -1j))
    else:
        ca = [0j] * n
        ca[0], ca[n - 2], ca[n - 1] = complex(n), n * 1j, 1j
        cb = [0j] * n
        cb[0], cb[n - 2], cb[n - 1] = -n * 1j, complex(n), -1j
        a, b = CPoint(tuple(ca)), CPoint(tuple(cb))
    c = CPoint(tuple((x + y) / 2.0 for x, y in zip(a.coords, b.coords)))
    if not in_tilde_gamma(a, cond="C7").verdict:
        raise ConstructionError("witness endpoint a not in the closure")
    if not in_tilde_gamma(b, cond="C7").verdict:
        raise ConstructionError("witness endpoint b not in the closure")
    if in_tilde_gamma(c, cond="C7").verdict:
        raise ConstructionError("witness midpoint unexpectedly inside")
    return a, b, c


def noncircular_witness(n: int) -> tuple[CPoint, CPoint]:
    """The binomial point (binom(n,1), ..., binom(n,n-1), 1) is in the
    closure while its rotation by i is not, so the set is not circled."""
    if n < 2:
        raise DomainError("needs n >= 2")
    y = CPoint(tuple(binom(n, j) for j in range(1, n)) + (1.0 + 0j,))
    iy = y.scale(1j)
    if not in_tilde_gamma(y, cond="C7").verdict:
        raise ConstructionError("binomial point not in the closure")
    if in_tilde_gamma(iy, cond="C7").verdict:
        raise ConstructionError("rotated point unexpectedly inside")
    return y, iy
