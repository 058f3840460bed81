"""Invariant distances from the origin on the proportionality slice J_n.

On J_n the Caratheodory pseudo-distance and the Lempert function from 0
coincide, and both equal atanh of the largest sup-norm D_j.  The module
reports that closed form pinched between two independently computed
numbers: a lower bound from the finitely many analytic functionals
Phi_j(omega, .) sampled over the circle, and an upper bound from an
explicitly constructed analytic disc through both points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
from .interpolation import DiscFunction, extremal_disc
from .membership import in_tilde_g
from .mobius import CPoint, _abs_phi, _cabs, _number, circle, d_norm
from .schwarz import in_J_n

__all__ = [
    "DistanceResult",
    "mobius_dist",
    "dist_formula",
    "carath_lower",
    "lempert_upper",
    "distance_report",
]


@dataclass(frozen=True)
class DistanceResult:
    closed_form: float
    carath_lower: float
    lempert_upper: float
    witness_j: int
    witness_omega: complex
    disc: DiscFunction | None

    def to_json(self) -> dict:
        up = self.lempert_upper
        return {
            "closed_form": self.closed_form,
            "carath_lower": self.carath_lower,
            "lempert_upper": up if math.isfinite(up) else 1e308,
            "witness": {
                "j": self.witness_j,
                "omega": [self.witness_omega.real, self.witness_omega.imag],
            },
            "disc": None if self.disc is None else self.disc.to_json(),
        }


def mobius_dist(z: complex, w: complex) -> float:
    """Pseudo-hyperbolic distance |z - w| / |1 - conj(w) z| on the disc."""
    z, w = _number(z), _number(w)
    if _cabs(z) >= 1.0 or _cabs(w) >= 1.0:
        raise DomainError("both points must lie in the open unit disc")
    return abs(z - w) / abs(1.0 - w.conjugate() * z)


def dist_formula(y: CPoint) -> float:
    """atanh(max_j D_j(y)): the common value of the Caratheodory distance
    and Lempert function from the origin, proven on J_n only (inputs off
    the slice are refused rather than extrapolated)."""
    if not in_J_n(y):
        raise DomainError("closed form is only available on the slice J_n")
    return math.atanh(max(d_norm(j, y) for j in range(1, y.n)))


def carath_lower(y: CPoint, grid: int = 4096) -> tuple[float, int, complex]:
    """Lower bound on the Caratheodory distance from 0: the best of the
    candidate functionals Phi_j(omega, .), omega swept over the points
    circle(grid).  Returns (bound, best j, best omega)."""
    omegas = circle(grid)
    if not in_tilde_g(y, cond="C7").verdict:
        raise DomainError("point must lie in the open domain")
    best = (0.0, 1, 1.0 + 0j)
    for j in range(1, y.n):
        vals = _abs_phi(y, (j,), omegas, 1.0)[0]
        k = int(np.argmax(vals))
        if vals[k] > best[0]:
            best = (float(vals[k]), j, complex(omegas[k]))
    return math.atanh(min(best[0], 1.0 - 1e-16)), best[1], best[2]


def lempert_upper(
    y: CPoint, rng: np.random.Generator | None = None
) -> tuple[float, DiscFunction | None]:
    """Upper bound on the Lempert function from 0: atanh |lambda| over a
    certified analytic disc through (0, 0) and (lambda, y).

    The extremal disc at lambda = max_j D_j(y) is constructed whenever the
    boundary machinery applies; if it does not (for instance |q| equal to
    the sup-norm), the sentinel +inf is returned with no disc, leaving the
    closed form untouched.  A point off J_n raises extremal_disc's
    DomainError."""
    try:
        lam0, disc = extremal_disc(y, rng=rng)
    except InfeasibleError:
        return math.inf, None
    return math.atanh(lam0), disc


def distance_report(
    y: CPoint,
    grid: int = 4096,
    rng: np.random.Generator | None = None,
) -> DistanceResult:
    """The closed form with its two-sided certificate."""
    closed = dist_formula(y)
    lower, wj, wom = carath_lower(y, grid=grid)
    upper, disc = lempert_upper(y, rng=rng)
    return DistanceResult(
        closed_form=closed,
        carath_lower=lower,
        lempert_upper=upper,
        witness_j=wj,
        witness_omega=wom,
        disc=disc,
    )
