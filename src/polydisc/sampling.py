"""Random point generators used by the oracle sweeps and the test suite.

All samplers take a numpy Generator so sweeps are reproducible from a seed.
Interior points are built forward through the beta-representation (which is
exact), exterior points by pushing boundary points outward along rays from
the origin (valid because the domains are starlike about 0).
"""

from __future__ import annotations

import math

import numpy as np

from .membership import _conj_mul
from .mobius import CPoint, binom
from .schwarz import _slice_point

__all__ = [
    "unit_disc",
    "torus_point",
    "tilde_g_point",
    "tilde_g_points",
    "tilde_gamma_boundary_point",
    "exterior_point",
    "near_boundary_point",
    "g_point_disc",
    "g_points_disc",
    "torus_points",
    "j_point",
]


def unit_disc(rng: np.random.Generator, rmax: float = 1.0) -> complex:
    """Uniform point of the disc of radius rmax."""
    r = rmax * math.sqrt(rng.random())
    return r * np.exp(2j * math.pi * rng.random())


def torus_point(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * math.pi * rng.random()))


def torus_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count * n successive torus_point draws as a (count, n) array,
    bit for bit."""
    return np.exp(2j * math.pi * rng.random((count, n)))


def _beta_pairs(n: int, draw, fill) -> list:
    """beta_1..beta_{n-1} with |beta_j| + |beta_{n-j}| = fill * binom(n, j);
    draw() gives the next uniform (or column of uniforms, fill an array)."""
    betas = [0j] * (n - 1)
    for j in range(1, n // 2 + 1):
        c = binom(n, j)
        if 2 * j == n:  # the middle pairs with itself: 2 |beta| = fill * c
            betas[j - 1] = 0.5 * fill * c * np.exp(2j * math.pi * draw())
            continue
        split = draw()
        betas[j - 1] = split * fill * c * np.exp(2j * math.pi * draw())
        betas[n - 1 - j] = (1.0 - split) * fill * c * np.exp(
            2j * math.pi * draw()
        )
    return betas


def _from_betas(betas: list, q: complex) -> CPoint:
    """The point of the beta-representation y_j = beta_j + conj(beta_{n-j}) q."""
    return CPoint(tuple(b + c.conjugate() * q for b, c in zip(betas, reversed(betas))) + (q,))


def tilde_g_point(
    n: int, rng: np.random.Generator, margin: float = 0.95
) -> CPoint:
    """Interior point of tilde-G_n with beta-slack at least (1-margin)."""
    fill = margin * rng.random()
    q = unit_disc(rng, rmax=margin)
    return _from_betas(_beta_pairs(n, rng.random, fill), q)


def tilde_g_points(
    n: int, rng: np.random.Generator, count: int, margin: float = 0.95
) -> np.ndarray:
    """count successive tilde_g_point draws as a (count, n) array of
    coordinates, bit for bit: one rng.random call whose columns are read in
    the scalar draw order (fill, the radius and angle of q, then the betas)."""
    per = 3 + sum(1 if 2 * j == n else 3 for j in range(1, n // 2 + 1))
    u = iter(rng.random((count, per)).T)
    fill = margin * next(u)
    q = margin * np.sqrt(next(u)) * np.exp(2j * math.pi * next(u))
    betas = _beta_pairs(n, u.__next__, fill)
    y = np.empty((count, n), dtype=complex)
    y[:, -1] = q
    for j in range(1, n):
        # y_j = beta_j + conj(beta_{n-j}) q, the product rounded as the scalar
        # draw rounds it: numpy's vector complex multiply may use FMA
        a, b = betas[j - 1], betas[n - 1 - j]
        pr, pi = _conj_mul(b.real, b.imag, q.real, q.imag)
        y[:, j - 1].real = a.real + pr
        y[:, j - 1].imag = a.imag + pi
    return y


def tilde_gamma_boundary_point(n: int, rng: np.random.Generator) -> CPoint:
    """Boundary point: the beta-sums sit exactly on binom(n, j), |q| < 1.

    With |q| < 1 the beta-representation is unique, so these points are in
    the closure but not the interior.
    """
    q = unit_disc(rng, rmax=0.9)
    return _from_betas(_beta_pairs(n, rng.random, 1.0), q)


def exterior_point(n: int, rng: np.random.Generator) -> CPoint:
    """Point outside tilde-Gamma_n: a boundary point pushed outward by a
    factor in [1.015, 1.3).

    Starlikeness about the origin makes every outward scaling of a boundary
    point leave the closure.
    """
    factor = 1.0 + (1.3 - 1.0) * (0.05 + 0.95 * rng.random())
    return tilde_gamma_boundary_point(n, rng).scale(factor)


def near_boundary_point(
    n: int, rng: np.random.Generator, spread: float = 1e-9
) -> CPoint:
    """Point within ~spread of the boundary (either side)."""
    eps = spread * (rng.random() - 0.5) * 2.0
    return tilde_gamma_boundary_point(n, rng).scale(1.0 + eps)


def g_point_disc(
    n: int, rng: np.random.Generator, rmax: float = 0.95
) -> list[complex]:
    """Preimage tuple in the polydisc of radius rmax (feed to symmetrize)."""
    return [unit_disc(rng, rmax=rmax) for _ in range(n)]


def g_points_disc(
    n: int, rng: np.random.Generator, count: int, rmax: float = 0.95
) -> np.ndarray:
    """count successive g_point_disc draws as a (count, n) array, bit for
    bit: one rng.random call read in the scalar draw order (radius, then
    angle, coordinate after coordinate)."""
    u = rng.random((count, n, 2))
    return rmax * np.sqrt(u[..., 0]) * np.exp(2j * math.pi * u[..., 1])


def j_point(n: int, rng: np.random.Generator) -> CPoint:
    """Point of the proportionality slice J_n (for n <= 3 this is all of
    tilde-G_n): only (y_1, y_{n-1}, q) are free, the rest follow the
    binom(n,j)/n ratios, which automatically keeps the point inside.  The
    beta-sum fills at most 0.9 of binom(n, 1), and |q| < 0.85."""
    nn = binom(n, 1)
    fill = 0.9 * rng.random()
    split = rng.random()
    b1 = split * fill * nn * np.exp(2j * math.pi * rng.random())
    b2 = (1.0 - split) * fill * nn * np.exp(2j * math.pi * rng.random())
    q = unit_disc(rng, rmax=0.85)
    return CPoint(_slice_point(n, b1 + b2.conjugate() * q, b2 + b1.conjugate() * q, q))
