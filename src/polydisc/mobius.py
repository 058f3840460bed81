"""The fractional-linear maps Phi_j and their sup-norms D_j.

For a point y = (y_1, ..., y_{n-1}, q) and an index j, Phi_j(., y) is the
Moebius map z -> (C q z - y_j) / (y_{n-j} z - C) with C = binom(n, j),
collapsing to the constant y_j / C when y_j y_{n-j} = C^2 q.  Its sup-norm
over the unit disc, D_j(y), has a closed form: |center| + radius of the
image circle of the unit circle.  These two functions drive every
membership test and distance formula in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "CPoint",
    "DiskImage",
    "binom",
    "circle",
    "phi",
    "d_norm",
    "image_disk",
    "sup_on_torus",
    "degenerate_product",
]

DEGEN_TOL = 1e-12


@dataclass(frozen=True)
class CPoint:
    """A point (y_1, ..., y_{n-1}, q) of C^n.

    coords[j-1] is y_j for j = 1..n-1 and coords[n-1] is q.  The same type
    carries points of the symmetrized polydisc, read as (s_1, ..., s_{n-1}, p).
    """

    coords: tuple[complex, ...]

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if len(coords) < 1:
            raise DomainError("a point needs at least one coordinate")
        for c in coords:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError("non-finite coordinate")
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def q(self) -> complex:
        return self.coords[-1]

    def y(self, j: int) -> complex:
        """1-based middle coordinate y_j, j = 1..n-1."""
        if not 1 <= j <= self.n - 1:
            raise DomainError(f"index j={j} outside 1..{self.n - 1}")
        return self.coords[j - 1]

    def scale(self, r: complex) -> "CPoint":
        return CPoint(tuple(r * c for c in self.coords))

    def swap(self, j: int | None = None) -> "CPoint":
        """Exchange y_j and y_{n-j} (all j at once when j is None)."""
        c = list(self.coords)
        n = self.n
        js = range(1, n // 2 + 1) if j is None else [j]
        for k in js:
            c[k - 1], c[n - 1 - k] = c[n - 1 - k], c[k - 1]
        return CPoint(tuple(c))

    def to_json(self) -> dict:
        return {"n": self.n, "coords": [[c.real, c.imag] for c in self.coords]}

    @staticmethod
    def from_json(obj: dict) -> "CPoint":
        pairs = obj.get("coords") if isinstance(obj, dict) else None
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2
            and all(isinstance(v, (int, float)) for v in c)
            for c in pairs
        ):
            raise DomainError('a point is {"n": int, "coords": [[re, im], ...]}')
        try:
            coords = [complex(float(re), float(im)) for re, im in pairs]
        except OverflowError:
            raise DomainError("coordinate too large for a double") from None
        if "n" in obj and obj["n"] != len(coords):
            raise DomainError("point 'n' disagrees with coords length")
        return CPoint(tuple(coords))


@dataclass(frozen=True)
class DiskImage:
    """Image of the unit disc under Phi_j(., y): an open disc.

    A constant (degenerate) map is encoded as radius 0.
    """

    center: complex
    radius: float


def binom(n: int, j: int) -> int:
    """binom(n, j) for 1 <= j <= n-1 (the weight of the j-th coordinate)."""
    if not 1 <= j <= n - 1:
        raise DomainError(f"index j={j} outside 1..{n - 1}")
    return math.comb(n, j)


def _parts(y: CPoint, j: int) -> tuple[int, complex, complex, complex]:
    n = y.n
    if n < 2:
        raise DomainError("Phi_j needs dimension n >= 2")
    return binom(n, j), y.y(j), y.y(n - j), y.q


def _cabs(z: complex) -> float:
    """abs(z), but +inf where CPython raises OverflowError because the
    modulus of a finite z exceeds the largest double."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


# Every formula on a pair (y_j, y_{n-j}, q) reads the row of six moduli of
# `_pair_terms`, on doubles or, where a term times binom reaches _BIG and a
# square would leave the double range, on Decimals.
_BIG = 1e75
_EXACT = Context(prec=60)


class _Exact(NamedTuple):
    """A complex number as two Decimals, with the arithmetic of `_pair_terms`."""

    re: Decimal
    im: Decimal

    def __mul__(self, o):
        if isinstance(o, _Exact):
            return _Exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        return _Exact(self.re * o, self.im * o)

    __rmul__ = __mul__

    def __sub__(self, o):
        return _Exact(self.re - o.re, self.im - o.im)

    def conjugate(self):
        return _Exact(self.re, -self.im)

    def __abs__(self):
        return (self.re * self.re + self.im * self.im).sqrt()


def _exact(z: complex) -> _Exact:
    return _Exact(Decimal(z.real), Decimal(z.imag))


def _pair_terms(c, yj, ynj, q, al=1) -> tuple:
    """The row of the pair: (|y_j|, |y_{n-j}|, |q|, |al^2 y_{n-j} - conj(y_j) q|,
    |y_j - conj(y_{n-j}) q|, |y_j y_{n-j} - c^2 q|), as doubles, or as
    60-digit Decimals where the double formulas on them could overflow."""
    zs = (yj, ynj, q, al * al * ynj - yj.conjugate() * q, yj - ynj.conjugate() * q, yj * ynj - c * c * q)
    try:
        t = tuple(map(abs, zs))
    except OverflowError:
        t = tuple(map(_cabs, zs))
    if isinstance(yj, _Exact) or max(t) * c < _BIG:
        return t
    with localcontext(_EXACT):
        return _pair_terms(c, _exact(yj), _exact(ynj), _exact(q), Decimal(al))


def _root(x):
    """sqrt(max(x, 0)) of a double or a Decimal, in its own type."""
    if not x > 0:
        return 0 * x
    return x.sqrt() if isinstance(x, Decimal) else math.sqrt(x)


def _degenerate(c, k, aq) -> bool:
    """y_j y_{n-j} = c^2 q within the scale-aware tolerance, from the row's
    k = |y_j y_{n-j} - c^2 q| and aq = |q|."""
    return k <= type(k)(DEGEN_TOL) * c * c * (1 + aq)


def degenerate_product(y: CPoint, j: int) -> bool:
    """True when y_j y_{n-j} = binom^2 q within the scale-aware tolerance."""
    c, yj, ynj, q = _parts(y, j)
    t = _pair_terms(c, yj, ynj, q)
    return _degenerate(c, t[5], t[2])


@lru_cache(maxsize=8)
def circle(grid: int) -> np.ndarray:
    """The `grid` points exp(2 pi i k / grid), k = 0..grid-1, read-only and
    built once per grid size."""
    z = np.exp(1j * (2.0 * math.pi / grid) * np.arange(grid))
    z.setflags(write=False)
    return z


def _check_poles(den, z, what: str) -> None:
    """Raise PoleError at the first z (scalar or array) where the matching
    denominator `den` vanishes numerically."""
    poles = abs(den) < 1e-300
    if np.count_nonzero(poles):
        at = complex(np.asarray(z)[poles][0])
        raise PoleError(f"{what} has a pole at z={at}", at=at)


@np.errstate(all="ignore")
def phi(j: int, y: CPoint, z: complex | np.ndarray) -> complex | np.ndarray:
    """Phi_j(z, y) at a point z, or elementwise over an array of points; the
    constant branch y_j / binom when the product degenerates."""
    c, yj, ynj, q = _parts(y, j)
    if degenerate_product(y, j):
        return yj / c if np.ndim(z) == 0 else np.full(np.shape(z), yj / c)
    den = ynj * z - c
    _check_poles(den, z, f"Phi_{j}")
    return (c * q * z - yj) / den


def d_norm(j: int, y: CPoint) -> float:
    """D_j(y) = sup over the unit disc of |Phi_j(z, y)|.

    Three branches: the closed formula when |y_{n-j}| < binom, the constant
    |y_j| / binom when the product degenerates, +inf otherwise (the map is
    unbounded on the disc).  A pair whose terms leave the double range is
    evaluated on its decimal row, so only a sup beyond it is +inf.
    """
    c, yj, ynj, q = _parts(y, j)
    a, b, aq, _, cross, k = _pair_terms(c, yj, ynj, q)
    return float(_sup_formula(c, a, b, cross, k, _degenerate(c, k, aq)))


def _sup_formula(c, a, b, cross, k, degen: bool):
    """D_j from the row of its pair: a = |y_j|, b = |y_{n-j}|,
    cross = |y_j - conj(y_{n-j}) q|, k = |y_j y_{n-j} - c^2 q|; D_{n-j}
    swaps a with b and reads the other cross term."""
    if degen:
        return a / c
    if b >= c:
        return math.inf
    return (c * cross + k) / (c * c - b * b)


def image_disk(j: int, y: CPoint) -> DiskImage:
    """Center and radius of Phi_j(D, y); requires |y_{n-j}| < binom.

    Satisfies |center| + radius = d_norm(j, y).
    """
    c, yj, ynj, q = _parts(y, j)
    _, b, aq, _, _, k = _pair_terms(c, yj, ynj, q)
    if _degenerate(c, k, aq):
        return DiskImage(center=yj / c, radius=0.0)
    if b >= c:
        raise DomainError("image is unbounded: |y_{n-j}| >= binom(n, j)")
    den = c * c - b * b
    center = c * (yj - ynj.conjugate() * q) / float(den)
    if not cmath.isfinite(center):  # a product overflowed: read it in Decimals
        with localcontext(_EXACT):
            e = (_exact(yj) - _exact(ynj).conjugate() * _exact(q)) * (c / Decimal(den))
        center = complex(float(e.re), float(e.im))
    return DiskImage(center=center, radius=float(k / den))


@np.errstate(all="ignore")
def sup_on_torus(j: int, y: CPoint, grid: int) -> float:
    """Brute-force oracle for D_j: max of |Phi_j| over `grid` points of the circle."""
    if grid < 8:
        raise DomainError("grid must be at least 8")
    c, _, ynj, _ = _parts(y, j)
    if not degenerate_product(y, j) and _cabs(ynj) >= c:
        raise DomainError("sup is infinite: |y_{n-j}| >= binom(n, j)")
    sup = float(np.abs(phi(j, y, circle(grid))).max())
    if not math.isfinite(sup):
        raise DomainError("sup is not finite: Phi_j overflows on the grid")
    return sup
