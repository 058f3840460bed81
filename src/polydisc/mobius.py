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
    "binom",
    "circle",
    "phi",
    "d_norm",
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
        _dimension(len(self.coords))  # first: a large n is refused as a dimension, not by its binomials
        object.__setattr__(self, "coords", tuple(map(_number, self.coords)))

    @classmethod
    def _unchecked(cls, coords: tuple[complex, ...]) -> "CPoint":
        """The point of `coords`, which the caller has made at least one
        finite Python complex, without converting or checking them again."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def q(self) -> complex:
        return self.coords[-1]

    def y(self, j: int) -> complex:
        """1-based middle coordinate y_j, j = 1..n-1."""
        return self.coords[_index(j, self.n) - 1]

    def scale(self, r: complex) -> "CPoint":
        r = r if isinstance(r, (np.ndarray, np.generic)) else _number(r)  # as phi reads z
        return CPoint(tuple(r * c for c in self.coords))

    def swap(self, j: int | None = None) -> "CPoint":
        """Exchange y_j and y_{n-j} (all j at once when j is None)."""
        c = list(self.coords)
        n = self.n
        js = range(1, n // 2 + 1) if j is None else [_index(j, n)]
        for k in js:
            c[k - 1], c[n - 1 - k] = c[n - 1 - k], c[k - 1]
        return CPoint(tuple(c))

    def to_json(self) -> dict:
        return {"n": self.n, "coords": [[c.real, c.imag] for c in self.coords]}

    @staticmethod
    def from_json(obj: dict) -> "CPoint":
        try:
            coords = [_complex_json(c) for c in obj["coords"]]
        except (KeyError, TypeError):
            raise DomainError('a point is {"n": int, "coords": [[re, im], ...]}') from None
        if "n" in obj and obj["n"] != len(coords):
            raise DomainError("point 'n' disagrees with coords length")
        return CPoint(tuple(coords))


def _number(x) -> complex:
    """complex(x), the one reader of a caller's number: what complex() refuses,
    a number past the double range or not finite raises DomainError."""
    try:
        z = complex(x)
    except (TypeError, ValueError, OverflowError):
        z = None
    if z is None or not cmath.isfinite(z):
        raise DomainError(f"not a finite complex number (type {type(x).__name__})")
    return z


def _point(y) -> CPoint:
    """y, the one reader of a caller's point: anything but a CPoint raises DomainError."""
    if not isinstance(y, CPoint):
        raise DomainError(f"a point must be a CPoint (type {type(y).__name__})")
    return y


def _complex_json(v) -> complex:
    """The complex number of a JSON pair [re, im] of exactly two real numbers,
    a bool not among them, each read by `_number`: the one reader of every
    decoder.  Another shape raises TypeError, which each decoder turns into
    its DomainError."""
    if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        raise TypeError(f"a complex number is a pair [re, im] of two numbers, not {v!r}")
    return complex(_number(v[0]).real, _number(v[1]).real)


def _index(j, n: int) -> int:
    """The index j, refused with DomainError unless it is an integer (a
    numpy one included) in 1..n-1."""
    if not ((isinstance(j, int) or isinstance(j, np.integer)) and 0 < j < n):
        raise DomainError(f"index j={j!r} is not an integer in 1..{n - 1}")
    return j


def _count(k, what: str, least: int, most: int) -> int:
    """The count k, refused with DomainError unless it is an integer (a numpy
    one included, a bool not) in least..most, the caller's ceiling on what k sizes."""
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and least <= k <= most):
        raise DomainError(f"{what} must be an integer in {least}..{most} (type {type(k).__name__})")
    return k


def _real(x, refusal: str) -> float:
    """The real parameter x as a float: what `_number` refuses or a nonzero
    imaginary part raises DomainError(refusal)."""
    try:
        z = _number(x)
    except DomainError:
        z = 1j
    if z.imag:
        raise DomainError(refusal)
    return z.real


def _band(band) -> float:
    """The band of every public name that takes one, read by `_real`:
    anything but a real number in (0, 1e-3] raises DomainError."""
    b = _real(band, "band must lie in (0, 1e-3]")
    if not 0.0 < b <= 1e-3:
        raise DomainError("band must lie in (0, 1e-3]")
    return b


def _array(x, ndim: int, what: str) -> np.ndarray:
    """x as a complex array (nested lists as numpy reads them); what numpy
    cannot read, other than `ndim` axes or an entry not finite raises DomainError."""
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.ndim != ndim or not np.isfinite(a).all():
        raise DomainError(f"{what} must form a {ndim}-D array of finite numbers")
    return a


def _dimension(n: int) -> None:
    """Refuse with DomainError a dimension n outside 1..515: binom(n, n//2)^2
    leaves the double range from n = 517, and the Schwarz lift of an even n
    lands in C^{n+1}, so n = 516 would reach 517."""
    if not 0 < n <= 515:
        raise DomainError(f"dimension n={n} is not in 1..515 (binom(n, n//2)^2 leaves the double range from 517)")


def binom(n: int, j: int) -> int:
    """binom(n, j) for 1 <= j <= n-1 (the weight of the j-th coordinate)."""
    return math.comb(n, _index(j, n))


def _parts(y: CPoint, j: int) -> tuple[int, complex, complex, complex]:
    n = _point(y).n  # binom's _index refuses every j when n = 1
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


def _degenerate(c, k, aq) -> bool:
    """y_j y_{n-j} = c^2 q within the scale-aware tolerance, from the row's
    k = |y_j y_{n-j} - c^2 q| and aq = |q|."""
    return k <= type(k)(DEGEN_TOL) * c * c * (1 + aq)


def degenerate_product(y: CPoint, j: int) -> bool:
    """True when y_j y_{n-j} = binom^2 q within the scale-aware tolerance."""
    c, yj, ynj, q = _parts(y, j)
    t = _pair_terms(c, yj, ynj, q)
    return _degenerate(c, t[5], t[2])


def circle(grid: int) -> np.ndarray:
    """The `grid` points exp(2 pi i k / grid), k = 0..grid-1, read-only and
    built once per grid size.  The one grid check: a grid that is not a
    count in 8..2**20 raises DomainError, before the cache hashes it (the
    roots of 2**20 take 16 MB; the largest grid in use is 8192)."""
    return _roots(_count(grid, "grid", 8, 2**20))


@lru_cache(maxsize=8)
def _roots(grid: int) -> np.ndarray:
    z = np.exp(1j * (2.0 * math.pi / grid) * np.arange(grid))
    z.setflags(write=False)
    return z


def _vanishes(x) -> bool:
    """|x| < 1e-300 for a scalar (tested without numpy) or anywhere in an array."""
    if isinstance(x, np.ndarray):
        return bool((abs(x) < 1e-300).any())
    try:
        return abs(x) < 1e-300
    except OverflowError:  # |x| past the largest double
        return False


def _check_poles(den, z, what: str, *fields) -> None:
    """Raise PoleError at the first z (scalar or array) where the matching
    denominator `den` vanishes numerically.  The message names the site
    what.format(*fields) and is built only when raising: a caller passes a
    template and its fields, never an f-string, which would be formatted on
    every call."""
    if _vanishes(den):
        at = complex(np.asarray(z)[abs(den) < 1e-300][0] if isinstance(den, np.ndarray) else z)
        raise PoleError(f"{what.format(*fields)} has a pole at z={at}", at=at)


def _moebius(j, c, yj, ynj, q, z, radius: float):
    """(c q z - y_j) / (y_{n-j} z - c) at z, a scalar or an array of points
    of modulus at most `radius` (inf: unknown).  The pole scan runs unless
    |y_{n-j}| radius < c (1 - 1e-12) keeps |den| above about 1e-12 c.  The
    array arithmetic runs in place, so a grid call holds two temporaries."""
    den = ynj * z
    den -= c
    if not _cabs(ynj) * radius < c * (1 - 1e-12):
        _check_poles(den, z, "Phi_{}", j)
    val = c * q * z
    val -= yj
    val /= den
    return val


@np.errstate(all="ignore")
def phi(j: int, y: CPoint, z: complex | np.ndarray) -> complex | np.ndarray:
    """Phi_j(z, y) at a point z, or elementwise over an array of points; the
    constant branch y_j / binom when the product degenerates.  A value at
    one point that is not finite raises DomainError."""
    c, yj, ynj, q = _parts(y, j)
    z = z if isinstance(z, (np.ndarray, np.generic)) else _number(z)  # numpy input keeps numpy arithmetic
    if degenerate_product(y, j):
        return yj / c if np.ndim(z) == 0 else np.full(np.shape(z), yj / c)
    val = _moebius(j, c, yj, ynj, q, z, math.inf)
    if np.ndim(z) == 0 and not cmath.isfinite(val):  # the grid oracles test a whole array
        raise DomainError(f"Phi_{j} is not finite at z={complex(z)}")
    return val


@np.errstate(all="ignore")
def _abs_phi(y: CPoint, js, z: np.ndarray, radius: float) -> np.ndarray:
    """|Phi_j(z, y)| over the points z, of modulus at most `radius`, for
    each valid index j of js: one row per j of a (len(js), len(z)) array."""
    out = np.empty((len(js), len(z)))
    for row, j in zip(out, js):  # a degenerate row takes phi's constant branch
        val = phi(j, y, z) if degenerate_product(y, j) else _moebius(j, *_parts(y, j), z, radius)
        np.abs(val, out=row)
    return out


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


def sup_on_torus(j: int, y: CPoint, grid: int) -> float:
    """Brute-force oracle for D_j: max of |Phi_j| over the points circle(grid)."""
    e = circle(grid)
    c, _, ynj, _ = _parts(y, j)
    if _cabs(ynj) >= c and not degenerate_product(y, j):
        raise DomainError("sup is infinite: |y_{n-j}| >= binom(n, j)")
    sup = float(_abs_phi(y, (j,), e, 1.0)[0].max())
    if not math.isfinite(sup):
        raise DomainError("sup is not finite: Phi_j overflows on the grid")
    return sup
