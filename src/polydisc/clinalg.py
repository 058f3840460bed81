"""2x2 complex matrix kernel.

Everything downstream (contraction tests, matricial Moebius transforms,
Schur-pair feasibility) reduces to operator norms, Hermitian eigensystems
and square roots of 2x2 complex matrices, so these are done in closed form
rather than through iterative LAPACK paths: for this size the spectral
formulas are exact up to roundoff and branch-free.

Matrices come in and go out as (2, 2) complex numpy arrays, but each
kernel reads the four entries once, as Python complex numbers, and
computes on those scalars: on one 2x2 matrix numpy's per-call overhead is
most of the cost.  Inside, a matrix is the entry tuple (m11, m12, m21, m22).
The kernels first rescale by a power of two taken from the largest
|re| / |im| of an entry, which is exact, so no square overflows or
underflows; a result past the double range is reported as +-inf.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .mobius import _vanishes

__all__ = [
    "HermEig2",
    "mat2",
    "op_norm",
    "svals",
    "herm_eig",
    "herm_sqrt",
    "matricial_mobius",
    "takagi",
]

_HERM_TOL = 1e-12


def mat2(a11, a12, a21, a22) -> np.ndarray:
    """Assemble a 2x2 complex matrix from scalars."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def _entries(M) -> tuple[complex, complex, complex, complex]:
    """The four entries of a finite 2x2 matrix, row by row, as Python complex;
    what numpy cannot read as one raises DomainError."""
    try:
        M = np.asarray(M, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise DomainError("a matrix must be a 2x2 array of numbers") from None
    if M.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {M.shape}")
    (a, b), (c, d) = M.tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
        raise DomainError("matrix has non-finite entries")
    return a, b, c, d


def _scaled(a, b, c, d):
    """(e, entries * 2^-e) with e even and the largest |re| or |im| of the
    scaled entries in [1/4, 1) (any e >= -1000 for tiny matrices, 0 for
    the zero matrix).  A power of two scales exactly; e is even so that
    square roots unscale exactly too."""
    top = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag),
              abs(c.real), abs(c.imag), abs(d.real), abs(d.imag))
    if top == 0.0:
        return 0, (a, b, c, d)
    e = math.frexp(top)[1]
    e = max(e + (e & 1), -1000)
    f = math.ldexp(1.0, -e)
    return e, (a * f, b * f, c * f, d * f)


def _unscale(x: float, e: int) -> float:
    """x * 2^e, or +-inf past the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _sq(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _mul(A, B):
    """Product of two entry tuples."""
    a, b, c, d = A
    e, f, g, h = B
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _inv2(a, b, c, d):
    """Entries of the inverse of [[a, b], [c, d]], Python scalars or arrays."""
    det = a * d - b * c
    if _vanishes(det):
        raise SingularityError("2x2 matrix is numerically singular")
    return d / det, -b / det, -c / det, a / det


def _svals_sq(a, b, c, d) -> tuple[float, float]:
    """(sigma_max^2, |det|) of an entry tuple with entries of order one.

    The discriminant is read off the Gram matrix M*M = [[al, be], [be*, de]]
    as hypot((al - de)/2, |be|), which does not cancel when the singular
    values coincide (T^2 - 4|det|^2 does); sigma_min = |det| / sigma_max."""
    al = _sq(a) + _sq(c)
    de = _sq(b) + _sq(d)
    be = a.conjugate() * b + c.conjugate() * d
    return (al + de) / 2.0 + math.hypot((al - de) / 2.0, be.real, be.imag), abs(a * d - b * c)


def _svals(a, b, c, d) -> tuple[float, float]:
    e, (a, b, c, d) = _scaled(a, b, c, d)
    s2, det = _svals_sq(a, b, c, d)
    hi = math.sqrt(s2)
    lo = det / hi if hi > 0.0 else 0.0
    return _unscale(hi, e), _unscale(lo, e)


def svals(M: np.ndarray) -> tuple[float, float]:
    """Singular values (largest first): sigma_max^2 is the top eigenvalue of
    M*M and sigma_min = |det M| / sigma_max."""
    return _svals(*_entries(M))


def op_norm(M: np.ndarray) -> float:
    """Largest singular value."""
    return svals(M)[0]


@dataclass(frozen=True)
class HermEig2:
    """Ordered eigensystem of a 2x2 Hermitian matrix."""

    lam_min: float
    lam_max: float
    v_min: np.ndarray
    v_max: np.ndarray


def _herm(H):
    """(e, a, b, d, lo, hi, disc) for a Hermitian 2x2 matrix H: its Hermitian
    part [[a, b], [b*, d]] scaled by 2^-e, the part's eigenvalues lo <= hi
    and half gap disc = hypot((a - d)/2, |b|).  The eigenvalue of larger
    modulus is half_tr +- disc, which does not cancel; the other is det /
    that one.  H is accepted when ||H - H*|| < 1e-12 ||H||, at any scale."""
    e, (a, b, c, d) = _scaled(*_entries(H))
    # H - H* is i times the Hermitian [[2 Im a, -i s], [i s*, 2 Im d]] with
    # s = b - conj(c), whose norm is |Im a + Im d| + hypot(Im a - Im d, |s|)
    s = b - c.conjugate()
    skew = abs(a.imag + d.imag) + math.hypot(a.imag - d.imag, s.real, s.imag)
    a, d, b = a.real, d.real, (b + c.conjugate()) / 2.0
    half_tr = (a + d) / 2.0
    disc = math.hypot((a - d) / 2.0, b.real, b.imag)
    det = a * d - _sq(b)
    if half_tr >= 0.0:
        hi = half_tr + disc
        lo = det / hi if hi > 0.0 else 0.0
    else:
        lo = half_tr - disc
        hi = det / lo
    if skew > _HERM_TOL * (abs(half_tr) + disc):
        raise DomainError("matrix is not Hermitian within tolerance")
    return e, a, b, d, lo, hi, disc


def herm_eig(H: np.ndarray) -> HermEig2:
    """Eigenpairs of a Hermitian 2x2 matrix, closed form.

    The input may carry roundoff: it is accepted when ||H - H*|| is below
    1e-12 * ||H|| and symmetrized before solving.
    """
    e, a, b, d, lo, hi, disc = _herm(H)
    if disc <= _HERM_TOL * max(abs(lo), abs(hi)):
        v_min, v_max = (1.0 + 0j, 0j), (0j, 1.0 + 0j)
    else:
        # (H - lam_max) v_max = 0, read off the row whose diagonal term does
        # not cancel: lam_max - a = disc - h and lam_max - d = disc + h
        h = (a - d) / 2.0
        x, y = (b, complex(disc - h)) if h <= 0.0 else (complex(disc + h), b.conjugate())
        r = math.hypot(x.real, x.imag, y.real, y.imag)
        v_min, v_max = (-y.conjugate() / r, x.conjugate() / r), (x / r, y / r)
    return HermEig2(_unscale(lo, e), _unscale(hi, e), np.array(v_min), np.array(v_max))


def _psd_sqrt(a: float, b: complex, d: float, lo: float, hi: float):
    """Entries of the PSD square root of H = [[a, b], [b*, d]] with
    eigenvalues lo <= hi: (H + s I) / t with s = sqrt(lo hi) and
    t = sqrt(lo) + sqrt(hi).  A negative eigenvalue (roundoff) is read as
    0, which leaves sqrt(hi) times the projector (H - lo I) / (hi - lo)."""
    if hi <= 0.0:
        return 0j, 0j, 0j, 0j
    s_hi = math.sqrt(hi)
    if lo < 0.0:
        s, t = -lo, (hi - lo) / s_hi
    else:
        s_lo = math.sqrt(lo)
        s, t = s_lo * s_hi, s_lo + s_hi
    return complex((a + s) / t), b / t, b.conjugate() / t, complex((d + s) / t)


def herm_sqrt(H: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = H.

    Eigenvalues in [-1e-12 * lam_max, 0) are treated as zero; anything more
    negative is rejected.
    """
    e, a, b, d, lo, hi, _ = _herm(H)
    if lo < -1e-12 * abs(hi):
        raise DomainError(f"matrix is not PSD: min eigenvalue {_unscale(lo, e)}")
    f = math.ldexp(1.0, e // 2)  # e is even: sqrt(2^e) is exact
    return mat2(*(x * f for x in _psd_sqrt(a, b, d, lo, hi)))


def takagi(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization Z = U diag(s) U^T of a complex *symmetric* 2x2
    matrix, with U unitary and s the singular values (descending).

    One complex Jacobi rotation, read off the entries of Z (not of Z Z*,
    whose eigenvectors lose the digits of Z when s1 and s2 are close): with
    D = diag(p, r) the phases that make the diagonal of D Z D real,
    D Z D = [[al, be], [be, de]], the columns (c, e^{i chi} s) and
    (-e^{-i chi} s, c) make the off-diagonal

        be cos 2theta + (sin 2theta / 2)(de e^{i chi} - al e^{-i chi})

    vanish once chi puts the bracket on the line of be and theta cancels
    the two terms.  Each column then takes half the phase of its diagonal
    entry, and U is the conjugate of D times those columns.  The result is
    exact up to roundoff in ||Z|| for every Z, equal singular values
    included.  Scale-invariant: takagi(2^k Z) = (U, 2^k s).
    """
    e, (a, b0, c, d) = _scaled(*_entries(Z))
    b = (b0 + c) / 2.0
    s2, det = _svals_sq(a, b, b, d)
    hi = math.sqrt(s2)
    if abs(b0 - c) > 1e-10 * max(hi, math.ldexp(1.0, -e)):  # ||Z - Z^T|| = |b - c|
        raise DomainError("Takagi factorization needs a symmetric matrix")
    s = np.array([_unscale(hi, e), _unscale(det / hi if hi > 0.0 else 0.0, e)])
    p, r = cmath.exp(-0.5j * cmath.phase(a)), cmath.exp(-0.5j * cmath.phase(d))
    al, de, be = abs(a), abs(d), b * p * r
    om = cmath.phase(be)
    chi = math.atan2((de - al) * math.sin(om), (de + al) * math.cos(om))
    lam = (de - al) * math.cos(chi) * math.cos(om) + (de + al) * math.sin(chi) * math.sin(om)
    # (cos 2theta, sin 2theta) along (lam/2, -|be|), the rotation of cos 2theta >= 0
    x, y = (lam / 2.0, -abs(be)) if lam >= 0.0 else (-lam / 2.0, abs(be))
    n = math.hypot(x, y)
    cos2, sin2 = (x / n, y / n) if n > 0.0 else (1.0, 0.0)
    cs = math.sqrt((1.0 + cos2) / 2.0)
    sn = sin2 / (2.0 * cs) * cmath.exp(1j * chi)
    cols = []
    for v1, v2 in ((cs, sn), (-sn.conjugate(), cs)):
        dk = v1 * (al * v1 + be * v2) + v2 * (be * v1 + de * v2)
        # V^T (D Z D) V = diag(dk): with w^2 dk = |dk|, U = conj(D V diag(w))
        w = cmath.exp(-0.5j * cmath.phase(dk))
        cols.append((abs(dk), (p * v1 * w).conjugate(), (r * v2 * w).conjugate()))
    (_, u11, u21), (_, u12, u22) = sorted(cols, key=lambda col: -col[0])
    return mat2(u11, u12, u21, u22), s


def _frame(a, b, c, d):
    """Entry tuples of (1 - Z Z*)^{-1/2} and (1 - Z* Z)^{1/2} for the
    matrix Z with entries a, b, c, d, which must be a strict contraction.
    Both roots share the eigenvalues 1 - sigma^2 of 1 - Z Z*."""
    e, z = _scaled(a, b, c, d)
    s2, det = _svals_sq(*z)
    s2 = _unscale(s2, 2 * e)  # ||Z||^2, which is < 1 iff ||Z|| < 1
    if s2 >= 1.0:
        raise DomainError("Z must be a strict contraction")
    det = math.ldexp(det, 2 * e)
    lo, hi = 1.0 - s2, 1.0 - (det * det / s2 if s2 > 0.0 else 0.0)
    sa, sb, sc, sd = _sq(a), _sq(b), _sq(c), _sq(d)
    left = _psd_sqrt(1.0 - sa - sb, -(a * c.conjugate() + b * d.conjugate()), 1.0 - sc - sd, lo, hi)
    right = _psd_sqrt(1.0 - sa - sc, -(a.conjugate() * b + c.conjugate() * d), 1.0 - sb - sd, lo, hi)
    return _inv2(*left), right


def _mobius_entries(z, left, right, x):
    """The entries of M_Z(X) from the entry tuples z of Z and x of X (or 1-D
    arrays of entries of modulus under 1), given (left, right) = _frame(*z)."""
    a, b, c, d = z
    x11, x12, x21, x22 = x
    one = 1.0
    # entries of modulus under 1 have every part under 1, so _scaled would
    # give e <= 0: only a larger X (or a non-finite one) is handed to it
    if isinstance(x11, complex):
        try:
            small = abs(x11) < 1.0 and abs(x12) < 1.0 and abs(x21) < 1.0 and abs(x22) < 1.0
        except OverflowError:
            small = False
    else:  # arrays of entries, one pass in numpy's arithmetic, never rescaled
        small = bool((np.abs(x) < 1.0).all())
        if not small:
            raise DomainError("an X with an entry of modulus 1 or more is rescaled one X at a time")
    if not small:
        e, xs = _scaled(*x)
        if e > 0:
            # a large X: (X - Z)(1 - Z* X)^{-1} is unchanged when both
            # factors take 2^-e, and then nothing overflows
            one, x = math.ldexp(1.0, -e), xs
            x11, x12, x21, x22 = x
    p, q, r, s = _mul((a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()), x)
    inv = _inv2(one - p, -q, -r, one - s)
    diff = (x11 - a * one, x12 - b * one, x21 - c * one, x22 - d * one)
    return _mul(_mul(_mul(left, diff), inv), right)


def matricial_mobius(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The contraction-ball automorphism
    M_Z(X) = (1 - Z Z*)^{-1/2} (X - Z) (1 - Z* X)^{-1} (1 - Z* Z)^{1/2}.

    Requires ||Z|| < 1; maps Z to 0 and has inverse M_{-Z}.
    """
    z = _entries(Z)
    return mat2(*_mobius_entries(z, *_frame(*z), _entries(X)))
