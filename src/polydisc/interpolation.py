"""Constructive two-point analytic interpolation into the extended
symmetrized polydisc.

The strict case (sup-norm strictly under |lambda0|) follows the matricial
Moebius recipe: pick nu inside the window theta_1 < nu^2 < theta_2, form
Z_nu, certify feasibility through K_{Z_nu}(|lambda0|), and assemble

    F(l) = M_{-Z_nu}(B(l) Q(l)) diag(l, 1),     psi = pi o F,

where B is the Blaschke factor at lambda0 and Q any Schur function fixed at
Q(0) by the u/v vectors.  The exactly-extremal case (sup-norm equal to
|lambda0|, which is where the Lempert function lives) is built instead by
Takagi-diagonalizing the norm-one Z: the top singular direction freezes to
a constant and a scalar two-point problem closes the second one.  The
infinite family attached to the worked data point (3/2, 3/4, 1/2) with
lambda0 = -4/5 is exposed separately.

All produced discs are immutable DiscFunction values: evaluable at any
lambda in the unit disc, one lambda at a time on Python complex numbers or
a whole array as a map of that evaluation, serializable to JSON, and
re-evaluable bit-exactly after a round trip.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .clinalg import _entries, _frame, _inv2, _mobius_entries, _mul, _sq, mat2, op_norm, takagi
from .errors import (
    ConstructionError,
    DegenerateProblemError,
    DomainError,
    InfeasibleError,
    MarginalProblemError,
    PolydiscError,
)
from .membership import BOUNDARY_BAND, _tilde_slack7_batch
from .mobius import (CPoint, _array, _cabs, _check_poles, _complex_json, _count, _degenerate, _dimension,
                     _number, _pair_terms, _point, _real, binom, d_norm, degenerate_product)
from .sampling import tilde_g_point
from .schwarz import SchwarzProblem, _check_lambda0, _pair_route, _pi_coords, _xj_terms, _z_nu_general, in_J_n, k_rho

__all__ = [
    "ScalarSchur",
    "DiscFunction",
    "nu_window",
    "default_q",
    "np2",
    "build_interpolant",
    "worked_family",
    "extremal_disc",
    "slice_interpolant",
    "identity_regressions",
    "WORKED_FAMILY_TARGET",
    "WORKED_FAMILY_LAMBDA0",
]

# build_interpolant keeps nu^2 this far (relative) inside the nu window: nearer
# an edge the entries of K_{Z_nu} lose eps / (1 - ||Z_nu||)^2 to cancellation
# and its lambda_min, near 0 there, comes out wrong (seen 1.6e-6 from an edge)
_NU_EDGE_MARGIN = 1e-5
WORKED_FAMILY_TARGET = CPoint((1.5 + 0j, 0.75 + 0j, 0.5 + 0j))
WORKED_FAMILY_LAMBDA0 = -0.8 + 0j
_WF_G_AT_0 = 0.3 + 0j
_WF_G_AT_L0 = 0.625 + 0j


def _mobius(w: complex, s: complex, lam: complex, what: str, field=None) -> complex:
    # mu_w(s) = (w + s) / (1 + conj(w) s), the disc automorphism sending 0 to
    # w; a pole raises PoleError at lam, named what.format(field).  The
    # Blaschke factor at lambda0 is mu_{lambda0}(-l), the zero at a mu_{-a}(l)
    den = 1.0 + w.conjugate() * s
    _check_poles(den, lam, what, field)
    val = (w + s) / den
    if not isinstance(val, complex):  # an array of s keeps numpy's arithmetic, a row not finite included
        return val
    if not (cmath.isfinite(den) and cmath.isfinite(val)) and s:  # a huge s: divide through by it
        den = 1.0 / s + w.conjugate()
        _check_poles(den, lam, what, field)
        val = (w / s + 1.0) / den
    return val


# ---------------------------------------------------------------------------
# scalar Schur functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarSchur:
    """A finitely-represented scalar Schur function.

    kind "blaschke": const * prod_k (l - zeros_k)/(1 - conj(zeros_k) l),
    with |const| <= 1 (so scaled Blaschke products, constants included).

    kind "np2": the one-step Schur-algorithm solution of a two-node problem,
    mu_{wa}(e_a(l) * mu_{c1}(e_b(l) * t)) with e_x the zero-at-x Blaschke
    factor; parameters are stored, not the closed rational form.

    Another kind, a parameter `_number` refuses or zeros not a tuple of
    such numbers raise DomainError at construction; the numbers are stored
    as Python complex.  Called on one lambda it returns a complex, and a
    value that is not finite raises DomainError; `_at` is that call,
    unchecked, on a finite Python complex lambda or elementwise on an array.
    """

    kind: str
    const: complex = 1.0 + 0j
    zeros: tuple[complex, ...] = ()
    a: complex = 0j
    wa: complex = 0j
    b: complex = 0j
    c1: complex = 0j
    t: complex = 0j

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in ("blaschke", "np2")):
            raise DomainError(f"unknown ScalarSchur kind {self.kind!r}")
        if not isinstance(self.zeros, tuple):
            raise DomainError(f"a Schur function's zeros are a tuple of numbers, not {type(self.zeros).__name__}")
        object.__setattr__(self, "zeros", tuple(map(_number, self.zeros)))
        for name in ("const", "a", "wa", "b", "c1", "t"):
            object.__setattr__(self, name, _number(getattr(self, name)))

    def __call__(self, lam: complex) -> complex:
        val = self._at(_number(lam))
        if not cmath.isfinite(val):
            raise DomainError(f"the Schur function is not finite at lambda={lam}")
        return val

    def _at(self, lam: complex) -> complex:
        if self.kind == "blaschke":
            acc = self.const
            for z in self.zeros:
                acc = acc * _mobius(-z, lam, lam, "the Blaschke factor at {}", z)
            return acc
        e_b = _mobius(-self.b, lam, lam, "the Blaschke factor at {}", self.b)
        h = _mobius(self.c1, e_b * self.t, lam, "a Schur step")
        e_a = _mobius(-self.a, lam, lam, "the Blaschke factor at {}", self.a)
        return _mobius(self.wa, e_a * h, lam, "a Schur step")

    def to_json(self) -> dict:
        def c(z):
            return [z.real, z.imag]

        return {
            "kind": self.kind,
            "const": c(self.const),
            "zeros": [c(z) for z in self.zeros],
            "np2": [c(self.a), c(self.wa), c(self.b), c(self.c1), c(self.t)],
        }

    @staticmethod
    def from_json(obj: dict) -> "ScalarSchur":
        try:  # parse errors only: the constructor's own refusals pass through
            a, wa, b, c1, t = map(_complex_json, obj["np2"])
            fields = dict(kind=obj["kind"], const=_complex_json(obj["const"]),
                          zeros=tuple(map(_complex_json, obj["zeros"])), a=a, wa=wa, b=b, c1=c1, t=t)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed Schur function JSON: {exc!r}") from None
        return ScalarSchur(**fields)


def np2(a: complex, wa: complex, b: complex, wb: complex, t: complex = 0j) -> ScalarSchur:
    """Scalar Schur g with g(a) = wa and g(b) = wb, closed with the free
    parameter |t| <= 1 (distinct t give distinct g when the data is strictly
    solvable, i.e. pseudo-hyperbolic d(wa, wb) < d(a, b))."""
    a, wa, b, wb, t = map(_number, (a, wa, b, wb, t))
    if _cabs(a) >= 1 or _cabs(b) >= 1 or a == b:
        raise DomainError("nodes must be distinct points of the open disc")
    if _cabs(wa) >= 1 or _cabs(wb) >= 1:
        raise DomainError("values must lie in the open disc")
    if _cabs(t) > 1:
        raise DomainError("|t| must be at most 1")
    eab = (b - a) / (1.0 - a.conjugate() * b)
    c1 = (wb - wa) / (1.0 - wa.conjugate() * wb) / eab
    if _cabs(c1) > 1.0 + 1e-9:
        raise InfeasibleError(
            f"two-point data unsolvable: pseudo-hyperbolic ratio {_cabs(c1):.12g} > 1"
        )
    if abs(c1) > 1.0:
        # exactly-marginal data lands here through roundoff (chained extremal
        # constructions can overshoot by ~1e-12); the clamped solution is the
        # unique one and the contract check below arbitrates
        c1 /= abs(c1)
    g = ScalarSchur(kind="np2", a=a, wa=wa, b=b, c1=c1, t=t)
    if abs(g(a) - wa) > 1e-11 or abs(g(b) - wb) > 1e-11:
        raise ConstructionError("np2 failed its interpolation contract")
    return g


# ---------------------------------------------------------------------------
# the strict-case ingredients
# ---------------------------------------------------------------------------


def _window_from_x2(x2: float) -> tuple[float, float]:
    if x2 <= 2.0:
        raise MarginalProblemError(
            "no open nu-window: the sup-norm bound is not strict (X_2 <= 2)"
        )
    root = math.sqrt(x2 * x2 - 4.0)
    return (x2 - root) / 2.0, (x2 + root) / 2.0


def nu_window(y0: CPoint, lambda0: complex) -> tuple[float, float]:
    """(theta_1, theta_2), the window of admissible nu^2: the roots of
    z + 1/z = X_2.  Their product is 1 and theta_1 < 1 < theta_2, so nu = 1
    always qualifies for a strict problem."""
    if _point(y0).n != 3:
        raise DomainError("this operation is stated for n = 3")
    lam = _check_lambda0(lambda0)
    if math.inf in map(_cabs, y0.coords):
        raise DomainError("a coordinate's modulus is past the double range")
    if abs(y0.y(2)) > abs(y0.y(1)):
        raise DomainError("requires |y_2| <= |y_1|; swap the point first")
    if degenerate_product(y0, 1):
        raise DegenerateProblemError(
            "y_1 y_2 = 9 q: use the diagonal construction"
        )
    if d_norm(1, y0) >= abs(lam) - BOUNDARY_BAND:
        raise MarginalProblemError(
            "sup-norm is not strictly below |lambda0|"
        )
    _, x2, _ = _xj_terms(3.0, y0.y(1), y0.y(2), y0.q, abs(lam))
    return _window_from_x2(x2)


def _u_v(Z: np.ndarray, alpha):
    """u(alpha) = (1-ZZ*)^{-1/2}(alpha_1 Z e_1 + alpha_2 e_2) and
    v(alpha) = -(1-Z*Z)^{-1/2}(alpha_1 e_1 + alpha_2 Z* e_2), as entry pairs."""
    a, _, c, d = z = _entries(Z)
    a1, a2 = alpha
    if a1 == 0 and a2 == 0:
        raise DomainError("alpha must be nonzero")
    (l11, l12, l21, l22), right = _frame(*z)
    x1, x2 = a1 * a, a1 * c + a2  # alpha_1 Z e_1 + alpha_2 e_2
    u = (l11 * x1 + l12 * x2, l21 * x1 + l22 * x2)
    r11, r12, r21, r22 = _inv2(*right)
    x1, x2 = a1 + a2 * c.conjugate(), a2 * d.conjugate()  # alpha_1 e_1 + alpha_2 Z* e_2
    v = (-(r11 * x1 + r12 * x2), -(r21 * x1 + r22 * x2))
    if not all(map(cmath.isfinite, u + v)):
        raise DomainError("u(alpha) or v(alpha) is not finite")
    return u, v


def default_q(Z: np.ndarray, alpha, lambda0: complex) -> np.ndarray:
    """The canonical constant Q_0 = u v* / (lambda0 ||u||^2), satisfying the
    closure contract Q_0* conj(lambda0) u = v; contractive whenever alpha
    makes ||v||^2 - |lambda0|^2 ||u||^2 nonpositive.  u vanishes where
    [Z]_11 = 0 and alpha_2 = -alpha_1 [Z]_21; there, if [Z]_22 = 0, the zero
    matrix is returned, which freezes the composed function at the constant
    Z, and otherwise the problem is refused.  Q_0 is blind to the scale of
    alpha, which is first scaled exactly by 2^-e, e the exponent of its
    largest |re| or |im|."""
    lam0 = _number(lambda0)
    alpha = _array(alpha, 1, "alpha")
    if alpha.size != 2:
        raise DomainError(f"alpha must hold two numbers, not {alpha.size}")
    a1, a2 = alpha.tolist()
    e = math.frexp(max(abs(a1.real), abs(a1.imag), abs(a2.real), abs(a2.imag)))[1]
    alpha = [complex(math.ldexp(a.real, -e), math.ldexp(a.imag, -e)) for a in (a1, a2)]
    (u1, u2), (v1, v2) = _u_v(Z, alpha)
    nu2 = _sq(u1) + _sq(u2)
    if nu2 <= 1e-26:
        if abs(np.asarray(Z)[1, 1]) > 1e-12:
            raise DegenerateProblemError("u(alpha) = 0 with [Z]_22 nonzero")
        return np.zeros((2, 2), dtype=complex)
    f, v1, v2 = lam0 * nu2, v1.conjugate(), v2.conjugate()
    Q0 = np.array([[u1 * v1 / f, u1 * v2 / f], [u2 * v1 / f, u2 * v2 / f]]) if f else None
    if Q0 is None or not np.isfinite(Q0).all():
        raise DomainError("Q_0 is not finite at this lambda0")
    return Q0


# ---------------------------------------------------------------------------
# disc functions
# ---------------------------------------------------------------------------


def _mat_json(M: np.ndarray | None):
    return None if M is None else [[[v.real, v.imag] for v in row] for row in M.tolist()]


def _mat_from_json(obj) -> list | None:
    return None if obj is None else [[_complex_json(v) for v in row] for row in obj]


@dataclass(frozen=True)
class DiscFunction:
    """An analytic map of the unit disc into the closed extended symmetrized
    polydisc, psi = pi_n(F, ..., F) for a 2x2 Schur-class core F.

    kinds:
      "matrix_mobius": F(l) = M_{-Z}(B(l) (Q0 + l Qlin)) diag(l, 1)
      "takagi":        F(l) = U diag(d1, g(l)) U^T diag(l, 1)
      "worked_family":      the takagi form with the worked-example unitary
      "diagonal":      F(l) = diag(f(l), g(l))

    `swap` exchanges coordinates j and n-j of the output (used when the
    input data arrived with |y_{n-1}| > |y_1| and was solved swapped).

    At construction lambda0 and d1 are read by `_number`, each matrix by
    `clinalg._entries` (kept as a (2, 2) complex array), and f and g must
    be a ScalarSchur or None; anything else raises DomainError.

    A disc is evaluated one lambda at a time on Python complex entries of F
    (`_psi`, which checks that every coordinate is finite); `values` maps
    that evaluation over an array, so its rows equal single calls bit for
    bit, and a single call wraps its coordinates in a CPoint without
    checking them again.  The builders' range check hands `_psi` a 1-D array
    of lambda instead, for unchecked (m, n) rows from one pass in numpy's
    arithmetic.  The entries of -Z, Q0, Qlin, U and the frame of M_{-Z} are
    read at the first evaluation and kept for the disc's life.
    """

    kind: str
    n: int
    swap: bool = False
    lambda0: complex = 0j
    Z: np.ndarray | None = None
    Q0: np.ndarray | None = None
    Qlin: np.ndarray | None = None
    U: np.ndarray | None = None
    d1: complex = 0j
    g: ScalarSchur | None = None
    f: ScalarSchur | None = None
    _MATRICES = ("Z", "Q0", "Qlin", "U")  # the 2x2 fields, not a field itself
    # the fields each kind reads, Qlin being optional; a class constant, not a field
    _READS = {"matrix_mobius": ("Z", "Q0"), "takagi": ("U", "g"),
              "worked_family": ("U", "g"), "diagonal": ("f", "g")}

    def __post_init__(self):
        reads = self._READS.get(self.kind) if isinstance(self.kind, str) else None
        if reads is None or not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise DomainError(f"no disc of kind {self.kind!r} with n = {self.n!r}")
        _dimension(self.n)
        if not isinstance(self.swap, bool):  # a truthy string would swap, and JSON needs a bool
            raise DomainError(f"a disc's swap is a bool, not {self.swap!r}")
        for name in ("lambda0", "d1"):
            object.__setattr__(self, name, _number(getattr(self, name)))
        for name in self._MATRICES:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, mat2(*_entries(getattr(self, name))))
        for name in ("f", "g"):
            v = getattr(self, name)
            if not (v is None or isinstance(v, ScalarSchur)):
                raise DomainError(f"a disc's {name} is a ScalarSchur or None, not {type(v).__name__}")
        missing = [name for name in reads if getattr(self, name) is None]
        if missing:
            raise DomainError(f"a {self.kind} disc needs {', '.join(missing)}")
        if self.kind == "matrix_mobius" and not _cabs(self.lambda0) < 1.0:
            raise DomainError("a matrix_mobius disc needs lambda0 in the open unit disc")

    @cached_property
    def _consts(self) -> tuple:
        """The entry tuples the matrix_mobius and Takagi kinds read: -Z, the
        frame of M_{-Z}, Q0, Qlin (or None) and lambda0 for the first, U and
        U^T for the second."""
        if self.kind == "matrix_mobius":
            z = _entries(-self.Z)
            qlin = None if self.Qlin is None else _entries(self.Qlin)
            return (z, *_frame(*z), _entries(self.Q0), qlin, self.lambda0)
        return _entries(self.U), _entries(self.U.T)

    def _core(self, lam: complex) -> tuple:
        """The entries of F(lam) diag(lam, 1), of F(lam) for the diagonal kind."""
        if self.kind == "diagonal":
            return self.f._at(lam), 0j, 0j, self.g._at(lam)
        if self.kind == "matrix_mobius":
            z, left, right, q, qlin, lam0 = self._consts
            if qlin is not None:
                q = [a + lam * b for a, b in zip(q, qlin)]
            q11, q12, q21, q22 = q
            b = _mobius(lam0, -lam, lam, "the Blaschke factor")
            x = (b * q11, b * q12, b * q21, b * q22)
            f11, f12, f21, f22 = _mobius_entries(z, left, right, x)
        else:  # takagi, worked_family
            u, ut = self._consts
            f11, f12, f21, f22 = _mul(_mul(u, (self.d1, 0j, 0j, self.g._at(lam))), ut)
        return f11 * lam, f12, f21 * lam, f22

    def _psi(self, lam: complex) -> list[complex]:
        y = _pi_coords(self.n, [self._core(lam)] * (self.n // 2))
        if self.swap:
            y = y[-2::-1] + y[-1:]
        if not isinstance(lam, complex):  # the rows of a 1-D array of lambda, unchecked
            return np.array(np.broadcast_arrays(*y)).T
        if not all(map(cmath.isfinite, y)):
            raise DomainError("disc value is not finite")
        return y

    def values(self, lams) -> np.ndarray:
        """psi at every lambda of a 1-D array, as an (m, n) complex array."""
        lam = _array(lams, 1, "lambdas")
        rows = [self._psi(v) for v in lam.tolist()]
        return np.array(rows, dtype=complex).reshape(lam.size, self.n)

    def core(self, lam: complex) -> np.ndarray:
        F = self._core(_number(lam))
        if not all(map(cmath.isfinite, F)):
            raise DomainError("disc core is not finite")
        return mat2(*F)

    def __call__(self, lam: complex) -> CPoint:
        return CPoint._unchecked(tuple(self._psi(_number(lam))))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "swap": self.swap,
            "lambda0": [self.lambda0.real, self.lambda0.imag],
            **{k: _mat_json(getattr(self, k)) for k in self._MATRICES},
            "d1": [self.d1.real, self.d1.imag],
            "g": None if self.g is None else self.g.to_json(),
            "f": None if self.f is None else self.f.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "DiscFunction":
        try:  # parse errors only: the constructor's own refusals pass through
            fields = dict(
                kind=obj["kind"],
                n=obj["n"],
                swap=obj["swap"],
                lambda0=_complex_json(obj["lambda0"]),
                **{k: _mat_from_json(obj[k]) for k in DiscFunction._MATRICES},
                d1=_complex_json(obj["d1"]),
                g=None if obj["g"] is None else ScalarSchur.from_json(obj["g"]),
                f=None if obj["f"] is None else ScalarSchur.from_json(obj["f"]),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed disc JSON: {exc!r}") from None
        return DiscFunction(**fields)


def _verify_endpoints(
    disc: DiscFunction, lambda0: complex, target: CPoint, tol: float
) -> None:
    at0, atl = disc._psi(0j), disc._psi(lambda0)
    if max(_cabs(c) for c in at0) > tol:
        raise ConstructionError("disc does not vanish at 0")
    err = max(_cabs(a - b) for a, b in zip(atl, target.coords))
    if err > tol:
        raise ConstructionError(f"disc misses the target by {err:.3g}")


def _verify_range(disc: DiscFunction, samples: int, rng) -> None:
    """psi at `samples` random lambda of the disc |lambda| < 0.999 must pass
    the closed C7 test at BOUNDARY_BAND, the test of
    in_tilde_gamma(cond="C7").  Sample i is sqrt(r) * 0.999 * exp(2 pi i t)
    for the uniforms (r, t) at positions (2i, 2i+1) of rng.random(2 * samples),
    rng defaulting to default_rng(0).  The rows come from one `_psi` pass
    over the samples; where it raises or a row is not finite or fails,
    `values` decides and the first failing sample is reported."""
    rng = rng if rng is not None else np.random.default_rng(0)
    r, t = rng.random(2 * samples).reshape(samples, 2).T
    lam = np.sqrt(r) * 0.999 * np.exp(2j * math.pi * t)
    with np.errstate(all="ignore"):
        try:
            rows = disc._psi(lam)
            passed = np.isfinite(rows).all() and (_tilde_slack7_batch(rows, BOUNDARY_BAND) >= -BOUNDARY_BAND).all()
        except PolydiscError:
            passed = False
    if not passed:
        bad = np.flatnonzero(~(_tilde_slack7_batch(disc.values(lam), BOUNDARY_BAND) >= -BOUNDARY_BAND))
        if bad.size:
            raise ConstructionError(f"disc leaves the closure at lambda={complex(lam[bad[0]])}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_interpolant(
    y0: CPoint,
    lambda0: complex,
    nu: float = 1.0,
    Qlin: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> DiscFunction:
    """Analytic psi with psi(0) = 0 and psi(lambda0) = y0 in tilde-G_3, for
    strict data (branch-selected sup-norm strictly under |lambda0|): the
    n = 3 front end of the slice construction, run at Z_nu.

    nu > 0, with nu^2 in the window of nu_window, _NU_EDGE_MARGIN inside (nu = 1 is); alpha is
    the conjugated bottom eigenvector of K_{Z_nu}(|lambda0|) and Q(0) the
    canonical constant Q0 of default_q.  A nonzero Qlin perturbs Q to
    Q0 + lambda Qlin: both endpoints are blind to it (the Blaschke factor
    kills Q at lambda0 and only Q(0) enters at 0), so distinct Qlin give
    distinct interpolants with the same data.

    Degenerate data (y_1 y_2 = 9 q) has the diagonal disc, with no nu or
    Qlin to choose.  Exactly-marginal problems are refused: see
    extremal_disc for the boundary construction, and worked_family for the
    worked marginal family.
    """
    lam0 = SchwarzProblem(lambda0=lambda0, target=y0).lambda0  # validates |lambda0| and membership
    if y0.n != 3:
        raise DomainError("build_interpolant is the n = 3 constructor")
    nu = _real(nu, "nu must be a finite real number")
    ys = y0.swap() if abs(y0.y(2)) > abs(y0.y(1)) else y0
    if degenerate_product(ys, 1):  # the zero target included
        if nu != 1.0 or Qlin is not None:
            raise DomainError("degenerate data has the diagonal disc: it takes no nu and no Qlin")
        top = max(abs(ys.y(1)), abs(ys.y(2))) / 3.0
        if top > 0.0 and top >= abs(lam0) - BOUNDARY_BAND:  # psi = 0 serves the zero target at any lambda0
            raise MarginalProblemError("degenerate data sits on the Schwarz bound")
    else:
        theta1, theta2 = nu_window(ys, lam0)
        if not theta1 < nu * nu < theta2:
            raise DomainError(f"nu^2 = {nu * nu:.6g} outside the window ({theta1:.6g}, {theta2:.6g})")
        if not nu > 0:
            raise DomainError("nu must be positive")
        if not theta1 * (1.0 + _NU_EDGE_MARGIN) < nu * nu < theta2 * (1.0 - _NU_EDGE_MARGIN):
            raise MarginalProblemError(f"nu^2 = {nu * nu:.6g} is within a relative "
                                       f"{_NU_EDGE_MARGIN:g} of a window edge ({theta1:.6g}, {theta2:.6g})")
    disc = _slice_core(y0, lam0, nu)
    if disc.Q0 is not None:
        qnorm = op_norm(disc.Q0)
        if qnorm > 1.0 + 1e-11:
            raise DomainError(f"Q0 is not a contraction (norm {qnorm:.6g})")
        if Qlin is not None:
            if qnorm + op_norm(Qlin) > 1.0 + 1e-11:
                raise DomainError("Q0 + lambda Qlin can leave the Schur class")
            disc = replace(disc, Qlin=Qlin)
    _verify_endpoints(disc, lam0, y0, 1e-9)
    _verify_range(disc, 64, rng)
    return disc


def _takagi_g0(U: np.ndarray, d1: complex) -> complex:
    """g(0) forced by [U diag(d1, g(0)) U^T]_22 = 0."""
    if abs(U[1, 1]) < 1e-12:
        raise InfeasibleError("degenerate Takagi frame: U_22 = 0")
    t0 = -d1 * U[1, 0] ** 2 / U[1, 1] ** 2
    if abs(t0) > 1.0:
        raise InfeasibleError(f"forced g(0) leaves the disc: |t0| = {abs(t0):.6g}")
    return t0


def worked_family(g: ScalarSchur) -> DiscFunction:
    """A member of the infinite interpolation family through
    psi(0) = 0, psi(-4/5) = (3/2, 3/4, 1/2): psi_g = pi o F_g with

        F_g(l) = U_y diag(-1, g(l)) U_y^T diag(l, 1),

    valid exactly when g is Schur with g(0) = 3/10 and g(-4/5) = 5/8, and
    then det F_g(l) = -l g(l).  Use np2(0, 3/10, -4/5, 5/8, t) to produce
    admissible g with free parameter t."""
    if abs(g(0j) - _WF_G_AT_0) > 1e-10:
        raise DomainError("family requires g(0) = 3/10")
    if abs(g(WORKED_FAMILY_LAMBDA0) - _WF_G_AT_L0) > 1e-10:
        raise DomainError("family requires g(-4/5) = 5/8")
    w = math.sqrt(15.0 / 32.0)
    U = np.array(
        [
            [8.0 * w / math.sqrt(39.0), 4.0 * math.sqrt(2.0) * w / math.sqrt(65.0)],
            [-3.0 / math.sqrt(39.0), 5.0 * math.sqrt(2.0) / math.sqrt(65.0)],
        ],
        dtype=complex,
    )
    disc = DiscFunction(
        kind="worked_family",
        n=3,
        swap=False,
        lambda0=WORKED_FAMILY_LAMBDA0,
        U=U,
        d1=-1.0 + 0j,
        g=g,
    )
    _verify_endpoints(disc, WORKED_FAMILY_LAMBDA0, WORKED_FAMILY_TARGET, 1e-10)
    return disc


def _slice_core(y: CPoint, lam0: complex, nu: float = 1.0) -> DiscFunction:
    """The single 2x2 core driving a disc through (0, 0) and (lam0, y) for a
    point of the slice J_n: only the pair (y_1, y_{n-1}) is interpolated and
    the proportionality relations land every other coordinate automatically.

    Degenerate pair (y_1 y_{n-1} = binom^2 q): the diagonal disc.  Otherwise
    the route of the pair's Schur certificate (`schwarz._pair_route`) at
    Z_nu: strict, the matricial Moebius route; marginal (||Z|| = 1, the
    extremal case), Takagi diagonalization with the top singular direction
    frozen and a scalar two-point closure.
    """
    n = y.n
    swap = abs(y.y(1)) < abs(y.y(n - 1))
    ys = y.swap() if swap else y
    y1, yn1, q = ys.y(1), ys.y(n - 1), ys.q
    c = float(binom(n, 1))
    row = tuple(map(float, _pair_terms(c, y1, yn1, q)))
    if _degenerate(c, row[5], row[2]):
        f = ScalarSchur(kind="blaschke", const=y1 / (c * lam0), zeros=(0j,))
        g = ScalarSchur(kind="blaschke", const=yn1 / (c * lam0), zeros=(0j,))
        return DiscFunction(kind="diagonal", n=n, swap=swap, lambda0=lam0, f=f, g=g)
    if abs(q) >= abs(lam0) - BOUNDARY_BAND:
        raise InfeasibleError(
            "doubly marginal data: |q| = |lambda0| leaves no Schur slack"
        )
    route, Z, _, _, alpha, feasible, _, _ = _pair_route(c, y1, yn1, q, lam0, nu, BOUNDARY_BAND, row)
    if route == "strict":
        if not feasible:
            raise InfeasibleError("feasibility matrix is positive definite")
        Q0 = default_q(Z, alpha, lam0)
        return DiscFunction(kind="matrix_mobius", n=n, swap=swap, lambda0=lam0, Z=Z, Q0=Q0)
    if route == "infeasible":
        raise InfeasibleError("pair norm exceeds 1: no disc exists at this lambda0")
    U, s = takagi(Z)
    usu = _mul(_mul(_entries(U), (float(s[0]), 0j, 0j, float(s[1]))), _entries(U.T))
    if max(abs(a - b) for a, b in zip(usu, _entries(Z))) > 1e-9:
        raise ConstructionError("Takagi factorization failed")
    d1 = complex(min(s[0], 1.0))
    t0 = _takagi_g0(U, d1)
    g = np2(0j, t0, lam0, complex(s[1]))
    return DiscFunction(kind="takagi", n=n, swap=swap, lambda0=lam0, U=U, d1=d1, g=g)


def slice_interpolant(
    y: CPoint,
    lambda0: complex,
    rng: np.random.Generator | None = None,
) -> DiscFunction:
    """Disc through (0, 0) and (lambda0, y) for a point y of the slice J_n,
    at a caller-chosen lambda0 with |lambda0| at or above max_j D_j(y) (on
    the slice the Schwarz conditions are sufficient, so such a disc exists).
    Unlike build_interpolant this works at every dimension and also accepts
    the exactly-marginal |lambda0| = max D_j case.  A point off the slice
    (or outside tilde-G_n) raises DomainError before anything is built."""
    if not in_J_n(y):
        raise DomainError("the slice construction needs a point of the slice J_n in tilde-G_n")
    lam0 = _check_lambda0(lambda0)
    top = max(d_norm(j, y) for j in range(1, y.n))
    if abs(lam0) < top:  # no disc through y: refused here, not by a late miss
        raise InfeasibleError(f"|lambda0| = {abs(lam0):.17g} is below the sup-norm bound max_j D_j = {top:.17g}")
    disc = _slice_core(y, lam0)
    _verify_endpoints(disc, lam0, y, 1e-9)
    _verify_range(disc, 32, rng)
    return disc


def extremal_disc(
    y: CPoint,
    rng: np.random.Generator | None = None,
) -> tuple[float, DiscFunction]:
    """The extremal analytic disc through 0 and y for a point of the slice
    J_n: lambda0 = max_j D_j(y) > 0 and psi(lambda0) = y exactly, the
    slice_interpolant at that lambda0.

    With lambda0 at the sup-norm maximum the pair subproblem is usually
    exactly marginal; when a middle coordinate carries the maximum
    (possible for even n) it is strict instead.  Raises InfeasibleError
    when no certified disc exists at this lambda0 (|q| = lambda0, or a
    degenerate Takagi frame).
    """
    if not any(_point(y).coords):
        zero = ScalarSchur(kind="blaschke", const=0j)
        return 0.0, DiscFunction(kind="diagonal", n=y.n, swap=False, f=zero, g=zero)
    lam0 = max(d_norm(j, y) for j in range(1, y.n))
    if not lam0 < 1.0:
        raise DomainError("point is not strictly inside (sup-norm >= 1)")
    return lam0, slice_interpolant(y, lam0, rng)


# ---------------------------------------------------------------------------
# determinant identity regressions
# ---------------------------------------------------------------------------


def _rel(lhs: float | complex, rhs: float | complex) -> float:
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def identity_regressions(
    trials: int, rng: np.random.Generator | None = None
) -> dict:
    """Numerical regressions of the six determinant/entry identities behind
    the feasibility analysis, on random strict problems (plus the worked
    data point shrunk to strictness).  Returns per-identity max relative
    deviations; inputs drawn degenerate are skipped and counted."""
    _count(trials, "trials", 1, 2**24)  # one case at a time: the ceiling bounds the run's length
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = {k: 0.0 for k in ("det_pair", "det_scaled", "window_gap", "k_entry_11", "k_entry_22", "k_det_factorization")}
    skipped = 0
    evaluated = 0
    I = np.eye(2)

    def one_case(yv: CPoint, lam0: complex, nu: float, c: float):
        nonlocal evaluated
        y1, yn1, q = yv.y(1), yv.y(yv.n - 1), yv.q
        al = abs(lam0)
        knum = abs(y1 * yn1 - c * c * q)
        # det_pair: Z_j at nu = 1 (the |q|^2 term carries the 1/|lambda0|^2)
        Z1 = _z_nu_general(c, y1, yn1, q, lam0, 1.0)
        lhs = np.linalg.det(I - Z1.conj().T @ Z1).real
        rhs = (
            c * c
            - abs(y1) ** 2 / al**2
            - abs(yn1) ** 2
            - 2 * knum / al
            + c * c * abs(q) ** 2 / al**2
        ) / (c * c)
        worst["det_pair"] = max(worst["det_pair"], _rel(lhs, rhs))
        if c != 3.0:
            return
        # det_scaled..6 are recorded for the n = 3 normalization
        Z = _z_nu_general(3.0, y1, yn1, q, lam0, nu)
        det_direct = np.linalg.det(I - Z.conj().T @ Z).real
        det_closed = (
            1
            - abs(y1) ** 2 / (9 * al**2)
            - abs(yn1) ** 2 / 9
            + abs(q) ** 2 / al**2
            - knum / (9 * al) * (nu**2 + 1 / nu**2)
        )
        worst["det_scaled"] = max(worst["det_scaled"], _rel(det_direct, det_closed))
        x1, x2, J = _xj_terms(3.0, y1, yn1, q, al)
        worst["window_gap"] = max(
            worst["window_gap"],
            _rel(J + 1 / J - x2, 9 * abs(y1 - yn1.conjugate() * q) ** 2 / (al * (9 - abs(yn1) ** 2) * knum)),
        )
        if op_norm(Z) >= 1.0:
            return
        K = k_rho(Z, al)
        Kd = K * det_direct
        w = cmath.sqrt((y1 * yn1 - 9 * q) / (9 * lam0))
        e11 = 1 - abs(y1) ** 2 / 9 - abs(yn1) ** 2 / 9 + abs(q) ** 2 - knum / 9 * (al / nu**2 + nu**2 / al)
        e22 = -(al**2) + abs(y1) ** 2 / 9 + abs(yn1) ** 2 / 9 - abs(q) ** 2 / al**2 + knum / 9 * (
            nu**2 * al + 1 / (nu**2 * al)
        )
        e12 = (1 - al**2) * (w / nu + (q / lam0) * nu * w.conjugate())
        worst["k_entry_11"] = max(worst["k_entry_11"], _rel(Kd[0, 0], e11))
        worst["k_entry_22"] = max(worst["k_entry_22"], _rel(Kd[1, 1], e22), _rel(Kd[0, 1], e12))
        k_nu = knum / 9 * (nu**2 + 1 / nu**2)
        k1, k2 = knum / 9 * x1, knum / 9 * x2
        worst["k_det_factorization"] = max(
            worst["k_det_factorization"],
            _rel(np.linalg.det(Kd).real, -(k_nu - k1) * (k_nu - k2)),
        )
        evaluated += 1

    one_case(WORKED_FAMILY_TARGET.scale(0.9), WORKED_FAMILY_LAMBDA0, 1.0, 3.0)
    done = 0
    while done < trials:
        n = int(rng.choice([3, 3, 3, 4, 5]))
        yv = tilde_g_point(n, rng, margin=0.8)
        if abs(yv.y(1)) < abs(yv.y(n - 1)):
            yv = yv.swap()
        if degenerate_product(yv, 1) or abs(yv.y(1) * yv.y(n - 1) - binom(n, 1) ** 2 * yv.q) < 1e-6:
            skipped += 1
            done += 1
            continue
        d1v = d_norm(1, yv)
        if not d1v < 0.9:
            yv = yv.scale(0.5)
            d1v = d_norm(1, yv)
        lam0 = min(0.97, d1v * (1.1 + 0.5 * rng.random()) + 1e-3) * cmath.exp(
            2j * math.pi * rng.random()
        )
        if d_norm(1, yv) >= abs(lam0):
            skipped += 1
            done += 1
            continue
        _, x2, _ = _xj_terms(float(binom(n, 1)), yv.y(1), yv.y(n - 1), yv.q, abs(lam0))
        nu = 1.0
        if x2 > 2.0 and n == 3:
            t1, t2 = _window_from_x2(x2)
            lo, hi = math.sqrt(t1), math.sqrt(t2)
            nu = lo + (hi - lo) * (0.2 + 0.6 * rng.random())
        one_case(yv, lam0, nu, float(binom(n, 1)))
        done += 1
    return {
        "trials": trials,
        "evaluated": evaluated,
        "skipped_degenerate": skipped,
        "max_rel_err": worst,
    }
