"""2x2 complex matrix kernel.

Everything downstream (contraction tests, matricial Moebius transforms,
Schur-pair feasibility) reduces to operator norms, Hermitian eigensystems
and square roots of 2x2 complex matrices, so these are done in closed form
rather than through iterative LAPACK paths: for this size the spectral
formulas are exact up to roundoff and branch-free.

Matrices are plain (2, 2) complex numpy arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

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
_EYE = np.eye(2)


def mat2(a11, a12, a21, a22) -> np.ndarray:
    """Assemble a 2x2 complex matrix from scalars."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def _check(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise DomainError("matrix has non-finite entries")
    return M


def svals(M: np.ndarray) -> tuple[float, float]:
    """Singular values (largest first), from the eigenvalues of M*M.

    sigma^2 = (T +- sqrt(T^2 - 4D)) / 2 with T = tr(M*M), D = |det M|^2;
    the discriminant is clamped at 0 to absorb roundoff.
    """
    M = _check(M)
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    T = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    D = abs(a * d - b * c) ** 2
    disc = math.sqrt(max(T * T - 4.0 * D, 0.0))
    hi = math.sqrt(max((T + disc) / 2.0, 0.0))
    lo = math.sqrt(max((T - disc) / 2.0, 0.0))
    return hi, lo


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

    def reconstruct(self) -> np.ndarray:
        return (
            self.lam_min * np.outer(self.v_min, self.v_min.conj())
            + self.lam_max * np.outer(self.v_max, self.v_max.conj())
        )


def herm_eig(H: np.ndarray) -> HermEig2:
    """Eigenpairs of a Hermitian 2x2 matrix, closed form.

    The input may carry roundoff: it is accepted when ||H - H*|| is below
    1e-12 * ||H|| and symmetrized before solving.
    """
    H = _check(H)
    scale = op_norm(H)
    if op_norm(H - H.conj().T) > _HERM_TOL * max(scale, 1.0):
        raise DomainError("matrix is not Hermitian within tolerance")
    H = (H + H.conj().T) / 2.0
    a = H[0, 0].real
    d = H[1, 1].real
    b = H[0, 1]
    half_tr = (a + d) / 2.0
    disc = math.sqrt(max(((a - d) / 2.0) ** 2 + abs(b) ** 2, 0.0))
    lam_min, lam_max = half_tr - disc, half_tr + disc
    if disc <= _HERM_TOL * max(scale, 1.0):
        v_min = np.array([1.0, 0.0], dtype=complex)
        v_max = np.array([0.0, 1.0], dtype=complex)
    else:
        # (H - lam_max) v_max = 0; pick the numerically larger column form.
        cand1 = np.array([b, lam_max - a], dtype=complex)
        cand2 = np.array([lam_max - d, np.conj(b)], dtype=complex)
        v_max = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
        v_max = v_max / np.linalg.norm(v_max)
        v_min = np.array([-np.conj(v_max[1]), np.conj(v_max[0])], dtype=complex)
    return HermEig2(lam_min=lam_min, lam_max=lam_max, v_min=v_min, v_max=v_max)


def herm_sqrt(H: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = H.

    Eigenvalues in [-1e-12 * scale, 0) are treated as zero; anything more
    negative is rejected.
    """
    H = _check(H)
    eig = herm_eig(H)
    scale = max(abs(eig.lam_max), 1.0)
    if eig.lam_min < -1e-12 * scale:
        raise DomainError(f"matrix is not PSD: min eigenvalue {eig.lam_min}")
    s_min = math.sqrt(max(eig.lam_min, 0.0))
    s_max = math.sqrt(max(eig.lam_max, 0.0))
    return s_min * np.outer(eig.v_min, eig.v_min.conj()) + s_max * np.outer(
        eig.v_max, eig.v_max.conj()
    )


def _inv2(M: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix, or of every matrix of a (..., 2, 2) stack."""
    # M.T holds M[..., i, j] at [j, i] with the stack axes reversed: numpy
    # scalars for one matrix, arrays for a stack; the final .T undoes it
    E = M.T
    a, b, c, d = E[0, 0], E[1, 0], E[0, 1], E[1, 1]
    det = a * d - b * c
    if np.count_nonzero(abs(det) < 1e-300):
        raise SingularityError("2x2 matrix is numerically singular")
    return (np.array([[d, -c], [-b, a]]) / det).T


def takagi(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Takagi factorization Z = U diag(s) U^T of a complex *symmetric* 2x2
    matrix, with U unitary and s the singular values (descending).

    For symmetric Z the matrix Z conj(Z) equals Z Z*, so the Takagi vectors
    are phase-adjusted eigenvectors of the Hermitian Z Z*: if Z conj(x) =
    s e^{i theta} x then u = e^{i theta / 2} x satisfies Z conj(u) = s u.
    Assumes distinct singular values (callers here always have s1 = 1 >
    s2 = |det Z|).
    """
    Z = _check(Z)
    if op_norm(Z - Z.T) > 1e-10 * max(op_norm(Z), 1.0):
        raise DomainError("Takagi factorization needs a symmetric matrix")
    Z = (Z + Z.T) / 2.0
    eig = herm_eig(Z @ Z.conj().T)
    s = np.array([math.sqrt(max(eig.lam_max, 0.0)), math.sqrt(max(eig.lam_min, 0.0))])
    U = np.zeros((2, 2), dtype=complex)
    for i, x in enumerate((eig.v_max, eig.v_min)):
        if s[i] > 1e-13:
            mu = (x.conj() @ (Z @ x.conj())) / s[i]
            mu /= abs(mu)  # keep U exactly unitary
            U[:, i] = cmath.sqrt(mu) * x
        else:
            U[:, i] = x
    return U, s


def _mobius_frame(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors of M_Z that depend on Z alone: (1 - Z Z*)^{-1/2} and
    (1 - Z* Z)^{1/2}.  Requires ||Z|| < 1."""
    Z = _check(Z)
    if op_norm(Z) >= 1.0:
        raise DomainError("Z must be a strict contraction")
    return _inv2(herm_sqrt(_EYE - Z @ Z.conj().T)), herm_sqrt(_EYE - Z.conj().T @ Z)


def _mobius_apply(Z: np.ndarray, frame, X: np.ndarray) -> np.ndarray:
    """M_Z(X) for X a 2x2 matrix or a (..., 2, 2) stack, given
    frame = _mobius_frame(Z)."""
    left, right = frame
    return left @ (X - Z) @ _inv2(_EYE - Z.conj().T @ X) @ right


def matricial_mobius(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The contraction-ball automorphism
    M_Z(X) = (1 - Z Z*)^{-1/2} (X - Z) (1 - Z* X)^{-1} (1 - Z* Z)^{1/2}.

    Requires ||Z|| < 1; maps Z to 0 and has inverse M_{-Z}.
    """
    Z = _check(Z)
    return _mobius_apply(Z, _mobius_frame(Z), _check(X))
