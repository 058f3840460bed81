import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydisc.clinalg import (
    herm_eig,
    herm_sqrt,
    mat2,
    matricial_mobius,
    op_norm,
    svals,
    takagi,
)
from polydisc.errors import DomainError

from conftest import rand_contraction


def power_iteration_norm(M, iters=200, seed=0):
    """Independent oracle: largest singular value via power iteration on M*M."""
    rng = np.random.default_rng(seed)
    A = M.conj().T @ M
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A @ v
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return math.sqrt(lam)


def _unitary(rng):
    """A random unitary: QR of a complex Gaussian matrix."""
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return np.linalg.qr(A)[0]


def _mp(M):
    import mpmath as mp

    return [[mp.mpc(complex(M[i, j])) for j in range(2)] for i in range(2)]


def _mp_svals(M):
    """Singular values of the double matrix M in 200-bit arithmetic:
    sigma_max^2 is the top eigenvalue of M*M, sigma_min = |det M| / sigma_max."""
    import mpmath as mp

    with mp.workprec(200):
        (a, b), (c, d) = _mp(M)
        al = abs(a) ** 2 + abs(c) ** 2
        de = abs(b) ** 2 + abs(d) ** 2
        be = mp.conj(a) * b + mp.conj(c) * d
        hi = mp.sqrt((al + de) / 2 + mp.sqrt(((al - de) / 2) ** 2 + abs(be) ** 2))
        return hi, (abs(a * d - b * c) / hi if hi else mp.mpf(0))


def test_op_norm_identity():
    assert op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-15)


def test_op_norm_diagonal_worked():
    # diag(y_1/3, y_2/3) for (3/2, 3/4): the larger modulus, 1/2
    assert op_norm(mat2(0.5, 0, 0, 0.25)) == pytest.approx(0.5, abs=1e-15)


def test_op_norm_z_y_is_one():
    w = math.sqrt(15.0 / 32.0)
    Z = mat2(-5.0 / 8.0, w, w, 0.25)
    assert op_norm(Z) == pytest.approx(1.0, abs=1e-13)


def test_op_norm_against_power_iteration(rng):
    worst = 0.0
    for _ in range(50):
        M = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * (
            10.0 ** rng.integers(-3, 4)
        )
        a, b = op_norm(M), power_iteration_norm(M)
        worst = max(worst, abs(a - b) / (1.0 + a))
    assert worst <= 1e-9
    # scaled unitaries: both singular values coincide, where a discriminant
    # T^2 - 4|det|^2 cancels to noise; the Gram-matrix form keeps every digit
    import mpmath as mp

    worst = 0.0
    for _ in range(500):
        M = _unitary(rng) * complex(rng.standard_normal(), rng.standard_normal()) * (
            10.0 ** rng.integers(-3, 4)
        )
        ref = _mp_svals(M)[0]
        worst = max(worst, float(abs(op_norm(M) - ref) / ref))
    assert worst <= 1e-15


def test_op_norm_rejects_nonfinite():
    with pytest.raises(DomainError):
        op_norm(mat2(math.nan, 0, 0, 0))


def test_herm_eig_zero():
    eig = herm_eig(np.zeros((2, 2)))
    assert eig.lam_min == eig.lam_max == 0.0
    assert eig.v_min.tolist() == [1, 0] and eig.v_max.tolist() == [0, 1]
    assert herm_sqrt(np.zeros((2, 2))).tolist() == [[0, 0], [0, 0]]
    # a small matrix is judged at its own scale: eigenvectors (1, -+1)/sqrt 2
    eig = herm_eig(mat2(0, 1e-13, 1e-13, 0))
    assert (eig.lam_min, eig.lam_max) == pytest.approx((-1e-13, 1e-13), rel=1e-15)
    assert np.abs(eig.v_min - np.array([-1, 1]) / math.sqrt(2)).max() <= 1e-15
    assert np.abs(eig.v_max - np.array([1, 1]) / math.sqrt(2)).max() <= 1e-15


def test_herm_eig_z_y_eigenvalues():
    w = math.sqrt(15.0 / 32.0)
    eig = herm_eig(mat2(-5.0 / 8.0, w, w, 0.25))
    assert eig.lam_min == pytest.approx(-1.0, abs=1e-14)
    assert eig.lam_max == pytest.approx(5.0 / 8.0, abs=1e-14)


def test_herm_eig_reconstruction(rng):
    for _ in range(100):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = A + A.conj().T
        eig = herm_eig(H)
        V = np.column_stack([eig.v_min, eig.v_max])
        rebuilt = V @ np.diag([eig.lam_min, eig.lam_max]) @ V.conj().T
        assert op_norm(rebuilt - H) <= 1e-11 * max(op_norm(H), 1.0)
        for lam, v in ((eig.lam_min, eig.v_min), (eig.lam_max, eig.v_max)):
            assert np.linalg.norm(H @ v - lam * v) <= 1e-12 * max(op_norm(H), 1.0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        herm_eig(mat2(0, 1, 0, 0))


def test_herm_sqrt_identity_and_diag():
    assert np.allclose(herm_sqrt(np.eye(2)), np.eye(2))
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_herm_sqrt_squares_back(rng):
    for _ in range(100):
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = A @ A.conj().T
        S = herm_sqrt(H)
        assert op_norm(S @ S - H) <= 1e-11 * max(op_norm(H), 1.0)


def test_herm_sqrt_rejects_negative():
    for H in (np.diag([-1.0, 1.0]), mat2(-1e-13, 0, 0, 0)):  # not PSD, at any scale
        with pytest.raises(DomainError):
            herm_sqrt(H)


def test_mobius_maps_z_to_zero(rng):
    for _ in range(20):
        Z = rand_contraction(rng)
        assert op_norm(matricial_mobius(Z, Z)) <= 1e-12


def test_mobius_identity_at_zero(rng):
    X = rand_contraction(rng)
    assert np.allclose(matricial_mobius(np.zeros((2, 2)), X), X)


def test_mobius_round_trip(rng):
    for _ in range(50):
        Z = rand_contraction(rng)
        X = rand_contraction(rng)
        back = matricial_mobius(-Z, matricial_mobius(Z, X))
        assert op_norm(back - X) <= 1e-10


def test_mobius_contracts(rng):
    for _ in range(50):
        Z = rand_contraction(rng)
        X = rand_contraction(rng)
        assert op_norm(matricial_mobius(Z, X)) <= 1.0 + 1e-10


def test_mobius_rejects_expanding_z():
    with pytest.raises(DomainError):
        matricial_mobius(np.eye(2) * 1.5, np.zeros((2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=8, max_size=8))
def test_op_norm_sandwich(vals):
    # power iteration only approaches the norm from below, and the Frobenius
    # norm bounds it from above; both hold for every matrix (the 1e-9
    # agreement with the iterative oracle is a statement about generic
    # spectra and is checked on random samples separately)
    M = mat2(
        complex(vals[0], vals[1]),
        complex(vals[2], vals[3]),
        complex(vals[4], vals[5]),
        complex(vals[6], vals[7]),
    )
    norm = op_norm(M)
    assert norm >= max(abs(x) for x in M.ravel()) - 1e-12
    assert norm >= power_iteration_norm(M) - 1e-9 * (1 + norm)
    assert norm <= math.sqrt(sum(abs(x) ** 2 for x in M.ravel())) + 1e-12


def test_takagi_factorizes_symmetric(rng):
    for _ in range(100):
        a, b, d = (
            complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3)
        )
        Z = mat2(a, b, b, d)
        U, s = takagi(Z)
        assert op_norm(U @ U.conj().T - np.eye(2)) <= 1e-11
        assert op_norm(U @ np.diag(s) @ U.T - Z) <= 1e-10 * max(op_norm(Z), 1.0)
        assert s[0] >= s[1] >= 0.0


def test_takagi_rejects_asymmetric():
    with pytest.raises(DomainError):
        takagi(mat2(0, 1, 0, 0))


# --- extreme magnitudes --------------------------------------------------------

GRID = [0.0, 1e-300, -1e-300, 1e-200, -1e-200, 1e200, -1e200, 1.7e308]
DBL_MAX = 1.7976931348623157e308


def _grid_matrices():
    """2x2 matrices whose real and imaginary parts come from GRID: scalar
    multiples of the identity, diagonal, all-equal (rank one), Hermitian,
    symmetric, and 300 seeded draws of all eight parts."""
    rng = np.random.default_rng(5)
    out = []
    for x in GRID:
        out.append(mat2(x, 0, 0, x))
        out.append(mat2(x, x, x, x))
        for y in GRID:
            out.append(mat2(x, 0, 0, y))
            out.append(mat2(x, complex(y, x), complex(y, -x), -y))
            out.append(mat2(x, complex(x, y), complex(x, y), y))
    for _ in range(300):
        re, im = rng.choice(GRID, (2, 4))
        out.append((re + 1j * im).reshape(2, 2))
    return out


def _near(value, ref, scale, rtol=1e-15) -> bool:
    """value is ref to rtol * scale, plus a few subnormal steps; a ref past
    the double range must read +-inf."""
    import mpmath as mp

    if abs(ref) > DBL_MAX:
        return value == math.copysign(math.inf, ref)
    return abs(mp.mpf(value) - ref) <= rtol * scale + 1e-322


def _mp_herm(M):
    """(a, b, d, lo, hi): the Hermitian part [[a, b], [b*, d]] of M and its
    eigenvalues lo <= hi, in 200 bits."""
    import mpmath as mp

    with mp.workprec(200):
        (a, b), (c, d) = _mp(M)
        a, d, b = a.real, d.real, (b + mp.conj(c)) / 2
        mid, gap = (a + d) / 2, mp.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        return a, b, d, mid - gap, mid + gap


def _check_grid_matrix(M) -> int:
    """svals, herm_eig, herm_sqrt and takagi on M agree with 200-bit
    arithmetic or raise DomainError; matricial_mobius at a fixed contraction
    is finite or raises DomainError.  Returns how many answered."""
    import mpmath as mp

    from polydisc.errors import DomainError

    answered = 0
    hi, lo = _mp_svals(M)
    top, bottom = svals(M)
    assert _near(top, hi, hi) and _near(bottom, lo, hi), (M, top, bottom)
    assert op_norm(M) == top
    answered += 1

    a, b, d, lam_lo, lam_hi = _mp_herm(M)
    scale = max(abs(lam_lo), abs(lam_hi))
    try:
        eig = herm_eig(M)
    except DomainError:
        pass
    else:
        answered += 1
        assert _near(eig.lam_min, lam_lo, scale) and _near(eig.lam_max, lam_hi, scale), M
        with mp.workprec(200):
            H = [[a, b], [mp.conj(b), d]]
            for lam, v in ((lam_lo, eig.v_min), (lam_hi, eig.v_max)):
                v = [mp.mpc(complex(x)) for x in v]
                assert abs(abs(v[0]) ** 2 + abs(v[1]) ** 2 - 1) <= 1e-15
                res = max(abs(H[i][0] * v[0] + H[i][1] * v[1] - lam * v[i]) for i in range(2))
                assert res <= 1e-12 * max(scale, 1) + 1e-14 * scale, (M, res)
    try:
        S = herm_sqrt(M)
    except DomainError:
        pass
    else:
        answered += 1
        assert np.isfinite(S).all() and np.array_equal(S, S.conj().T), (M, S)
        with mp.workprec(200):
            S = _mp(S)
            H = [[a, b], [mp.conj(b), d]]
            res = max(
                abs(S[i][0] * S[0][j] + S[i][1] * S[1][j] - H[i][j])
                for i in range(2) for j in range(2)
            )
            # a negative eigenvalue within the tolerance is read as 0
            assert res <= 1e-14 * scale + max(-lam_lo, 0), (M, res)
    try:
        U, s = takagi(M)
    except DomainError:
        pass
    else:
        answered += 1
        with mp.workprec(200):
            (za, zb), (zc, zd) = _mp(M)
            Zs = [[za, (zb + zc) / 2], [(zb + zc) / 2, zd]]
            hi_s, lo_s = _mp_svals(np.array([[complex(za), complex(Zs[0][1])],
                                             [complex(Zs[1][0]), complex(zd)]]))
            assert _near(s[0], hi_s, hi_s) and _near(s[1], lo_s, hi_s), (M, s)
            assert np.abs(U @ U.conj().T - np.eye(2)).max() <= 4e-15, M
            if math.isfinite(s[0]):
                Um = _mp(U)
                res = max(
                    abs(sum(Um[i][k] * mp.mpf(s[k]) * Um[j][k] for k in range(2)) - Zs[i][j])
                    for i in range(2) for j in range(2)
                )
                assert res <= 1e-14 * hi_s + 1e-300, (M, res)
    try:
        image = matricial_mobius(mat2(0.5, 0.1j, 0, -0.25), M)
    except DomainError:
        pass
    else:
        answered += 1
        assert np.isfinite(image).all(), (M, image)
    return answered


def test_kernels_total_on_extreme_entries():
    """op_norm/svals, herm_eig, herm_sqrt and takagi on entries from 0 to
    1.7e308: every answer matches 200-bit arithmetic (+-inf past the double
    range), and the only exception is DomainError; numpy warnings and
    OverflowError count as failures.  matricial_mobius(Z, X) at a fixed
    contraction Z is finite for every such X or raises DomainError."""
    pytest.importorskip("mpmath")
    answered = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in _grid_matrices():
            answered += _check_grid_matrix(M)
    assert answered >= 1500
    assert op_norm(mat2(1e-200, 0, 0, 1e-200)) == 1e-200
    assert op_norm(mat2(1.7e308, 1.7e308, 1.7e308, 1.7e308)) == math.inf


# --- agreement with LAPACK -----------------------------------------------------

_part = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _matrices(draw):
    """A 2x2 matrix of one of five kinds, times 2^k, k in [-20, 20]."""
    kind = draw(st.sampled_from(["general", "rank1", "diagonal", "unitary", "hermitian"]))
    z = [complex(draw(_part), draw(_part)) for _ in range(4)]
    if kind == "rank1":
        M = np.outer(z[:2], z[2:])
    elif kind == "diagonal":
        M = np.diag(z[:2])
    elif kind == "unitary":
        M = np.linalg.qr(np.array(z).reshape(2, 2) + np.eye(2))[0] * (z[0] + 2.0)
    else:
        M = np.array(z).reshape(2, 2)
        if kind == "hermitian":
            # Hermitian up to a skew part far inside herm_eig's 1e-12 tolerance,
            # which is relative to the Hermitian part (zero parts give zero)
            H = (M + M.conj().T) / 2
            M = H + 1e-15 * np.abs(H).max() * (M - M.conj().T)
    return kind, M * 2.0 ** draw(st.integers(-20, 20))


def _lapack_sqrt(H):
    w, V = np.linalg.eigh(H)
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.floats(0.0, 0.95))
def test_kernels_match_lapack(km, r):
    """svals, herm_eig, herm_sqrt, takagi and matricial_mobius against
    np.linalg.svd / eigh / inv, to 1e-12 relative to the matrix's norm."""
    kind, M = km
    ref = np.linalg.svd(M, compute_uv=False)
    norm = ref[0]
    assert np.allclose(svals(M), ref, rtol=0, atol=1e-12 * norm)

    H = (M + M.conj().T) / 2
    w = np.linalg.eigvalsh(H)
    hnorm = np.abs(w).max()
    eig = herm_eig(M if kind == "hermitian" else H)
    assert abs(eig.lam_min - w[0]) <= 1e-12 * hnorm and abs(eig.lam_max - w[1]) <= 1e-12 * hnorm
    for lam, v in ((eig.lam_min, eig.v_min), (eig.lam_max, eig.v_max)):
        assert np.abs(H @ v - lam * v).max() <= 1e-12 * max(hnorm, 1.0)

    P = M @ M.conj().T
    S = herm_sqrt(P)
    assert np.abs(S @ S - P).max() <= 1e-12 * norm**2
    ps = np.linalg.eigvalsh(P)
    if ps[0] >= 1e-6 * ps[1]:  # away from the ill-conditioned rank-one corner
        assert np.abs(S - _lapack_sqrt(P)).max() <= 1e-12 * norm

    Zs = M @ M.T if kind == "unitary" else (M + M.T) / 2
    U, s = takagi(Zs)
    sref = np.linalg.svd(Zs, compute_uv=False)
    assert np.abs(s - sref).max() <= 1e-12 * sref[0]
    assert np.abs(U @ U.conj().T - np.eye(2)).max() <= 1e-12
    assert np.abs(U @ np.diag(s) @ U.T - Zs).max() <= 1e-12 * sref[0]

    if norm > 0:
        Z = M * (r / norm)
        X = M.conj().T * (0.5 / norm)
        I = np.eye(2)
        ref = (
            np.linalg.inv(_lapack_sqrt(I - Z @ Z.conj().T))
            @ (X - Z) @ np.linalg.inv(I - Z.conj().T @ X)
            @ _lapack_sqrt(I - Z.conj().T @ Z)
        )
        assert np.abs(matricial_mobius(Z, X) - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
