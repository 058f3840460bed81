import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydisc import mobius
from polydisc.errors import DomainError, PoleError
from polydisc.mobius import CPoint, binom, circle, d_norm, phi, sup_on_torus
from polydisc.sampling import tilde_g_point, unit_disc

from conftest import WORKED_POINT


def test_binom_values():
    assert binom(3, 1) == 3
    assert binom(3, 2) == 3
    assert binom(6, 3) == 20
    with pytest.raises(DomainError):
        binom(3, 3)


def test_phi_zero_point():
    zero = CPoint((0, 0, 0))
    for z in (0.0, 0.3 + 0.4j, -0.9):
        assert phi(1, zero, z) == 0


def test_phi_worked_at_one():
    # (3 * (1/2) * 1 - 3/2) / ((3/4) * 1 - 3) = 0
    assert abs(phi(1, WORKED_POINT, 1.0)) <= 1e-15


def test_phi_independent_rational_oracle(rng):
    # evaluate the defining fraction with an independent arithmetic path
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        j = int(rng.integers(1, n))
        z = unit_disc(rng)
        c = math.comb(n, j)
        num = np.complex128(c) * np.complex128(y.q) * np.complex128(z) - np.complex128(
            y.y(j)
        )
        den = np.complex128(y.y(n - j)) * np.complex128(z) - np.complex128(c)
        if abs(y.y(j) * y.y(n - j) - c * c * y.q) <= 1e-12 * c * c * (1 + abs(y.q)):
            continue
        assert phi(j, y, z) == pytest.approx(complex(num / den), abs=1e-13)


def test_phi_degenerate_branch_matches_limit():
    # y = (1, 1/4): y_1 * y_1 = 1 = 4 * (1/4) = binom^2 q, so Phi_1 == y_1/2
    y = CPoint((1.0, 0.25))
    for z in (0.1, -0.5 + 0.2j, 0.9j):
        assert phi(1, y, z) == pytest.approx(0.5, abs=1e-15)
        # limit of the non-degenerate formula as q -> 1/4
        for eps in (1e-6, 1e-8):
            yq = CPoint((1.0, 0.25 + eps))
            c = 2.0
            val = (c * yq.q * z - 1.0) / (1.0 * z - c)
            assert abs(val - 0.5) <= 40 * eps


def test_d_norm_zero_point():
    assert d_norm(1, CPoint((0, 0, 0))) == 0.0


def test_d_norm_worked_point_values():
    assert d_norm(1, WORKED_POINT) == pytest.approx(0.8, abs=1e-15)
    # (3 |y_2 - conj(y_1) q| + |y_1 y_2 - 9 q|) / (9 - |y_1|^2) = (27/8)/(27/4)
    assert d_norm(2, WORKED_POINT) == pytest.approx(0.5, abs=1e-15)


def test_d_norm_unbounded_branch():
    assert math.isinf(d_norm(1, CPoint((0.5, 4.0, 0.3))))


def test_sup_on_torus_zero():
    assert sup_on_torus(1, CPoint((0, 0, 0)), 64) == 0.0


def test_sup_on_torus_worked():
    assert sup_on_torus(1, WORKED_POINT, 4096) == pytest.approx(0.8, abs=1e-5)


def test_sup_on_torus_matches_closed_form(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        y = tilde_g_point(n, rng)
        j = int(rng.integers(1, n))
        if abs(y.y(n - j)) > 0.9 * binom(n, j):
            continue
        assert sup_on_torus(j, y, 4096) == pytest.approx(d_norm(j, y), abs=1e-4)


def test_sup_on_torus_grid_monotone(rng):
    y = tilde_g_point(3, rng)
    vals = [sup_on_torus(1, y, 2**k) for k in range(3, 12)]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-13
    assert vals[-1] == pytest.approx(d_norm(1, y), abs=1e-4)


def test_interior_bounded_by_d_norm(rng):
    y = tilde_g_point(4, rng)
    for j in (1, 2, 3):
        bound = d_norm(j, y)
        for _ in range(2000):
            assert abs(phi(j, y, unit_disc(rng))) <= bound + 1e-12


# --- array evaluation against scalar loops -------------------------------------


def _torus_sup_loop(j, y, grid):
    """sup_on_torus as a loop of scalar phi calls on the same circle points."""
    step = 2.0 * math.pi / grid
    return max(abs(phi(j, y, cmath.exp(1j * step * k))) for k in range(grid))


def test_phi_array_matches_scalar(rng):
    for _ in range(60):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        j = int(rng.integers(1, n))
        z = np.array([unit_disc(rng) for _ in range(16)]).reshape(4, 4)
        vals = phi(j, y, z)
        assert vals.shape == (4, 4)
        for v, w in zip(vals.ravel(), z.ravel()):
            ref = phi(j, y, complex(w))
            assert abs(v - ref) <= 1e-14 * (1.0 + abs(ref))


def test_phi_array_degenerate_and_pole():
    y = CPoint((1.0, 0.25))  # y_1 y_1 = binom^2 q: Phi_1 is the constant 1/2
    assert phi(1, y, np.zeros(5, dtype=complex)).tolist() == [0.5 + 0j] * 5
    pole = CPoint((4.0, 0.0))  # Phi_1 = -4 / (4 z - 2): pole at z = 1/2
    with pytest.raises(PoleError) as info:
        phi(1, pole, np.array([0.1, 0.5, 0.9], dtype=complex))
    assert info.value.at == 0.5
    with pytest.raises(PoleError):
        phi(1, pole, 0.5)


def test_sup_on_torus_matches_scalar_loop(rng):
    cases = [(CPoint((0, 0, 0)), 1), (WORKED_POINT, 2)]
    cases += [(CPoint((1.0, 0.25)), 1), (CPoint((4.0, 4.0)), 1)]  # degenerate
    while len(cases) < 40:
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        j = int(rng.integers(1, n))
        if abs(y.y(n - j)) < binom(n, j):
            cases.append((y, j))
    for y, j in cases:
        ref = _torus_sup_loop(j, y, 64)
        assert abs(sup_on_torus(j, y, 64) - ref) <= 1e-14 * (1.0 + ref)
    # degenerate with |y_{n-j}| >= binom: the constant map, no DomainError
    assert sup_on_torus(1, CPoint((4.0, 4.0)), 64) == 2.0


def _near_binom_point(n, j, rng):
    """A point of C^n whose |y_{n-j}| lies within 1e-13 relative below
    binom(n, j), its pair (y_j, y_{n-j}, q) not degenerate."""
    c = [complex(unit_disc(rng)) for _ in range(n)]
    c[n - j - 1] = binom(n, j) * (1.0 - 5e-14) * cmath.exp(2j * math.pi * rng.random())
    return CPoint(tuple(c))


def test_sup_on_torus_is_bit_identical_to_a_phi_loop(rng):
    # the shared |Phi_j| path against the public phi over the same grid,
    # compared with ==: n = 2, the middle index, degenerate pairs, points
    # near |y_{n-j}| = binom (where the pole scan runs) and seeded points
    cases = [(CPoint((1.5, 0.5)), 1), (CPoint((0.4, 2.0, 0.1, 0.05)), 2)]
    cases += [(CPoint((1.0, 0.25)), 1), (CPoint((4.0, 4.0)), 1), (CPoint((0.9, 0.9, 0.09)), 1)]
    # a tiny degenerate pair, whose |y_1 / 2| as a Python abs is 1 ulp off numpy's
    cases.append((CPoint((-2.8311298429170266e-171 - 2.753108678040634e-171j, 0j)), 1))
    cases += [(_near_binom_point(n, j, rng), j) for n, j in ((2, 1), (3, 1), (4, 2), (5, 3))]
    while len(cases) < 60:
        n = int(rng.integers(2, 9))
        y = tilde_g_point(n, rng).scale(1.0 + rng.random())
        j = int(rng.integers(1, n))
        if abs(y.y(n - j)) < binom(n, j):
            cases.append((y, j))
    for y, j in cases:
        for grid in (8, 64, 8192):
            assert sup_on_torus(j, y, grid) == float(np.abs(phi(j, y, circle(grid))).max())


def test_near_binom_rows_run_the_pole_scan(monkeypatch, rng):
    scans = []

    def counting(den, z, what, *fields):
        scans.append(fields)
        return check(den, z, what, *fields)

    check = mobius._check_poles
    monkeypatch.setattr(mobius, "_check_poles", counting)
    y = _near_binom_point(4, 1, rng)
    assert sup_on_torus(1, y, 64) == float(np.abs(phi(1, y, circle(64))).max())
    assert sup_on_torus(2, y, 64) == float(np.abs(phi(2, y, circle(64))).max())
    # phi always scans; the grid path only for j = 1, whose |y_3| nears binom
    assert scans == [(1,), (1,), (2,)]


def test_shared_path_raises_the_pole_error_phi_raises():
    # y_1 = binom(2, 1): the row of Phi_1 has its pole at z = 1, a grid point
    y, e = CPoint((2.0, 0.5)), circle(64)
    with pytest.raises(PoleError) as ref:
        phi(1, y, e)
    with pytest.raises(PoleError) as info:
        mobius._abs_phi(y, (1,), e, 1.0)
    assert str(info.value) == str(ref.value) == "Phi_1 has a pole at z=(1+0j)"
    assert info.value.at == ref.value.at == 1.0


def test_sup_on_torus_unbounded_branch():
    with pytest.raises(DomainError):
        sup_on_torus(1, CPoint((3.0, 0.0)), 64)  # |y_1| >= binom(2, 1)
    with pytest.raises(DomainError):
        sup_on_torus(1, CPoint((0.5, 4.0, 0.3)), 64)


def test_sup_on_torus_overflow_raises():
    # c q z overflows to a NaN on the grid; a NaN sup must not read as a verdict
    with pytest.raises(DomainError):
        sup_on_torus(1, CPoint((0.0, 1e308)), 64)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_swap_symmetry(n, seed):
    # Phi_j(., y) == Phi_{n-j}(., swapped y) pointwise
    rng = np.random.default_rng(seed)
    y = tilde_g_point(n, rng)
    for j in range(1, n // 2 + 1):
        ys = y.swap(j)
        for _ in range(20):
            z = unit_disc(rng)
            assert abs(phi(j, y, z) - phi(n - j, ys, z)) <= 1e-13


def test_cpoint_validation():
    with pytest.raises(DomainError):
        CPoint((math.inf, 0.0))
    with pytest.raises(DomainError):
        CPoint((1.0, 2.0, 3.0)).y(3)
    for j in (0, 3, 5, -1):  # 0 and 3 would swap q with itself
        with pytest.raises(DomainError):
            CPoint((1.0, 2.0, 3.0)).swap(j)


def test_non_integer_index_is_a_domain_error():
    # every entry point that reads an index refuses a float or a string one,
    # integral or inside 1..n-1 or not, inside the contract; numpy integers
    # stay valid and read as the same index
    from polydisc.membership import nonvanishing_falsifier
    from polydisc.mobius import degenerate_product
    from polydisc.schwarz import SchwarzProblem

    y = CPoint((0.3 + 0.1j, 0.2, 0.1))
    p = SchwarzProblem(lambda0=0.5, target=y)
    calls = (
        lambda j: y.y(j),
        lambda j: y.swap(j),
        lambda j: binom(3, j),
        lambda j: d_norm(j, y),
        lambda j: phi(j, y, 0.1),
        lambda j: sup_on_torus(j, y, 64),
        lambda j: degenerate_product(y, j),
        lambda j: nonvanishing_falsifier(y, j, grid=8),
        lambda j: p.branch(j),
    )
    for call in calls:
        for j in (1.5, 1.0, 2.0, "1"):
            with pytest.raises(DomainError, match="not an integer in 1..2"):
                call(j)
        assert call(np.int64(2)) == call(2)


def test_dimension_is_bounded_to_1_through_515():
    # binom(n, n//2)^2 leaves the double range from n = 517, and an even n
    # lifts into C^{n+1}: every entry point answers at n = 515 and refuses
    # n = 516 as a domain error (from 517 on, OverflowError escaped)
    from polydisc.geometry import noncircular_witness
    from polydisc.interpolation import DiscFunction, np2, worked_family
    from polydisc.membership import in_g, in_tilde_g, in_tilde_gamma, symmetrize
    from polydisc.schwarz import SchwarzProblem, check_condition

    disc = worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.4 - 0.1j)).to_json()

    def calls(n):
        coords = (0.1,) + (0j,) * (n - 2) + (0.05,)
        yield lambda: in_tilde_g(CPoint(coords))
        yield lambda: in_tilde_gamma(CPoint(coords))
        yield lambda: in_tilde_g(CPoint(coords), cond="C7")
        yield lambda: d_norm(n // 2, CPoint(coords))
        for cond in range(2, 12):
            yield lambda cond=cond: check_condition(SchwarzProblem(0.5, CPoint(coords)), cond)
        yield lambda: in_g(CPoint(coords))
        yield lambda: noncircular_witness(n)
        yield lambda: DiscFunction.from_json({**disc, "n": n})(0.3)

    for call in calls(515):
        call()
    for call in calls(516):
        with pytest.raises(DomainError, match="dimension n=516"):
            call()
    for n in (1030, 10**20):
        with pytest.raises(DomainError, match="dimension"):
            DiscFunction.from_json({**disc, "n": n})
    # no coordinate at all
    for call in (lambda: CPoint(()), lambda: symmetrize([])):
        with pytest.raises(DomainError, match="dimension n=0"):
            call()


def test_cpoint_json_round_trip():
    y = CPoint((1.5 + 0.5j, -0.75, 0.5j))
    assert CPoint.from_json(y.to_json()) == y


def test_circle_is_cached_read_only_and_matches_both_grid_formulas():
    from polydisc.mobius import circle

    # the oracles built their grids with one of these two expressions; they
    # agree bit for bit at every grid size the package uses (powers of two)
    for grid in (8, 64, 512, 1024, 4096, 8192):
        z = circle(grid)
        assert z is circle(grid)
        assert not z.flags.writeable
        assert z.tobytes() == np.exp(1j * (2.0 * math.pi / grid) * np.arange(grid)).tobytes()
        assert z.tobytes() == np.exp(2j * math.pi * np.arange(grid) / grid).tobytes()
    with pytest.raises(ValueError):
        circle(64)[0] = 0


# --- extreme magnitudes --------------------------------------------------------

EXTREMES = [0j, 0.5, 1e308, -1e308, 1e308j, 1e200 + 1e200j, 1.7e308 + 1.7e308j]
DBL_MAX = 1.7976931348623157e308


def _agrees(value: float, ref) -> bool:
    """value is the double nearest ref, to 1e-12, or +inf for ref beyond range."""
    import mpmath as mp

    if ref == mp.inf or ref > DBL_MAX:
        return value == math.inf
    return abs(mp.mpf(value) - ref) <= 1e-12 * ref


def _extreme_refs(a: complex, b: complex):
    """Exact-exponent references on the n = 2 point (a, b), j = 1 (binom 2):
    the degeneracy test, D_1, the sup of |Phi_1| over circle(64), and
    Costara's sup over the disc for the point read as (s_1, p)."""
    import mpmath as mp
    from polydisc.mobius import DEGEN_TOL, circle

    with mp.workprec(200):
        a, b = mp.mpc(a), mp.mpc(b)
        num = abs(a * a - 4 * b)
        tol = mp.mpf(DEGEN_TOL) * 4 * (1 + abs(b))
        degen = num <= tol
        if degen:
            dn = abs(a) / 2
        elif abs(a) >= 2:
            dn = mp.inf
        else:
            dn = (2 * abs(a - mp.conj(a) * b) + num) / (4 - abs(a) ** 2)
        zs = [mp.mpc(complex(z)) for z in circle(64)]
        if degen:
            sup = abs(a) / 2
        elif abs(a) >= 2:
            sup = None  # unbounded: a DomainError is the right answer
        else:
            sup = max(abs((2 * b * z - a) / (a * z - 2)) for z in zs)
        # f_s(z) = (-s_1 + 2 p z) / (2 - s_1 z): pole at 2 / s_1
        if abs(a) >= 2 and abs(-a + 4 * b / a) > 0:
            cos = mp.inf
        else:
            cos = max(abs((-a + 2 * b * z) / (2 - a * z)) for z in zs)
        return degen, num - tol, dn, sup, cos


def test_extreme_magnitudes_give_right_values_or_polydisc_errors():
    """degenerate_product, d_norm, sup_on_torus and costara_sup on the 7 x 7
    grid of n = 2 points with coordinates in EXTREMES: each returns what
    exact-exponent arithmetic gives, or raises a PolydiscError; never a bare
    OverflowError."""
    pytest.importorskip("mpmath")
    from polydisc.errors import PolydiscError
    from polydisc.membership import costara_sup
    from polydisc.mobius import degenerate_product

    answered = 0
    for a in EXTREMES:
        for b in EXTREMES:
            y = CPoint((a, b))
            degen, margin, dn, sup, cos = _extreme_refs(a, b)
            assert degenerate_product(y, 1) == degen, (a, b, margin)
            assert _agrees(d_norm(1, y), dn), (a, b)
            for call, ref in ((lambda: sup_on_torus(1, y, 64), sup),
                              (lambda: costara_sup(y, 64), cos)):
                try:
                    value = call()
                except PolydiscError:
                    continue
                assert ref is not None and _agrees(value, ref), (a, b, value, ref)
                answered += 1
    assert answered >= 20
