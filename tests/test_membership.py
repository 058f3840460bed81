import cmath
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydisc.clinalg import op_norm
from polydisc.errors import DomainError, PoleError, PolydiscError
from polydisc.membership import (
    BOUNDARY_BAND,
    ConditionMargin,
    _b_entries,
    _beta_coords,
    _tilde_slack7,
    costara_f,
    costara_sup,
    in_b_gamma,
    in_g,
    in_gamma,
    in_tilde_g,
    in_tilde_gamma,
    nonvanishing_falsifier,
    symmetrize,
)
from polydisc.mobius import CPoint, binom, circle
from polydisc.schwarz import SchwarzProblem, check_condition, gn_schwarz_bound
from polydisc.sampling import (
    exterior_point,
    g_point_disc,
    near_boundary_point,
    tilde_g_point,
    torus_point,
    unit_disc,
)

from conftest import WORKED_LAMBDA0, WORKED_POINT
from test_totality import _finite

GAP_POINT = CPoint((2.5, 1.25, 0.5))


# --- tilde-G / tilde-Gamma ------------------------------------------------


def test_tilde_g_origin():
    rep = in_tilde_g(CPoint((0, 0, 0)))
    assert rep.verdict and all(m.holds for m in rep.per_condition)


def test_tilde_g_gap_point_point():
    assert in_tilde_g(GAP_POINT).verdict


def test_tilde_g_rejects_unit_q():
    assert not in_tilde_g(CPoint((3.0, 3.0j, 1.0))).verdict
    assert not in_tilde_g(CPoint((3.0, 3.0j, 1.0)), cond="C6").condition("C6").holds


def test_tilde_gamma_binomial_point():
    for n in (2, 3, 4, 5):
        y = CPoint(tuple(float(binom(n, j)) for j in range(1, n)) + (1.0,))
        assert in_tilde_gamma(y).verdict
        assert not in_tilde_gamma(y.scale(1j)).verdict


def test_tilde_gamma_origin_strict():
    rep = in_tilde_gamma(CPoint((0, 0, 0)))
    assert rep.verdict and all(m.slack > 0 for m in rep.per_condition)


def test_condition_equivalence_stratified(rng):
    # all independently computed conditions agree off the boundary band
    band = 1e-7
    checked = 0
    for n in range(2, 7):
        for _ in range(300):
            u = rng.random()
            if u < 0.4:
                y = tilde_g_point(n, rng)
            elif u < 0.8:
                y = exterior_point(n, rng)
            else:
                y = near_boundary_point(n, rng, spread=1e-6)
            for rep in (in_tilde_g(y, "ALL", band), in_tilde_gamma(y, "ALL", band)):
                margins = rep.per_condition
                if any(abs(m.slack) <= band for m in margins):
                    continue
                checked += 1
                assert len({m.holds for m in margins}) == 1, (n, y.coords)
    assert checked > 1000


def test_open_vs_closed_on_boundary_point(rng):
    from polydisc.sampling import tilde_gamma_boundary_point

    for _ in range(50):
        y = tilde_gamma_boundary_point(3, rng)
        rep = in_tilde_gamma(y, cond="C7")
        assert rep.verdict and rep.condition("C7").boundary
        # nudged strictly outward the open set must reject
        assert not in_tilde_g(y.scale(1.0 + 1e-9), cond="C7").verdict
        assert in_tilde_g(y.scale(1.0 - 1e-6), cond="C7").verdict


def test_requesting_unknown_condition():
    with pytest.raises(DomainError):
        in_tilde_g(WORKED_POINT, cond="C10")  # C10 exists only for the closure
    assert in_tilde_gamma(WORKED_POINT, cond="C10").condition("C10").holds
    with pytest.raises(DomainError, match="no condition 'C3'"):
        in_tilde_g(WORKED_POINT, cond="C7").condition("C3")  # a report of C7 alone


# --- beta recovery and B matrices ------------------------------------------


def test_beta_zero():
    assert _beta_coords(CPoint((0, 0, 0)).coords) == (0j, 0j)


def test_beta_gap_point():
    betas = _beta_coords(GAP_POINT.coords)
    assert betas[0] == pytest.approx(2.5, abs=1e-14)
    assert betas[1] == pytest.approx(0.0, abs=1e-14)


def test_beta_round_trip(rng):
    # y_j = beta_j + conj(beta_{n-j}) q recovers the point
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        betas = _beta_coords(y.coords)
        rec = [betas[j - 1] + betas[n - 1 - j].conjugate() * y.q for j in range(1, n)]
        assert max(abs(a - b) for a, b in zip(rec, y.coords[:-1])) <= 1e-11


def _b_matrices(y: CPoint) -> list:
    """B_1, ..., B_{n/2} of condition (9) as arrays, from the entries C9 reads."""
    return [np.array(_b_entries(y.coords, j)).reshape(2, 2) for j in range(1, y.n // 2 + 1)]


def test_b_matrices_zero():
    for B in _b_matrices(CPoint((0, 0, 0, 0))):
        assert op_norm(B) == 0.0


def test_b_matrices_degenerate_diagonal():
    B = _b_matrices(CPoint((1.0, 0.25)))[0]
    assert B[0, 1] == 0 and B[1, 0] == 0
    assert op_norm(B) == pytest.approx(0.5)


def test_b_matrices_det_and_norm(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        mats = _b_matrices(y)
        for B in mats:
            det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
            assert abs(det - y.q) <= 1e-12 * (1 + abs(y.q))
            assert op_norm(B) < 1.0
        # C9 reads each ||B_j|| off clinalg's Gram kernel, as op_norm does
        c9 = in_tilde_g(y, cond="C9").condition("C9").slack
        assert abs(c9 - (1.0 - max(op_norm(B) for B in mats))) <= 1e-12


def _c9_exact(y: CPoint) -> float:
    """1 - max_j ||B_j||, B_j built and its singular values taken in 200-bit
    mpmath from the double coordinates of y."""
    import mpmath

    with mpmath.workprec(200):
        n, q = y.n, mpmath.mpc(y.q)
        top = 0
        for j in range(1, n // 2 + 1):
            c = mpmath.binomial(n, j)
            a, d = mpmath.mpc(y.y(j)) / c, mpmath.mpc(y.y(n - j)) / c
            k = mpmath.sqrt(a * d - q)  # either root: the norm is the same
            top = max(top, max(mpmath.svd_c(mpmath.matrix([[a, k], [k, d]]), compute_uv=False)))
        return float(1 - top)


def test_c9_matches_a_high_precision_svd():
    # on the distinguished boundary both singular values of B_j are 1, where
    # the discriminant T^2 - 4|q|^2 cancels; the Gram kernel keeps every digit
    rng = np.random.default_rng(5)
    for i in range(280):
        n = 2 + i % 7
        if i % 2:
            y = symmetrize(np.exp(2j * np.pi * rng.random(n)))
        else:
            y = tilde_g_point(n, rng)
        c9 = in_tilde_g(y, cond="C9").condition("C9").slack
        assert abs(c9 - _c9_exact(y)) <= 1e-14, (i, y)


# --- G_n / Gamma_n / b Gamma_n ---------------------------------------------


def test_in_g_base_case():
    assert in_g(CPoint((0.5,))).verdict
    assert not in_g(CPoint((1.0,))).verdict


def test_strict_inclusion_gap_point():
    assert in_tilde_g(GAP_POINT).verdict
    rep = in_g(GAP_POINT)
    assert not rep.verdict
    assert rep.recursion_trace  # the descent was taken at least one step


def test_strict_inclusion_family():
    # beta = ((2n-1)/2, 0, ..., 0), p = 1/2 separates the domains for n >= 3
    for n in (3, 4, 5):
        betas = [0j] * (n - 1)
        betas[0] = (2 * n - 1) / 2.0
        p = 0.5
        coords = [
            betas[j - 1] + betas[n - 1 - j].conjugate() * p for j in range(1, n)
        ] + [p]
        y = CPoint(tuple(coords))
        assert in_tilde_g(y).verdict
        assert not in_g(y).verdict


def test_g_report_flags_a_deeper_level_within_band():
    # level 0 passes C7 by 0.68, but the first beta-point's C7 slack is
    # exactly 0: double precision cannot decide the point, and the report
    # says so while it keeps level 0's slack
    rep = in_g(symmetrize([0.9999999999999994, 0.1, 0.6]))
    assert _tilde_slack7(rep.recursion_trace[0].coords) == 0.0
    assert not rep.verdict
    c7 = rep.condition("C7")
    assert c7.holds and c7.boundary and c7.slack == pytest.approx(0.6768)


def test_g_report_boundary_follows_the_deciding_level():
    # one root 1 - d from the circle, d log-uniform in 1e-12..1e-8: the last
    # level a descent computes is the one that decides it, and wherever its
    # C7 slack lies within band the report is flagged boundary
    rng = np.random.default_rng(20)
    within = 0
    for _ in range(150):
        n, d = int(rng.integers(3, 9)), 10.0 ** rng.uniform(-12.0, -8.0)
        z = [(1.0 - d) * cmath.exp(2j * math.pi * rng.random())] + [
            0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()) for _ in range(n - 1)]
        s = symmetrize(z)
        for band, rep in ((None, in_g(s)), (BOUNDARY_BAND, in_gamma(s))):
            levels = [p for p in (rep.point, *rep.recursion_trace) if p.n > 1]
            if abs(_tilde_slack7(levels[-1].coords, band)) < BOUNDARY_BAND:
                within += 1
                assert rep.condition("C7").boundary, (z, rep.set_id)
    assert within > 200


def test_g2_equals_tilde_g2(rng):
    band = 1e-7
    agree = 0
    for _ in range(2000):
        if rng.random() < 0.5:
            y = tilde_g_point(2, rng)
        else:
            y = CPoint((3.5 * unit_disc(rng), 1.5 * unit_disc(rng)))
        rep_t = in_tilde_g(y, cond="C7", band=band)
        if abs(rep_t.condition("C7").slack) <= band:
            continue
        assert rep_t.verdict == in_g(y, band=band).verdict
        agree += 1
    assert agree > 1500


def test_forward_oracle_g(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = symmetrize(g_point_disc(n, rng, rmax=0.95))
        assert in_g(s).verdict, s.coords


def test_forward_oracle_gamma(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = symmetrize(g_point_disc(n, rng, rmax=1.0))
        assert in_gamma(s).verdict, s.coords


def test_forward_oracle_b_gamma(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        s = symmetrize([torus_point(rng) for _ in range(n)])
        assert in_b_gamma(s), s.coords


def test_b_gamma_simple_cases():
    assert not in_b_gamma(CPoint((0, 0, 0)))
    assert in_gamma(CPoint((0, 0, 0))).verdict
    assert in_b_gamma(CPoint((2.0, 1.0)))  # pi_2(1, 1)


def test_gamma_rejects_gap_point():
    assert not in_gamma(GAP_POINT).verdict
    assert costara_sup(GAP_POINT) > 1.0


def test_swap_closure(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        u = rng.random()
        y = tilde_g_point(n, rng) if u < 0.5 else exterior_point(n, rng)
        for j in range(1, n // 2 + 1):
            assert (
                in_tilde_g(y, cond="C7").verdict
                == in_tilde_g(y.swap(j), cond="C7").verdict
            )
            assert (
                in_tilde_gamma(y, cond="C7").verdict
                == in_tilde_gamma(y.swap(j), cond="C7").verdict
            )


# --- symmetrize -------------------------------------------------------------


def test_symmetrize_trivial():
    assert symmetrize([0, 0, 0]).coords == (0j, 0j, 0j)
    assert symmetrize([1.0, 1.0]).coords == (2 + 0j, 1 + 0j)


def test_symmetrize_against_poly_expansion(rng):
    # numpy.poly expands prod (t - z_i); match signs (-1)^k s_k
    z = [0.5, 0.5j, -0.5]
    s = symmetrize(z)
    assert s.coords[0] == pytest.approx(0.5j, abs=1e-15)
    assert s.coords[1] == pytest.approx(-0.25, abs=1e-15)
    assert s.coords[2] == pytest.approx(-0.125j, abs=1e-15)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        z = [unit_disc(rng, 2.0) for _ in range(n)]
        s = symmetrize(z)
        coeffs = np.poly(np.array(z))  # t^n - s1 t^{n-1} + ...
        for k in range(1, n + 1):
            assert s.coords[k - 1] == pytest.approx(
                (-1) ** k * coeffs[k], abs=1e-10 * (1 + abs(coeffs[k]))
            )


# --- Costara's function -----------------------------------------------------


def test_costara_zero_point():
    s = CPoint((0, 0, 0))
    assert costara_f(s, 0.3) == 0
    assert costara_sup(s) == 0.0


def test_costara_constant_term(rng):
    for _ in range(20):
        a, b = unit_disc(rng), unit_disc(rng)
        s = symmetrize([a, b])
        assert costara_f(s, 0.0) == pytest.approx(-(a + b) / 2.0, abs=1e-14)


def test_costara_bounded_on_members(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        s = symmetrize(g_point_disc(n, rng, rmax=0.95))
        for k in range(256):
            z = cmath.exp(2j * math.pi * k / 256)
            assert abs(costara_f(s, z)) < 1.0


def test_costara_sup_gap_point_is_pole():
    # the denominator vanishes at z ~ 0.7351 inside the disc: sup = +inf
    assert math.isinf(costara_sup(GAP_POINT, grid=4096))


def test_costara_sup_interior_point(rng):
    s = symmetrize([0.9, 0.9, 0.9])
    assert costara_sup(s, grid=4096) < 1.0


def test_costara_agrees_with_membership(rng):
    band = 1e-7
    for _ in range(150):
        n = int(rng.integers(2, 5))
        u = rng.random()
        if u < 0.5:
            s = symmetrize(g_point_disc(n, rng, rmax=0.9))
        else:
            s = tilde_g_point(n, rng) if u < 0.75 else exterior_point(n, rng)
        sup = costara_sup(s, grid=512)
        if abs(sup - 1.0) <= 1e-3:
            continue
        assert (sup < 1.0) == in_g(s, band=band).verdict, s.coords


def _costara_sup_loop(s, grid):
    """costara_sup's boundary scan as a loop of scalar costara_f calls."""
    step = 2.0 * math.pi / grid
    return max(abs(costara_f(s, cmath.exp(1j * step * k))) for k in range(grid))


def test_costara_sup_matches_scalar_loop(rng):
    zero = CPoint((0, 0, 0))
    assert costara_sup(zero, grid=64) == _costara_sup_loop(zero, 64) == 0.0
    assert math.isinf(costara_sup(GAP_POINT, grid=64))  # pole test, no scan
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        u = rng.random()
        if u < 0.5:
            s = symmetrize(g_point_disc(n, rng, rmax=0.9))
        else:
            s = tilde_g_point(n, rng) if u < 0.75 else exterior_point(n, rng)
        sup = costara_sup(s, grid=64)
        if math.isinf(sup):
            continue
        ref = _costara_sup_loop(s, 64)
        assert abs(sup - ref) <= 1e-13 * (1.0 + ref), s.coords
        checked += 1
    assert checked >= 30


def test_costara_sup_pole_on_grid_point():
    # s = symmetrize(1, 1): f_s = (2z - 2) / (2 - 2z) has a removable root at
    # z = 1, which the root test lets through and the scan lands on
    with pytest.raises(PoleError):
        costara_sup(CPoint((2.0, 1.0)), grid=64)


def test_costara_sup_overflow_raises():
    # f_s overflows to NaN on the grid; a NaN sup must not read as a verdict
    with pytest.raises(DomainError):
        costara_sup(CPoint((0.0, 1e308)), grid=64)


def test_nonvanishing_falsifier_overflow_raises():
    with pytest.raises(DomainError):
        nonvanishing_falsifier(CPoint((0.0, 1e308)), 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_large_q_is_outside_without_overflow(n):
    # above |q| ~ 1.34e154, |q|^2 is inf: the C7 slack is -inf, no OverflowError
    for big in (1.4e154, 1e200, 1e308):
        y = CPoint((0.5,) * (n - 1) + (big,))
        rep = in_tilde_g(y, cond="C7")
        assert rep.verdict is False and rep.condition("C7").slack == -math.inf
        assert in_g(y).verdict is False
        assert in_gamma(y).verdict is False
        assert _kernel_verdicts(np.array([y.coords]))[1].tolist() == [False]


# --- scaling ----------------------------------------------------------------


def test_scale_point_homogeneity(rng):
    # symmetrize(lam z) has coordinates lam^(k+1) s_(k+1) of symmetrize(z)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        z = g_point_disc(n, rng, rmax=0.97)
        lam = 0.3 + 0.6 * rng.random()
        scaled = symmetrize([lam * w for w in z])
        undone = [c / lam ** (k + 1) for k, c in enumerate(scaled.coords)]
        ref = symmetrize(z)
        assert max(abs(a - b) for a, b in zip(undone, ref.coords)) <= 1e-12


def test_nonvanishing_falsifier_finds_zero_outside():
    # exterior point: condition (2) fails, so a near-zero exists on the torus
    y = CPoint((3.5, 0.0, 0.0))
    val, z, w = nonvanishing_falsifier(y, 1, grid=128)
    assert val < 0.2
    # interior point: the product stays safely away from zero
    val_in, _, _ = nonvanishing_falsifier(WORKED_POINT, 1, grid=64)
    assert val_in > 0.5


def _falsifier_loop(y, j, grid):
    """The falsifier's search as scalar loops over the same candidates."""
    n = y.n
    c = float(binom(n, j))
    yj, ynj, q = y.y(j), y.y(n - j), y.q

    def val(z, w):
        return abs(c - yj * z - ynj * w + c * q * z * w)

    step = 2.0 * math.pi / grid
    circle = [cmath.exp(1j * step * b) for b in range(grid)]
    best = val(1.0, 1.0)
    for z in circle:
        for w in circle:
            best = min(best, val(z, w))
    for radius in (0.0, 0.5, 0.9, 1.0):
        for e in circle:
            w = radius * e
            for a, b, swap in ((ynj, yj, False), (yj, ynj, True)):
                den = c * q * w - b
                if abs(den) > 1e-300:
                    z = (a * w - c) / den
                    if abs(z) > 1.0:
                        z /= abs(z)
                    best = min(best, val(w, z) if swap else val(z, w))
    return best


def test_nonvanishing_falsifier_matches_scalar_loop(rng):
    cases = [(WORKED_POINT, 1), (WORKED_POINT, 2), (CPoint((3.5, 0.0, 0.0)), 1)]
    cases += [(CPoint((0, 0, 0)), 1), (CPoint((1.0, 0.25)), 1)]
    for _ in range(25):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng) if rng.random() < 0.7 else exterior_point(n, rng)
        cases.append((y, int(rng.integers(1, n))))
    for y, j in cases:
        val, z, w = nonvanishing_falsifier(y, j, grid=64)
        c = float(binom(y.n, j))
        g = abs(c - y.y(j) * z - y.y(y.n - j) * w + c * y.q * z * w)
        assert abs(g - val) <= 1e-12 * (1.0 + c)
        assert abs(z) <= 1.0 + 1e-12 and abs(w) <= 1.0 + 1e-12
        assert val <= _falsifier_loop(y, j, 64) + 1e-12


def _falsifier_flat(y, j, grid):
    """The falsifier over one flat candidate list: (1, 1), np.repeat/np.tile
    of the torus, then the zero curve, as concatenated arrays."""
    e = circle(grid)
    c = float(binom(y.n, j))
    yj, ynj, q = y.y(j), y.y(y.n - j), y.q
    w = np.array([0.0, 0.5, 0.9, 1.0])[:, None, None] * e[:, None]
    den = c * q * w - np.array([yj, ynj])
    ok = np.abs(den) > 1e-300
    z = (np.array([ynj, yj]) * w - c) / np.where(ok, den, 1.0)
    z /= np.maximum(np.abs(z), 1.0)
    w, first = np.broadcast_to(w, z.shape), np.array([True, False])
    zs = np.concatenate(([1.0], np.repeat(e, grid), np.where(first, z, w)[ok]))
    ws = np.concatenate(([1.0], np.tile(e, grid), np.where(first, w, z)[ok]))
    vals = np.abs(c - yj * zs - ynj * ws + c * q * zs * ws)
    k = int(np.argmin(vals))
    return "nan" if math.isnan(vals[k]) else (float(vals[k]), complex(zs[k]), complex(ws[k]))


@np.errstate(all="ignore")
def test_nonvanishing_falsifier_is_bit_identical_to_a_flat_search(rng):
    # compared with ==: ties at (1, 1), an empty zero curve (q = y_j =
    # y_{n-j} = 0), a zero on the curve, overflow, and seeded points of
    # every magnitude
    cases = [(CPoint((0, 0, 0)), 1), (CPoint((1.0, 0.25)), 1), (CPoint((3.5, 0.0, 0.0)), 1),
             (WORKED_POINT, 2), (CPoint((0.0, 1e308)), 1), (CPoint((2.0, 1.0)), 1)]
    for _ in range(120):
        n = int(rng.integers(2, 8))
        y = tilde_g_point(n, rng) if rng.random() < 0.5 else exterior_point(n, rng)
        y = y.scale(10.0 ** rng.uniform(-200, 200)) if rng.random() < 0.3 else y
        cases.append((y, int(rng.integers(1, n))))
    for y, j in cases:
        for grid in (8, 64):
            try:
                got = nonvanishing_falsifier(y, j, grid)
            except DomainError:
                got = "nan"
            assert got == _falsifier_flat(y, j, grid)


@pytest.mark.parametrize("grid", [np.uint8(64), np.int8(64), np.int16(200)])
def test_nonvanishing_falsifier_takes_small_numpy_grid_counts(grid):
    # grid * grid wraps in these types (to 0, 0 and -25536); the torus block
    # is sized from the circle, so the search equals the int grid's
    for y, j in ((WORKED_POINT, 2), (CPoint((2.0, 1.0)), 1), (CPoint((0.3, 0.2, 0.1)), 1)):
        got = nonvanishing_falsifier(y, j, grid)
        assert got == nonvanishing_falsifier(y, j, int(grid)) == _falsifier_flat(y, j, int(grid))


@settings(max_examples=1000, deadline=None)
@given(st.binary(min_size=32, max_size=128))
def test_tilde_reports_total_on_finite_doubles(raw):
    # the bytes read as doubles (NaN as 0, +-inf as +-the largest double)
    # cover the whole finite range, n = 2..8; any such point gives a
    # PolydiscError or reports whose JSON is strict, whose decided
    # conditions agree with the verdict, and whose verdict is the plane kernel's
    coords = np.nan_to_num(np.frombuffer(raw[: len(raw) // 16 * 16], dtype=complex))
    y = CPoint(tuple(coords.tolist()))
    try:
        reports = (in_tilde_g(y, "ALL"), in_tilde_gamma(y, "ALL"))
    except PolydiscError:
        return
    for rep in reports:
        json.dumps(rep.to_json(), allow_nan=False)
        for m in rep.per_condition:
            assert m.boundary or m.holds == rep.verdict, (rep.set_id, m, coords)
    assert _kernel_verdicts(np.array([y.coords]))[1].tolist() == [reports[0].verdict]


def test_report_json_round_trip():
    rep = in_tilde_g(GAP_POINT)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["verdict"] is True
    assert {c["cond"] for c in back["conditions"]} >= {"C7", "C4", "C9"}


# --- the report records -----------------------------------------------------


def _report_digest() -> str:
    """sha256 over the reports of 350 seeded points, 70 from each stratum of
    the membership benchmark (interior, exterior, near the boundary, and the
    symmetrized points of the disc and of the torus) at n = 2..8: the JSON of
    in_tilde_g at ALL, C3 and C7, of in_tilde_gamma at ALL, C3, C7 and C10,
    of in_g and in_gamma, and the in_b_gamma verdict (a PolydiscError as type
    and message)."""
    rng = np.random.default_rng(2525)
    strata = (
        lambda n: tilde_g_point(n, rng),
        lambda n: exterior_point(n, rng),
        lambda n: near_boundary_point(n, rng, spread=1e-6),
        lambda n: symmetrize(g_point_disc(n, rng, rmax=0.95)),
        lambda n: symmetrize([torus_point(rng) for _ in range(n)]),
    )
    calls = (
        *(lambda y, c=c: in_tilde_g(y, c) for c in ("ALL", "C3", "C7")),
        *(lambda y, c=c: in_tilde_gamma(y, c) for c in ("ALL", "C3", "C7", "C10")),
        in_g,
        in_gamma,
        in_b_gamma,
    )
    h = hashlib.sha256()
    for i in range(350):
        y = strata[i % 5](2 + i % 7)
        for call in calls:
            try:
                out = call(y)
            except PolydiscError as exc:
                h.update(repr((type(exc).__name__, str(exc))).encode())
                continue
            h.update(json.dumps(out if isinstance(out, bool) else out.to_json()).encode())
    return h.hexdigest()


# sha256 of _report_digest() at the commit before the reports became named
# tuples; any change to a verdict, a margin, a trace or a byte of JSON moves it
REPORT_DIGEST = "4a5c29d59cfedb56a5d9d8e8315c566175004eff56ca8887eecb9439f7de16c6"


def test_report_bytes_are_pinned():
    assert _report_digest() == REPORT_DIGEST


def test_report_records_are_immutable():
    rep = in_g(symmetrize([0.5, 0.3, 0.1]))
    for record, field in ((rep, "verdict"), (rep, "recursion_trace"), (rep.per_condition[0], "slack")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(DomainError, match="no condition 'C99'"):
        in_tilde_gamma(GAP_POINT).condition("C99")


def test_schwarz_margins_built_positionally_read_as_by_name():
    # check_condition and gn_schwarz_bound build their margins positionally
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT)
    margins = [check_condition(p, c) for c in range(2, 12)]
    margins.append(gn_schwarz_bound(symmetrize([0.1, 0.2]), 0.5, grid=64))
    for m in margins:
        by_name = ConditionMargin(cond_id=m.cond_id, holds=m.holds, slack=m.slack, boundary=m.boundary)
        assert by_name == m
        assert by_name.to_json() == m.to_json() == {
            "cond": m.cond_id, "holds": m.holds, "slack": m.slack, "boundary": m.boundary}


def test_infinite_slack_is_written_as_the_largest_double():
    for s in (math.inf, -math.inf):
        assert ConditionMargin("C3", s > 0.0, s, False).to_json()["slack"] == math.copysign(1e308, s)
    rep = in_tilde_g(CPoint((1.0, 3.0, 0.0)))  # |y_2| = binom(3, 1): D_1 is unbounded
    assert rep.condition("C3").slack == -math.inf
    assert {"cond": "C3", "holds": False, "slack": -1e308, "boundary": False} in rep.to_json()["conditions"]
    assert _finite(rep) and _finite(in_gamma(GAP_POINT))


# --- batch forms against the scalar path -------------------------------------


def _batch_points(n, rng, per=60):
    """Seeded points of every stratum the batch kernels must match on."""
    pts = []
    for _ in range(per):
        pts.append(tilde_g_point(n, rng))
        pts.append(exterior_point(n, rng))
        pts.append(near_boundary_point(n, rng, spread=1e-9))
        pts.append(symmetrize(g_point_disc(n, rng, rmax=1.0)))
        pts.append(symmetrize([torus_point(rng) for _ in range(n)]))
        z = [torus_point(rng) for _ in range(n)]
        z[0] *= 1.0 - 1e-7 * rng.random()  # |p| within the band of 1
        pts.append(symmetrize(z))
        s = symmetrize([torus_point(rng) for _ in range(n)]).coords
        pts.append(CPoint(tuple(1.5 * c for c in s[:-1]) + s[-1:]))  # |y_j| > binom
    # moduli beyond the largest double, where a bare abs() overflows
    pts.append(CPoint((1.5e308 + 1.5e308j,) * (n - 1) + (1e-300,)))
    return pts


@pytest.mark.parametrize("n", range(2, 9))
def test_batch_slack_bit_identical(n, rng):
    from polydisc.membership import _tilde_slack7, _tilde_slack7_batch

    band = 1e-7
    pts = _batch_points(n, rng)
    y = np.array([p.coords for p in pts])
    ref = [_tilde_slack7(p.coords) for p in pts]
    assert _open_slack7_batch(y).tolist() == ref
    assert ref == [in_tilde_g(p, cond="C7").condition("C7").slack for p in pts]
    ref = [_tilde_slack7(p.coords, band) for p in pts]
    assert _tilde_slack7_batch(y, band).tolist() == ref


def _planes(y):
    """The contiguous (n, m) real and imaginary planes of the (m, n) array y,
    as oracle and plot-slice build them."""
    return np.ascontiguousarray(y.real.T), np.ascontiguousarray(y.imag.T)


def _kernel_verdicts(y, band=1e-7):
    """The plane kernels the product runs, on the rows of the (m, n) array y
    as one pair of planes and under np.errstate(all="ignore") as its callers
    run them: the in_g verdicts, the level-0 C7 verdicts of that descent
    (in_tilde_g's; False where no level runs), and the in_gamma and in_b_gamma
    verdicts at band."""
    from polydisc.membership import _descent

    re, im = _planes(y)
    with np.errstate(all="ignore"):
        g, tilde = _descent([(re, im)])
        return g, tilde, _descent([(re, im)], band)[0], _descent([], band, [(re, im)])[0]


def _open_slack7_batch(y):
    """The C7 slack the open descent reads at level 0."""
    from polydisc.membership import _level

    re, im = _planes(y)
    with np.errstate(all="ignore"):  # the C7 slack of a huge point overflows
        return _level(re, im, np.hypot(re[-1], im[-1]))[0]


def _symmetrized(z):
    """The (m, n) real and imaginary parts of symmetrize of each row of z,
    off the plane kernel."""
    from polydisc.membership import _symmetrize_planes

    with np.errstate(all="ignore"):
        er, ei = _symmetrize_planes(*_planes(z))
    return er.T.tolist(), ei.T.tolist()


def _parts(points):
    """The real and imaginary parts of the coordinates of each point."""
    points = list(points)
    return [[c.real for c in p] for p in points], [[c.imag for c in p] for p in points]


@pytest.mark.parametrize("n", range(2, 9))
def test_batch_verdicts_match_scalar(n, rng):
    from polydisc.membership import _beta_coords, _level

    pts = _batch_points(n, rng)
    y = np.array([p.coords for p in pts])
    g, tilde, gamma, b_gamma = _kernel_verdicts(y)
    assert tilde.tolist() == [in_tilde_g(p, cond="C7").verdict for p in pts]
    assert g.tolist() == [in_g(p).verdict for p in pts]
    assert gamma.tolist() == [in_gamma(p).verdict for p in pts]
    assert b_gamma.tolist() == [in_b_gamma(p) for p in pts]
    inner = [p for p in pts if abs(p.q) < 1.0]
    re, im = _planes(np.array([p.coords for p in inner]))
    with np.errstate(all="ignore"):  # the C7 slack of a huge point overflows
        _, dr, di, w = _level(re, im, np.hypot(re[-1], im[-1]))  # the next level is D / w
    assert ((dr / w).T.tolist(), (di / w).T.tolist()) == _parts(_beta_coords(p.coords) for p in inner)
    z = np.array([g_point_disc(n, rng, rmax=2.0) for _ in range(50)])
    assert _symmetrized(z) == _parts(symmetrize(list(w)).coords for w in z)


def _uniform_batches(n, rng, m=40):
    """Batches the descents never compact: all interior (every row survives
    every level), all exterior (every row drops at the first level), one
    row, and no row."""
    inner = [symmetrize(g_point_disc(n, rng, rmax=0.95)) for _ in range(m)]
    if n == 1:
        outer = [CPoint((1.5 * torus_point(rng),)) for _ in range(m)]
    else:
        outer = [exterior_point(n, rng) for _ in range(m)]
    for p in inner:
        assert len(in_g(p).recursion_trace) == len(in_gamma(p).recursion_trace) == n - 1
    for p in outer:
        assert not (in_g(p).recursion_trace or in_gamma(p).recursion_trace)
    return inner, outer, inner[:1], []


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_uniform_batches_match_scalar(n, rng):
    from polydisc.membership import _tilde_slack7, _tilde_slack7_batch

    for pts in _uniform_batches(n, rng):
        y = np.array([p.coords for p in pts], dtype=complex).reshape(len(pts), n)
        g, tilde, gamma, b_gamma = _kernel_verdicts(y)
        assert g.tolist() == [in_g(p).verdict for p in pts]
        assert gamma.tolist() == [in_gamma(p).verdict for p in pts]
        assert b_gamma.tolist() == [in_b_gamma(p) for p in pts]
        if n > 1 and pts:  # an empty batch runs no level
            assert tilde.tolist() == [in_tilde_g(p, "C7").verdict for p in pts]
        if n > 1:
            ref = [_tilde_slack7(p.coords) for p in pts]
            assert _open_slack7_batch(y).tolist() == ref
            ref = [_tilde_slack7(p.coords, 1e-7) for p in pts]
            assert _tilde_slack7_batch(y, 1e-7).tolist() == ref
    inner = [g_point_disc(n, rng, rmax=0.95) for _ in range(40)]
    outer = [[(1.2 + rng.random()) * torus_point(rng) for _ in range(n)] for _ in range(40)]
    for z in (inner, outer, inner[:1], []):
        batch = _symmetrized(np.array(z, dtype=complex).reshape(len(z), n))
        assert batch == _parts(symmetrize(w).coords for w in z)


def test_batch_verdicts_one_coordinate(monkeypatch):
    from polydisc import membership

    def level(*args):
        raise AssertionError("a level of the descent ran at n = 1")

    y = np.array([[0.5], [1.0], [1j], [1.5]])
    pts = [CPoint(tuple(row)) for row in y]
    monkeypatch.setattr(membership, "_level", level)
    g, tilde, gamma, b_gamma = _kernel_verdicts(y)
    monkeypatch.undo()
    assert tilde.tolist() == [False] * 4  # no level, so no C7 verdict
    for p in pts:
        with pytest.raises(DomainError, match="needs n >= 2"):
            in_tilde_g(p)
    assert g.tolist() == [in_g(p).verdict for p in pts]
    assert gamma.tolist() == [in_gamma(p).verdict for p in pts]
    assert b_gamma.tolist() == [in_b_gamma(p) for p in pts]


def _mixed_points(n, rng, per=12):
    """Seeded points at dimension n: interior, exterior, |q| within 1e-9 of 1
    (either side) and symmetrized torus points."""
    pts = []
    for _ in range(per):
        pts.append(symmetrize(g_point_disc(n, rng, rmax=0.95)))
        pts.append(exterior_point(n, rng) if n > 1 else CPoint((1.5 * torus_point(rng),)))
        for side in (-1.0, 1.0):
            z = [torus_point(rng) for _ in range(n)]
            z[0] *= 1.0 + side * 1e-9 * rng.random()
            pts.append(symmetrize(z))
        pts.append(symmetrize([torus_point(rng) for _ in range(n)]))
    return pts


@pytest.mark.parametrize("band", [None, 1e-7, 1e-16], ids=["open", "band-1e-7", "band-1e-16"])
def test_mixed_descent_equals_per_pair_calls_and_scalar_predicates(band, rng):
    # plane pairs of heights 1..8, out of order and with repeated heights:
    # one descent over all of them gives, in input order, the verdicts and
    # level-0 C7 verdicts of one call per pair, bit for bit, and the scalar
    # in_g (open) or in_gamma (at band); asked for b Gamma_n on the same
    # pairs, the closed descent gives in_b_gamma after them, with level-0
    # verdicts False
    from polydisc.membership import _descent

    blocks = []
    for n in (3, 1, 8, 2, 5, 7, 4, 6):
        pts = _mixed_points(n, rng)
        blocks += [pts[:25], pts[25:]]  # two pairs of each height
    blocks = blocks[1::2] + blocks[::2]
    pairs = [_planes(np.array([p.coords for p in pts])) for pts in blocks]
    flat = [p for pts in blocks for p in pts]
    with np.errstate(all="ignore"):
        verdict, level0 = _descent(pairs, band)
        singles = [_descent([pair], band) for pair in pairs]
    assert verdict.tolist() == [b for v, _ in singles for b in v.tolist()]
    assert level0.tolist() == [b for _, t in singles for b in t.tolist()]
    if band is None:
        assert verdict.tolist() == [in_g(p).verdict for p in flat]
    else:
        assert verdict.tolist() == [in_gamma(p, band).verdict for p in flat]
    assert level0.tolist() == [p.n > 1 and in_tilde_g(p, cond="C7").verdict for p in flat]
    assert len(set(verdict.tolist())) == len(set(level0.tolist())) == 2
    if band is None:
        return
    with np.errstate(all="ignore"):
        closed, closed0 = _descent(pairs, band, pairs)
    assert closed[:len(flat)].tolist() == verdict.tolist()
    assert closed0.tolist() == level0.tolist() + [False] * len(flat)
    b_gamma = closed[len(flat):].tolist()
    assert b_gamma == [in_b_gamma(p, band) for p in flat]
    assert 0 < sum(b_gamma) < len(flat)


@pytest.mark.parametrize("band", [1e-7, 1e-16], ids=["band-1e-7", "band-1e-16"])
def test_closed_descent_composes_b_gamma_in_one_call(band, monkeypatch, rng):
    # pairs holding |q| = 1 points, whether asked for Gamma_n or for
    # b Gamma_n, run b Gamma's residual step inside the one descent called:
    # the truncations that pass go on in its own loop, not in a second call
    from polydisc import membership

    descent, calls = membership._descent, []

    def counted(pairs, band, b_pairs):
        calls.append(band)
        return descent(pairs, band, b_pairs)

    monkeypatch.setattr(membership, "_descent", counted)
    blocks = [_mixed_points(n, rng) for n in (1, 2, 3, 5, 8)]
    pairs = [_planes(np.array([p.coords for p in pts])) for pts in blocks]
    flat = [p for pts in blocks for p in pts]
    with np.errstate(all="ignore"):
        verdict, level0 = membership._descent(pairs, band, pairs[::-1])
    assert calls == [band]
    assert verdict.tolist() == ([in_gamma(p, band).verdict for p in flat]
                                + [in_b_gamma(p, band) for pts in blocks[::-1] for p in pts])
    assert not level0[len(flat):].any()
    assert sum(abs(abs(p.q) - 1.0) <= band and in_gamma(p, band).verdict for p in flat) > 0
    for pts in blocks:  # only b Gamma pairs, n = 1 included
        calls.clear()
        with np.errstate(all="ignore"):
            alone = membership._descent([], band, [_planes(np.array([p.coords for p in pts]))])
        assert calls == [band]
        assert alone[0].tolist() == [in_b_gamma(p, band) for p in pts]
        assert not alone[1].any()


# --- inclusive edges of the closed sets --------------------------------------

EDGE_BAND = 2.0 ** -20

# dyadic points at EDGE_BAND on which every modulus, residual and slack is
# exact in doubles: (coords, in Gamma_2, in b Gamma_2)
EDGE_POINTS = {
    "unit-q": ((1.0, 1 + 2.0 ** -20), True, True),  # | |q| - 1 | = band
    "slack": ((1 + 2.0 ** -21, 0.0), True, False),  # closed C7 slack = -band
    "residual": ((2.0 ** -20, -1.0), True, True),  # |y_1 - conj(y_1) q| = band (1 + max |y|)
}


@pytest.mark.parametrize("key", EDGE_POINTS)
def test_closed_sets_include_their_band_edges(key):
    # "within band" is inclusive: a point exactly band away from the set, by
    # |q|, by the C7 slack or by the forced relation, is in it on the scalar
    # path and on the planes; the open G_2 holds none of them
    coords, gamma, b_gamma = EDGE_POINTS[key]
    p = CPoint(coords)
    assert in_gamma(p, EDGE_BAND).verdict is gamma
    assert in_b_gamma(p, EDGE_BAND) is b_gamma
    assert not in_g(p, EDGE_BAND).verdict
    g, _, g_planes, b_planes = _kernel_verdicts(np.array([coords]), EDGE_BAND)
    assert (g.tolist(), g_planes.tolist(), b_planes.tolist()) == ([False], [gamma], [b_gamma])


def test_closed_c7_slack_at_its_band_edges():
    # the closed C7 slack is exactly -band at the "slack" point, so its
    # condition holds; at |q| = 1 - band the unit clause binom(2, 1) - |y_1|
    # joins the min and decides (without it the slack is about -5e-12)
    from polydisc.membership import _tilde_slack7_batch

    for coords, slack, holds in (((1 + 2.0 ** -21, 0.0), -EDGE_BAND, True),
                                 ((2 + 2.0 ** -19, 1 - 2.0 ** -20), -2.0 ** -19, False)):
        margin = ConditionMargin("C7", holds, slack, False)
        rep = in_tilde_gamma(CPoint(coords), "C7", EDGE_BAND)
        assert rep.verdict is holds and rep.per_condition == (margin,)
        assert in_gamma(CPoint(coords), EDGE_BAND).per_condition == (margin,)
        assert _tilde_slack7_batch(np.array([coords]), EDGE_BAND).tolist() == [slack]


@pytest.mark.parametrize("s1, slack, boundary, in_g_verdict", [
    (0.25, 0.75, False, True),
    (-0.25j, 0.75, False, True),
    (1.0, 0.0, True, False),
    (1 + EDGE_BAND, -EDGE_BAND, False, False),
])
def test_one_coordinate_margin_is_one_minus_the_modulus(s1, slack, boundary, in_g_verdict):
    # G_1 and Gamma_1 are the open and closed unit disc: the margin of s_1
    # is 1 - |s_1|, exact at these dyadic points; the closed disc keeps
    # |s_1| = 1 + band, and b Gamma_1 keeps the last two
    p = CPoint((s1,))
    g, gamma = in_g(p, EDGE_BAND), in_gamma(p, EDGE_BAND)
    assert g.verdict is in_g_verdict and gamma.verdict
    assert g.per_condition == (ConditionMargin("C7", in_g_verdict, slack, boundary),)
    assert gamma.per_condition == (ConditionMargin("C7", True, slack, boundary),)
    b_gamma = abs(s1) >= 1.0
    assert in_b_gamma(p, EDGE_BAND) is b_gamma
    planes = _kernel_verdicts(np.array([[s1]], dtype=complex), EDGE_BAND)
    assert [v.tolist() for v in planes] == [[in_g_verdict], [False], [True], [b_gamma]]


def test_open_descent_rejects_a_zero_c7_slack():
    # G_n is open: a level whose C7 slack is exactly 0 rejects, on the scalar
    # path and on the planes, although this point's next level rounds to
    # |beta_1| = 1 - 2**-53 and would pass the disc test
    coords = (-0.3714576074945742 + 0.16548898298807888j, -0.018551663167935217 - 0.8467650648595673j)
    assert _tilde_slack7(coords) == 0.0 and abs(_beta_coords(coords)[0]) < 1.0
    rep = in_g(CPoint(coords))
    assert not rep.verdict and rep.per_condition == (ConditionMargin("C7", False, 0.0, True),)
    g, tilde, _, _ = _kernel_verdicts(np.array([coords]))
    assert (g.tolist(), tilde.tolist()) == ([False], [False])


@pytest.mark.parametrize("n", range(2, 9))
def test_b_gamma_is_gamma_where_p_is_unimodular(n, rng):
    # b Gamma_n = Gamma_n with |p| = 1, two-sided on the scalar predicates and
    # on the plane descent: torus points lie in both sets; one root pulled in
    # by u < 0.99 stays in Gamma_n and leaves b Gamma_n; one root pushed out
    # by 1 + d and one pulled in by 1 + d keep |p| = 1 and leave both
    torus, inner, pushed = [], [], []
    for _ in range(30):
        z = [torus_point(rng) for _ in range(n)]
        torus.append(symmetrize(z))
        z[0] *= 0.99 * rng.random()
        inner.append(symmetrize(z))
        d = 10.0 ** rng.uniform(-3.0, -1.0)
        z = [torus_point(rng) for _ in range(n)]
        z[0], z[1] = z[0] * (1 + d), z[1] / (1 + d)
        pushed.append(symmetrize(z))
    for pts, gamma, b_gamma in ((torus, True, True), (inner, True, False), (pushed, False, False)):
        assert [in_gamma(p).verdict for p in pts] == [gamma] * len(pts)
        assert [in_b_gamma(p) for p in pts] == [b_gamma] * len(pts)
        _, _, g_planes, b_planes = _kernel_verdicts(np.array([p.coords for p in pts]))
        assert g_planes.tolist() == [gamma] * len(pts)
        assert b_planes.tolist() == [b_gamma] * len(pts)


def test_batch_samplers_equal_scalar_draws():
    from polydisc.sampling import g_points_disc, torus_points

    for n, rmax in ((2, 0.95), (5, 1.0), (8, 0.5)):
        r1, r2 = np.random.default_rng(n), np.random.default_rng(n)
        batch = g_points_disc(n, r1, 40, rmax=rmax)
        ref = np.array([g_point_disc(n, r2, rmax=rmax) for _ in range(40)])
        assert batch.tobytes() == ref.tobytes()
        batch = torus_points(r1, 30, n)
        ref = np.array([[torus_point(r2) for _ in range(n)] for _ in range(30)])
        assert batch.tobytes() == ref.tobytes()
        assert r1.random() == r2.random()  # both consumed the same draws


@pytest.mark.parametrize("n", range(2, 9))
def test_tilde_g_points_equal_scalar_draws(n):
    from polydisc.sampling import tilde_g_points

    for margin in (0.95, 0.5):
        r1, r2 = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
        batch = tilde_g_points(n, r1, 37, margin=margin)
        ref = np.array([tilde_g_point(n, r2, margin=margin).coords for _ in range(37)])
        assert batch.shape == (37, n)
        assert batch.tobytes() == ref.tobytes()
        assert r1.bit_generator.state == r2.bit_generator.state
