import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydisc.clinalg import op_norm
from polydisc.errors import DomainError, PoleError, PolydiscError
from polydisc.membership import (
    b_matrices,
    beta_recover,
    costara_f,
    costara_sup,
    in_b_gamma,
    in_g,
    in_gamma,
    in_tilde_g,
    in_tilde_gamma,
    nonvanishing_falsifier,
    scale_point,
    symmetrize,
)
from polydisc.mobius import CPoint, binom
from polydisc.sampling import (
    exterior_point,
    g_point_disc,
    near_boundary_point,
    tilde_g_point,
    torus_point,
    unit_disc,
)

from conftest import WORKED_POINT

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


# --- beta recovery and B matrices ------------------------------------------


def test_beta_zero():
    assert beta_recover(CPoint((0, 0, 0))).betas == (0j, 0j)


def test_beta_gap_point():
    bv = beta_recover(GAP_POINT)
    assert bv.betas[0] == pytest.approx(2.5, abs=1e-14)
    assert bv.betas[1] == pytest.approx(0.0, abs=1e-14)


def test_beta_round_trip(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        bv = beta_recover(y)
        rec = bv.reconstruct(y.q)
        assert max(abs(a - b) for a, b in zip(rec, y.coords[:-1])) <= 1e-11


def test_beta_rejects_unimodular_q():
    with pytest.raises(DomainError):
        beta_recover(CPoint((0.5, 1.0)))


def test_b_matrices_zero():
    for B in b_matrices(CPoint((0, 0, 0, 0))):
        assert op_norm(B) == 0.0


def test_b_matrices_degenerate_diagonal():
    B = b_matrices(CPoint((1.0, 0.25)))[0]
    assert B[0, 1] == 0 and B[1, 0] == 0
    assert op_norm(B) == pytest.approx(0.5)


def test_b_matrices_det_and_norm(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        y = tilde_g_point(n, rng)
        mats = b_matrices(y)
        for B in mats:
            det = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
            assert abs(det - y.q) <= 1e-12 * (1 + abs(y.q))
            assert op_norm(B) < 1.0
        # C9 reads the closed-form norm off the pair's moduli
        c9 = in_tilde_g(y, cond="C9").condition("C9").slack
        assert abs(c9 - (1.0 - max(op_norm(B) for B in mats))) <= 1e-12


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
    from polydisc.membership import in_tilde_g_batch

    for big in (1.4e154, 1e200, 1e308):
        y = CPoint((0.5,) * (n - 1) + (big,))
        rep = in_tilde_g(y, cond="C7")
        assert rep.verdict is False and rep.condition("C7").slack == -math.inf
        assert in_g(y).verdict is False
        assert in_gamma(y).verdict is False
        assert in_tilde_g_batch(np.array([y.coords])).tolist() == [False]


# --- scaling ----------------------------------------------------------------


def test_scale_point_identity_and_zero():
    s = CPoint((1.0, 2.0, 3.0))
    assert scale_point(s, 1.0) == s
    assert scale_point(CPoint((0, 0, 0)), 2.0).coords == (0j, 0j, 0j)
    with pytest.raises(DomainError):
        scale_point(s, 0.0)


def test_scale_point_homogeneity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        z = g_point_disc(n, rng, rmax=0.97)
        lam = 0.3 + 0.6 * rng.random()
        scaled = symmetrize([lam * w for w in z])
        undone = scale_point(scaled, lam)
        ref = symmetrize(z)
        assert max(abs(a - b) for a, b in zip(undone.coords, ref.coords)) <= 1e-12


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


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.binary(min_size=32, max_size=128))
def test_tilde_reports_total_on_finite_doubles(raw):
    # the bytes read as doubles (NaN as 0, +-inf as +-the largest double)
    # cover the whole finite range, n = 2..8; any such point gives a
    # PolydiscError or reports whose JSON is strict, whose decided
    # conditions agree with the verdict, and whose verdict is the batch row's
    from polydisc.membership import in_tilde_g_batch

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
    assert in_tilde_g_batch(np.array([y.coords])).tolist() == [reports[0].verdict]


def test_report_json_round_trip():
    rep = in_tilde_g(GAP_POINT)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["verdict"] is True
    assert {c["cond"] for c in back["conditions"]} >= {"C7", "C4", "C9"}


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
    for closed in (False, True):
        ref = [_tilde_slack7(p.coords, closed, band) for p in pts]
        assert _tilde_slack7_batch(y, closed, band).tolist() == ref
    ref = [in_tilde_g(p, cond="C7").condition("C7").slack for p in pts]
    assert _tilde_slack7_batch(y, False, band).tolist() == ref


@pytest.mark.parametrize("n", range(2, 9))
def test_batch_verdicts_match_scalar(n, rng):
    from polydisc.membership import (
        _beta_coords,
        _beta_coords_batch,
        in_b_gamma_batch,
        in_g_batch,
        in_gamma_batch,
        in_tilde_g_batch,
        symmetrize_batch,
    )

    pts = _batch_points(n, rng)
    y = np.array([p.coords for p in pts])
    assert in_tilde_g_batch(y).tolist() == [in_tilde_g(p, cond="C7").verdict for p in pts]
    assert in_g_batch(y).tolist() == [in_g(p).verdict for p in pts]
    assert in_gamma_batch(y).tolist() == [in_gamma(p).verdict for p in pts]
    assert in_b_gamma_batch(y).tolist() == [in_b_gamma(p) for p in pts]
    inner = [p for p in pts if abs(p.q) < 1.0]
    betas = _beta_coords_batch(np.array([p.coords for p in inner]))
    assert betas.tolist() == [list(_beta_coords(p.coords)) for p in inner]
    z = np.array([g_point_disc(n, rng, rmax=2.0) for _ in range(50)])
    assert symmetrize_batch(z).tolist() == [list(symmetrize(list(w)).coords) for w in z]


def test_batch_verdicts_one_coordinate():
    from polydisc.membership import (
        in_b_gamma_batch,
        in_g_batch,
        in_gamma_batch,
        in_tilde_g_batch,
    )

    y = np.array([[0.5], [1.0], [1j], [1.5]])
    pts = [CPoint(tuple(row)) for row in y]
    with pytest.raises(DomainError):
        in_tilde_g_batch(y)
    assert in_g_batch(y).tolist() == [in_g(p).verdict for p in pts]
    assert in_gamma_batch(y).tolist() == [in_gamma(p).verdict for p in pts]
    assert in_b_gamma_batch(y).tolist() == [in_b_gamma(p) for p in pts]


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
