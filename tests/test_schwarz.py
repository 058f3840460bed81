import cmath
import hashlib
import json

import numpy as np
import pytest

from polydisc.clinalg import _entries, herm_eig, op_norm
from polydisc.errors import DegenerateProblemError, DomainError
from polydisc.membership import BOUNDARY_BAND, costara_sup, in_tilde_g, in_tilde_gamma, symmetrize
from polydisc.mobius import CPoint, binom, d_norm
from polydisc.sampling import (
    g_point_disc,
    j_point,
    tilde_g_point,
    tilde_gamma_boundary_point,
    unit_disc,
)
from polydisc.schwarz import (
    SchwarzProblem,
    _pi_coords,
    _xj_terms,
    check_condition,
    gn_schwarz_bound,
    in_J_n,
    k_rho,
    lift,
    schur_certificates,
)

from conftest import WORKED_LAMBDA0, WORKED_POINT, rand_contraction


def make_problem(rng, n, strict_margin=None):
    y = tilde_g_point(n, rng, margin=0.85)
    if strict_margin is not None:
        top = max(d_norm(j, y) for j in range(1, n))
        lo = min(0.95, top * (1 + strict_margin))
        if lo >= 0.97 or lo <= 1e-3:
            return None
        al = lo + (0.97 - lo) * rng.random()
    else:
        al = 0.1 + 0.85 * rng.random()
    return SchwarzProblem(lambda0=al * np.exp(2j * np.pi * rng.random()), target=y)


def test_problem_validation():
    with pytest.raises(DomainError):
        SchwarzProblem(lambda0=0.0, target=WORKED_POINT)
    with pytest.raises(DomainError):
        SchwarzProblem(lambda0=0.5, target=CPoint((9.0, 0.0, 0.0)))


def test_condition2_zero_target():
    p = SchwarzProblem(lambda0=0.37, target=CPoint((0, 0, 0)))
    for cond in range(2, 12):
        m = check_condition(p, cond)
        assert m.holds, cond


def test_condition2_worked_marginal():
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT)
    m = check_condition(p, 2)
    assert m.holds and m.boundary
    assert m.slack == pytest.approx(0.0, abs=1e-13)


def test_condition2_fails_small_lambda():
    p = SchwarzProblem(lambda0=0.5, target=WORKED_POINT)
    m = check_condition(p, 2)
    assert not m.holds
    assert m.slack == pytest.approx(0.5 - 0.8, abs=1e-13)


def test_lift_zero_target():
    p = SchwarzProblem(lambda0=0.3, target=CPoint((0, 0, 0)))
    assert all(abs(c) == 0 for c in lift(p).coords)


def test_lift_worked_branch_and_values():
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT)
    lp = lift(p)
    assert p.branch(1) == "DivideJ"
    assert lp.coords[0] == pytest.approx(1.5 / WORKED_LAMBDA0, abs=1e-14)  # -15/8
    assert lp.coords[1] == pytest.approx(0.75, abs=1e-15)
    assert lp.coords[2] == pytest.approx(0.5 / WORKED_LAMBDA0, abs=1e-14)  # -5/8
    # the marginal problem keeps the lifted point just inside the closure
    assert in_tilde_gamma(lp, cond="C7").verdict


def test_lift_even_dimension_agrees_with_condition3(rng):
    for _ in range(60):
        p = make_problem(rng, 4)
        if p is None:
            continue
        lifted = lift(p)
        assert lifted.n == 5
        m3 = check_condition(p, 3)
        m4 = check_condition(p, 4)
        if min(abs(m3.slack), abs(m4.slack)) <= 1e-7:
            continue
        assert m3.holds == m4.holds


def _seeded_problems(seed, count):
    """count seeded problems, n = 2..8 in turn; every third target lies
    within 1e-3 of the boundary of tilde-G_n, the others fill at most 0.85
    or 0.97 of it; |lambda0| is the target's S3 threshold (its branch
    sup-norm) times a uniform factor in [0.7, 1.3), capped at 0.999, so
    about half the problems are feasible."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 2 + i % 7
        if i % 3 == 2:
            shrink = 1.0 - 1e-3 * (0.01 + 0.99 * rng.random())
            y = tilde_gamma_boundary_point(n, rng).scale(shrink)
        else:
            y = tilde_g_point(n, rng, margin=(0.85, 0.97)[i % 3])
        top = 0.5 - check_condition(SchwarzProblem(lambda0=0.5, target=y), 3).slack
        al = min(0.999, max(1e-3, top) * (0.7 + 0.6 * rng.random()))
        yield SchwarzProblem(lambda0=al * np.exp(2j * np.pi * rng.random()), target=y)


def test_s4_and_s11_are_the_lifted_points_closed_c7_and_c10():
    # one call each on the lifted point, bit for bit; for even n the lifted
    # point lives in C^{n+1}, so both slacks are in its units binom(n+1, j)
    band = BOUNDARY_BAND
    for p in _seeded_problems(20, 700):
        lifted = lift(p)
        c7 = in_tilde_gamma(lifted, cond="C7", band=band).condition("C7").slack
        c10 = in_tilde_gamma(lifted, cond="C10", band=band).condition("C10").slack
        cap = abs(p.lambda0) - abs(p.target.q)
        assert check_condition(p, 4, band=band).slack == c7, p.to_json()
        assert check_condition(p, 11, band=band).slack == min(cap, c10), p.to_json()


def test_schwarz_verdict_bits_pinned():
    # (holds, boundary) of S2..S11 on 2100 seeded problems, hashed before
    # S4 and S11 read the lifted point's own C7 and C10: changing S11's
    # units for even n must not move a verdict bit
    h = hashlib.sha256()
    for p in _seeded_problems(21, 2100):
        bits = [(m.holds, m.boundary) for m in (check_condition(p, c) for c in range(2, 12))]
        h.update(repr(bits).encode())
    assert h.hexdigest() == "1208ae6b863820568949d4ea74b109b26ee123bdbfdf2e08addf9807bafa8a69"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_equivalence_suite(n, rng):
    band = 1e-7
    checked = 0
    for _ in range(250):
        p = make_problem(rng, n)
        if p is None:
            continue
        margins = {c: check_condition(p, c, band=band) for c in (3, 4, 6, 7, 8, 9, 10, 11)}
        if any(abs(m.slack) <= band for m in margins.values()):
            continue
        checked += 1
        assert len({m.holds for m in margins.values()}) == 1, (
            p.to_json(),
            {c: (m.holds, m.slack) for c, m in margins.items()},
        )
        m2 = check_condition(p, 2, band=band)
        if m2.holds and abs(m2.slack) > band:
            assert all(m.holds for m in margins.values())
    assert checked > 150


def _xj(p: SchwarzProblem, j: int) -> tuple[float, float, float]:
    y = p.target
    return _xj_terms(binom(p.n, j), y.y(j), y.y(p.n - j), y.q, abs(p.lambda0))


def test_xj_worked_values():
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT)
    xj, xnj, J = _xj(p, 1)
    assert J == pytest.approx(2.0, abs=1e-13)
    assert xnj == pytest.approx(2.0, abs=1e-13)  # exactly marginal data
    assert J + 1.0 / J > xnj


def test_xj_symmetric_target(rng):
    y = CPoint((0.8, 0.8, 0.1))
    p = SchwarzProblem(lambda0=0.9, target=y)
    xj, xnj, _ = _xj(p, 1)
    assert xj == pytest.approx(xnj, abs=1e-12)


def test_xj_strict_exceeds_two(rng):
    found = 0
    for _ in range(200):
        p = make_problem(rng, 3, strict_margin=0.05)
        if p is None:
            continue
        m3 = check_condition(p, 3)
        if not m3.holds or m3.boundary:
            continue
        try:
            xj, xnj, J = _xj(p, 1)
        except DegenerateProblemError:
            continue
        found += 1
        assert xj > 2.0 and xnj > 2.0
        assert J + 1.0 / J > xnj - 1e-12
    assert found > 50


def test_xj_rejects_degenerate():
    y = CPoint((1.0, 0.5, 1.0 * 0.5 / 9.0))
    p = SchwarzProblem(lambda0=0.9, target=y)
    with pytest.raises(DegenerateProblemError):
        _xj(p, 1)


def test_k_rho_zero_matrix():
    K = k_rho(np.zeros((2, 2)), 0.6)
    assert np.allclose(K, np.diag([1.0, -0.36]))


def test_k_rho_rho_zero_identity(rng):
    for _ in range(30):
        Z = rand_contraction(rng)
        K = k_rho(Z, 0.0)
        I = np.eye(2)
        a = (np.linalg.inv(I - Z.conj().T @ Z))[0, 0]
        b = (np.linalg.inv(I - Z @ Z.conj().T) @ Z)[1, 0]
        d = (Z @ Z.conj().T @ np.linalg.inv(I - Z @ Z.conj().T))[1, 1]
        assert K[0, 0] == pytest.approx(a, abs=1e-11)
        assert K[0, 1] == pytest.approx(b, abs=1e-11)
        assert K[1, 1] == pytest.approx(d, abs=1e-11)


def test_k_rho_hermitian(rng):
    for _ in range(50):
        Z = rand_contraction(rng)
        K = k_rho(Z, 0.4 + 0.5 * rng.random())
        assert op_norm(K - K.conj().T) <= 1e-11 * max(op_norm(K), 1.0)


def test_feasibility_alpha_form(rng):
    # the conjugated eigenvector realizes ||v||^2 - rho^2 ||u||^2 = lam_min
    from polydisc.interpolation import _u_v

    for _ in range(50):
        Z = rand_contraction(rng)
        rho = 0.3 + 0.6 * rng.random()
        eig = herm_eig(k_rho(Z, rho))
        u, v = map(np.array, _u_v(Z, eig.v_min.conj()))
        form = np.linalg.norm(v) ** 2 - rho**2 * np.linalg.norm(u) ** 2
        assert form == pytest.approx(eig.lam_min, abs=1e-10)


def test_certificates_zero_target():
    p = SchwarzProblem(lambda0=0.5, target=CPoint((0, 0, 0, 0, 0)))
    for cert in schur_certificates(p):
        assert cert.feasible and not cert.marginal


def _assert_plain_fields(cert):
    # Python bool and float, so the verdict serializes with json.dumps
    assert type(cert.feasible) is bool and type(cert.marginal) is bool
    assert type(cert.slack) is float
    json.dumps([cert.feasible, cert.marginal, cert.slack])


def test_certificates_worked_marginal():
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT)
    (cert,) = schur_certificates(p)
    assert cert.feasible and cert.marginal
    assert op_norm(cert.Z) == pytest.approx(1.0, abs=1e-12)
    _assert_plain_fields(cert)


def test_certificate_route_is_the_slice_builders_on_the_sliver():
    # sliver data: the sup-norm D_1 just under |lambda0|, so ||Z_1|| can sit
    # within the band of 1 although the problem is strict; S5 and the slice
    # construction read one route, so S5 is marginal exactly when the slice
    # builder makes a Takagi disc
    from polydisc.interpolation import slice_interpolant

    rng = np.random.default_rng(11)
    near_one = 0
    for _ in range(300):
        y = tilde_g_point(3, rng)
        top = max(d_norm(1, y), d_norm(2, y))
        gap = 10 ** rng.uniform(-7, -5)
        if not top + gap < 1.0:
            continue
        lam0 = (top + gap) * cmath.exp(2j * cmath.pi * rng.random())
        (cert,) = schur_certificates(SchwarzProblem(lambda0=lam0, target=y))
        disc = slice_interpolant(y, lam0)
        assert cert.marginal == (disc.kind == "takagi"), (y, lam0)
        near_one += op_norm(cert.Z) >= 1.0 - 1e-7  # where ||Z_1|| alone says marginal
    assert near_one >= 5


def test_certificates_shrunk_worked_strict():
    p = SchwarzProblem(lambda0=WORKED_LAMBDA0, target=WORKED_POINT.scale(0.9))
    (cert,) = schur_certificates(p)
    assert cert.feasible and not cert.marginal
    assert np.linalg.det(cert.K).real < 0
    _assert_plain_fields(cert)


def test_pair_norm_supnorm_dichotomy(rng):
    # ||Z_j|| <= 1 iff sup-norm <= |lambda0|, strictly on both sides; the
    # unguarded constructor is used so the infeasible side is exercised too
    from polydisc.interpolation import _z_nu_general
    from polydisc.mobius import degenerate_product

    hits = 0
    for _ in range(300):
        p = make_problem(rng, 3)
        if p is None:
            continue
        ys = p.target if abs(p.target.y(2)) <= abs(p.target.y(1)) else p.target.swap()
        if degenerate_product(ys, 1):
            continue
        Z = _z_nu_general(3.0, ys.y(1), ys.y(2), ys.q, p.lambda0, 1.0)
        d1 = d_norm(1, ys)
        zn = op_norm(Z)
        if abs(d1 - abs(p.lambda0)) <= 1e-9:
            continue
        hits += 1
        assert (zn < 1.0) == (d1 < abs(p.lambda0)), (zn, d1, abs(p.lambda0))
    assert hits > 100


def test_in_J_n_small_dims(rng):
    for _ in range(50):
        assert in_J_n(tilde_g_point(3, rng))
        assert in_J_n(tilde_g_point(2, rng))


def test_in_J_n_structured_and_generic(rng):
    for n in (4, 5, 6):
        for _ in range(40):
            assert in_J_n(j_point(n, rng)), n
    misses = 0
    for _ in range(60):
        y = tilde_g_point(5, rng)
        misses += 0 if in_J_n(y) else 1
    assert misses > 50  # generic points are off the slice


def test_slice_points_match_parent():
    # seeded j_point draws (n = 2..9; perfbench draws its J_n inputs through
    # j_point) and in_J_n of each with one coordinate nudged by 1e-12..1e-6,
    # pinned bit for bit: the slice map must not move a draw or a verdict
    rng = np.random.default_rng(19)
    h = hashlib.sha256()
    for i in range(2000):
        n = 2 + i % 8
        y = j_point(n, rng)
        coords = list(y.coords)
        coords[int(rng.integers(n))] += 10.0 ** rng.uniform(-12, -6)
        verdict = in_J_n(CPoint(tuple(coords)))
        h.update(repr([(z.real.hex(), z.imag.hex()) for z in y.coords] + [verdict]).encode())
    assert h.hexdigest() == "0c79cbe1b14a25be5f6650c4dbe5316aac45e26de1d2b62afd4aeb42056549d8"


def test_assemble_pi_zero():
    z = np.zeros((2, 2))
    assert _pi_coords(3, [_entries(z)]) == [0j, 0j, 0j]


def test_assemble_pi_single_odd():
    B = np.array([[0.3, 0.1], [0.2, 0.4]])
    coords = _pi_coords(3, [_entries(B)])
    assert coords[0] == pytest.approx(3 * 0.3)
    assert coords[1] == pytest.approx(3 * 0.4)
    assert coords[2] == pytest.approx(0.3 * 0.4 - 0.1 * 0.2)


def test_assemble_pi_lands_inside(rng):
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = 2 * k + 1 if rng.random() < 0.5 else 2 * k
        base = rand_contraction(rng, nmax=0.9)
        det = base[0, 0] * base[1, 1] - base[0, 1] * base[1, 0]
        mats = [base]
        for _ in range(k - 1):
            # another contraction with the same determinant
            a = unit_disc(rng, 0.7)
            d = unit_disc(rng, 0.7)
            off = a * d - det
            b = cmath.sqrt(off)
            M = np.array([[a, b], [b, d]])
            if op_norm(M) >= 1:
                M = base
            mats.append(M)
        pt = CPoint(tuple(_pi_coords(n, [_entries(M) for M in mats])))
        assert in_tilde_g(pt, cond="C7").verdict or in_tilde_gamma(pt, cond="C7").verdict


def test_gn_schwarz_bound_zero():
    m = gn_schwarz_bound(CPoint((0, 0, 0)), 0.4, grid=64)
    assert m.holds and m.slack == pytest.approx(0.4)


def test_gn_schwarz_bound_scaled_forward(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        lam = (0.3 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random())
        z = g_point_disc(n, rng, rmax=0.97)
        s0 = symmetrize([lam * w for w in z])
        m = gn_schwarz_bound(s0, lam, grid=512)
        assert m.holds, (s0.coords, m.slack)


def test_gn_schwarz_bound_violated(rng):
    # a G_n point whose Costara sup exceeds |lambda0|
    s0 = symmetrize([0.9, 0.9, 0.9])
    sup = costara_sup(s0, grid=512)
    m = gn_schwarz_bound(s0, sup / 2.0, grid=512)
    assert not m.holds


def test_supnorm_comparison_values():
    assert (d_norm(2, CPoint((0.0, 0.0, 0.0))), d_norm(1, CPoint((0.0, 0.0, 0.0)))) == (0.0, 0.0)
    assert d_norm(2, WORKED_POINT) == pytest.approx(0.5, abs=1e-15)
    assert d_norm(1, WORKED_POINT) == pytest.approx(0.8, abs=1e-15)


def test_supnorm_comparison_sweep(rng):
    # for y in tilde-G_3 with |y_2| <= |y_1|, D_2(y) <= D_1(y)
    for _ in range(300):
        y = tilde_g_point(3, rng)
        if abs(y.y(2)) > abs(y.y(1)):
            y = y.swap()
        assert d_norm(2, y) <= d_norm(1, y) + 1e-12
