import cmath
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydisc.clinalg import herm_eig, matricial_mobius, op_norm
from polydisc.errors import (
    DomainError,
    InfeasibleError,
    MarginalProblemError,
    PoleError,
    PolydiscError,
)
from polydisc.interpolation import (
    DiscFunction,
    ScalarSchur,
    _u_v,
    _mobius,
    identity_regressions,
    build_interpolant,
    default_q,
    extremal_disc,
    slice_interpolant,
    worked_family,
    np2,
    nu_window,
)
from polydisc.membership import BOUNDARY_BAND, in_tilde_g, in_tilde_gamma
from polydisc.mobius import CPoint, _check_poles, d_norm
from polydisc.sampling import tilde_g_point, unit_disc
from polydisc.schwarz import SchwarzProblem, _z_nu_general, k_rho

from conftest import WORKED_LAMBDA0, WORKED_POINT, rand_contraction

WORKED_SHRUNK = WORKED_POINT.scale(0.9)


def _z_nu3(y: CPoint, lambda0: complex, nu: float) -> np.ndarray:
    """Z_nu of the n = 3 point y, as build_interpolant forms it."""
    return _z_nu_general(3.0, y.y(1), y.y(2), y.q, complex(lambda0), nu)


def strict_problem(rng, margin_lo=1.05, margin_hi=1.45):
    while True:
        y = tilde_g_point(3, rng, margin=0.85)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        if abs(ys.y(1) * ys.y(2) - 9 * ys.q) < 1e-3:
            continue
        d1 = d_norm(1, ys)
        if not 1e-3 < d1 < 0.9:
            continue
        al = min(0.97, d1 * (margin_lo + (margin_hi - margin_lo) * rng.random()))
        if al <= d1 + 1e-6:
            continue
        return y, al * np.exp(2j * np.pi * rng.random())


# --- scalar pieces -----------------------------------------------------------


def _blaschke(lambda0, lam):
    """The Blaschke factor at lambda0, mu_{lambda0}(-l), as a disc evaluates it."""
    return _mobius(lambda0, -lam, lam, "the Blaschke factor")


def test_blaschke_values():
    assert _blaschke(WORKED_LAMBDA0, WORKED_LAMBDA0) == 0
    assert _blaschke(WORKED_LAMBDA0, 0.0) == WORKED_LAMBDA0
    for k in range(32):
        z = cmath.exp(2j * math.pi * k / 32)
        assert abs(_blaschke(WORKED_LAMBDA0, z)) == pytest.approx(1.0, abs=1e-12)


def test_moebius_factors_at_a_huge_lambda():
    # the direct denominator 1 - conj(a) lambda, or CPython's quotient by it,
    # overflows; dividing through by lambda gives the limit 1 / conj(a)
    lam = 1.7e308 + 1.7e308j
    limit = 1.0 / (0.7 - 0.7j)
    assert abs(_blaschke(0.7 + 0.7j, lam) - limit) <= 1e-15
    assert abs(ScalarSchur(kind="blaschke", zeros=(0.7 + 0.7j,))(lam) + limit) <= 1e-15
    assert abs(np2(0, 0.3, -0.8, 0.625, t=0.5)(lam) - 10.0 / 3.0) <= 1e-14
    # a value past the double range is refused, not returned
    with pytest.raises(DomainError, match="not finite"):
        ScalarSchur(kind="blaschke", const=1e308, zeros=(0j, 0j))(1e300)
    # |a lambda| is 1 up to an ulp: the direct quotient overflows and the
    # divided-through denominator vanishes, which is the pole of e_a
    lam = 1.9 * 2.0**1000
    with pytest.raises(PoleError):
        ScalarSchur(kind="blaschke", zeros=(1.0 / lam,))(lam)


def test_np2_zero_data(rng):
    g = np2(0.2, 0.0, -0.5, 0.0, t=0.0)
    for _ in range(50):
        lam = unit_disc(rng)
        assert g(lam) == 0


def test_np2_worked_data_solvable():
    # d(3/10, 5/8) = 2/5 < 4/5 = d(0, -4/5): strictly solvable
    g = np2(0.0, 0.3, -0.8, 0.625)
    assert abs(g(0.0) - 0.3) <= 1e-14
    assert abs(g(-0.8) - 0.625) <= 1e-14


def test_np2_contract_and_bound(rng):
    for _ in range(30):
        a, b = unit_disc(rng, 0.8), unit_disc(rng, 0.8)
        if abs(a - b) < 0.1:
            continue
        wa, wb = unit_disc(rng, 0.6), unit_disc(rng, 0.6)
        t = unit_disc(rng)
        try:
            g = np2(a, wa, b, wb, t)
        except InfeasibleError:
            dab = abs((a - b) / (1 - b.conjugate() * a))
            dw = abs((wa - wb) / (1 - wb.conjugate() * wa))
            assert dw > dab - 1e-12
            continue
        assert abs(g(a) - wa) <= 1e-11
        assert abs(g(b) - wb) <= 1e-11
        for k in range(1024):
            z = cmath.exp(2j * math.pi * k / 1024)
            assert abs(g(z)) <= 1.0 + 1e-11


def test_np2_rejects_unsolvable():
    with pytest.raises(InfeasibleError):
        np2(0.0, 0.0, 0.1, 0.9)


def test_scalar_schur_json_round_trip(rng):
    g = np2(0.0, 0.3, -0.8, 0.625, t=0.3 - 0.2j)
    back = ScalarSchur.from_json(g.to_json())
    for _ in range(20):
        lam = unit_disc(rng)
        assert back(lam) == g(lam)


# --- the nu window and Z_nu --------------------------------------------------


def test_nu_window_explicit_x2():
    # X_2 = 5/2 gives roots of z + 1/z = 5/2: (1/2, 2)
    from polydisc.interpolation import _window_from_x2

    t1, t2 = _window_from_x2(2.5)
    assert t1 == pytest.approx(0.5, abs=1e-14)
    assert t2 == pytest.approx(2.0, abs=1e-14)
    assert t1 * t2 == pytest.approx(1.0, abs=1e-14)


def test_nu_window_shrunk_worked_dichotomy():
    t1, t2 = nu_window(WORKED_SHRUNK, WORKED_LAMBDA0)
    assert t1 < 1.0 < t2
    for frac in np.linspace(0.05, 0.95, 16):
        nu2 = t1 + (t2 - t1) * frac
        Z = _z_nu3(WORKED_SHRUNK, WORKED_LAMBDA0, math.sqrt(nu2))
        assert op_norm(Z) < 1.0
    for nu2 in (t1 * 0.99, t2 * 1.01, t1 * 0.5, t2 * 2.0):
        Z = _z_nu3(WORKED_SHRUNK, WORKED_LAMBDA0, math.sqrt(nu2))
        assert op_norm(Z) >= 1.0


def test_nu_window_marginal_refused():
    with pytest.raises(MarginalProblemError):
        nu_window(WORKED_POINT, WORKED_LAMBDA0)


def test_z_nu_worked_entries():
    # built on the shrunk target the entries follow the displayed matrix
    Z = _z_nu3(WORKED_SHRUNK, WORKED_LAMBDA0, 1.0)
    w2 = (WORKED_SHRUNK.y(1) * WORKED_SHRUNK.y(2) - 9 * WORKED_SHRUNK.q) / (9 * WORKED_LAMBDA0)
    assert Z[0, 0] == pytest.approx(WORKED_SHRUNK.y(1) / (3 * WORKED_LAMBDA0), abs=1e-15)
    assert Z[1, 1] == pytest.approx(WORKED_SHRUNK.y(2) / 3.0, abs=1e-15)
    assert Z[0, 1] * Z[1, 0] == pytest.approx(w2, abs=1e-15)


def test_z_nu_off_diagonal_scaling(rng):
    y, lam0 = strict_problem(rng)
    ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
    nu = 1.3
    Z = _z_nu3(ys, lam0, nu)
    Z1 = _z_nu3(ys, lam0, 1.0)
    assert Z[0, 1] == pytest.approx(nu * Z1[0, 1], abs=1e-14)
    assert Z[1, 0] == pytest.approx(Z1[1, 0] / nu, abs=1e-14)


def test_w_matches_worked_family_data():
    w2 = (WORKED_POINT.y(1) * WORKED_POINT.y(2) - 9 * WORKED_POINT.q) / (9 * WORKED_LAMBDA0)
    assert w2 == pytest.approx(15.0 / 32.0, abs=1e-15)


# --- u, v and Q --------------------------------------------------------------


def test_uv_zero_matrix_cases():
    u, v = map(np.array, _u_v(np.zeros((2, 2)), (1.0, 0.0)))
    assert np.allclose(u, 0) and np.allclose(v, [-1.0, 0.0])
    u, v = map(np.array, _u_v(np.zeros((2, 2)), (0.0, 1.0)))
    assert np.allclose(u, [0.0, 1.0]) and np.allclose(v, 0)


def test_uv_rank_one_identity(rng):
    # X = u v* / ||u||^2 solves X* u = v whenever u != 0
    for _ in range(50):
        Z = rand_contraction(rng)
        alpha = np.array([unit_disc(rng), unit_disc(rng)])
        if np.linalg.norm(alpha) < 0.1:
            continue
        u, v = map(np.array, _u_v(Z, alpha))
        nu2 = np.linalg.norm(u) ** 2
        if nu2 < 1e-8:
            continue
        X = np.outer(u, v.conj()) / nu2
        assert np.linalg.norm(X.conj().T @ u - v) <= 1e-11 * (1 + np.linalg.norm(v))


def test_default_q_contract_and_norm(rng):
    for _ in range(60):
        y, lam0 = strict_problem(rng)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        Z = _z_nu3(ys, lam0, 1.0)
        eig = herm_eig(k_rho(Z, abs(lam0)))
        alpha = eig.v_min.conj()
        assert eig.lam_min <= 1e-12
        Q0 = default_q(Z, alpha, lam0)
        u, v = map(np.array, _u_v(Z, alpha))
        assert np.linalg.norm(Q0.conj().T @ (np.conj(lam0) * u) - v) <= 1e-11 * (
            1 + np.linalg.norm(v)
        )
        assert op_norm(Q0) <= 1.0 + 1e-11


def test_default_q_zero_cases():
    Z = np.zeros((2, 2))
    Q0 = default_q(Z, (0.0, 1.0), 0.5)  # v = 0 -> Q0 = 0 rank-one formula
    assert np.allclose(Q0, 0)
    # u(alpha) = 0, as [Z]_11 = 0 and alpha_2 = -alpha_1 [Z]_21: with [Z]_22 = 0
    # the zero matrix (with [Z]_22 nonzero, a refusal in test_totality.py)
    Z = np.array([[0, 0.3], [0.2, 0]], dtype=complex)
    assert default_q(Z, [1, -0.2], 0.5).tobytes() == np.zeros((2, 2), dtype=complex).tobytes()


# --- build_interpolant -------------------------------------------------------


def test_build_zero_target():
    disc = build_interpolant(CPoint((0, 0, 0)), 0.4)
    assert all(abs(c) == 0 for c in disc(0.17 + 0.2j).coords)


def test_build_shrunk_worked_endpoints():
    disc = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0)
    at0 = disc(0.0)
    atl = disc(WORKED_LAMBDA0)
    assert max(abs(c) for c in at0.coords) <= 1e-9
    assert max(abs(a - b) for a, b in zip(atl.coords, WORKED_SHRUNK.coords)) <= 1e-9


def test_build_random_strict_problems(rng):
    for _ in range(40):
        y, lam0 = strict_problem(rng)
        disc = build_interpolant(y, lam0, rng=rng)
        assert max(abs(c) for c in disc(0.0).coords) <= 1e-9
        err = max(abs(a - b) for a, b in zip(disc(lam0).coords, y.coords))
        assert err <= 1e-9
        for _ in range(25):
            lam = unit_disc(rng, 0.97)
            assert in_tilde_g(disc(lam), cond="C7", band=1e-10).verdict


def test_build_swapped_input(rng):
    # |y_2| > |y_1| handled through the swap symmetry transparently
    for _ in range(20):
        y, lam0 = strict_problem(rng)
        ys = y.swap() if abs(y.y(2)) <= abs(y.y(1)) else y
        if abs(ys.y(2)) <= abs(ys.y(1)):
            continue
        disc = build_interpolant(ys, lam0, rng=rng)
        assert max(abs(a - b) for a, b in zip(disc(lam0).coords, ys.coords)) <= 1e-9


def test_build_marginal_refused():
    with pytest.raises(MarginalProblemError):
        build_interpolant(WORKED_POINT, WORKED_LAMBDA0)


def test_build_rejects_nu_outside_window():
    t1, t2 = nu_window(WORKED_SHRUNK, WORKED_LAMBDA0)
    with pytest.raises(DomainError):
        build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0, nu=math.sqrt(t2) * 1.2)


def test_build_perturbed_q_same_endpoints(rng):
    disc0 = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0)
    head = 1.0 - op_norm(disc0.Q0)
    assert head > 0.01
    Qlin = (head / 2.0) * np.eye(2)
    disc1 = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0, Qlin=Qlin)
    assert max(abs(a - b) for a, b in zip(disc1(WORKED_LAMBDA0).coords, WORKED_SHRUNK.coords)) <= 1e-9
    assert max(abs(c) for c in disc1(0.0).coords) <= 1e-9
    probe = 0.35 + 0.2j
    diff = max(
        abs(a - b) for a, b in zip(disc0(probe).coords, disc1(probe).coords)
    )
    assert diff > 1e-6


def test_build_mobius_round_trip_along_construction(rng):
    y, lam0 = strict_problem(rng)
    disc = build_interpolant(y, lam0, rng=rng)
    for _ in range(20):
        X = rand_contraction(rng)
        back = matricial_mobius(disc.Z, matricial_mobius(-disc.Z, X))
        assert op_norm(back - X) <= 1e-10


def test_disc_function_json_round_trip(rng):
    y, lam0 = strict_problem(rng)
    disc = build_interpolant(y, lam0, rng=rng)
    back = DiscFunction.from_json(disc.to_json())
    for _ in range(20):
        lam = unit_disc(rng, 0.97)
        a, b = disc(lam), back(lam)
        assert a.coords == b.coords  # bit-identical re-evaluation


def test_matrix_mobius_disc_needs_lambda0_in_the_disc():
    # B(l) = (lambda0 - l) / (1 - conj(lambda0) l) maps the disc into itself
    # only for |lambda0| < 1: at lambda0 = 5 psi(0.5) would read
    # (-2.25, -4.5, 1.125), outside the closure
    Z, Q0 = np.zeros((2, 2), dtype=complex), 0.5 * np.eye(2, dtype=complex)
    obj = DiscFunction(kind="matrix_mobius", n=3, lambda0=0.5, Z=Z, Q0=Q0).to_json()
    for lam0 in (5.0, 1.0, -1j, 1.7e308 + 1.7e308j):
        with pytest.raises(DomainError, match="lambda0 in the open unit disc"):
            DiscFunction(kind="matrix_mobius", n=3, lambda0=lam0, Z=Z, Q0=Q0)
        obj["lambda0"] = [lam0.real, lam0.imag]
        with pytest.raises(DomainError, match="lambda0 in the open unit disc"):
            DiscFunction.from_json(obj)


def test_disc_json_refusals_keep_the_constructors_message():
    # well-formed JSON of a disc outside its domain is refused as the
    # constructor refuses it; only a parse error reads "malformed"
    Z, Q0 = np.zeros((2, 2), dtype=complex), 0.5 * np.eye(2, dtype=complex)
    mobius = DiscFunction(kind="matrix_mobius", n=3, lambda0=0.5, Z=Z, Q0=Q0).to_json()
    takagi = {**mobius, "kind": "takagi", "Z": None, "Q0": None}
    for obj, make in (
        ({**mobius, "lambda0": [5.0, 0.0]},
         lambda: DiscFunction(kind="matrix_mobius", n=3, lambda0=5.0, Z=Z, Q0=Q0)),
        (takagi, lambda: DiscFunction(kind="takagi", n=3, lambda0=0.5)),
        ({**mobius, "kind": ["takagi"]}, lambda: DiscFunction(kind=["takagi"], n=3)),
    ):
        with pytest.raises(DomainError) as direct:
            make()
        with pytest.raises(DomainError) as parsed:
            DiscFunction.from_json(obj)
        assert str(parsed.value) == str(direct.value)
    del mobius["d1"]
    with pytest.raises(DomainError, match=r"^malformed disc JSON: KeyError\('d1'\)$"):
        DiscFunction.from_json(mobius)


def test_schur_json_refusals_name_the_fault():
    # a bad Schur function JSON raises DomainError naming the parse error,
    # never the IndexError, KeyError or ValueError itself
    good = np2(0.0, 0.3, -0.8, 0.625, t=0.3 - 0.2j).to_json()
    no_const = {k: v for k, v in good.items() if k != "const"}
    for obj, fault in (({**good, "zeros": "ab"}, "TypeError"),
                       ({**good, "const": ["0.5", 0.0]}, "TypeError"),
                       (no_const, r"KeyError\('const'\)"),
                       ({**good, "np2": good["np2"][:4]}, "ValueError")):
        with pytest.raises(DomainError, match=f"^malformed Schur function JSON: {fault}"):
            ScalarSchur.from_json(obj)


def test_disc_swap_must_be_a_bool():
    # a truthy string would silently exchange y_j and y_{n-j} of every value
    import dataclasses

    disc = build_interpolant(WORKED_POINT.scale(0.9), WORKED_LAMBDA0)
    for swap in ("no", "", 0, 1, None, np.bool_(True)):
        with pytest.raises(DomainError, match="swap is a bool"):
            dataclasses.replace(disc, swap=swap)
        with pytest.raises(DomainError, match="swap is a bool"):
            DiscFunction.from_json({**disc.to_json(), "swap": swap})
    swapped = DiscFunction.from_json({**disc.to_json(), "swap": True})
    assert swapped(0.3) == disc(0.3).swap()


def test_build_is_the_slice_construction_on_strict_data(rng):
    # strict and degenerate n = 3 data: build_interpolant and the slice
    # interpolant build the same disc through the same core
    cases = [strict_problem(rng) for _ in range(30)]
    for _ in range(10):
        a, b = (1.5 * unit_disc(rng) for _ in range(2))
        y = CPoint((a, b, a * b / 9.0))  # y_1 y_2 = 9 q
        cases.append((y, (max(abs(a), abs(b)) / 3.0 + 0.05) * np.exp(2j * np.pi * rng.random())))
    kinds = set()
    for y, lam0 in cases:
        disc = build_interpolant(y, lam0)
        assert disc.to_json() == slice_interpolant(y, lam0).to_json()
        kinds.add(disc.kind)
    assert kinds == {"matrix_mobius", "diagonal"}


def test_build_refuses_the_marginal_data_the_slice_builds(rng):
    for _ in range(10):
        y, _ = strict_problem(rng)
        lam0, disc = extremal_disc(y)
        assert disc.kind == "takagi"
        with pytest.raises(MarginalProblemError):
            build_interpolant(y, lam0)


def test_build_keeps_the_moebius_route_up_to_norm_one():
    # sup-norm 1.5e-7 under |lambda0| passes the strictness band, but
    # ||Z_1|| is within the band of 1: the strict sup-norm keeps the slice
    # core on the Moebius route, for build_interpolant and the slice alike
    y = CPoint((-0.64 + 0.204j, -0.394 + 0.501j, -0.094 - 0.729j))
    lam0 = d_norm(1, y) + 1.5e-7
    assert op_norm(_z_nu3(y, lam0, 1.0)) > 1.0 - 1e-7
    disc = build_interpolant(y, lam0)
    assert disc.kind == "matrix_mobius"
    assert max(abs(a - b) for a, b in zip(disc(lam0).coords, y.coords)) <= 1e-9
    assert disc.to_json() == slice_interpolant(y, lam0).to_json()


def test_build_and_slice_agree_on_the_sliver():
    # sup-norm 1e-7..1e-5 under |lambda0|: the sliver where ||Z_1|| can sit
    # within the band of 1 although the data is strict; the route is read
    # off the data, so both builders make one disc
    rng = np.random.default_rng(20261019)
    near_one = 0
    for _ in range(300):
        y, _ = strict_problem(rng)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        lam0 = (d_norm(1, ys) + 10 ** (-7 + 2 * rng.random())) * np.exp(2j * np.pi * rng.random())
        near_one += op_norm(_z_nu3(ys, lam0, 1.0)) >= 1.0 - 1e-7  # Takagi by ||Z_1|| alone
        disc = build_interpolant(y, lam0)
        assert disc.kind == "matrix_mobius"
        assert disc.to_json() == slice_interpolant(y, lam0).to_json()
    assert near_one > 0


@pytest.mark.parametrize("y", [CPoint((0.6, 0.3, 0.02)), CPoint((0, 0, 0))])
def test_build_refuses_nu_and_qlin_on_diagonal_data(y):
    # y_1 y_2 = 9 q: the diagonal disc has neither nu nor Q to set
    for kwargs in ({"nu": 7.0}, {"Qlin": 5 * np.eye(2)}, {"nu": 1.0, "Qlin": np.zeros((2, 2))}):
        with pytest.raises(DomainError, match="diagonal disc"):
            build_interpolant(y, 0.5, **kwargs)
    assert build_interpolant(y, 0.5, nu=1.0).kind == "diagonal"


def test_build_checks_the_range_on_every_route():
    # 64 range samples draw 128 uniforms, degenerate and zero targets too
    for y in (CPoint((0.6, 0.3, 0.02)), CPoint((0, 0, 0)), WORKED_SHRUNK):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        build_interpolant(y, WORKED_LAMBDA0, rng=rng)
        ref.random(128)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_build_follows_the_public_recipe_at_any_nu(rng):
    # Z_nu, alpha from K_{Z_nu}(|lambda0|) and Q(0) = default_q, bit for bit
    for _ in range(12):
        y, lam0 = strict_problem(rng)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        t1, t2 = nu_window(ys, lam0)
        nu = math.sqrt(t1 + (t2 - t1) * (0.2 + 0.6 * rng.random()))
        Qlin = 1e-3 * np.array([[1.0, 0.5j], [-0.5, 1.0]])
        disc = build_interpolant(y, lam0, nu=nu, Qlin=Qlin, rng=rng)
        Z = _z_nu3(ys, lam0, nu)
        alpha = herm_eig(k_rho(Z, abs(lam0))).v_min.conj()
        assert disc.Z.tobytes() == Z.tobytes()
        assert disc.Q0.tobytes() == default_q(Z, alpha, lam0).tobytes()
        assert disc.Qlin.tobytes() == Qlin.astype(complex).tobytes()


def test_build_positive_definite_k_is_infeasible():
    # nu^2 inside the window by 4e-11 of theta_2: ||Z_nu|| = 1 - 1e-11 and
    # K_{Z_nu}(|lambda0|) comes out positive definite in the slice core;
    # build_interpolant refuses such a nu before it gets there
    from polydisc.interpolation import _slice_core

    y = CPoint((0.49751398682139486 + 0.48066347491025285j,
                0.05126631750401338 + 0.186397014109094j,
                -0.13118280273440475 + 0.22970884599779473j))
    lam0 = -0.2715478368896957 - 0.47291926394265094j
    nu = 1.3098431077334802
    t1, t2 = nu_window(y, lam0)
    assert t1 < nu * nu < t2
    with pytest.raises(InfeasibleError, match="positive definite"):
        _slice_core(y, lam0, nu)
    with pytest.raises(MarginalProblemError, match="within a relative 1e-05 of a window edge"):
        build_interpolant(y, lam0, nu=nu)


def test_build_near_a_window_edge_builds_or_refuses_as_marginal():
    # every nu^2 inside the open window is feasible; within a relative
    # 1e-12..1e-3 of an edge the build either succeeds or refuses the nu as
    # marginal, and never fails on rounding inside the construction
    rng = np.random.default_rng(7)
    built = refused = 0
    for _ in range(300):
        y, lam0 = strict_problem(rng)
        ys = y if abs(y.y(2)) <= abs(y.y(1)) else y.swap()
        t1, t2 = nu_window(ys, lam0)
        rel = 10.0 ** rng.uniform(-12.0, -3.0)
        nu2 = t1 * (1.0 + rel) if rng.random() < 0.5 else t2 * (1.0 - rel)
        try:
            build_interpolant(y, lam0, nu=math.sqrt(nu2))
            built += 1
        except MarginalProblemError:
            assert rel < 1.001e-5
            refused += 1
    assert built >= 50 and refused >= 100

# --- the worked family -------------------------------------------------------


def test_worked_family_endpoints_and_det():
    g = np2(0.0, 0.3, -0.8, 0.625, t=0.4)
    psi = worked_family(g)
    assert max(abs(c) for c in psi(0.0).coords) <= 1e-10
    err = max(abs(a - b) for a, b in zip(psi(WORKED_LAMBDA0).coords, WORKED_POINT.coords))
    assert err <= 1e-10
    rng = np.random.default_rng(3)
    for _ in range(100):
        lam = unit_disc(rng, 0.99)
        F = psi.core(lam)
        det = F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]
        assert abs(det + lam * g(lam)) <= 1e-11


def test_worked_family_distinct_members():
    ts = np.linspace(-0.9, 0.9, 8)
    probe = 1.0 / 3.0
    vals = []
    for t in ts:
        g = np2(0.0, 0.3, -0.8, 0.625, t=float(t))
        vals.append(worked_family(g)(probe).coords[2])
    for i in range(len(vals)):
        for k in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[k]) >= 1e-6


def test_worked_family_range_in_closure(rng):
    g = np2(0.0, 0.3, -0.8, 0.625, t=-0.25)
    psi = worked_family(g)
    for _ in range(300):
        lam = unit_disc(rng, 0.999)
        assert in_tilde_gamma(psi(lam), cond="C7", band=1e-9).verdict


def test_worked_family_rejects_wrong_constraints():
    g = ScalarSchur(kind="blaschke", const=0.3)  # constant misses g(-4/5)
    with pytest.raises(DomainError):
        worked_family(g)


# --- extremal (marginal) discs ----------------------------------------------


def test_extremal_disc_worked():
    lam0, disc = extremal_disc(WORKED_POINT)
    assert lam0 == pytest.approx(0.8, abs=1e-14)
    err = max(abs(a - b) for a, b in zip(disc(lam0).coords, WORKED_POINT.coords))
    assert err <= 1e-9


def test_extremal_disc_round_trip_json(rng):
    lam0, disc = extremal_disc(WORKED_POINT)
    back = DiscFunction.from_json(disc.to_json())
    lam = 0.3 - 0.4j
    assert back(lam).coords == disc(lam).coords


def test_extremal_disc_degenerate_product(rng):
    # slice points with y_1 y_{n-1} = n^2 q go through the diagonal core
    for n in (2, 3, 5):
        for _ in range(20):
            if n == 2:
                z = unit_disc(rng, 0.9)
                y1 = yn1 = 2 * z
                coords = [2 * z, z * z]
            else:
                y1 = unit_disc(rng, 0.8 * n)
                yn1 = unit_disc(rng, 0.8 * min(abs(y1), float(n)) + 1e-6)
                if abs(yn1) > abs(y1):
                    y1, yn1 = yn1, y1
                q = y1 * yn1 / n**2
                coords = [0j] * n
                coords[0], coords[n - 2], coords[n - 1] = y1, yn1, q
                for j in range(2, n // 2 + 1):
                    coords[j - 1] = math.comb(n, j) / n * y1
                    coords[n - 1 - j] = math.comb(n, j) / n * yn1
            y = CPoint(tuple(coords))
            if not in_tilde_g(y, cond="C7").verdict:
                continue
            lam0, disc = extremal_disc(y, rng=rng)
            assert disc.kind == "diagonal"
            assert lam0 == pytest.approx(abs(y1) / n, abs=1e-12)
            err = max(abs(a - b) for a, b in zip(disc(lam0).coords, y.coords))
            assert err <= 1e-9


def test_extremal_disc_even_dimensions(rng):
    from polydisc.sampling import j_point

    for n in (4, 6):
        done = 0
        while done < 25:
            y = j_point(n, rng)
            top = max(d_norm(j, y) for j in range(1, n))
            if not 0.05 < top < 0.95 or abs(y.q) > top - 1e-3:
                continue
            lam0, disc = extremal_disc(y, rng=rng)
            assert lam0 == pytest.approx(top, abs=1e-14)
            err = max(abs(a - b) for a, b in zip(disc(lam0).coords, y.coords))
            assert err <= 1e-9
            done += 1


def test_extremal_disc_is_the_slice_interpolant_at_the_sup_norm(rng):
    # extremal_disc(y) is slice_interpolant(y, max_j D_j(y)) bit for bit, and
    # where no disc can be built both fail with the same error: a point
    # nudged off the slice is refused up front, before anything is built
    from polydisc.errors import ConstructionError
    from polydisc.interpolation import slice_interpolant
    from polydisc.sampling import j_point

    lams = [0.0, 0.3 + 0.2j, -0.7, 0.95j]
    kinds, failed = set(), set()
    for i in range(90):
        n = 2 + i % 5
        c = list(j_point(n, rng).coords)
        if i % 3 == 1:  # y_1 y_{n-1} = n^2 q: the diagonal core
            c[-1] = c[0] * c[n - 2] / (n * n)
        elif i % 3 == 2 and n > 3:  # nudge one coordinate off the slice
            c[int(rng.integers(0, n))] += 1e-3 * (1 + 1j)
        y = CPoint(tuple(c))
        top = max(d_norm(j, y) for j in range(1, n))
        if not top < 1.0:
            continue
        seed = int(rng.integers(1 << 30))
        try:
            ref = slice_interpolant(y, top, rng=np.random.default_rng(seed))
        except (ConstructionError, InfeasibleError, DomainError) as exc:
            with pytest.raises(type(exc)) as info:
                extremal_disc(y, rng=np.random.default_rng(seed))
            assert str(info.value) == str(exc)
            failed.add(type(exc))
            continue
        lam0, disc = extremal_disc(y, rng=np.random.default_rng(seed))
        assert lam0 == top
        assert json.dumps(disc.to_json()) == json.dumps(ref.to_json())
        assert disc.values(lams + [lam0]).tobytes() == ref.values(lams + [lam0]).tobytes()
        kinds.add(disc.kind)
    assert {"takagi", "diagonal"} <= kinds and DomainError in failed
    with pytest.raises(DomainError, match=r"not strictly inside \(sup-norm >= 1\)"):
        extremal_disc(WORKED_POINT.scale(2.0))
    for n in (2, 3, 6):
        lam0, disc = extremal_disc(CPoint((0j,) * n))
        assert lam0 == 0.0 and disc.kind == "diagonal"
        assert not disc.values(lams).any()
    # a nonzero point whose sup-norm rounds to 0 has no disc, and says so
    with pytest.raises(DomainError):
        extremal_disc(CPoint((5e-324, 0, 0)))


def test_window_collapses_at_x2_limit():
    from polydisc.interpolation import _window_from_x2

    t1, t2 = _window_from_x2(2.0 + 1e-12)
    assert t1 == pytest.approx(1.0, abs=1e-5)
    assert t2 == pytest.approx(1.0, abs=1e-5)


def test_slice_interpolant_strict_lambda(rng):
    # sufficiency on the slice: any |lambda0| above the sup bound admits a disc
    from polydisc.interpolation import slice_interpolant
    from polydisc.sampling import j_point

    done = 0
    while done < 30:
        n = int(rng.choice([2, 3, 4, 5]))
        y = j_point(n, rng)
        top = max(d_norm(j, y) for j in range(1, n))
        if not 0.05 < top < 0.85 or abs(y.q) > 0.9 * top:
            continue
        al = min(0.97, top * (1.1 + 0.3 * rng.random()))
        lam0 = al * np.exp(2j * np.pi * rng.random())
        disc = slice_interpolant(y, lam0, rng=rng)
        assert max(abs(c) for c in disc(0.0).coords) <= 1e-9
        assert max(abs(a - b) for a, b in zip(disc(lam0).coords, y.coords)) <= 1e-9
        done += 1


def test_slice_builders_refuse_a_point_off_the_slice():
    # the point the CLI's --extremal once failed on late, with the disc
    # missing its target by 0.237
    from polydisc.distances import lempert_upper
    from polydisc.interpolation import slice_interpolant
    from polydisc.schwarz import in_J_n

    y = CPoint((1.0 + 0.2j, 0.9, 0.3 + 0.1j, 0.05))
    assert in_tilde_g(y).verdict and not in_J_n(y)
    for build in (lambda: slice_interpolant(y, 0.9), lambda: extremal_disc(y),
                  lambda: lempert_upper(y)):
        with pytest.raises(DomainError, match="slice J_n"):
            build()


def test_slice_interpolant_rejects_low_lambda(rng):
    from polydisc.interpolation import slice_interpolant
    from polydisc.sampling import j_point

    while True:
        y = j_point(4, rng)
        top = max(d_norm(j, y) for j in range(1, 4))
        if top > 0.2:
            break
    with pytest.raises(InfeasibleError):
        slice_interpolant(y, top / 2.0)


def test_slice_refuses_lambda0_below_the_sup_norm():
    # |lambda0| a gap of 1e-10..1e-7 under max_j D_j: no disc through y
    # exists there, and the refusal names the bound instead of a target miss
    from polydisc.sampling import j_point

    rng = np.random.default_rng(3)
    for i in range(600):
        n = 2 + i % 6
        y = j_point(n, rng)
        top = max(d_norm(j, y) for j in range(1, n))
        gap = 10.0 ** rng.uniform(-10.0, -7.0)
        with pytest.raises(InfeasibleError, match="below the sup-norm bound max_j D_j"):
            slice_interpolant(y, top - gap)


def test_lambda0_past_the_modulus_range_is_a_domain_error():
    # |1.7e308 + 1.7e308 i| overflows a double: refused, not an OverflowError
    from polydisc.schwarz import gn_schwarz_bound

    y = CPoint((0.3, 0.2, 0.1))
    lam0 = 1.7e308 + 1.7e308j
    for call in (lambda: SchwarzProblem(lambda0=lam0, target=y),
                 lambda: gn_schwarz_bound(y, lam0),
                 lambda: slice_interpolant(y, lam0),
                 lambda: build_interpolant(y, lam0),
                 lambda: nu_window(y, lam0)):
        with pytest.raises(DomainError, match=r"0 < \|lambda0\| < 1"):
            call()


def test_builders_near_their_refusal_edges_build_or_refuse_by_name():
    # ~200 seeded draws near each edge where a builder refuses or switches
    # route: every outcome is a disc or a named refusal, never a failed build
    from polydisc.errors import DegenerateProblemError
    from polydisc.sampling import j_point

    rng = np.random.default_rng(20261019)
    named = (DomainError, InfeasibleError, MarginalProblemError, DegenerateProblemError)

    def phase():
        return cmath.exp(2j * math.pi * rng.random())

    def top(y):
        return max(d_norm(j, y) for j in range(1, y.n))

    def calls():
        for i in range(200):  # |lambda0| 1e-16..1e-7 above max_j D_j
            y = j_point(2 + i % 7, rng)
            yield "lambda0", slice_interpolant, (y, (top(y) + 10.0 ** rng.uniform(-16.0, -7.0)) * phase())
        for i in range(200):  # |q| just under max_j D_j: near-equal Takagi values at the sup-norm
            y = j_point(2 + i % 7, rng)
            t = 10.0 ** rng.uniform(-9.0, -3.0)  # shrinks y_1..y_{n-1}, keeping y in J_n
            y = CPoint(tuple(t * c for c in y.coords[:-1]) + (y.q,))
            if i % 2:
                yield "q", extremal_disc, (y,)
            else:
                yield "q", slice_interpolant, (y, (top(y) + 10.0 ** rng.uniform(-16.0, -7.0)) * phase())
        for _ in range(100):  # y_1 y_2 - 9 q a relative 1e-14..1e-9 off degenerate
            y1, y2 = 2.7 * rng.random() * phase(), 2.7 * rng.random() * phase()
            y = CPoint((y1, y2, y1 * y2 / 9.0 * (1.0 + 10.0 ** rng.uniform(-14.0, -9.0) * phase())))
            lam0 = min(0.97, max(abs(y1), abs(y2)) / 3.0 * rng.uniform(1.05, 1.5)) * phase()
            yield "degenerate", build_interpolant, (y, lam0)
            yield "degenerate", extremal_disc, (y,)
        for i in range(200):  # nu^2 a relative 1e-16..1e-3 inside either window edge
            y, lam0 = strict_problem(rng)
            t1, t2 = nu_window(y if abs(y.y(2)) <= abs(y.y(1)) else y.swap(), lam0)
            rel = 10.0 ** rng.uniform(-16.0, -3.0)
            nu2 = t1 * (1.0 + rel) if i % 2 else t2 * (1.0 - rel)
            yield "nu", build_interpolant, (y, lam0, math.sqrt(nu2))  # nu is the third argument

    discs = dict.fromkeys(("lambda0", "q", "degenerate", "nu"), 0)
    for edge, build, args in calls():
        try:
            build(*args)
            discs[edge] += 1
        except named:
            pass
    assert min(discs.values()) >= 10, discs


def test_necessity_along_constructed_discs(rng):
    # any constructed disc makes condition (2) hold for (mu, psi(mu))
    from polydisc.schwarz import check_condition

    y, lam0 = strict_problem(rng)
    discs = [build_interpolant(y, lam0, rng=rng)]
    discs.append(worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.2)))
    discs.append(extremal_disc(WORKED_POINT)[1])
    for disc in discs:
        for _ in range(25):
            mu = unit_disc(rng, 0.95)
            if abs(mu) < 0.05:
                continue
            val = disc(mu)
            if max(abs(c) for c in val.coords) < 1e-12:
                continue
            try:
                p = SchwarzProblem(lambda0=mu, target=val)
            except Exception:
                continue  # psi(mu) can graze the boundary numerically
            m = check_condition(p, 2)
            assert m.slack >= -1e-9, (mu, val.coords, m.slack)


# --- determinant identities -----------------------------------------------------


def test_identity_regressions():
    rep = identity_regressions(300, rng=np.random.default_rng(5))
    assert rep["evaluated"] > 150
    assert max(rep["max_rel_err"].values()) < 1e-9


# --- array evaluation ------------------------------------------------------------


def _kind_discs(rng):
    """One disc of every kind: matrix_mobius with and without Qlin, takagi,
    worked_family and diagonal."""
    from polydisc.interpolation import slice_interpolant
    from polydisc.sampling import j_point

    y, lam0 = strict_problem(rng)
    plain = build_interpolant(y, lam0, rng=rng)
    head = 1.0 - op_norm(plain.Q0)
    Qlin = (head / 2.0) * np.array([[0.6, 0.8j], [0.0, -0.6]])
    perturbed = build_interpolant(y, lam0, Qlin=Qlin, rng=rng)
    while True:
        yj = j_point(4, rng)
        top = max(d_norm(j, yj) for j in range(1, 4))
        if 0.05 < top < 0.85 and abs(yj.q) <= 0.9 * top:
            break
    strict4 = slice_interpolant(yj, min(0.97, 1.2 * top), rng=rng)
    takagi_disc = extremal_disc(WORKED_POINT)[1]
    family = worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.4 - 0.1j))
    diag = extremal_disc(CPoint((1.0, 0.5, 1.0 / 18.0)), rng=rng)[1]
    discs = [plain, perturbed, strict4, takagi_disc, family, diag]
    assert [d.kind for d in discs] == [
        "matrix_mobius", "matrix_mobius", "matrix_mobius", "takagi", "worked_family", "diagonal"
    ]
    assert perturbed.Qlin is not None
    return discs


def _variants(discs):
    """Each disc read at n = 2..6 with swap false and true: the core is the
    same 2x2 map, so only the assembly changes."""
    import dataclasses

    for disc in discs:
        for n in range(2, 7):
            for swap in (False, True):
                yield dataclasses.replace(disc, n=n, swap=swap)


def test_values_rows_are_single_evaluations_bit_for_bit(rng):
    lams = np.array([unit_disc(rng, 0.99) for _ in range(17)] + [0.0, 0.5j])
    for disc in _variants(_kind_discs(rng)):
        vals = disc.values(lams)
        assert vals.shape == (lams.size, disc.n)
        for lam, row in zip(lams, vals):
            single = np.array(disc(lam).coords)
            assert row.tobytes() == single.tobytes(), (disc.kind, disc.n, disc.swap, lam)
        assert disc.values(lams[:0]).shape == (0, disc.n)


def test_values_match_the_defining_formula(rng):
    # psi = pi_n(F, ..., F) with F(l) = M_{-Z}(B(l) Q(l)) diag(l, 1), written
    # out with the reference Blaschke factor and matricial_mobius; pi_n puts
    # binom(n, j) F_11 at j and binom(n, j) F_22 at n-j (the middle one
    # averaged for even n), det F last
    discs = [d for d in _variants(_kind_discs(rng)) if d.kind == "matrix_mobius"]
    lams = np.array([unit_disc(rng, 0.97) for _ in range(12)])
    for disc in discs:
        vals = disc.values(lams)
        for lam, row in zip(lams, vals):
            Q = disc.Q0 if disc.Qlin is None else disc.Q0 + lam * disc.Qlin
            F = matricial_mobius(-disc.Z, _ref_blaschke(disc.lambda0, lam) * Q) @ np.diag([lam, 1.0])
            n = disc.n
            ref = np.zeros(n, dtype=complex)
            for j in range(1, n // 2 + 1):
                ref[j - 1], ref[n - 1 - j] = math.comb(n, j) * F[0, 0], math.comb(n, j) * F[1, 1]
            if n % 2 == 0:
                ref[n // 2 - 1] = math.comb(n, n // 2) * (F[0, 0] + F[1, 1]) / 2
            ref[n - 1] = np.linalg.det(F)
            ref = np.concatenate([ref[-2::-1], ref[-1:]]) if disc.swap else ref
            assert np.abs(row - ref).max() <= 1e-13, (disc.n, disc.swap, lam)


def _old_range_lams(seed, samples):
    """The lambda the per-sample loop drew, and the generator it left behind."""
    rng = np.random.default_rng(seed)
    lams = []
    for _ in range(samples):
        lams.append(math.sqrt(rng.random()) * 0.999 * cmath.exp(2j * math.pi * rng.random()))
    return lams, rng


def test_verify_range_draws_the_scalar_loop_samples(monkeypatch):
    from polydisc.interpolation import _verify_range

    disc = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0)
    seen = []
    psi = DiscFunction._psi

    def spy(self, lam):
        if isinstance(lam, np.ndarray):
            seen.append(lam.copy())
        return psi(self, lam)

    monkeypatch.setattr(DiscFunction, "_psi", spy)
    for seed, samples in ((11, 64), (12, 32), (13, 1)):
        rng = np.random.default_rng(seed)
        _verify_range(disc, samples, rng)
        ref, ref_rng = _old_range_lams(seed, samples)
        assert len(seen) == 1  # one array call
        assert seen.pop().tobytes() == np.array(ref).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_range_pass_rows_agree_with_values(rng):
    # the one numpy pass of the range check rounds differently from the
    # scalar map, but only in the last digits, and never moves a verdict
    from polydisc.membership import _tilde_slack7_batch

    lams = 0.999 * np.sqrt(rng.random(64)) * np.exp(2j * np.pi * rng.random(64))
    for disc in _variants(_kind_discs(rng)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = disc._psi(lams)
        ref = disc.values(lams)
        assert rows.shape == ref.shape == (64, disc.n)
        assert (np.abs(rows - ref) <= 1e-13 * (1 + np.abs(ref).max(axis=1, keepdims=True))).all()
        slack, ref_slack = (_tilde_slack7_batch(r, BOUNDARY_BAND) for r in (rows, ref))
        assert ((slack >= -BOUNDARY_BAND) == (ref_slack >= -BOUNDARY_BAND)).all(), (disc.kind, disc.n)


class _Draws:
    """A generator stand-in whose draw is the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms)

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()


def test_verify_range_refusal_at_a_pole_is_the_scalar_one():
    # where the numpy pass meets a pole, values decides: the refusal is the
    # scalar map's, type, message and site
    from polydisc.interpolation import _verify_range

    # the zero at 1 / conj(l1) puts a pole of f on the second sample l1, and
    # the draw (r, t) = (0.25, 0) lands on it exactly
    l1 = complex(np.sqrt(0.25) * 0.999)
    f = ScalarSchur(kind="blaschke", zeros=(1.0 / l1.conjugate(),))
    g = ScalarSchur(kind="blaschke", zeros=(0j,))
    pole = DiscFunction(kind="diagonal", n=3, lambda0=0.5 + 0j, f=f, g=g)
    draws = [0.04, 0.3, 0.25, 0.0]
    lam = np.sqrt(draws[::2]) * 0.999 * np.exp(2j * math.pi * np.array(draws[1::2]))
    assert lam[1] == l1
    with pytest.raises(PoleError) as ref:
        pole.values(lam)
    with pytest.raises(PoleError):
        pole._psi(lam)
    with pytest.raises(PoleError) as info:
        _verify_range(pole, 2, _Draws(draws))
    assert (str(info.value), info.value.at) == (str(ref.value), ref.value.at) and info.value.at == l1


def _slice_draw(n, rng):
    """A point of J_n with its sup-norm top, drawn with the filter of the
    benchmark's construction sampler: top in (0.05, 0.95) and |q| at least
    1e-3 below it."""
    from polydisc.sampling import j_point

    while True:
        y = j_point(n, rng)
        top = max(d_norm(j, y) for j in range(1, n))
        if 0.05 < top < 0.95 and abs(y.q) <= top - 1e-3:
            return y, top


def test_builders_never_leave_the_range_pass(monkeypatch):
    # a scalar-only operation on the pass's call tree would send every
    # range check to values, the per-sample loop the pass replaced
    from polydisc.distances import distance_report

    rng = np.random.default_rng(2417)
    strict = [strict_problem(rng) for _ in range(12)]  # the sampler's n = 3 filter
    slice_points = [_slice_draw(n, rng) for n in range(2, 8) for _ in range(3)]

    def refuse(self, lams):
        raise AssertionError("a range check fell back to DiscFunction.values")

    monkeypatch.setattr(DiscFunction, "values", refuse)
    for y, lam0 in strict:
        build_interpolant(y, lam0, rng=np.random.default_rng(1))
    for y, top in slice_points:
        slice_interpolant(y, min(0.97, 1.2 * top), rng=np.random.default_rng(2))
        assert extremal_disc(y, rng=np.random.default_rng(3))[0] == top
        assert distance_report(y, grid=256, rng=np.random.default_rng(4)).disc is not None


def test_verify_range_names_the_first_failing_lambda():
    from polydisc.errors import ConstructionError
    from polydisc.interpolation import _verify_range

    # Z = 0 makes F(l) = B(l) Q0 diag(l, 1); with ||Q0|| = 1.1 psi leaves the
    # closure wherever |B(l)| > 1/1.1, which is some but not all of the disc
    disc = DiscFunction(
        kind="matrix_mobius", n=3, lambda0=0.5 + 0j, Z=np.zeros((2, 2), dtype=complex),
        Q0=1.1 * np.eye(2, dtype=complex),
    )
    seed, samples = 2, 64
    lams, _ = _old_range_lams(seed, samples)
    inside = [in_tilde_gamma(disc(lam), cond="C7", band=BOUNDARY_BAND).verdict for lam in lams]
    first = inside.index(False)
    assert first > 0 and not all(not v for v in inside[first:])
    with pytest.raises(DomainError):  # B(l) Q0 has entries of modulus past 1: values decides
        disc._psi(np.array(lams))
    with pytest.raises(ConstructionError) as info:
        _verify_range(disc, samples, np.random.default_rng(seed))
    assert str(info.value) == f"disc leaves the closure at lambda={lams[first]}"


def test_disc_evaluation_errors_stay_polydisc_errors():
    from polydisc.errors import PoleError, PolydiscError, SingularityError

    disc = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0)
    pole = 1.0 / np.conj(WORKED_LAMBDA0)  # the Blaschke factor's pole
    with pytest.raises(PoleError) as info:
        disc.values([0.1, pole])
    assert info.value.at == pole
    with pytest.raises(PoleError) as info:
        disc(pole)
    assert info.value.at == pole
    # Z = Q0 / 2 = I/2 and B(1) = -1 at lambda0 = 1/2: 1 + Z* X is singular at 1
    singular = DiscFunction(
        kind="matrix_mobius", n=3, lambda0=0.5 + 0j, Z=0.5 * np.eye(2, dtype=complex),
        Q0=2.0 * np.eye(2, dtype=complex),
    )
    with pytest.raises(SingularityError):
        singular.values([0.2, 1.0])
    with pytest.raises(SingularityError):
        singular(1.0)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            disc(bad)
        with pytest.raises(DomainError):
            disc.values([0.0, bad])
    for bad in (np.zeros((2, 2)), "abc", [[1, 2], [3]]):  # not a 1-D complex array
        with pytest.raises(DomainError):
            disc.values(bad)
    g = ScalarSchur(kind="blaschke", zeros=(0.5 + 0j,))
    with pytest.raises(PoleError) as info:
        g(2.0)  # 1 - conj(0.5) * 2 = 0
    assert info.value.at == 2.0
    for evaluate in (g, disc, disc.core):
        with pytest.raises(DomainError):
            evaluate(np.array([0.0, 2.0]))  # one lambda at a time
    family = worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.5))
    with pytest.raises(PolydiscError):
        family.values([0.0, 1.0 / np.conj(family.g.b)])
    # a malformed disc fails at construction, inside the contract
    bad_z = {**disc.to_json(), "Z": [[1]]}
    for make in (lambda: DiscFunction.from_json({"kind": "diagonal"}),
                 lambda: DiscFunction.from_json(bad_z),
                 lambda: DiscFunction(kind="matrix_mobius", n=3)(0.1),
                 lambda: DiscFunction(kind="diagonal", n=1)(0.1)):
        with pytest.raises(DomainError):
            make()


def test_disc_evaluation_is_total_on_finite_doubles():
    # every finite double lambda, inside the disc or far outside it, gives
    # finite values or a PolydiscError, and no numpy warning
    from polydisc.errors import PolydiscError

    discs = _kind_discs(np.random.default_rng(41))
    finite = st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=600, deadline=None)
    @given(finite, finite)
    @example(1e308, 1e308)
    @example(1.7e308, 0.0)
    @example(-1.7e308, 1.7e308)
    def check(re, im):
        lam = complex(re, im)
        for disc in discs:
            for evaluate in (disc, disc.core, lambda v: disc.values([v, 0.0])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        out = evaluate(lam)
                    except PolydiscError:
                        continue
                out = out.coords if isinstance(out, CPoint) else np.ravel(out)
                assert all(cmath.isfinite(v) for v in out), (disc.kind, lam)

    check()


def test_disc_frame_is_computed_once(monkeypatch):
    import polydisc.interpolation as interpolation

    calls = []
    frame = interpolation._frame

    def spy(*z):
        calls.append(1)
        return frame(*z)

    disc = build_interpolant(WORKED_SHRUNK, WORKED_LAMBDA0)
    back = DiscFunction.from_json(disc.to_json())  # no frame yet
    monkeypatch.setattr(interpolation, "_frame", spy)
    back(0.3 - 0.1j)
    assert len(calls) == 1  # (1 - ZZ*)^{-1/2} and (1 - Z*Z)^{1/2}, built together
    back(0.1)
    back.values(np.linspace(-0.9, 0.9, 64))
    back.core(0.2j)
    assert len(calls) == 1
    assert "_frame" not in json.dumps(back.to_json())


# --- totality of the two-point entry points ----------------------------------

_DOUBLE = st.one_of(st.floats(-1.5, 1.5), st.floats(allow_nan=False, allow_infinity=False))
_COMPLEX = st.builds(complex, _DOUBLE, _DOUBLE)
_SMALL_Z = [0.3, 0.1, 0.0, 0.2]


def _is_finite(out) -> bool:
    if isinstance(out, tuple):
        return all(_is_finite(v) for v in out)
    if isinstance(out, (DiscFunction, CPoint)):
        try:
            json.dumps(out.to_json(), allow_nan=False)
        except ValueError:
            return False
        return True
    return bool(np.isfinite(out).all())


@settings(max_examples=250, deadline=None)
@given(st.lists(_COMPLEX, min_size=3, max_size=5), _COMPLEX, _DOUBLE,
       st.lists(_COMPLEX, min_size=4, max_size=4), st.lists(_COMPLEX, min_size=2, max_size=2))
@example([1, 0.5, 1e80], 1e300, 1.0, _SMALL_Z, [1, 0])  # nu_window: Decimal x float
@example([1, 0.5, 0.1], 1e300, 1.0, _SMALL_Z, [1, 0])  # nu_window: (-inf, inf)
@example([1.35, 0.675, 0.45], -0.8, 5e-324, _SMALL_Z, [1e300, 1e300])  # default_q
@example([1, 1, 1], 1e200, 1.0, _SMALL_Z, [1.7e308 + 1.7e308j, 1.7e308])  # default_q's u, v
@example([1, 1, 1], 1e-200, 1.0, _SMALL_Z, [1, 0])  # a tiny lambda0
@example([1.35, 0.675, 0.45], 5e-324, 1.0, _SMALL_Z, [1, 0])  # default_q at a tiny lambda0
@example([1.7e308 + 1.7e308j, 1, 0.1], 0.5, 1.0, _SMALL_Z, [1, 0])  # |y_1| overflows
@example([0.1, 1.7e308 + 1.7e308j, 0.1], 0.5, 1.0, _SMALL_Z, [1, 0])  # |y_2| overflows
def test_two_point_entry_points_total_on_finite_doubles(coords, lam, nu, z, alpha):
    # each call gives finite output or a PolydiscError, on any finite doubles
    from polydisc.errors import PolydiscError

    y, y3, Z = CPoint(tuple(coords)), CPoint(tuple(coords[:3])), np.array(z).reshape(2, 2)
    calls = [
        lambda: build_interpolant(y3, lam, nu=nu),
        lambda: slice_interpolant(y, lam),
        lambda: extremal_disc(y),
        lambda: nu_window(y3, lam),
        lambda: default_q(Z, alpha, lam),
    ]
    for k, call in enumerate(calls):
        try:
            out = call()
        except PolydiscError:
            continue
        assert _is_finite(out), (k, out)


def test_nu_window_and_z_nu_need_lambda0_in_the_disc():
    for lam0 in (0.0, 1.0, 2.0, -1e300, 1e308 + 1e308j):
        with pytest.raises(DomainError, match="lambda0 must satisfy"):
            nu_window(WORKED_SHRUNK, lam0)


def test_default_q_is_blind_to_the_scale_of_alpha(rng):
    Z = np.array([[0.3, 0.1], [0.0, 0.2]])
    ref = default_q(Z, (1.0, 1.0), 0.5)
    assert np.abs(default_q(Z, (1e300, 1e300), 0.5) - ref).max() <= 1e-15
    ref = default_q(Z, (1.0, 0.0), 0.5)
    for tiny in (1e-300, 5e-324):
        assert np.abs(default_q(Z, (tiny, 0.0), 0.5) - ref).max() <= 1e-15
    for _ in range(20):
        Z = rand_contraction(rng)
        alpha = np.array([unit_disc(rng), unit_disc(rng)])
        ref = default_q(Z, alpha, 0.6j)
        for k in (-1000, -600, -2, 3, 900):  # powers of two: bit for bit
            assert default_q(Z, alpha * 2.0**k, 0.6j).tobytes() == ref.tobytes()


def test_single_calls_equal_the_checked_point(rng):
    # disc(lam) skips CPoint's checks, not its conversion: a hand-built disc
    # whose scalar functions are real constants still gives complex coordinates
    const = ScalarSchur(kind="blaschke", const=1)
    discs = [*_kind_discs(rng), DiscFunction(kind="diagonal", n=4, f=const, g=const)]
    for disc in discs:
        for lam in (0.0, 0.3 - 0.2j):
            point, ref = disc(lam), CPoint(tuple(disc._psi(complex(lam))))
            assert all(type(c) is complex for c in point.coords)
            assert json.dumps(point.to_json()) == json.dumps(ref.to_json())


def test_pole_messages_and_sites():
    # the three pole sites of disc evaluation build their messages only when
    # they raise; each message and .at is pinned through a single call, the
    # core and values, which reports the first failing lambda
    from polydisc.errors import PoleError
    from polydisc.mobius import phi

    f = ScalarSchur(kind="blaschke", zeros=(0.5 + 0j, -0.8 + 0j))
    g = ScalarSchur(kind="np2", c1=0.5 + 0j, t=1.0 + 0j)  # 1 + conj(0.5) lam = 0 at -2
    diag = DiscFunction(kind="diagonal", n=3, f=f, g=g)
    mobius = DiscFunction(
        kind="matrix_mobius", n=3, lambda0=0.5 + 0j, Z=np.zeros((2, 2), dtype=complex),
        Q0=0.5 * np.eye(2, dtype=complex),
    )
    cases = [
        (mobius, 2.0, "the Blaschke factor has a pole at z=(2+0j)"),
        (diag, 2.0, "the Blaschke factor at (0.5+0j) has a pole at z=(2+0j)"),
        (diag, -1.25, "the Blaschke factor at (-0.8+0j) has a pole at z=(-1.25+0j)"),
        (diag, -2.0, "a Schur step has a pole at z=(-2+0j)"),
    ]
    poles = [lam for _, lam, _ in cases]
    for disc, lam, message in cases:
        for evaluate in (disc, disc.core, lambda v: disc.values([0.1, v, *poles])):
            with pytest.raises(PoleError) as info:
                evaluate(lam)
            assert (str(info.value), info.value.at) == (message, lam)
    with pytest.raises(PoleError, match=r"^the Blaschke factor has a pole at z=\(2\+0j\)$"):
        _blaschke(0.5 + 0j, 2.0 + 0j)
    with pytest.raises(PoleError, match=r"^a Schur step has a pole at z=\(-2\+0j\)$"):
        g(-2.0)
    with pytest.raises(PoleError, match=r"^Phi_1 has a pole at z=\(1\.5\+0j\)$"):
        phi(1, CPoint((1.0, 2.0, 0.5)), 1.5)  # y_2 z - 3 = 0


# the Blaschke factor, the zero-at-a factor and the Schur step as three
# functions wrote them before one kernel took their place: the reference
# that the kernel must match bit for bit


def _ref_blaschke(lambda0, lam):
    den = 1.0 - lambda0.conjugate() * lam
    _check_poles(den, lam, "the Blaschke factor")
    val = (lambda0 - lam) / den
    if not (cmath.isfinite(den) and cmath.isfinite(val)) and lam:
        den = 1.0 / lam - lambda0.conjugate()
        _check_poles(den, lam, "the Blaschke factor")
        val = (lambda0 / lam - 1.0) / den
    return val


def _ref_zero_at(a, lam):
    den = 1.0 - a.conjugate() * lam
    _check_poles(den, lam, "the Blaschke factor at {}", a)
    val = (lam - a) / den
    if not (cmath.isfinite(den) and cmath.isfinite(val)) and lam:
        den = 1.0 / lam - a.conjugate()
        _check_poles(den, lam, "the Blaschke factor at {}", a)
        val = (1.0 - a / lam) / den
    return val


def _ref_schur_step(w, s, lam):
    den = 1.0 + w.conjugate() * s
    _check_poles(den, lam, "a Schur step")
    val = (w + s) / den
    if not (cmath.isfinite(den) and cmath.isfinite(val)) and s:
        den = 1.0 / s + w.conjugate()
        _check_poles(den, lam, "a Schur step")
        val = (w / s + 1.0) / den
    return val


def _outcome(f):
    """The value's bits, or the exception's type, message and .at bits."""
    try:
        v = f()
        return struct.pack("<2d", v.real, v.imag)
    except PolydiscError as exc:
        return type(exc), str(exc), struct.pack("<2d", exc.at.real, exc.at.imag)


def test_mobius_kernel_is_the_three_automorphisms_bit_for_bit():
    # the Blaschke factor B(l) = mu_{lambda0}(-l), the zero-at-a factor
    # e_a(l) = mu_{-a}(l) and a Schur step mu_w(s), each against its formula
    # written out with its own overflow retake: values to the bit (signed
    # zeros included), pole messages and .at.  B is drawn at lambda0 in the
    # open disc, where it is defined and evaluated
    rng = np.random.default_rng(20261019)

    def draw():  # zero, in and near the disc, or a modulus from 1e-320 to 1e308
        u = rng.random()
        r = 0.0 if u < 0.1 else rng.random() * 1.2 if u < 0.5 else 10.0 ** rng.uniform(-320, 308)
        z = r * cmath.exp(2j * math.pi * rng.random())
        re, im = (rng.choice([0.0, -0.0]) if rng.random() < 0.1 else x for x in (z.real, z.imag))
        return complex(re, im)  # a part may be a signed zero

    kinds = set()
    for _ in range(20000):
        a, lam, w, s = draw(), draw(), draw(), draw()
        l0 = a if abs(a) < 1.0 else a / (2.0 * abs(a))
        u = rng.random()
        if u < 0.05:
            lam = a if u < 0.025 else l0  # equal arguments
        elif u < 0.1 and a:
            lam = 1.0 / a.conjugate()  # the exact pole of e_a
        elif u < 0.15 and l0:
            lam = 1.0 / l0.conjugate()  # the exact pole of B
        if rng.random() < 0.05 and w:
            s = -1.0 / w.conjugate()  # the exact pole of the step
        for ref, got in (
            (lambda: _ref_blaschke(l0, lam), lambda: _mobius(l0, -lam, lam, "the Blaschke factor")),
            (lambda: _ref_zero_at(a, lam), lambda: _mobius(-a, lam, lam, "the Blaschke factor at {}", a)),
            (lambda: _ref_schur_step(w, s, lam), lambda: _mobius(w, s, lam, "a Schur step")),
        ):
            out = _outcome(ref)
            assert _outcome(got) == out, (a, lam, w, s)
            kinds.add(type(out) is tuple)
    assert kinds == {False, True}  # both values and poles were compared


# --- golden disc outputs -----------------------------------------------------

# sha256 of _disc_digest() at the commit before disc evaluation lost its
# per-call overhead; any change to a disc value, error or JSON moves it
DISC_DIGEST = "845a1e300fba61e805446fbd13331669858b5104bfc594fa4c81340ac94fb9d6"


def _digest_lams(discs, rng) -> list[complex]:
    """0, +-1 and 1j; lambda in the unit disc; lambda of log-uniform modulus
    in [1e-300, 1e300] (far outside the disc X = B Q leaves the unit ball,
    which takes the rescale of M_{-Z}); and each disc's poles 1/conj(a)."""
    lams = [0j, 1 + 0j, -1 + 0j, 1j]
    lams += [unit_disc(rng, 0.999) for _ in range(24)]
    for mod, angle in zip(10.0 ** rng.uniform(-300.0, 300.0, 48), rng.uniform(0.0, 2 * math.pi, 48)):
        lams.append(complex(mod * cmath.exp(1j * angle)))
    for disc in discs:
        for a in (disc.lambda0, *(z for g in (disc.f, disc.g) if g is not None for z in (g.a, g.b))):
            if a != 0:
                lams.append(1.0 / complex(a).conjugate())
    return lams


def _disc_digest() -> str:
    """sha256 over every kind of _kind_discs read at n = 2..6 and both swaps:
    its JSON, and disc(lam), disc.core(lam), disc.values([lam]) at each
    lambda of _digest_lams, values over all of them and over the ones in
    the disc, and its scalar Schur functions at each lambda.  An output is
    hashed as its complex bytes, a PolydiscError as type, message and .at."""
    import hashlib

    from polydisc.errors import PolydiscError

    rng = np.random.default_rng(1313)
    discs = _kind_discs(rng)
    lams = _digest_lams(discs, rng)
    inside = [lam for lam in lams if abs(lam) < 1.0]
    h = hashlib.sha256()

    def feed(call, *args):
        try:
            out = call(*args)
        except PolydiscError as exc:
            h.update(repr((type(exc).__name__, str(exc), getattr(exc, "at", None))).encode())
            return
        out = out.coords if isinstance(out, CPoint) else out
        h.update(np.asarray(out, dtype=complex).tobytes())

    for disc in discs:
        for g in (disc.f, disc.g):
            for lam in lams if g is not None else ():
                feed(g, lam)
    for disc in _variants(discs):
        h.update(json.dumps(disc.to_json()).encode())
        for lam in lams:
            feed(disc, lam)
            feed(disc.core, lam)
            feed(disc.values, [lam])
        feed(disc.values, lams)
        feed(disc.values, inside)
    return h.hexdigest()


def test_disc_outputs_match_parent():
    assert _disc_digest() == DISC_DIGEST
