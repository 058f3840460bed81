import cmath
import hashlib
import json
import math
import re

import numpy as np
import pytest

from polydisc import geometry, mobius
from polydisc.errors import ConstructionError, DomainError, PoleError, PolydiscError
from polydisc.geometry import (
    noncircular_witness,
    nonconvex_witness,
    separating_polynomial,
)
from polydisc.membership import in_tilde_g, in_tilde_gamma
from polydisc.mobius import CPoint, binom, circle, phi
from polydisc.sampling import (
    exterior_point,
    tilde_g_point,
    tilde_gamma_boundary_point,
)


def test_separating_coordinate_case():
    poly = separating_polynomial(CPoint((4.0, 0.0, 0.0)), samples=50)
    assert poly.value_at_target == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert poly.sup_bound <= 1.0 + 1e-9
    assert len(poly.coeff_table) == 1


def test_separating_last_coordinate_case():
    poly = separating_polynomial(CPoint((0.0, 0.0, 2.0)), samples=50)
    assert poly.value_at_target == pytest.approx(2.0, abs=1e-12)
    ((expo, coef),) = poly.coeff_table.items()
    assert expo == (0, 0, 1)


def test_separating_truncation_case_rotated_binomial(rng):
    y = CPoint((3j, 3j, 1j))  # i * (3, 3, 1): inside rotated out
    poly = separating_polynomial(y, samples=400, rng=rng)
    assert poly.value_at_target > 1.0
    assert poly.sup_bound <= 1.0 + 1e-9


def test_separating_random_exterior(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        y = exterior_point(n, rng)
        poly = separating_polynomial(y, samples=100, rng=rng)
        assert poly.value_at_target >= 1.0 + poly.eps > 1.0
        assert poly.sup_bound <= 1.0 + 1e-9
        # certificate evaluates its own target consistently
        assert abs(poly(y)) == pytest.approx(poly.value_at_target, rel=1e-12)


def _witness_loop(y):
    """_find_witness as scalar loops over radius, j and angle."""
    for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        best = (0, 0j, 0.0)
        for j in range(1, y.n // 2 + 1):
            for k in range(1024):
                z = r * cmath.exp(2j * math.pi * k / 1024)
                val = abs(phi(j, y, z))
                if val > best[2]:
                    best = (j, z, val)
        if best[2] > 1.0 + 1e-6:
            return best
    return None


def _table_value(poly, x):
    """f(x) summed term by term from the coefficient table in Python scalars."""
    acc = 0j
    for expo, coef in poly.coeff_table.items():
        term = coef
        for e, c in zip(expo, x.coords):
            term *= c**e
        acc += term
    return acc


def _series_value(poly, j, z, x):
    """The truncation certificate at x, its series summed term by term in
    Python scalars (the coefficient table itself can overflow)."""
    n = x.n
    c = binom(n, j)
    t = x.y(n - j) * z / c
    series, power = 0j, 1 + 0j
    for _ in range(len(poly.coeff_table) // 2):  # 2 terms per power of t
        series += power
        power *= t
    return (x.y(j) / c - x.q * z) * series / (1.0 + poly.eps)


def test_witness_and_certificate_match_scalar_loops(rng):
    truncation = 0
    for seed in range(40):
        n = int(rng.integers(2, 6))
        y = exterior_point(n, rng)
        if any(abs(y.y(j)) > binom(n, j) for j in range(1, n)) or abs(y.q) > 1.0:
            continue  # coordinate case: no witness search
        truncation += 1
        j, z, val = geometry._find_witness(y)
        ref = _witness_loop(y)
        assert j == ref[0] and abs(z - ref[1]) <= 1e-15
        assert abs(val - ref[2]) <= 1e-14 * ref[2]
        for samples in (1, 60):
            poly = separating_polynomial(
                y, samples=samples, rng=np.random.default_rng(seed)
            )
            draw = np.random.default_rng(seed)
            pts = [tilde_g_point(n, draw) for _ in range(samples)]
            ref = [abs(_series_value(poly, j, z, x)) for x in pts]
            assert abs(poly.sup_bound - max(ref)) <= 1e-13
            assert abs(poly(pts[0]) - _series_value(poly, j, z, pts[0])) <= 1e-13
    assert truncation >= 10


def test_separating_monomial_certificate_matches_scalar_loop():
    poly = separating_polynomial(CPoint((0.5, 3.5, 0.2)), samples=80)
    draw = np.random.default_rng(0)  # the default rng of the certificate
    pts = [tilde_g_point(3, draw) for _ in range(80)]
    assert abs(poly.sup_bound - max(abs(_table_value(poly, x)) for x in pts)) <= 1e-15
    assert abs(poly(pts[0]) - _table_value(poly, pts[0])) <= 1e-15


def test_witness_search_propagates_errors(monkeypatch):
    def broken(y, js, z, radius):
        raise PoleError("injected")

    monkeypatch.setattr(geometry, "_abs_phi", broken)
    with pytest.raises(PoleError):
        separating_polynomial(CPoint((3j, 3j, 1j)), samples=10)


def test_witness_search_stops_at_the_first_witness_radius(monkeypatch):
    # one call per radius, carrying a row of 1024 angles for each
    # j <= n // 2, up to the radius of the witness and no further
    radii = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999)
    points = []

    def counting(y, js, z, radius):
        points.append((len(js), np.size(z)))
        return mobius._abs_phi(y, js, z, radius)

    monkeypatch.setattr(geometry, "_abs_phi", counting)
    rng = np.random.default_rng(5)
    seen = set()
    while len(seen) < 4:
        n = int(rng.integers(2, 7))
        y = exterior_point(n, rng)
        if any(abs(y.y(j)) > binom(n, j) for j in range(1, n)) or abs(y.q) > 1.0:
            continue  # coordinate case: no witness search
        points.clear()
        _, z, _ = geometry._find_witness(y)
        ring = radii.index(round(abs(z), 4)) + 1
        assert points == [(n // 2, 1024)] * ring
        seen.add(ring)


def _witness_loop(y):
    """_find_witness as one public phi call per (j, ring)."""
    vr = np.empty((y.n // 2, 1024))
    peaks = []
    for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999):
        zr = r * circle(1024)
        for j in range(1, y.n // 2 + 1):
            np.abs(phi(j, y, zr), out=vr[j - 1])
        i, k = np.unravel_index(np.argmax(vr), vr.shape)
        if vr[i, k] > 1.0 + 1e-6:
            return int(i) + 1, complex(zr[k]), float(vr[i, k])
        peaks.append(vr[i, k])
    return f"best {np.max(peaks):.6g}"


def test_witness_search_is_bit_identical_to_a_phi_loop():
    # exterior points with every coordinate bound holding, compared with ==:
    # n = 2, the middle index of an even n, and a degenerate pair j = 1 of
    # n = 4 (its constant row never wins), beside seeded points
    rng = np.random.default_rng(29)
    cases = [CPoint((1.9j, 0.95j)), CPoint((0.1, 5.5j, 0.1, 0.2j))]
    cases += [CPoint((0.5, 5.5j, 3.2, 0.1)), CPoint((0.5, 5.9j, 3.2, 0.1))]  # y_1 y_3 = 16 q
    # no witness: the largest value stays under 1 + 1e-6 on every ring
    cases.append(tilde_gamma_boundary_point(3, np.random.default_rng(2)).scale(1.0 + 1e-9))
    while len(cases) < 40:
        n = int(rng.integers(2, 8))
        y = exterior_point(n, rng)
        if all(abs(y.y(j)) <= binom(n, j) for j in range(1, n)) and abs(y.q) <= 1.0:
            cases.append(y)
    for y in cases:
        try:
            got = geometry._find_witness(y)
        except ConstructionError as err:
            got = re.search(r"best [^)]*", str(err)).group()
        assert got == _witness_loop(y)
    assert all(isinstance(_witness_loop(y), tuple) for y in cases[:4])


def test_no_witness_reports_the_best_value_over_all_radii():
    # |Phi_1| over the disc peaks at D_1 = 1 + 1e-9, under the witness
    # threshold 1 + 1e-6 on every ring
    y = tilde_gamma_boundary_point(3, np.random.default_rng(2)).scale(1.0 + 1e-9)
    best = max(np.abs(phi(1, y, r * circle(1024))).max()
               for r in (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999))
    with pytest.raises(ConstructionError, match=rf"\(best {best:.6g}\)"):
        geometry._find_witness(y)


def _certificate_digest() -> str:
    """sha256 over seeded separating certificates: 300 exterior points at
    n = 2..8, each at samples 1 and 200, hashing the JSON and the value at
    the target (a PolydiscError as type and message)."""
    rng = np.random.default_rng(1616)
    h = hashlib.sha256()
    for i in range(300):
        y = exterior_point(2 + i % 7, rng)
        for samples in (1, 200):
            try:
                poly = separating_polynomial(y, samples=samples, rng=np.random.default_rng(i))
            except PolydiscError as exc:
                h.update(repr((type(exc).__name__, str(exc))).encode())
                continue
            h.update(json.dumps(poly.to_json()).encode())
            h.update(np.asarray(poly(y), dtype=complex).tobytes())
    return h.hexdigest()


# sha256 of _certificate_digest() at the commit before the witness search went
# one radius at a time; any change to a certificate, its value or an error moves it
CERTIFICATE_DIGEST = "0002e5bbfa504ca3ab3050b4e2600a8f0b20cee7e476a8d5594c7d59b8c4e9fa"


def test_certificates_match_the_one_shot_search():
    assert _certificate_digest() == CERTIFICATE_DIGEST


def test_separating_rejects_interior():
    with pytest.raises(DomainError):
        separating_polynomial(CPoint((0.1, 0.1, 0.1)), samples=10)


def test_separating_poly_json():
    poly = separating_polynomial(CPoint((4.0, 0.0, 0.0)), samples=10)
    blob = poly.to_json()
    assert blob["terms"][0][0] == [1, 0, 0]
    assert blob["value_at_target"] > 1.0


def test_starlike_scale_origin():
    # both domains are starlike about the origin: r y is in the open set
    # for y in the closure and 0 <= r < 1
    assert in_tilde_g(CPoint((3.0, 3.0, 1.0)).scale(0.0), cond="C7").verdict


def test_starlike_binomial_point_half():
    y = CPoint(tuple(float(binom(4, j)) for j in range(1, 4)) + (1.0,))
    assert in_tilde_g(y.scale(0.5), cond="C7").verdict


def test_starlike_sweep(rng):
    for _ in range(120):
        n = int(rng.integers(2, 7))
        y = (
            tilde_gamma_boundary_point(n, rng)
            if rng.random() < 0.5
            else tilde_g_point(n, rng)
        )
        for r in (0.1, 0.5, 0.9, 0.999):
            assert in_tilde_g(y.scale(r), cond="C7").verdict, (n, r, y.coords)


def test_nonconvex_witness_small_dims():
    a, b, c = nonconvex_witness(3)
    assert a.coords == (3 + 0j, 3j, 1j)
    assert b.coords == (-3j, 3 + 0j, -1j)
    assert c.coords == (1.5 - 1.5j, 1.5 + 1.5j, 0j)
    assert in_tilde_gamma(a).verdict and in_tilde_gamma(b).verdict
    assert not in_tilde_gamma(c).verdict


@pytest.mark.parametrize("n", range(2, 9))
def test_nonconvex_witness_all_dims(n):
    a, b, c = nonconvex_witness(n)
    assert in_tilde_gamma(a, cond="C7").verdict
    assert in_tilde_gamma(b, cond="C7").verdict
    assert not in_tilde_gamma(c, cond="C7").verdict


@pytest.mark.parametrize("n", range(2, 9))
def test_noncircular_witness_all_dims(n):
    y, iy = noncircular_witness(n)
    assert y.coords[:-1] == tuple(float(binom(n, j)) for j in range(1, n))
    assert in_tilde_gamma(y, cond="C7").verdict
    assert not in_tilde_gamma(iy, cond="C7").verdict
