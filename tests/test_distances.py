import cmath
import math

import numpy as np
import pytest

from polydisc.distances import (
    carath_lower,
    dist_formula,
    distance_report,
    lempert_upper,
    mobius_dist,
)
from polydisc.errors import DomainError
from polydisc.mobius import CPoint, d_norm
from polydisc.sampling import j_point, tilde_g_point, unit_disc

from conftest import WORKED_POINT


def test_mobius_dist_base_cases(rng):
    for _ in range(20):
        w = unit_disc(rng)
        assert mobius_dist(0.0, w) == pytest.approx(abs(w), abs=1e-14)
    assert mobius_dist(0.3, 0.625) == pytest.approx(0.4, abs=1e-15)


def test_mobius_dist_symmetry(rng):
    for _ in range(200):
        z, w = unit_disc(rng), unit_disc(rng)
        assert mobius_dist(z, w) == pytest.approx(mobius_dist(w, z), abs=1e-14)


def test_mobius_dist_domain():
    with pytest.raises(DomainError):
        mobius_dist(1.0, 0.0)


def test_dist_formula_values():
    assert dist_formula(CPoint((0, 0, 0))) == 0.0
    assert dist_formula(WORKED_POINT) == pytest.approx(math.atanh(0.8), abs=1e-12)


def test_dist_formula_swap_invariant(rng):
    for _ in range(50):
        y = tilde_g_point(3, rng)
        assert dist_formula(y) == pytest.approx(dist_formula(y.swap()), abs=1e-12)


def test_dist_formula_refuses_off_slice(rng):
    for _ in range(20):
        y = tilde_g_point(5, rng)
        from polydisc.schwarz import in_J_n

        if in_J_n(y):
            continue
        with pytest.raises(DomainError):
            dist_formula(y)
        return


def test_dist_formula_monotone_in_r(rng):
    for _ in range(30):
        y = j_point(4, rng)
        vals = [dist_formula(y.scale(r)) for r in np.linspace(0.05, 0.95, 16)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-12


def test_carath_lower_zero_and_worked():
    assert carath_lower(CPoint((0, 0, 0)), grid=64)[0] == 0.0
    val, j, om = carath_lower(WORKED_POINT, grid=4096)
    assert val == pytest.approx(math.atanh(0.8), abs=1e-5)
    assert j == 1


def test_carath_lower_matches_scalar_loop(rng):
    from polydisc.mobius import phi

    omegas = [cmath.exp(2j * math.pi * k / 64) for k in range(64)]
    for y in [WORKED_POINT] + [j_point(int(rng.integers(2, 6)), rng) for _ in range(20)]:
        val, j, om = carath_lower(y, grid=64)
        best = max(
            (abs(phi(i, y, w)), -i, -k)  # first (j, omega) on ties
            for i in range(1, y.n)
            for k, w in enumerate(omegas)
        )
        assert abs(math.tanh(val) - best[0]) <= 1e-14
        assert j == -best[1] and abs(om - omegas[-best[2]]) <= 1e-15


def test_carath_lower_is_bit_identical_to_a_phi_loop(rng):
    # the block's argmax against one public phi call per index, keeping the
    # first j, then the first omega, of the largest; compared with ==
    from polydisc.mobius import circle, phi

    def loop(y, grid):
        best = (0.0, 1, 1.0 + 0j)
        for j in range(1, y.n):
            vals = np.abs(phi(j, y, circle(grid)))
            k = int(np.argmax(vals))
            if vals[k] > best[0]:
                best = (float(vals[k]), j, complex(circle(grid)[k]))
        return math.atanh(min(best[0], 1.0 - 1e-16)), best[1], best[2]

    # n = 2, the middle index of n = 4, degenerate pairs (the constant
    # branch), the all-zero block and seeded J_n and domain points
    cases = [CPoint((1.0, 0.3)), CPoint((0.4, 1.2, 0.2, 0.05)), CPoint((1.0, 0.25)),
             CPoint((0.9, 0.9, 0.09)), CPoint((0, 0, 0)), WORKED_POINT]
    cases += [j_point(int(rng.integers(2, 8)), rng) for _ in range(30)]
    cases += [tilde_g_point(int(rng.integers(2, 8)), rng) for _ in range(30)]
    for y in cases:
        for grid in (8, 256, 4096):
            assert carath_lower(y, grid) == loop(y, grid)


def test_carath_never_exceeds_formula(rng):
    for _ in range(40):
        n = int(rng.choice([2, 3, 5]))
        y = j_point(n, rng)
        lower, _, _ = carath_lower(y, grid=512)
        assert lower <= dist_formula(y) + 1e-9


def test_lempert_upper_zero():
    up, disc = lempert_upper(CPoint((0, 0, 0)))
    assert up == 0.0 and disc is not None


def test_lempert_pinch_shrunk_worked():
    y = WORKED_POINT.scale(0.9)
    up, disc = lempert_upper(y)
    assert disc is not None
    assert up == pytest.approx(dist_formula(y), abs=1e-9)


def test_pinch_random_j_points(rng):
    for n in (2, 3, 5):
        done = 0
        attempts = 0
        while done < 25 and attempts < 200:
            attempts += 1
            y = j_point(n, rng)
            top = max(d_norm(j, y) for j in range(1, n))
            if not 0.05 < top < 0.95 or abs(y.q) > top - 1e-3:
                continue
            closed = dist_formula(y)
            lower, _, _ = carath_lower(y, grid=8192)
            upper, disc = lempert_upper(y)
            assert disc is not None, (n, y.coords)
            assert lower <= closed + 1e-9
            assert closed <= upper + 1e-9
            assert upper - closed <= 1e-9
            assert upper - lower <= 1e-4
            done += 1
        assert done == 25, f"n={n}: only {done} usable samples"


def test_pinch_n2_formula_vs_grid(rng):
    # on the bidisc the slice is everything; closed form meets the grid bound
    for _ in range(60):
        y = tilde_g_point(2, rng)
        if max(d_norm(j, y) for j in (1,)) > 0.95:
            continue
        closed = dist_formula(y)
        lower, _, _ = carath_lower(y, grid=4096)
        assert lower <= closed + 1e-9
        assert closed - lower <= 1e-4


def test_distance_report_json(rng):
    import json

    rep = distance_report(WORKED_POINT, grid=512)
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["closed_form"] == pytest.approx(math.atanh(0.8), abs=1e-12)
    assert blob["disc"] is not None
    assert blob["witness"]["j"] == 1
