"""Totality on the whole finite double range for the public names that no
other property covers: each call gives finite output or a PolydiscError,
under warnings as errors."""

import copy
import dataclasses
import functools
import json
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polydisc
from polydisc import (
    CPoint,
    DegenerateProblemError,
    DiscFunction,
    DomainError,
    MarginalProblemError,
    PolydiscError,
    ScalarSchur,
    SchwarzProblem,
    build_interpolant,
    carath_lower,
    check_condition,
    costara_f,
    costara_sup,
    d_norm,
    default_q,
    dist_formula,
    distance_report,
    extremal_disc,
    gn_schwarz_bound,
    identity_regressions,
    in_b_gamma,
    in_g,
    in_gamma,
    in_J_n,
    in_tilde_g,
    in_tilde_gamma,
    lempert_upper,
    lift,
    mobius_dist,
    noncircular_witness,
    nonvanishing_falsifier,
    np2,
    nu_window,
    phi,
    schur_certificates,
    separating_polynomial,
    slice_interpolant,
    sup_on_torus,
    symmetrize,
    worked_family,
)
from polydisc import herm_eig, herm_sqrt, matricial_mobius, op_norm, sampling, takagi
from polydisc.mobius import circle
from polydisc.schwarz import k_rho
from test_bands import _banded_names, _probes, _public_parameters

# half of the parts log-uniform in [1e-307, 1.7e308], either sign
_WIDE = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([1.0, -1.0]),
                  st.floats(-307.0, math.log10(1.7e308)))
_PART = st.one_of(st.floats(-3.0, 3.0), _WIDE)
_COMPLEX = st.builds(complex, _PART, _PART)


def _finite(v) -> bool:
    """Every number inside v (containers, arrays and dataclasses) is finite;
    an object with a JSON form is read through it, which writes a +-inf
    slack (its sign is the verdict) as +-1e308 and must hold no NaN."""
    if hasattr(v, "to_json"):
        try:
            json.dumps(v.to_json(), allow_nan=False)
        except ValueError:
            return False
        return True
    if v is None or isinstance(v, (bool, int, str, np.bool_)):
        return True
    if isinstance(v, (float, complex, np.number)):
        return bool(np.isfinite(v))
    if isinstance(v, np.ndarray):
        return bool(np.isfinite(v).all())
    if isinstance(v, (list, tuple)):
        return all(map(_finite, v))
    if dataclasses.is_dataclass(v):
        return all(_finite(getattr(v, f.name)) for f in dataclasses.fields(v))
    raise TypeError(f"no finiteness rule for {type(v).__name__}")


def _calls(y: CPoint, z: complex, w: complex, j: int, r: float):
    """(name, call) for every covered name."""
    yield "in_g", lambda: in_g(y)
    yield "in_gamma", lambda: in_gamma(y)
    yield "in_b_gamma", lambda: in_b_gamma(y)
    yield "symmetrize", lambda: symmetrize(y.coords)
    yield "phi", lambda: phi(j, y, z)
    yield "costara_f", lambda: costara_f(y, z)
    yield "np2", lambda: np2(z, w, y.y(1), y.q, r)
    yield "mobius_dist", lambda: mobius_dist(z, w)
    yield "in_J_n", lambda: in_J_n(y)
    yield "carath_lower", lambda: carath_lower(y, grid=16)
    yield "dist_formula", lambda: dist_formula(y)
    yield "lempert_upper", lambda: lempert_upper(y)
    yield "distance_report", lambda: distance_report(y, grid=16)
    yield "separating_polynomial", lambda: separating_polynomial(y, samples=4)
    yield "gn_schwarz_bound", lambda: gn_schwarz_bound(y, z, grid=16)
    try:
        p = SchwarzProblem(lambda0=z, target=y)
    except PolydiscError:
        return
    for c in range(2, 12):
        yield f"check_condition({c})", lambda c=c: check_condition(p, c)
    yield "schur_certificates", lambda: schur_certificates(p)
    yield "lift", lambda: lift(p)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COMPLEX, min_size=2, max_size=8), _COMPLEX, _COMPLEX,
       st.integers(1, 7), st.floats(0.0, 0.999))
@example([1e300, 1e300, 1e300], 1e10, 0.5, 1, 0.5)  # phi: nan
@example([1e308, 1e200, 1e308], 1e100 + 1e100j, 0.5, 1, 0.5)  # phi: inf + nan j
@example([1e200, 0.5, 0.2], 1e200, 0.5, 1, 0.5)  # costara_f: nan
@example([0.5, 0.5, 0.2], 1e300 + 1e300j, 0.5, 1, 0.5)  # costara_f: nan
@example([1e200, 1e200, 0.5], 0.5, 0.5, 1, 0.5)  # a d of B_1 overflows
@example([1.54e308j, 0.5j], 0.5, 0.5, 1, 0.5)  # a beta past the double range
@example([0.3, 0.2, 0.1], 1e-200, 0.5, 1, 0.5)  # |lambda0|^2 = 0
@example([0.6, 0.3, 0.02], 1e-320, 0.5, 1, 0.5)  # schur_certificates: Z_1 = inf
@example([0.6, 0.3, 0.02], 0.3 + 0.2j, 0.1, 1, 0.5)  # a degenerate problem
@example([1.35, 0.675, 0.45], -0.8, 0.1, 1, 0.5)  # a strict problem
@example([0.3, 0.2, 0.1], 1.7e308 + 1.7e308j, 0.5, 1, 0.5)  # |lambda0| overflows
@example([1.7e308 + 1.7e308j, 1, 0.1], 0.5, 0.5, 1, 0.5)  # |y_1| overflows
@example([0.1, 1, 1.7e308 + 1.7e308j], 0.5, 0.5, 1, 0.5)  # |q| overflows
def test_public_names_total_on_finite_doubles(coords, z, w, j, r):
    y = CPoint(tuple(coords))
    j = 1 + (j - 1) % (y.n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in _calls(y, z, w, j, r):
            try:
                out = call()
            except PolydiscError:
                continue
            assert _finite(out), (name, out)


# any JSON value: unbounded integers and non-finite floats included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=12,
)
_DECODERS = (CPoint.from_json, ScalarSchur.from_json, DiscFunction.from_json)
_DROP = object()  # the mutation that removes the key or list entry


@functools.cache
def _valid_json() -> tuple:
    """(decoder, valid JSON) for a point, both Schur kinds and a disc of
    every kind."""
    strict = build_interpolant(CPoint((1.35, 0.675, 0.45)), -0.8)
    discs = (strict, extremal_disc(CPoint((1.5, 0.75, 0.5)))[1],
             worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.4 - 0.1j)),
             extremal_disc(CPoint((1.0, 0.5, 1.0 / 18.0)))[1])
    schurs = (ScalarSchur("blaschke", const=0.5j, zeros=(0.2, -0.1j)), discs[2].g)
    return (
        (CPoint.from_json, CPoint((1.5 + 0.5j, 0.75, 0.5j)).to_json()),
        *((ScalarSchur.from_json, g.to_json()) for g in schurs),
        *((DiscFunction.from_json, d.to_json()) for d in discs),
    )


def _paths(obj, path=()):
    """The path of obj and of every value inside it."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(obj, path, value):
    """A copy of obj with the value at path replaced, or removed (_DROP)."""
    obj = copy.deepcopy(obj)
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _one_fault(case):
    decode, base = case
    paths = [p for p in _paths(base) if p]
    return st.tuples(st.just(decode), st.sampled_from(paths).flatmap(
        lambda path: st.one_of(st.just(_DROP), _JSON).map(lambda v: _mutated(base, path, v))))


_WORKED_DISC = worked_family(np2(0.0, 0.3, -0.8, 0.625, t=0.4 - 0.1j)).to_json()
_SCHUR = ScalarSchur("blaschke", const=0.5j, zeros=(0.2, -0.1j)).to_json()
# valid JSON but for one [re, im] pair that is not two real numbers
_BAD_PAIRS = (
    (DiscFunction.from_json, {**_WORKED_DISC, "d1": "5"}),
    (DiscFunction.from_json, {**_WORKED_DISC, "d1": [5]}),
    (DiscFunction.from_json, {**_WORKED_DISC, "d1": [True, False]}),
    (DiscFunction.from_json, _mutated(_WORKED_DISC, ("U", 0, 0), [1])),
    (DiscFunction.from_json, _mutated(_WORKED_DISC, ("U", 0, 0), "1")),
    (ScalarSchur.from_json, {**_SCHUR, "const": [0.1, 0.2, 0.3]}),
    (CPoint.from_json, {"n": 1, "coords": [[True, False]]}),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(_DECODERS), _JSON),
    st.deferred(lambda: st.sampled_from(_valid_json()).flatmap(_one_fault)),
))
@example((ScalarSchur.from_json,
          {"kind": "blaschke", "const": [1.0, 0.0], "zeros": "ab", "np2": [[0.0, 0.0]] * 5}))
@example((DiscFunction.from_json, {"kind": "diagonal", "n": 3, "swap": False,
                                   "lambda0": [10**400, 0]}))
@example(_BAD_PAIRS[0])
@example(_BAD_PAIRS[1])
@example(_BAD_PAIRS[2])
@example(_BAD_PAIRS[3])
@example(_BAD_PAIRS[4])
@example(_BAD_PAIRS[5])
@example(_BAD_PAIRS[6])
def test_json_decoders_total(case):
    # arbitrary JSON, and valid point, Schur and disc JSON with one key or
    # entry removed or one value replaced: each decoder returns or raises a
    # PolydiscError, under warnings as errors
    decode, obj = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            decode(obj)
        except PolydiscError:
            pass


@pytest.mark.parametrize("case", _BAD_PAIRS, ids=["d1-string", "d1-short", "d1-bools", "U-short",
                                                  "U-string", "const-long", "point-bools"])
def test_json_pairs_are_two_real_numbers(case):
    # a string, a short or long list or a bool in a pair was read as a
    # number, or its extra entry dropped
    decode, obj = case
    with pytest.raises(DomainError):
        decode(obj)


def test_b_matrices_off_diagonal_past_the_product_range():
    # a d = 1.1e399 overflows, its root 3.33e199 does not
    from polydisc.membership import _b_entries

    a, b, c, d = _b_entries((1e200, 1e200, 0.5), 1)
    assert b == c
    assert abs(b - 1e200 / 3.0) <= 1e-15 * 1e200
    assert np.isfinite([a, b, c, d]).all()


# One gate per kind of argument: every number a caller passes goes through
# mobius._number, every grid through mobius.circle, every count through the
# one count check.  Each row names an entry point and a value it must refuse
# with DomainError; the values once escaped as OverflowError, TypeError,
# ValueError or ZeroDivisionError, came back as NaN, or were used as given
# (a grid of 8.5 sampled an arc of the circle, samples=0 measured a sup on
# no point).  Plain parametrization, so no draw moves the cases.
_STRICT = CPoint((1.35, 0.675, 0.45))  # in tilde-G_3, strict at lambda0 = -0.8
_SLICE = CPoint((1.5, 0.75, 0.5))  # the worked point, on the slice J_3
_DISC = worked_family(np2(0.0, 0.3, -0.8, 0.625))
_NUMBER_CALLS = {
    "CPoint": lambda v: CPoint((v, 0.0)),
    "scale": lambda v: CPoint((0.5, 0.25)).scale(v),
    "symmetrize": lambda v: symmetrize([v, 0.5]),
    "SchwarzProblem": lambda v: SchwarzProblem(lambda0=v, target=_STRICT),
    "nu_window": lambda v: nu_window(_STRICT, v),
    "build_interpolant": lambda v: build_interpolant(_STRICT, v),
    "slice_interpolant": lambda v: slice_interpolant(_SLICE, v),
    "gn_schwarz_bound": lambda v: gn_schwarz_bound(symmetrize([0.1, 0.2]), v, grid=16),
    "default_q": lambda v: default_q(np.diag([0.2, 0.1]).astype(complex), [1.0, 1.0], v),
    "np2": lambda v: np2(v, 0.3, -0.8, 0.625),
    "mobius_dist": lambda v: mobius_dist(v, 0),
    "phi": lambda v: phi(1, _STRICT, v),
    "costara_f": lambda v: costara_f(_STRICT, v),
    "schur_call": lambda v: ScalarSchur("blaschke", const=0.5, zeros=(0.2,))(v),
    "disc_call": lambda v: _DISC(v),
    "disc_core": lambda v: _DISC.core(v),
    # each part of a JSON pair, where a list is not a number
    "point_json": lambda v: CPoint.from_json({"coords": [[v, 0.0]]}),
    "schur_json_const": lambda v: ScalarSchur.from_json({**_SCHUR, "const": [v, 0.0]}),
    "disc_json_lambda0": lambda v: DiscFunction.from_json({**_WORKED_DISC, "lambda0": [0.0, v]}),
    "disc_json_d1": lambda v: DiscFunction.from_json({**_WORKED_DISC, "d1": [v, 0.0]}),
}
_NUMBERS = {"1e400": 10**400, "nan": math.nan, "inf": math.inf, "str": "x", "array": np.array([0.5])}
_GRID_CALLS = {
    "sup_on_torus": lambda g: sup_on_torus(1, _STRICT, g),
    "costara_sup": lambda g: costara_sup(symmetrize([0.1, 0.2]), g),
    "carath_lower": lambda g: carath_lower(_SLICE, g),
    "nonvanishing_falsifier": lambda g: nonvanishing_falsifier(_STRICT, 1, g),
    "distance_report": lambda g: distance_report(_SLICE, g),
}
_GRIDS = {"0": 0, "-3": -3, "7": 7, "8.5": 8.5, "True": True, "None": None, "str": "8", "list": [8]}
_COUNT_CALLS = {
    "separating_polynomial": lambda k: separating_polynomial(CPoint((4.0, 0.0, 0.0)), samples=k),
    "identity_regressions": lambda k: identity_regressions(k),
}
_COUNTS = {"0": 0, "-1": -1, "2.5": 2.5, "True": True, "None": None, "str": "3"}
# a real parameter passes the one real-number gate: these escaped as TypeError
_REAL_CALLS = {
    "nu": lambda v: build_interpolant(_STRICT, -0.8, nu=v),
    "rho": lambda v: k_rho(np.diag([0.2, 0.1]), v),
}
_REALS = {"str": "x", "complex": 1j, "list": [0.5], "None": None}
_REFUSALS = [
    pytest.param(call, v, id=f"{name}-{label}")
    for calls, values in ((_NUMBER_CALLS, _NUMBERS), (_GRID_CALLS, _GRIDS), (_COUNT_CALLS, _COUNTS),
                          (_REAL_CALLS, _REALS))
    for name, call in calls.items()
    for label, v in values.items()
    # phi and costara_f map over an array z by design
    if not (label == "array" and name in ("phi", "costara_f"))
]


@pytest.mark.parametrize("call, value", _REFUSALS)
def test_numbers_grids_and_counts_pass_one_gate(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)


# Refusals one call reaches that no gate row above reaches, each with the
# type and the message it must raise.
_ONE_CALL_REFUSALS = {
    "k_rho-rho-1": (lambda: k_rho(0.5 * np.eye(2), 1.0), DomainError, r"rho must lie in \[0, 1\)"),
    "k_rho-unit-Z": (lambda: k_rho(np.eye(2), 0.5), DomainError, r"Z must be a strict contraction"),
    "np2-t-2": (lambda: np2(0j, 0.1, 0.5, 0.2, t=2), DomainError, r"\|t\| must be at most 1"),
    "check_condition-99": (lambda: check_condition(SchwarzProblem(lambda0=-0.8, target=_STRICT), 99),
                           DomainError, r"condition must be one of \(2, 3, 4, 5, 6, 7, 8, 9, 10, 11\)"),
    "noncircular_witness-1": (lambda: noncircular_witness(1), DomainError, r"needs n >= 2"),
    # nu^2 = 1 lies in the nu window: only the sign refuses it
    "build_interpolant-nu-negative": (lambda: build_interpolant(_STRICT, -0.8, nu=-1.0), DomainError,
                                      r"nu must be positive"),
    **{f"{name}-n-1": (lambda f=f: f(CPoint((0.5,))), DomainError,
                       r"extended symmetrized polydisc needs n >= 2")
       for name, f in (("in_tilde_g", in_tilde_g), ("in_tilde_gamma", in_tilde_gamma))},
    "nu_window-n-4": (lambda: nu_window(CPoint((0.4, 0.3, 0.2, 0.1)), 0.9), DomainError,
                      r"this operation is stated for n = 3"),
    "nu_window-degenerate": (lambda: nu_window(CPoint((0.3, 0.3, 0.01)), 0.9), DegenerateProblemError,
                             r"y_1 y_2 = 9 q: use the diagonal construction"),
    "build_interpolant-n-4": (lambda: build_interpolant(CPoint((0.4, 0.3, 0.2, 0.1)), 0.9), DomainError,
                              r"build_interpolant is the n = 3 constructor"),
    # y_1 y_2 = 9 q, and the diagonal's sup-norm 0.3 equals |lambda0|
    "build_interpolant-degenerate-on-the-bound": (
        lambda: build_interpolant(CPoint((0.9, 0.9, 0.09)), 0.3), MarginalProblemError,
        r"degenerate data sits on the Schwarz bound"),
    "build_interpolant-Qlin": (
        lambda: build_interpolant(CPoint((0.675, 0.3375, 0.225)), -0.8, Qlin=np.eye(2)), DomainError,
        r"Q0 \+ lambda Qlin can leave the Schur class"),
    "worked_family-g0": (lambda: worked_family(np2(0, 0.5, -0.8, 0.625)), DomainError,
                         r"family requires g\(0\) = 3/10"),
    # |f_s| passes the double range on the grid, though every coefficient is finite
    **{f"costara_sup-grid-{grid}": (
        lambda grid=grid: costara_sup(CPoint((2.1208340515676713e+294 + 1.769381242000228e+294j,
                                              -1.7835636393050255e+291 - 7.74997838254843e+291j,
                                              -3.4181337124713065e+307 + 4.092362376395085e+307j)), grid),
        DomainError, r"sup is not finite: f_s overflows on the grid") for grid in (64, 4096)},
    # u(alpha) = 0, as [Z]_11 = 0 and alpha_2 = -alpha_1 [Z]_21, and [Z]_22 is nonzero
    "default_q-u-zero": (lambda: default_q(np.array([[0, 0.3], [0.2, 0.5]], dtype=complex), [1, -0.2], 0.5),
                         DegenerateProblemError, r"u\(alpha\) = 0 with \[Z\]_22 nonzero"),
    # the denominator's root 0.5 is in the disc, and Horner's rule on the
    # numerator there passes the double range to NaN
    "costara_sup-pole": (lambda: costara_sup(CPoint((0.0, -1.475e307, -5.9e307, 4.25e307))), DomainError,
                         r"the numerator of f_s overflows at a pole"),
}


@pytest.mark.parametrize("call, kind, message",
                         [pytest.param(*row, id=name) for name, row in _ONE_CALL_REFUSALS.items()])
def test_one_call_refusals_raise_their_named_error(call, kind, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolydiscError) as info:
            call()
    assert type(info.value) is kind
    assert re.fullmatch(message, str(info.value))


# The same one-gate rule for the band, a batch, a 2x2 matrix and the fields
# of a disc record.  Before these gates a band outside (0, 1e-3] gave a
# verdict (in_gamma said False for a point of G_2 at band -1), a batch with
# a NaN row gave True and a list raised AttributeError, a matrix numpy could
# not read let numpy's ValueError out, and a record kept a field it could
# not use until its first evaluation or its JSON.  Each ceiling row is
# refused before the work it would size: no pool, grid or draw is started.
_BAND_PROBES = _probes()
_BANDS = {"0": 0, "-1e-7": -1e-7, "2e-3": 2e-3, "1e300": 1e300, "nan": math.nan, "inf": math.inf,
          "str": "x", "None": None, "True": True, "complex": 1e-7 + 1e-9j}
_MATRIX_CALLS = {
    "op_norm": op_norm,
    "herm_eig": herm_eig,
    "herm_sqrt": herm_sqrt,
    "takagi": takagi,
    "matricial_mobius": lambda Z: matricial_mobius(Z, np.zeros((2, 2))),
    "k_rho": lambda Z: k_rho(Z, 0.5),
    "default_q": lambda Z: default_q(Z, [1.0, 1.0], 0.5),
}
_MATRICES = {"str": "x", "ragged": [[1.0, 2.0], [3.0]]}
_SEPARATING = separating_polynomial(CPoint((4.0, 0.0, 0.0)), samples=4)
# alpha and the points of a separating polynomial pass the array reader: the
# first escaped as numpy's ValueError or was read as a 2-vector from a 2-D
# array, the second raised AttributeError or evaluated a NaN row (to NaN), a
# 1-D array or rows of another width
_ARRAY_ARGS = {
    "alpha": (lambda v: default_q(np.diag([0.2, 0.1]), v, 0.5),
              {"str": "x", "three": [1.0, 2.0, 3.0], "one": [1.0], "None": None, "2-D": [[1.0, 1.0]]}),
    "points": (lambda v: _SEPARATING.values(v),
               {"nan-row": np.array([[math.nan, 0.0, 0.0]]), "inf-row": np.array([[0.1, math.inf, 0.0]]),
                "1-D": np.zeros(3), "width-2": np.zeros((2, 2)), "width-4": np.zeros((1, 4)),
                "str": "x", "None": None}),
}
_MOBIUS_DISC = build_interpolant(_STRICT, -0.8)
_DIAGONAL_DISC = extremal_disc(CPoint((0.3, 0.0)))[1]
_RECORDS = {
    **{f"schur-kind-{label}": (lambda v: ScalarSchur(v), v)
       for label, v in (("str", "x"), ("None", None), ("list", ["blaschke"]))},
    **{f"schur-const-{label}": (lambda v: ScalarSchur("blaschke", const=v), v)
       for label, v in (("1e400", 10**400), ("nan", math.nan), ("str", "x"))},
    **{f"schur-zeros-{label}": (lambda v: ScalarSchur("blaschke", zeros=v), v)
       for label, v in (("int", 5), ("list", [0.2]), ("nan", (math.nan,)), ("str", ("x",)))},
    **{f"schur-{name}-{label}": (lambda v, name=name: ScalarSchur("np2", **{name: v}), v)
       for name in ("a", "wa", "b", "c1", "t") for label, v in (("str", "x"), ("nan", math.nan))},
    **{f"disc-lambda0-{label}": (lambda v: dataclasses.replace(_DISC, lambda0=v), v)
       for label, v in (("str", "x"), ("nan", math.nan), ("1e400", 10**400))},
    **{f"disc-d1-{label}": (lambda v: dataclasses.replace(_DISC, d1=v), v)
       for label, v in (("str", "x"), ("nan", math.nan))},
    **{f"disc-Z-{label}": (lambda v: dataclasses.replace(_MOBIUS_DISC, Z=v), v)
       for label, v in (("str", "x"), ("ragged", [[0.1, 0.0], [0.0]]), ("nan", [[math.nan, 0], [0, 0]]),
                        ("3x3", np.zeros((3, 3))))},
    **{f"disc-U-{label}": (lambda v: dataclasses.replace(_DISC, U=v), v)
       for label, v in (("str", "x"), ("ragged", [[1.0, 0.0], [0.0]]))},
    **{f"disc-g-{label}": (lambda v: dataclasses.replace(_DISC, g=v), v)
       for label, v in (("str", "x"), ("int", 5))},
    "disc-f-str": (lambda v: dataclasses.replace(_DIAGONAL_DISC, f=v), "x"),
}
_CEILINGS = {  # (call, the ceiling the count may not pass)
    "circle": (circle, 2**20),
    "nonvanishing_falsifier": (lambda g: nonvanishing_falsifier(_STRICT, 1, g), 2**10),
    "separating_polynomial": (lambda k: separating_polynomial(CPoint((4.0, 0.0, 0.0)), samples=k), 2**14),
    "identity_regressions": (identity_regressions, 2**24),
}
# a point passes one gate, mobius._point: before it every public name that
# takes a point, and a separating polynomial's call, let AttributeError
# escape on anything but a CPoint
_POINT_CALLS = {
    "in_tilde_g": in_tilde_g,
    "in_tilde_gamma": in_tilde_gamma,
    "in_g": in_g,
    "in_gamma": in_gamma,
    "in_b_gamma": in_b_gamma,
    "in_J_n": in_J_n,
    "costara_f": lambda y: costara_f(y, 0.5),
    "costara_sup": lambda y: costara_sup(y, 16),
    "nonvanishing_falsifier": lambda y: nonvanishing_falsifier(y, 1, 16),
    "phi": lambda y: phi(1, y, 0.5),
    "d_norm": lambda y: d_norm(1, y),
    "sup_on_torus": lambda y: sup_on_torus(1, y, 16),
    "dist_formula": dist_formula,
    "carath_lower": lambda y: carath_lower(y, grid=16),
    "lempert_upper": lempert_upper,
    "distance_report": lambda y: distance_report(y, grid=16),
    "separating_polynomial": lambda y: separating_polynomial(y, samples=4),
    "SchwarzProblem": lambda y: SchwarzProblem(lambda0=-0.8, target=y),
    "gn_schwarz_bound": lambda y: gn_schwarz_bound(y, 0.5, grid=16),
    "nu_window": lambda y: nu_window(y, -0.8),
    "build_interpolant": lambda y: build_interpolant(y, -0.8),
    "slice_interpolant": lambda y: slice_interpolant(y, -0.8),
    "extremal_disc": extremal_disc,
}
_NON_POINTS = {"str": "x", "tuple": (0.1, 0.2, 0.3), "list": [0.1, 0.2, 0.3]}


def _point_names() -> set[str]:
    """The public names of the package with a parameter annotated CPoint (a
    string under postponed annotations, a ForwardRef in a named tuple), but
    the report record, which only the package builds, from a point it read."""
    return {
        name for name, params in _public_parameters()
        if any(getattr(p.annotation, "__forward_arg__", p.annotation) == "CPoint" for p in params.values())
    } - {"MembershipReport"}


def test_every_point_name_has_a_gate_row():
    assert set(_POINT_CALLS) == _point_names()


_GATE_ROWS = [
    *(pytest.param(call, v, id=f"point-{name}-{label}")
      for name, call in {**_POINT_CALLS, "SeparatingPoly.__call__": _SEPARATING}.items()
      for label, v in _NON_POINTS.items()),
    *(pytest.param(lambda b, name=name: getattr(polydisc, name)(
        *_BAND_PROBES[name][0], **_BAND_PROBES[name][1], band=b), v, id=f"band-{name}-{label}")
      for name in sorted(_banded_names()) for label, v in _BANDS.items()),
    *(pytest.param(call, v, id=f"matrix-{name}-{label}")
      for name, call in _MATRIX_CALLS.items() for label, v in _MATRICES.items()),
    *(pytest.param(call, v, id=f"array-{name}-{label}")
      for name, (call, values) in _ARRAY_ARGS.items() for label, v in values.items()),
    *(pytest.param(call, v, id=f"record-{label}") for label, (call, v) in _RECORDS.items()),
    *(pytest.param(call, v, id=f"ceiling-{name}-{label}")
      for name, (call, most) in _CEILINGS.items() for label, v in (("over", most + 1), ("1e400", 10**400))),
]


@pytest.mark.parametrize("call, value", _GATE_ROWS)
def test_bands_batches_matrices_and_records_pass_one_gate(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)


def test_every_band_refusal_names_the_band_range():
    # one band gate: each public name refuses with the message the CLI prints
    for name in sorted(_banded_names()):
        args, kwargs, _, _ = _BAND_PROBES[name]
        with pytest.raises(DomainError, match=r"^band must lie in \(0, 1e-3\]$"):
            getattr(polydisc, name)(*args, **kwargs, band=-1.0)


def test_nested_lists_read_as_their_arrays():
    # an alpha or the points of a separating polynomial as nested lists give
    # what their arrays give, and a disc built from list matrices is the disc
    # of their arrays
    rng = np.random.default_rng(7)
    y = np.array([sampling.tilde_g_point(3, rng).coords for _ in range(5)]
                 + [sampling.exterior_point(3, rng).coords for _ in range(5)])
    d = _MOBIUS_DISC
    listed = DiscFunction(kind=d.kind, n=d.n, lambda0=d.lambda0, Z=d.Z.tolist(), Q0=d.Q0.tolist())
    assert json.dumps(listed.to_json()) == json.dumps(d.to_json())
    assert listed.values([0.1, -0.5j]).tobytes() == d.values([0.1, -0.5j]).tobytes()
    assert ScalarSchur("blaschke", const=1).to_json() == ScalarSchur("blaschke", const=1 + 0j).to_json()
    Z, alpha = np.diag([0.2, 0.1]).astype(complex), np.array([1.0, 0.5j])
    assert default_q(Z.tolist(), alpha.tolist(), 0.5).tobytes() == default_q(Z, alpha, 0.5).tobytes()
    assert _SEPARATING.values(y.tolist()).tobytes() == _SEPARATING.values(y).tobytes()
