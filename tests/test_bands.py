"""Every public `band` is read: for each public name whose signature takes a
band, one call whose result moves between two bands.  A band no result
reads is a setting that does nothing; drop it, or give it a probe here."""

import inspect
import json
import types

import numpy as np

import polydisc
from polydisc import CPoint, SchwarzProblem, costara_sup, d_norm, symmetrize
from polydisc.sampling import tilde_gamma_boundary_point

# the builders and the distances read from them decide their edges from the
# data at the fixed membership.BOUNDARY_BAND: none takes a band
_UNBANDED_BUILDERS = ("nu_window", "build_interpolant", "slice_interpolant",
                      "extremal_disc", "lempert_upper", "distance_report")


def _public_parameters():
    """(name, parameters) of each public callable of the package with a signature."""
    for name, obj in vars(polydisc).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        try:
            yield name, inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue


def _banded_names() -> set[str]:
    """The public names of the package whose signature has a band."""
    return {name for name, params in _public_parameters() if "band" in params}


def _probes() -> dict:
    """name -> (args, kwargs, band, other band): the call of that name with
    each band gives a different result."""
    rng = np.random.default_rng(20240817)
    edge = tilde_gamma_boundary_point(3, rng)
    inside, outside = edge.scale(1.0 - 1e-9), edge.scale(1.0 + 1e-9)  # C7 slack ~1e-9
    g_in, g_out = symmetrize([0.5, 1.0 - 1e-9]), symmetrize([0.5, 1.0 + 1e-9])
    torus_out = symmetrize([1j, np.exp(0.3j) * (1.0 + 1e-9)])
    # the sliver: sup-norm 1.5e-7 under |lambda0| (the Moebius-route data of
    # test_interpolation), strict at band 1e-7 and marginal at 1e-6
    y = CPoint((-0.64 + 0.204j, -0.394 + 0.501j, -0.094 - 0.729j))
    lam0 = d_norm(1, y) + 1.5e-7
    sliver = SchwarzProblem(lambda0=lam0, target=y)
    flags, route = (1e-7, 1e-12), (1e-7, 1e-6)
    return {
        # boundary flags and closed verdicts of near-boundary points
        "in_g": ((g_in,), {}, *flags),
        "in_gamma": ((g_out,), {}, *flags),
        "in_b_gamma": ((torus_out,), {}, *flags),
        "in_tilde_g": ((inside,), {"cond": "C7"}, *flags),
        "in_tilde_gamma": ((outside,), {"cond": "C7"}, *flags),
        "gn_schwarz_bound": ((g_in, costara_sup(g_in, 512) + 1e-9), {"grid": 512}, *flags),
        "check_condition": ((sliver, 3), {}, *route),
        # the sliver's certificate route
        "schur_certificates": ((sliver,), {}, *route),
    }


def _result(call):
    """A call's value as JSON, or its exception's type and message."""
    try:
        out = call()
    except polydisc.PolydiscError as exc:
        return type(exc), str(exc)

    def plain(o):
        if hasattr(o, "to_json"):
            return o.to_json()
        return o.tolist() if isinstance(o, (np.ndarray, np.generic)) else repr(o)

    return json.dumps(out, default=plain, sort_keys=True)


def test_every_public_band_is_read():
    probes = _probes()
    assert set(probes) == _banded_names()
    for name in _UNBANDED_BUILDERS:
        assert "band" not in inspect.signature(getattr(polydisc, name)).parameters, name
    for name, (args, kwargs, band, other) in probes.items():
        fn = getattr(polydisc, name)
        results = [_result(lambda b=b: fn(*args, **kwargs, band=b)) for b in (band, other)]
        assert results[0] != results[1], name

