"""The library names the benchmark's tracer wraps from outside.

perfbench/tracing.py patches module attributes and class methods by
name for the length of a traced run. These tests install that tracer on
the library and fail when a rename, or a call that no longer goes
through the patched name, would break the traced benchmark or leave a
layer uncounted.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

from oddsgamma import (
    GammaRatioDist,
    OEGammaDist,
    family,
    fit,
    make_exponential,
    quadrature,
    specfun,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tr = tracing.Tracer()
    lib = types.SimpleNamespace(family=family, specfun=specfun, quadrature=quadrature, fit=fit)
    # install raises AttributeError for any name it patches that is missing
    tr.install(lib)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_install_patches_and_uninstall_restores(tracer):
    patched = list(tracer._patches)
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original, attr
    tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_node_maps_reach_the_vector_inverses_through_family_globals(tracer):
    d = GammaRatioDist(0.5, 1.0, make_exponential(1.0))
    tracer.begin_op(0)
    d.quantile(np.array([0.1, 0.2, 0.3]))
    d.quantile_sf(np.array([0.1, 0.2]))
    tracer.end_op(True)
    assert tracer.totals["specfun.inverse.calls"] == 2
    assert tracer.totals["specfun.inverse.points"] == 5


def test_scalar_quantiles_reach_the_scalar_inverses(tracer):
    tracer.begin_op(0)
    GammaRatioDist(0.5, 1.0, make_exponential(1.0)).quantile(0.3)
    OEGammaDist(0.5, 1.0, 1.0).quantile_sf(1e-9)
    tracer.end_op(True)
    assert tracer.totals["specfun.inverse.calls"] == 2
    assert tracer.totals["specfun.inverse.points"] == 2


def test_moment_quadrature_counted(tracer):
    # the moment pass runs on the tanh-sinh rule, which the tracer does
    # not wrap, on gamma-scale nodes, which invert no gamma; a quantile
    # on the same instance reaches the inverses the tracer wraps
    d = OEGammaDist(2.0, 1.0, 3.0)
    tracer.begin_op(0)
    d.moment_quadrature(1)
    tracer.end_op(True)
    assert d._abscissae
    assert tracer.totals["family.moment_quadrature.calls"] == 1
    assert tracer.totals["specfun.inverse.points"] == 0
    tracer.begin_op(1)
    d.quantile(quadrature.tanh_sinh_levels(0))
    tracer.end_op(True)
    assert tracer.totals["specfun.inverse.points"] == quadrature.tanh_sinh_levels(0).size
