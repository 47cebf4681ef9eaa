"""Shared fixtures: the flood dataset, session-cached fits, and the
acceptance-criteria summary block printed after the run."""

import time

import numpy as np
import pytest

from oddsgamma import get_model, gof_report, mle_fit, wheaton


@pytest.fixture(scope="session")
def flood_values():
    return np.asarray(wheaton().values, dtype=float)


@pytest.fixture(scope="session")
def fits(flood_values):
    """Fit each comparison model once; entries are (FitResult, GofReport, seconds)."""
    out = {}
    for name in ("m1", "m2", "m6"):
        model = get_model(name)
        t0 = time.perf_counter()
        res = mle_fit(model, flood_values)
        rep = gof_report(model, flood_values, res.theta_hat, res.loglik)
        out[name] = (res, rep, time.perf_counter() - t0)
    return out


@pytest.fixture
def avx512_bits():
    """Skip where numpy lacks its AVX-512 kernels for exp, log and pow:
    value bits pinned as literals are those kernels' bits, and numpy's
    fallback to the C library may differ in the last bit."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("AVX512_SKX", False):
        pytest.skip("bits pinned with numpy's AVX-512 kernels")


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def record(request):
    """Record one PASS/FAIL line per acceptance criterion, then assert."""

    def _record(num, text, errors):
        verdict = "PASS" if not errors else "FAIL"
        request.config._criterion_lines.append(
            (num, "criterion %2d %s: %s" % (num, verdict, text))
        )
        assert not errors, "criterion %d: %s" % (num, "; ".join(errors))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)
