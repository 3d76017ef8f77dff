"""Sanity of the reference integrators against closed forms and fixtures."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import kv

import flmc
from flmc.oracle import (QuadratureError, QuadratureSpec, SupportError,
                         adaptive_simpson, quadrature_expectation)
from flmc.targets import double_well_target, gaussian_target


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(lo=2.0, hi=-2.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tolerance=0.0)


def test_simpson_polynomial_near_exact():
    spec = QuadratureSpec(lo=0.0, hi=2.0)
    out = adaptive_simpson(lambda x: x**3 - x + 1.0, spec)
    assert out == pytest.approx(4.0 - 2.0 + 2.0, abs=1e-12)


def test_simpson_gaussian_mass():
    out = adaptive_simpson(lambda x: math.exp(-x * x / 2.0))
    assert out == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-10)


def test_gaussian_expectation_moments():
    t = gaussian_target(0.0, 1.0)
    assert quadrature_expectation(t, lambda x: x) == pytest.approx(0.0, abs=1e-8)
    assert quadrature_expectation(t, lambda x: x * x) == pytest.approx(1.0, abs=1e-6)
    t2 = gaussian_target(1.5, 0.25)
    assert quadrature_expectation(t2, lambda x: x) == pytest.approx(1.5, abs=1e-8)


def test_double_well_mean_matches_fixture(oracle_values):
    ref = oracle_values["double_well_mean"]
    out = quadrature_expectation(double_well_target(), lambda x: x)
    assert out == pytest.approx(ref["value"], abs=ref["tolerance"])


def test_double_well_second_moment_matches_fixture(oracle_values):
    ref = oracle_values["double_well_second_moment"]
    out = quadrature_expectation(double_well_target(), lambda x: x * x)
    assert out == pytest.approx(ref["value"], abs=ref["tolerance"])


def test_support_check_rejects_narrow_interval():
    t = gaussian_target(0.0, 1.0)
    with pytest.raises(SupportError):
        quadrature_expectation(t, lambda x: x, QuadratureSpec(lo=-2.0, hi=2.0))


def test_expectation_rejects_multidim():
    t = gaussian_target(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        quadrature_expectation(t, lambda x: x)


def test_refinement_budget_raises_instead_of_lying():
    # a smooth integrand a depth-2 budget cannot resolve to 1e-12
    spec = QuadratureSpec(lo=-10.0, hi=10.0, tolerance=1e-12,
                          max_refinement_depth=2)
    with pytest.raises(QuadratureError):
        adaptive_simpson(math.exp, spec)


def test_resolution_disagreement_raises_instead_of_lying():
    # a bump of width 0.01 at -9.6875, a point the 16-panel pass samples and
    # the 8-panel pass, 0.3125 away at its nearest, sees as exact zeros: the
    # coarse integral is 0.0, the fine one about 0.0177
    def spike(x):
        return math.exp(-((x + 9.6875) / 0.01) ** 2)
    with pytest.raises(QuadratureError, match="resolutions disagree: 0.0 vs"):
        adaptive_simpson(spike)


# ---------------------------------------------------------------------------
# spectral reference for the fractional derivative
# ---------------------------------------------------------------------------

def spectral_riesz(f_hat, gamma, x):
    """Fractional centered derivative of order gamma through frequency space.

    f_hat is the closed-form continuous Fourier transform of f under the
    exp(-i w x) forward convention; the operator multiplies it by |w|^gamma
    and inverts. Real-valued f gives conjugate-symmetric f_hat, so the
    integral folds onto [0, inf) with twice the real part. The spectral
    entries of fixtures/oracle_values.json are this function's values.
    """
    def integrand(w):
        val = complex(f_hat(w)) * complex(math.cos(w * x), math.sin(w * x))
        return (w ** gamma) * val.real / math.pi

    out, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    if not math.isfinite(out):
        raise QuadratureError("spectral integral did not converge")
    return out


def _gauss_hat(w):
    # transform of exp(-x^2/2) under the exp(-iwx) convention
    return math.sqrt(2.0 * math.pi) * math.exp(-w * w / 2.0)


def test_spectral_gaussian_closed_form(oracle_values):
    ref = oracle_values["gaussian_spectral_gm05_x0"]
    out = spectral_riesz(_gauss_hat, -0.5, 0.0)
    assert out == pytest.approx(ref["value"], abs=ref["tolerance"])
    assert out == pytest.approx(ref["params"]["closed_form"], abs=1e-6)


def test_spectral_identity_order_recovers_function():
    # gamma -> 0 limit is the identity operator
    out = spectral_riesz(_gauss_hat, -1e-3, 0.0)
    assert out == pytest.approx(1.0, abs=1e-3)
    out2 = spectral_riesz(_gauss_hat, 0.0, 0.3)
    assert out2 == pytest.approx(math.exp(-0.09 / 2.0), abs=1e-8)


def test_spectral_odd_function_vanishes_at_origin():
    # x*exp(-x^2/2) has transform -i*w*sqrt(2pi)*exp(-w^2/2): purely
    # imaginary, so the real part at x=0 integrates to zero
    f_hat = lambda w: -1j * w * math.sqrt(2.0 * math.pi) * math.exp(-w * w / 2.0)
    assert spectral_riesz(f_hat, -0.5, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_spectral_tail_function_fixture(oracle_values):
    ref = oracle_values["tail_spectral_gm05_x0"]

    # transform of (1+x^2)^(-p): c * |w|^(p-1/2) * K_{p-1/2}(|w|)
    p = ref["params"]["nu"]
    order = p - 0.5
    c = 2.0**p * math.sqrt(math.pi) / math.gamma(p)

    def f_hat(w):
        if w == 0.0:
            # w^o K_o(w) -> 2^(o-1) Gamma(o) as w -> 0
            return c * 2.0 ** (order - 1.0) * math.gamma(order)
        return c * abs(w) ** order * kv(order, abs(w))

    out = spectral_riesz(f_hat, -0.5, 0.0)
    assert out == pytest.approx(ref["value"], abs=ref["tolerance"])


# a fresh interpreter loads numpy and the numpy.random extensions the noise
# draws from, then every flmc module, and runs a sample and a kappa command
_IMPORT_GRAPH_SCRIPT = """
import json, sys
import numpy, numpy.random

def top_level():
    return {k.split(".")[0] for k in sys.modules}

numpy_only = top_level()
import flmc, flmc.cli, flmc.drift, flmc.oracle, flmc.riesz, flmc.sampler
import flmc.stable, flmc.targets
rc = [flmc.cli.main(["sample", "--n", "20", "--stride", "1",
                     "--out", sys.argv[1] + "/t.csv"]),
      flmc.cli.main(["kappa", "--alpha", "1.7", "--k-star", "20",
                     "--grid-n", "5", "--out", sys.argv[1] + "/k.csv"])]
added = top_level() - numpy_only - set(sys.stdlib_module_names)
print(json.dumps({"rc": rc, "added": sorted(added),
                  "scipy": sorted(k for k in sys.modules
                                  if k.split(".")[0] == "scipy")}))
"""


def test_cli_import_and_sample_load_no_scipy(tmp_path):
    # numpy is the one runtime dependency: importing flmc and running its
    # commands loads no third-party module that numpy does not
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(flmc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["rc"] == [0, 0]
    assert out["scipy"] == []
    assert out["added"] == ["flmc"]
