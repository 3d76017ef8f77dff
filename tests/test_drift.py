"""Drift evaluators: exactness at the Gaussian order, agreement with
direct high-precision summation, and the truncation-matching index."""

import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flmc.drift import (DriftOverflowError, FullCentered, Simplified,
                        full_drift, kappa)
from flmc.riesz import c_alpha, coeff
from flmc.sampler import Constant, SamplerConfig, _drift_fn
from flmc.targets import Target, double_well_target, gaussian_target

DW = double_well_target()


def simplified_drift(target, x, alpha):
    """The simplified drift as the sampler applies it."""
    cfg = SamplerConfig(alpha=alpha, drift_spec=Simplified(),
                        schedule=Constant(0.01), iterations=1, seed=0)
    return _drift_fn(cfg, target, None)(x)


def _mp_direct_drift(x, alpha, h, K):
    """Direct two-sided summation at 60 decimal digits, no factoring."""
    with mpmath.workdps(60):
        gam = mpmath.mpf(alpha) - 2
        c102, c006, c5204, c05 = (mpmath.mpf(v) for v in (1.02, 0.06, 52.04, 0.5))

        def U(v):
            return (v + 5) * (v + 1) * (v - c102) * (v - 5) / 10 + c05

        def dU(v):
            return (4 * v**3 - c006 * v**2 - c5204 * v + c05) / 10

        def g(k):
            return ((-1) ** k * mpmath.gamma(gam + 1)
                    / (mpmath.gamma(gam / 2 - k + 1) * mpmath.gamma(gam / 2 + k + 1)))

        xm = mpmath.mpf(x)
        hm = mpmath.mpf(h)
        ux = U(xm)
        total = mpmath.mpf(0)
        for k in range(-K, K + 1):
            n = xm - k * hm
            total += g(abs(k)) * (-dU(n)) * mpmath.e**(ux - U(n))
        return float(total / hm**gam)


# ---------------------------------------------------------------------------
# spec dataclasses
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        FullCentered(h=0.0, K=10)
    with pytest.raises(ValueError):
        FullCentered(h=0.1, K=0)
    Simplified()


def test_alpha_domain():
    spec = FullCentered(0.1, 5)
    for bad in (1.0, 0.5, 2.1):
        with pytest.raises(ValueError):
            full_drift(DW, 0.0, spec, bad)
        with pytest.raises(ValueError):
            simplified_drift(DW, 0.0, bad)


# ---------------------------------------------------------------------------
# simplified drift
# ---------------------------------------------------------------------------

def test_simplified_drift_fixture(oracle_values):
    ref = oracle_values["simplified_drift_gauss_x2_a15"]
    t = gaussian_target(0.0, 1.0)
    out = simplified_drift(t, 2.0, 1.5)
    assert out == pytest.approx(ref["value"], abs=ref["tolerance"])


def test_simplified_drift_is_plain_gradient_at_two():
    assert simplified_drift(DW, 1.7, 2.0) == -DW.gradient(1.7)


def test_simplified_drift_vector():
    t = gaussian_target(np.zeros(3), 1.0)
    x = np.array([1.0, -2.0, 0.5])
    assert simplified_drift(t, x, 1.5) == pytest.approx(-c_alpha(1.5) * x)


# ---------------------------------------------------------------------------
# full centered drift
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(x=st.floats(-4.0, 4.0))
def test_gaussian_order_collapses_to_gradient(x):
    # gamma = 0 makes the operator the identity: the drift must equal
    # -U'(x) exactly, not approximately
    spec = FullCentered(0.06, 170)
    assert full_drift(DW, x, spec, 2.0) == -DW.gradient(x)


def test_symmetric_point_gives_exact_zero():
    t = gaussian_target(0.0, 1.0)
    out = full_drift(t, 0.0, FullCentered(0.05, 60), 1.5)
    assert out == 0.0


def test_double_well_against_direct_summation():
    alpha, h, K = 1.7, 0.06, 170
    out = full_drift(DW, 0.0, FullCentered(h, K), alpha)
    ref = _mp_direct_drift(0.0, alpha, h, K)
    assert out == pytest.approx(ref, rel=1e-10)
    out2 = full_drift(DW, 2.0, FullCentered(h, K), alpha)
    ref2 = _mp_direct_drift(2.0, alpha, h, K)
    assert out2 == pytest.approx(ref2, rel=1e-10)


def test_factored_form_matches_naive_where_naive_survives():
    # gentle quartics keep exp(+-U) in range, so the unfactored float
    # summation is valid and must agree with the production path
    rng = np.random.default_rng(314)
    spec = FullCentered(0.05, 40)
    for _ in range(25):
        a4 = rng.uniform(0.01, 0.1)
        a2 = rng.uniform(-1.0, 1.0)
        a1 = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(1.1, 1.95)
        x = rng.uniform(-2.0, 2.0)
        t = Target(dim=1,
                   potential=lambda v, a4=a4, a2=a2, a1=a1:
                       a4 * v**4 + a2 * v**2 + a1 * v,
                   gradient=lambda v, a4=a4, a2=a2, a1=a1:
                       4 * a4 * v**3 + 2 * a2 * v + a1)
        gamma = alpha - 2.0
        ks = np.arange(-spec.K, spec.K + 1)
        nodes = x - ks * spec.h
        g = np.array([coeff(gamma, int(k)) for k in ks])
        naive = float(np.sum(
            g * (-t.gradient(nodes)) * np.exp(t.potential(x) - t.potential(nodes))
        ) / spec.h**gamma)
        assert full_drift(t, x, spec, alpha) == pytest.approx(naive, rel=1e-10)


def test_overflow_raises_with_location():
    with pytest.raises(DriftOverflowError) as exc:
        full_drift(DW, 40.0, FullCentered(0.06, 170), 1.7)
    assert exc.value.x == 40.0
    assert exc.value.ell_star > 709.0


def test_gaussian_order_overflow_is_drift_overflow():
    # at alpha = 2 the drift is -U'(x); the double well's product-form U'
    # passes the float range without raising, and a drift of -inf must
    # surface as the drift's own error
    with pytest.raises(DriftOverflowError) as exc:
        full_drift(DW, 1e103, FullCentered(0.06, 5), 2.0)
    assert exc.value.x == 1e103
    with pytest.raises(DriftOverflowError):
        full_drift(DW, 5e102, FullCentered(0.06, 5), 2.0)


def test_gradient_overflow_error_is_drift_overflow():
    # a target whose own ** raises OverflowError on a Python float: at
    # alpha = 2 that error is the drift's overflow too
    power = Target(dim=1, potential=lambda x: x**4, gradient=lambda x: 4.0 * x**3)
    with pytest.raises(DriftOverflowError) as exc:
        full_drift(power, 1e103, FullCentered(0.06, 5), 2.0)
    assert exc.value.x == 1e103


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(st.just(2.0), st.floats(1.0, 2.0, exclude_min=True)),
       h=st.floats(1e-3, 1.0), K=st.integers(1, 60),
       x=st.floats(-1e300, 1e300))
def test_full_drift_finite_or_overflow_error(alpha, h, K, x):
    try:
        b = full_drift(DW, x, FullCentered(h, K), alpha)
    except DriftOverflowError:
        return
    assert isinstance(b, float) and math.isfinite(b)


def test_full_drift_needs_vectorised_target():
    # nodes are evaluated as one array; a potential that answers a scalar
    # is a contract error, not a per-node fallback
    t = Target(dim=1, potential=lambda v: 0.0, gradient=lambda v: v)
    with pytest.raises(TypeError, match="vectorised"):
        full_drift(t, 0.5, FullCentered(0.06, 5), 1.7)


# full_drift(DW, x, FullCentered(0.06, K), 1.5), recorded when
# double_well_grad moved to product form (K=1 predates the shared riesz
# stencil); the values must not move by one bit
PINNED_DRIFT = {
    1: ("-0x1.29870a160ec9fp+1", "-0x1.be8a0f923a835p+0",
        "0x1.396fba56cf09ep+0", "0x1.c9ebe38db872fp+1"),
    15: ("-0x1.21b1d95d28517p+2", "-0x1.14cc562af3052p+6",
         "0x1.023fc6e9ec3c2p+5", "0x1.12d1a96577a0cp+7"),
    30: ("-0x1.bf6aa58619d4dp+1", "-0x1.9db8decbf7586p+14",
         "0x1.4fcb1a2831740p+13", "0x1.5a1bc6e79d6f9p+7"),
    170: ("-0x1.ba6c3f04122bap+1", "-0x1.dcdcb5282df38p+16",
          "0x1.28453b71aa280p+16", "0x1.46d3e78795052p+6"),
}


@pytest.mark.parametrize("K", sorted(PINNED_DRIFT))
def test_full_drift_pinned_bits(K, pin_note):
    xs = (-3.0, -0.7, 0.5, 2.2)
    got = tuple(full_drift(DW, x, FullCentered(0.06, K), 1.5).hex() for x in xs)
    assert got == PINNED_DRIFT[K], pin_note


# sha256 of ",".join(full_drift(DW, x, FullCentered(h, K), alpha).hex()) over
# x in linspace(-4.5, 4.5, 201), recorded when double_well_grad moved to
# product form; numpy's exp differs from math.exp on a few percent of
# inputs, so a row-wise drift that let numpy take exp(ell*) would move these
PINNED_DRIFT_SWEEPS = {
    (1.5, 0.06, 15): "9ad9b87d773392479a226e950cca5134e56ff09f0c1418158a4afdfb396ff03e",
    (1.7, 0.1, 5): "8dad1c1b3c5c81253955328eaa6e0afba27fda9a51ee0bad12ca8f48915f6775",
    (1.2, 0.03, 30): "84bfbe3d6c7f9210d1c075c5b3578e6882926912c179b272908fc3f0e0a0a704",
}


@pytest.mark.parametrize("alpha,h,K", sorted(PINNED_DRIFT_SWEEPS))
def test_full_drift_pinned_sweep(alpha, h, K, pin_note):
    hexes = ",".join(full_drift(DW, float(x), FullCentered(h, K), alpha).hex()
                     for x in np.linspace(-4.5, 4.5, 201))
    digest = hashlib.sha256(hexes.encode()).hexdigest()
    assert digest == PINNED_DRIFT_SWEEPS[alpha, h, K], pin_note


# ---------------------------------------------------------------------------
# matched-truncation index
# ---------------------------------------------------------------------------

def test_kappa_degenerate_grid_gives_one():
    # at the Gaussian mean both the simplified and every truncated drift
    # vanish, so the first K already matches
    t = gaussian_target(0.0, 1.0)
    res = kappa(t, 1.6, 0.06, 50, [0.0])
    assert res.kappa_hat == 1.0
    assert res.skipped == 0
    assert res.per_point.tolist() == [1.0]


def test_kappa_smoke_double_well():
    grid = np.linspace(-5.0, 5.0, 50)
    res = kappa(DW, 1.7, 0.06, 170, grid)
    assert res.skipped == 0
    assert res.per_point.shape == (50,)
    assert not np.any(np.isnan(res.per_point))
    assert 8.9 < res.kappa_hat < 16.5
    assert np.all(res.per_point[~np.isnan(res.per_point)] >= 1.0)


def test_kappa_is_deterministic():
    grid = np.linspace(-4.0, 4.0, 20)
    r1 = kappa(DW, 1.8, 0.06, 100, grid)
    r2 = kappa(DW, 1.8, 0.06, 100, grid)
    assert r1.kappa_hat == r2.kappa_hat
    assert np.array_equal(r1.per_point, r2.per_point)


def test_kappa_pinned_per_point(pin_note):
    # recorded before kappa moved onto the shared riesz stencil
    res = kappa(DW, 1.7, 0.06, 170, np.linspace(-4.5, 4.5, 20))
    assert [v.hex() for v in res.per_point.tolist()] == [
        float(v).hex() for v in (3, 7, 4, 8, 11, 4, 4, 4, 5, 5,
                                 5, 5, 4, 4, 4, 11, 8, 4, 7, 3)], pin_note
    assert res.kappa_hat.hex() == "0x1.6000000000000p+2", pin_note


def test_kappa_skips_overflow_points():
    res = kappa(DW, 1.7, 0.06, 170, [0.0, 40.0, 2.0])
    assert res.skipped == 1
    assert np.isnan(res.per_point[1])
    assert not np.isnan(res.per_point[0])


def test_kappa_skips_a_point_where_u_overflows():
    # U(1e300) is inf: its exponent is +inf, not the NaN of inf - inf, so
    # the point is skipped rather than scored as kappa = 1
    res = kappa(DW, 1.5, 0.06, 20, [0.5, 1e300])
    assert res.skipped == 1
    assert np.isnan(res.per_point[1])
    assert res.kappa_hat == res.per_point[0]
    with pytest.raises(DriftOverflowError) as exc:
        full_drift(DW, 1e300, FullCentered(0.06, 20), 1.5)
    assert exc.value.ell_star == math.inf


def test_kappa_all_points_overflow():
    with pytest.raises(DriftOverflowError):
        kappa(DW, 1.7, 0.06, 170, [40.0, 50.0])


def test_kappa_validation():
    with pytest.raises(ValueError):
        kappa(DW, 2.0, 0.06, 170, [0.0])
    with pytest.raises(ValueError):
        kappa(DW, 1.7, 0.06, 170, [])
    # a non-finite point is no drift overflow at x = nan
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            kappa(DW, 1.7, 0.06, 20, [0.5, bad])


def test_refinement_converges_toward_reference():
    # adjacent-K error is not monotone, but the widest truncation must sit
    # far closer to the reference than the narrowest one
    h, K_star, alpha = 0.06, 170, 1.7
    xs = np.linspace(-4.5, 4.5, 20)
    ratios = []
    for x in xs:
        b_star = full_drift(DW, float(x), FullCentered(h, K_star), alpha)
        e1 = abs(full_drift(DW, float(x), FullCentered(h, 1), alpha) - b_star)
        e_last = abs(full_drift(DW, float(x), FullCentered(h, K_star - 1), alpha) - b_star)
        if e1 > 1e-12:
            ratios.append(e_last / e1)
    assert len(ratios) >= 15
    assert np.median(ratios) < 1e-3
    assert np.max(ratios) < 0.5
