"""Coefficient identities and convergence behavior of the truncated
fractional centered-difference operator."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flmc.riesz import (NodeEvaluationError, RieszStencil, ascending_sum,
                        build_stencil, c_alpha, coeff,
                        truncated_centered_difference)


def _direct_coeff(gamma, k):
    # (-1)^k Gamma(gamma+1) / (Gamma(gamma/2 - k + 1) Gamma(gamma/2 + k + 1)),
    # evaluated at high precision; mpmath handles the negative arguments
    with mpmath.workdps(50):
        g = mpmath.mpf(gamma)
        val = ((-1) ** k * mpmath.gamma(g + 1)
               / (mpmath.gamma(g / 2 - k + 1) * mpmath.gamma(g / 2 + k + 1)))
        return float(val)


def test_gamma_domain():
    with pytest.raises(ValueError):
        coeff(-1.0, 0)
    with pytest.raises(ValueError):
        coeff(2.5, 0)
    with pytest.raises(ValueError):
        build_stencil(-1.2, 0.1, 10)
    with pytest.raises(ValueError):
        build_stencil(-0.5, 0.0, 10)
    with pytest.raises(ValueError):
        build_stencil(-0.5, 0.1, 0)
    # the outermost node sits K*h from the state
    for h, K in ((math.inf, 1), (1e308, 170)):
        with pytest.raises(ValueError, match="finite"):
            build_stencil(-0.5, h, K)
    assert build_stencil(-0.5, 1e308, 1).steps[-1] == 1e308
    # the drift divides by h**gamma, which must neither overflow nor vanish
    for gamma, h, K in ((-0.99, 1e-320, 5), (1.5, 1e-300, 1)):
        with pytest.raises(ValueError, match="h\\*\\*gamma"):
            build_stencil(gamma, h, K)


def test_coeff_anchor_values():
    assert coeff(0.0, 0) == 1.0
    assert coeff(-0.5, 0) == pytest.approx(1.18035, abs=1e-5)
    assert coeff(2.0, 1) == -1.0
    assert coeff(2.0, 2) == 0.0


def test_second_difference_stencil_exact():
    s = build_stencil(2.0, 0.1, 6)
    assert s.coeffs[0] == 2.0
    assert s.coeffs[1] == -1.0
    assert np.all(s.coeffs[2:] == 0.0)


def test_identity_order_stencil():
    s = build_stencil(0.0, 1.0, 5)
    assert s.coeffs[0] == 1.0
    assert np.all(s.coeffs[1:] == 0.0)


def test_recurrence_matches_direct_formula():
    for gamma in (-0.9, -0.5, -0.1):
        for k in range(21):
            direct = _direct_coeff(gamma, k)
            assert coeff(gamma, k) == pytest.approx(direct, rel=1e-10)


def test_coeff_symmetric_in_k():
    assert coeff(-0.5, 3) == coeff(-0.5, -3)


def test_half_stencil_values():
    # g1 = -g0*gamma/(2+gamma), g2 = g1*(1-gamma/2)/(2+gamma/2)
    g0 = math.gamma(0.5) / math.gamma(0.75) ** 2
    g1 = -g0 * (-0.5) / 1.5
    g2 = g1 * 1.25 / 1.75
    s = build_stencil(-0.5, 0.1, 2)
    assert s.coeffs == pytest.approx([g0, g1, g2], rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(gamma=st.floats(-0.99, -0.01))
def test_positive_coefficients_for_negative_order(gamma):
    s = build_stencil(gamma, 0.06, 170)
    assert len(s.coeffs) == 171
    assert np.all(s.coeffs > 0.0)


def test_coefficient_decay_rate():
    # |g_k| ~ k^-(gamma+1) for large k
    gamma = -0.5
    s = build_stencil(gamma, 1.0, 10**4)
    ks = np.array([100, 300, 1000, 3000, 10000])
    slope = np.polyfit(np.log(ks), np.log(np.abs(s.coeffs[ks])), 1)[0]
    assert slope == pytest.approx(-(gamma + 1.0), abs=0.1)


def test_build_stencil_shares_one_read_only_instance():
    s = build_stencil(-0.3, 0.06, 30)
    assert build_stencil(-0.3, 0.06, 30) is s
    assert isinstance(s, RieszStencil)
    assert s.offsets[:5].tolist() == [0, -1, 1, -2, 2]
    assert sorted(s.offsets.tolist()) == list(range(-30, 31))
    assert np.array_equal(s.weights, s.coeffs[np.abs(s.offsets)])
    for arr in (s.coeffs, s.offsets, s.weights):
        with pytest.raises(ValueError):
            arr[0] = 1


def _loop_ascending_sum(terms):
    # reference: Python left-to-right accumulation in ascending magnitude,
    # ties in input order
    order = np.argsort(np.abs(terms), kind="stable")
    total = 0.0
    for v in terms[order]:
        total += float(v)
    return total


_term = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None)
@given(loose=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), _term), max_size=30),
       paired=st.lists(_term, max_size=15), data=st.data())
@example(loose=[-0.0, -0.0], paired=[], data=None)
@example(loose=[], paired=[], data=None)
@example(loose=[-0.0], paired=[1.5, -2.0], data=None)
def test_ascending_sum_matches_sequential_loop(loose, paired, data):
    # +-v pairs tie in magnitude and must cancel exactly, as in the
    # centre-outward stencil; signed zeros must keep the loop's sign
    terms = loose + [v for p in paired for v in (p, -p)]
    if data is not None:
        terms = data.draw(st.permutations(terms))
    arr = np.array(terms, dtype=float)
    assert ascending_sum(arr).hex() == _loop_ascending_sum(arr).hex()
    # an (R, n) table sums each row on its own, in that row's own order
    rows = np.stack([arr, arr[::-1], -arr])
    assert [v.hex() for v in ascending_sum(rows).tolist()] == [
        _loop_ascending_sum(r).hex() for r in rows]


def test_identity_operator_evaluation():
    s = build_stencil(0.0, 0.3, 8)
    f = lambda x: math.sin(x) + 2.0
    assert truncated_centered_difference(s, f, 0.7) == f(0.7)


def test_second_difference_on_quadratic():
    s = build_stencil(2.0, 0.1, 1)
    out = truncated_centered_difference(s, lambda x: x * x, 3.0)
    assert out == pytest.approx(-2.0, abs=1e-9)


def test_gaussian_against_spectral_oracle(oracle_values):
    ref = oracle_values["gaussian_spectral_gm05_x0"]["value"]
    s = build_stencil(-0.5, 0.01, 10**4)
    out = truncated_centered_difference(s, lambda x: math.exp(-x * x / 2.0), 0.0)
    assert out == pytest.approx(ref, abs=1e-2)


def test_node_error_names_offender():
    s = build_stencil(-0.5, 0.5, 3)

    def f(x):
        return math.inf if x > 1.0 else 1.0

    with pytest.raises(NodeEvaluationError) as exc:
        truncated_centered_difference(s, f, 0.0)
    assert exc.value.node == pytest.approx(1.5)


def test_truncation_error_slope_in_K(oracle_values):
    # polynomial-tail test function: the truncation term dominates and
    # decays like 1/K before the h^2 floor
    ref = oracle_values["tail_spectral_gm05_x0"]["value"]
    f = lambda x: (1.0 + x * x) ** -0.75
    h = 0.02
    Ks = [100, 200, 400, 800, 1600]
    errs = [abs(truncated_centered_difference(build_stencil(-0.5, h, K), f, 0.0) - ref)
            for K in Ks]
    slope = np.polyfit(np.log(Ks), np.log(errs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.3)


def test_c_alpha_values_and_monotonicity():
    assert c_alpha(2.0) == 1.0
    assert c_alpha(1.5) == pytest.approx(1.18035, abs=1e-5)
    assert c_alpha(1.999) < c_alpha(1.5)
    with pytest.raises(ValueError):
        c_alpha(1.0)
    with pytest.raises(ValueError):
        c_alpha(2.2)


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(1.0, 2.0, exclude_min=True))
@example(alpha=math.nextafter(1.0, 2.0))
@example(alpha=2.0)
def test_c_alpha_equals_zeroth_coefficient(alpha):
    # gamma = alpha - 2 and gamma/2 + 1 are exact on (1, 2], so coeff's
    # g_0 is the closed form Gamma(alpha-1)/Gamma(alpha/2)^2 bit for bit
    closed = math.gamma(alpha - 1.0) / math.gamma(alpha / 2.0) ** 2
    assert c_alpha(alpha) == coeff(alpha - 2.0, 0) == closed
