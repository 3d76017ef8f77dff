"""csvtext.encode_rows: the '%' template's bytes, or a declined block."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flmc.csvtext import encode_rows

# the doubles whose '%.17g' exponent lies in -6..16; the double nearest
# 1e-6 lies below it, so the range starts one double above
_LOWEST = float(np.nextafter(1e-6, 1.0))
_HIGHEST = float(np.nextafter(1e17, 0.0))


def _template(n, eta, states):
    row = "%d,%.17g" + ",%.17g" * states.shape[1] + "\n"
    cols = [n.tolist(), eta.tolist(), *states.T.tolist()]
    return "".join(map(row.__mod__, zip(*cols))).encode("ascii")


def _fits(v):
    # '%.17g' writes v with an exponent in -6..16
    return v != 0.0 and np.isfinite(v) and -6 <= int(("%.16e" % v).split("e")[1]) <= 16


def _one(v, n=7, eta=0.25):
    return (np.array([n]), np.array([eta]), np.array([[v]]))


def _bits(b):
    return float(np.array([b], np.uint64).view(np.float64)[0])


_ANY = st.one_of(st.floats(allow_subnormal=True), st.integers(0, 2**64 - 1).map(_bits))
_IN_RANGE = st.builds(lambda a, neg: -a if neg else a,
                      st.floats(_LOWEST, _HIGHEST), st.booleans())


@settings(max_examples=2000, deadline=None)
@given(v=_ANY, as_eta=st.booleans())
@example(v=0.0, as_eta=False)
@example(v=-0.0, as_eta=True)
@example(v=float("nan"), as_eta=False)
@example(v=float("-inf"), as_eta=True)
@example(v=5e-324, as_eta=False)
@example(v=1.7976931348623157e308, as_eta=True)
def test_any_double_is_encoded_exactly_or_declined(v, as_eta):
    # every float64, as a state or as an eta: the template's bytes when
    # '%.17g' prints it with an exponent in -6..16, and None otherwise. The
    # eta column holds a second value, so it is not formatted once
    n, eta, states = _one(v)
    if as_eta:
        n, eta, states = np.array([7, 8]), np.array([v, 0.25]), np.ones((2, 1))
    got = encode_rows(n, eta, states)
    assert got == (_template(n, eta, states) if _fits(v) else None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 40), dim=st.integers(1, 3),
       const=st.booleans())
def test_in_range_blocks_are_encoded(data, m, dim, const):
    n = np.array(data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=m,
                                    max_size=m)))
    states = np.array(data.draw(st.lists(_IN_RANGE, min_size=m * dim,
                                         max_size=m * dim))).reshape(m, dim)
    eta = np.array(data.draw(st.lists(_IN_RANGE, min_size=m, max_size=m)))
    if const:
        eta[:] = eta[0]
    got = encode_rows(n, eta, states)
    assert got is not None
    assert got == _template(n, eta, states)


def _edge_values():
    vals = [1e-6, 1e17, _HIGHEST, _LOWEST]
    for k in range(-7, 18):
        p = 10.0 ** k
        vals += [p, float(np.nextafter(p, np.inf)), float(np.nextafter(p, -np.inf))]
    return vals


@pytest.mark.parametrize("v", _edge_values())
def test_powers_of_ten_and_their_neighbours(v):
    for s in (v, -v):
        n, eta, states = _one(s)
        got = encode_rows(n, eta, states)
        assert got == (_template(n, eta, states) if _fits(s) else None)


def test_range_edges_decline_or_encode():
    # the double nearest 1e-6 prints as 9.9999999999999995e-07, out of range;
    # the double below 1e17 is the largest encoded value
    assert encode_rows(*_one(1e-6)) is None
    assert encode_rows(*_one(1e17)) is None
    assert encode_rows(*_one(_LOWEST)) == b"7,0.25,1.0000000000000002e-06\n"
    assert encode_rows(*_one(_HIGHEST)) == b"7,0.25,99999999999999984\n"


@pytest.mark.parametrize("v, text", [
    (1000000000000000.25, "1000000000000000.2"),  # 18th digit an exact 5: even
    (1000000000000000.75, "1000000000000000.8"),
    (2.5e-06, "2.5000000000000002e-06"),
    (0.001, "0.001"),
    (123.0, "123"),
    (1e16, "10000000000000000"),
])
def test_ties_round_half_even_and_zeros_are_trimmed(v, text):
    assert encode_rows(*_one(v)) == ("7,0.25," + text + "\n").encode()
    assert text == "%.17g" % v


def test_large_and_zero_counters():
    n = np.array([0, 9, 10, 2**63 - 1])
    states = np.full((4, 1), -3.6)
    for eta in (np.full(4, 0.002), np.array([0.002, 0.001, 0.003, 0.5])):
        assert encode_rows(n, eta, states) == _template(n, eta, states)
    assert encode_rows(np.array([-1]), *_one(1.0)[1:]) is None


def test_one_value_out_of_range_declines_the_block():
    n, eta = np.arange(1, 4), np.full(3, 0.5)
    assert encode_rows(n, eta, np.array([[1.0], [2.0], [3.0]])) is not None
    assert encode_rows(n, eta, np.array([[1.0], [1e-7], [3.0]])) is None
    assert encode_rows(n, np.array([0.5, 0.0, 0.5]), np.ones((3, 1))) is None


@pytest.mark.parametrize("v", [1e-300, 0.0, -0.0, float("inf"), 1e17, 1e-7])
def test_a_constant_eta_is_formatted_once_whatever_its_value(v):
    # a const: schedule's eta is formatted by format(), so a value outside
    # the encoded range still leaves the block encoded
    n, states = np.arange(1, 4), np.array([[1.0], [2.0], [3.0]])
    assert encode_rows(n, np.full(3, v), states) == _template(n, np.full(3, v), states)
