"""``_invert_monotone``: the closed form for linear bounds against the search.

A linear ``a*N + b`` (``a > 0``) is inverted as ``ceil((target - b) / a)``;
every other strictly increasing polynomial still goes through the binary
search.  The search is kept here as the reference: both must agree on every
input, including answers at the edges of the ``(-2**40, 2**40]`` window.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.lint.ranges import _BOUND_SEARCH_LIMIT, _invert_monotone
from repro.symbolic import Poly

N = Poly.symbol("N")
LIMIT = _BOUND_SEARCH_LIMIT


def search_reference(poly, target):
    """The binary search over the window, for any polynomial."""
    symbols = poly.symbols()
    if len(symbols) != 1:
        return None
    (symbol,) = symbols
    for mono, coeff in poly.terms.items():
        if not mono:
            continue
        ((_, exponent),) = mono
        if coeff <= 0 or exponent % 2 == 0:
            return None
    lo, hi = -LIMIT, LIMIT
    if poly.evaluate({symbol: hi}) < target:
        return None
    if poly.evaluate({symbol: lo}) >= target:
        return None
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if poly.evaluate({symbol: mid}) >= target:
            hi = mid
        else:
            lo = mid
    return symbol, hi


slopes = st.integers(1, 10**6)
offsets = st.integers(-(2**70), 2**70)
targets = st.integers(-(2**45), 2**45)


@given(slopes, offsets, targets)
@example(1, 0, LIMIT)  # the answer is the top of the window
@example(1, -1, LIMIT)  # one past it
@example(1, 0, -LIMIT + 1)  # the lowest answer the window holds
@example(1, 0, -LIMIT)  # the bottom edge itself carries no information
@example(7, 3, 20)  # 7 does not divide 17: ceil(17 / 7) = 3
@example(7, 3, -20)  # and -23: ceil(-23 / 7) = -3
@example(3, 10**30, 0)  # a huge constant puts the answer below the window
@example(3, -(10**30), 0)  # and above it
def test_linear_closed_form_matches_search(a, b, target):
    poly = a * N + b
    assert _invert_monotone(poly, target) == search_reference(poly, target)


@given(
    slopes,
    st.integers(-LIMIT - 3, LIMIT + 3),
    st.integers(0, 10**6),
)
def test_linear_answers_near_the_window_edges(a, answer, slack):
    # Choose b so that ceil((target - b) / a) is exactly ``answer``.
    target = 5
    remainder = slack % a
    b = target - a * answer + remainder
    poly = a * N + b
    expected = search_reference(poly, target)
    assert _invert_monotone(poly, target) == expected
    if -LIMIT < answer <= LIMIT:
        assert expected == ("N", answer)
    else:
        assert expected is None


@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 50), min_size=3, max_size=3),
    st.integers(-(2**40), 2**40),
    targets,
)
def test_odd_degrees_match_search(halves, coeffs, constant, target):
    # Odd exponents 1, 3, 5, 7, 9 with positive coefficients: increasing.
    poly = Poly.const(constant)
    for half, coeff in zip(halves, coeffs):
        poly = poly + coeff * N ** (2 * half + 1)
    assert _invert_monotone(poly, target) == search_reference(poly, target)


@given(
    st.integers(-50, 50).filter(bool),
    st.integers(1, 4),
    st.integers(-100, 100),
    targets,
)
def test_non_monotone_shapes_give_none(coeff, exponent, constant, target):
    poly = coeff * N**exponent + constant
    expected = search_reference(poly, target)
    assert _invert_monotone(poly, target) == expected
    if coeff < 0 or exponent % 2 == 0:
        assert expected is None


def test_two_symbols_give_none():
    M = Poly.symbol("M")
    assert _invert_monotone(N + M, 0) is None
    assert search_reference(N + M, 0) is None
