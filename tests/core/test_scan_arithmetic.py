"""The Figure-4 scan's arithmetic answers alike on ints and on polynomials.

The scan runs on plain ints when an equation is integer-concrete with
constant bounds and on polynomials otherwise; only its arithmetic helpers
look at which.  Each property feeds the same integers both ways, as ints
and as ``Poly.const`` of them, negative upper bounds and inverted extremes
included, and asks for the same answer.
"""

from importlib import import_module

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import Assumptions, Poly

# ``repro.core.delinearize`` the attribute is the function; this is the module.
scan = import_module("repro.core.delinearize")

ASSUMPTIONS = Assumptions.empty()
values = st.integers(-60, 60)
extremes = st.none() | values
#: ``None`` is the final step's infinite gcd; 0 never occurs in a scan but
#: the helpers still agree on it.
gcds = st.none() | st.integers(0, 40)


def lift(value):
    return None if value is None else Poly.const(value)


def lifted(answer):
    """An answer of the int helpers, with every int made a polynomial."""
    if answer is None:
        return None
    assert all(v is None or type(v) is int for v in answer)
    return tuple(lift(v) for v in answer)


@given(coeff=values, upper=st.integers(-5, 20), smin=extremes, smax=extremes)
@settings(max_examples=300, deadline=None)
def test_admit(coeff, upper, smin, smax):
    by_int = scan._admit(coeff, upper, smin, smax, ASSUMPTIONS)
    by_poly = scan._admit(
        Poly.const(coeff), Poly.const(upper), lift(smin), lift(smax),
        ASSUMPTIONS,
    )
    assert lifted(by_int) == by_poly
    if upper < 0:
        assert by_int == (None, None)


@given(c0=values, smin=extremes, smax=extremes, gk=gcds)
@settings(max_examples=300, deadline=None)
def test_try_barrier(c0, smin, smax, gk):
    by_int = scan._try_barrier(c0, smin, smax, gk, ASSUMPTIONS)
    by_poly = scan._try_barrier(
        Poly.const(c0), lift(smin), lift(smax), lift(gk), ASSUMPTIONS
    )
    assert lifted(by_int) == by_poly


@given(c0=values, gk=gcds)
@settings(max_examples=200, deadline=None)
def test_candidate_remainders(c0, gk):
    by_int = scan._candidate_remainders(c0, gk)
    by_poly = scan._candidate_remainders(Poly.const(c0), lift(gk))
    assert lifted(by_int) == tuple(by_poly)
    for r in by_int:
        assert gk in (None, 0) or (c0 - r) % gk == 0


@given(value=values)
def test_signs(value):
    for helper in (scan._is_pos, scan._is_neg):
        assert helper(value, ASSUMPTIONS) == helper(
            Poly.const(value), ASSUMPTIONS
        )
