"""The constant fast paths answer exactly as the general paths do.

``Poly``, ``LinExpr``, ``Assumptions`` and the direction-vector types take
shortcuts for integer constants: interned small constants, constructors
that skip re-cleaning, constant-only arithmetic, int comparisons in place
of the prover, and shared direction elements.  Each property feeds the same
integers several ways -- as ``int`` (and an ``int`` subclass), as
``Poly.const`` and as a ``Poly`` built by the general path -- and asks for
the same answer, hash included; the direction-vector properties compare
against a reference that builds a fresh ``DirElem(mask)`` per position.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dirvec import DirElem, DirVec, merge_direction_sets
from repro.dirvec.vectors import EQ, GT, LT
from repro.symbolic import Assumptions, LinExpr, Poly

N = Poly.symbol("N")
#: Inside and beyond the interned range, so both constructions are covered.
values = st.integers(-5000, 5000) | st.integers(-3, 3)


def general(value: int) -> Poly:
    """``value`` built by the general add/sub path, never by a shortcut."""
    return (N + Poly({(): value})) - N


class Count(int):
    """An ``int`` subclass other than ``bool``: coerced like a plain int."""


def poly_forms(value: int) -> list[Poly]:
    return [Poly.const(value), general(value), Poly({(): value})]


def forms(value: int) -> list:
    return [value, Count(value), *poly_forms(value)]


def assert_constant(poly: Poly, value: int) -> None:
    """``poly`` is the clean constant ``value`` and hashes like a fresh one."""
    fresh = Poly({(): value})
    assert isinstance(poly, Poly)
    assert poly.terms == ({(): value} if value else {})
    assert poly == fresh and poly == value
    assert hash(poly) == hash(fresh)
    assert poly.is_constant()
    assert poly.as_int() == value


@given(a=values, b=values)
@settings(max_examples=300)
def test_constant_arithmetic_agrees(a, b):
    for x in poly_forms(a):
        for y in forms(b):
            assert_constant(x + y, a + b)
            assert_constant(x - y, a - b)
            assert_constant(x * y, a * b)
            assert_constant(y + x, a + b)
            assert_constant(y - x, b - a)
            assert_constant(y * x, a * b)
        assert_constant(-x, -a)
        assert (x == b) is (a == b)


@given(a=values, b=values, c=values)
@settings(max_examples=300)
def test_symbolic_arithmetic_with_constants_agrees(a, b, c):
    p = Poly({(("N", 1),): a, (("M", 2),): b, (): c})
    for y in forms(b):
        assert p + y == p + Poly({(): b})
        assert p - y == p + Poly({(): -b})
        assert p * y == Poly({m: k * b for m, k in p.terms.items()})
        assert y * p == p * y
        for result in (p + y, p - y, p * y, y - p, -p):
            assert 0 not in result.terms.values()
            assert hash(result) == hash(Poly(result.terms))
            assert result.is_constant() is all(m == () for m in result.terms)


@given(value=values)
def test_interned_constant_equals_a_fresh_one(value):
    interned = Poly.const(value)
    fresh = Poly({(): value})
    assert interned == fresh and hash(interned) == hash(fresh)
    assert Poly.const(value) == interned
    if -3 <= value <= 3:
        assert Poly.const(value) is interned


@given(a=values, b=values, c=values)
def test_linexpr_forms_agree(a, b, c):
    built = [
        LinExpr({"i": x, "j": y}, z)
        for x, y, z in zip(forms(a), forms(b), forms(c))
    ]
    for expr in built:
        assert expr == built[0] and hash(expr) == hash(built[0])
        assert expr.coeffs == built[0].coeffs
        assert 0 not in [k.as_int() for k in expr.coeffs.values()]
    expr = built[0]
    other = LinExpr({"i": -a, "k": c}, b)
    total = expr + other
    assert total.coeffs == {
        name: Poly({(): value})
        for name, value in {"i": 0, "j": b, "k": c}.items()
        if value
    }
    assert total.const == Poly({(): c + b})
    assert expr - expr == LinExpr() and (expr - expr).is_zero()
    assert -expr == LinExpr({"i": -a, "j": -b}, -c)
    assert expr + c == LinExpr({"i": a, "j": b}, 2 * c)
    assert expr * c == LinExpr({"i": a * c, "j": b * c}, c * c)
    merged = expr.rename_vars({"i": "x", "j": "x"})
    assert merged == LinExpr({"x": a + b}, c)
    assert hash(merged) == hash(LinExpr(merged.coeffs, merged.const))


def prover_nonneg(value: int) -> bool | None:
    """The shift-and-expand prover's answer for the constant ``value``."""
    return Assumptions.empty()._prove_nonneg(Poly({(): value}))


def prover_sign(value: int) -> int | None:
    if value == 0:
        return 0
    if prover_nonneg(value):
        return 1
    if prover_nonneg(-value):
        return -1
    return None


ASSUMPTIONS = [
    Assumptions.empty(),
    Assumptions({"N": 1}),
    Assumptions({"N": -4}, {"N": 9}),
]


@given(a=values, b=values)
@settings(max_examples=300)
def test_assumptions_answer_constants_like_the_prover(a, b):
    for assumptions in ASSUMPTIONS:
        for x in forms(a):
            assert assumptions.is_nonneg(x) == prover_nonneg(a)
            assert assumptions.sign(x) == prover_sign(a)
            for y in forms(b):
                assert assumptions.is_le(x, y) == prover_nonneg(b - a)
                assert assumptions.is_lt(x, y) == prover_nonneg(b - a - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Poly.coerce(True),
        lambda: Poly.const(3) + True,
        lambda: True + Poly.const(3),
        lambda: Poly.const(3) - False,
        lambda: False - Poly.const(3),
        lambda: Poly.const(3) * True,
        lambda: LinExpr({"i": True}),
        lambda: LinExpr({}, False),
        lambda: Assumptions.empty().is_nonneg(True),
        lambda: Assumptions.empty().is_le(True, 1),
        lambda: Assumptions.empty().is_le(1, False),
        lambda: Assumptions.empty().is_lt(False, Poly.const(1)),
        lambda: Assumptions.empty().sign(True),
    ],
)
def test_bool_is_still_not_a_polynomial(call):
    with pytest.raises(TypeError):
        call()


# -- direction vectors -----------------------------------------------------


masks = st.integers(0, 7)
vectors = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.lists(masks, min_size=n, max_size=n),
        st.lists(masks, min_size=n, max_size=n),
    )
)


def fresh(mask_list) -> DirVec:
    """A vector of freshly built elements, one per position."""
    return DirVec([DirElem(mask) for mask in mask_list])


def reference_meet(a: DirVec, b: DirVec) -> DirVec | None:
    out = []
    for x, y in zip(a, b):
        elem = DirElem(x.mask & y.mask)
        if elem.is_empty():
            return None
        out.append(elem)
    return DirVec(out)


def reference_atomics(v: DirVec) -> list[DirVec]:
    per_position = [
        [DirElem(bit) for bit in (LT, EQ, GT) if e.mask & bit] for e in v
    ]
    return [DirVec(combo) for combo in product(*per_position)]


def assert_same_vector(got, expected) -> None:
    assert got == expected
    if expected is not None:
        assert type(got) is DirVec
        assert hash(got) == hash(expected)
        assert [e.mask for e in got] == [e.mask for e in expected]


@given(pair=vectors)
@settings(max_examples=300)
def test_meet_and_atomics_match_fresh_elements(pair):
    a, b = fresh(pair[0]), fresh(pair[1])
    assert_same_vector(a.meet(b), reference_meet(a, b))
    atomics = list(a.atomic_vectors())
    expected = reference_atomics(a)
    assert len(atomics) == len(expected)
    for got, want in zip(atomics, expected):
        assert_same_vector(got, want)
    assert_same_vector(
        a.join(b), DirVec([DirElem(x.mask | y.mask) for x, y in zip(a, b)])
    )
    swapped = [
        DirElem((m & EQ) | (GT if m & LT else 0) | (LT if m & GT else 0))
        for m in pair[0]
    ]
    assert_same_vector(a.reversed_directions(), DirVec(swapped))


@given(
    old=st.lists(st.lists(masks, min_size=3, max_size=3), max_size=4),
    new=st.lists(st.lists(masks, min_size=3, max_size=3), max_size=4),
)
@settings(max_examples=200)
def test_merge_direction_sets_matches_fresh_elements(old, new):
    old_vecs = [fresh(m) for m in old]
    new_vecs = [fresh(m) for m in new]
    expected = {
        met
        for dv in old_vecs
        for nv in new_vecs
        if (met := reference_meet(dv, nv)) is not None
    }
    assert merge_direction_sets(old_vecs, new_vecs) == expected


@given(mask=masks)
def test_shared_elements_hash_like_dataclass_instances(mask):
    elem = DirElem(mask)
    assert hash(elem) == hash((mask,))
    assert elem & DirElem(7) == elem and hash(elem & DirElem(7)) == hash(elem)
    assert [a.mask for a in elem.atoms()] == [
        bit for bit in (LT, EQ, GT) if mask & bit
    ]
