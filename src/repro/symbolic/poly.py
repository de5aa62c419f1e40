"""Multivariate integer polynomials.

This is the numeric substrate for *symbolic delinearization* (paper section
"Symbolics handling").  Coefficients of dependence equations are allowed to be
loop-invariant integer expressions such as ``N`` or ``N*N + N``; we model them
as polynomials over named symbols with integer coefficients.

The module is deliberately self-contained: the library never imports sympy
(sympy appears only as an oracle inside the test suite).

A polynomial is represented as a mapping from *monomials* to integer
coefficients.  A monomial is a canonical tuple of ``(symbol, exponent)`` pairs
sorted by symbol name; the empty tuple is the constant monomial.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Mapping, Union

Monomial = tuple[tuple[str, int], ...]

#: Values accepted wherever a polynomial is expected.
PolyLike = Union["Poly", int]

_CONST_MONO: Monomial = ()

#: Constants in ``[-_SMALL_LIMIT, _SMALL_LIMIT]`` are interned on first
#: use: concrete dependence problems build the same few coefficients, bounds
#: and remainders over and over, and a shared instance keeps its hash.
_SMALL_LIMIT = 1024
_SMALL: dict[int, "Poly"] = {}


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials (merge exponent maps)."""
    if not a:
        return b
    if not b:
        return a
    powers: dict[str, int] = dict(a)
    for sym, exp in b:
        powers[sym] = powers.get(sym, 0) + exp
    return tuple(sorted((s, e) for s, e in powers.items() if e))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    """Return True when monomial ``a`` divides monomial ``b``."""
    if not a:
        return True
    bmap = dict(b)
    return all(bmap.get(sym, 0) >= exp for sym, exp in a)


def _mono_div(b: Monomial, a: Monomial) -> Monomial:
    """Divide monomial ``b`` by ``a``; caller must ensure divisibility."""
    if not a:
        return b
    powers = dict(b)
    for sym, exp in a:
        powers[sym] -= exp
    return tuple(sorted((s, e) for s, e in powers.items() if e))


def _mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    """Greatest common monomial factor."""
    if not a or not b:
        return _CONST_MONO
    bmap = dict(b)
    out = []
    for sym, exp in a:
        common = min(exp, bmap.get(sym, 0))
        if common:
            out.append((sym, common))
    return tuple(sorted(out))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for sym, exp in m:
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)


class Poly:
    """An immutable multivariate polynomial with integer coefficients.

    Construct with :meth:`const`, :meth:`symbol`, or arithmetic on existing
    polynomials.  Plain ``int`` operands are accepted by every operator.

    >>> n = Poly.symbol("N")
    >>> (n + 1) * (n - 1)
    Poly(N^2 - 1)
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        self._terms: dict[Monomial, int] = cleaned
        self._hash: int | None = None

    @classmethod
    def _of(cls, terms: dict[Monomial, int]) -> "Poly":
        """Wrap ``terms``, which has no zero coefficient and is not shared.

        The constructor for results the arithmetic already knows are clean:
        it neither copies nor re-filters them.
        """
        poly = object.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "Poly":
        """The constant polynomial ``value``."""
        poly = _SMALL.get(value)
        if poly is not None:
            return poly
        value = int(value)
        poly = cls._of({_CONST_MONO: value} if value else {})
        if -_SMALL_LIMIT <= value <= _SMALL_LIMIT:
            _SMALL[value] = poly
        return poly

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        """The polynomial consisting of the single symbol ``name``."""
        if not name or not isinstance(name, str):
            raise ValueError(f"symbol name must be a non-empty string: {name!r}")
        return cls({((name, 1),): 1})

    @classmethod
    def coerce(cls, value: PolyLike) -> "Poly":
        """Convert an ``int`` (or pass through a :class:`Poly`)."""
        if isinstance(value, Poly):
            return value
        if type(value) is int:
            return cls.const(value)
        if isinstance(value, bool):
            raise TypeError("bool is not a polynomial")
        if isinstance(value, int):
            return cls.const(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Poly")

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only view of monomial -> coefficient."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        """True when the polynomial mentions no symbols."""
        terms = self._terms
        return not terms or (len(terms) == 1 and _CONST_MONO in terms)

    def as_int(self) -> int:
        """The value of a constant polynomial.

        Raises :class:`ValueError` when the polynomial is not constant.
        """
        if not self._terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self._terms[_CONST_MONO]

    def constant_term(self) -> int:
        """Coefficient of the constant monomial (0 when absent)."""
        return self._terms.get(_CONST_MONO, 0)

    def symbols(self) -> set[str]:
        """The set of symbol names mentioned."""
        out: set[str] = set()
        for mono in self._terms:
            out.update(sym for sym, _ in mono)
        return out

    def degree(self) -> int:
        """Total degree (0 for constants, 0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(_mono_degree(m) for m in self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def is_single_term(self) -> bool:
        """True when the polynomial is ``coeff * monomial`` (one term)."""
        return len(self._terms) == 1

    def content(self) -> int:
        """GCD of all coefficients (non-negative; 0 for the zero poly)."""
        return math.gcd(*self._terms.values()) if self._terms else 0

    def monomial_factor(self) -> Monomial:
        """Greatest monomial dividing every term (constant mono if none)."""
        monos = iter(self._terms)
        try:
            acc = next(monos)
        except StopIteration:
            return _CONST_MONO
        for m in monos:
            acc = _mono_gcd(acc, m)
            if not acc:
                break
        return acc

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _try_coerce(value: object) -> "Poly | None":
        """Coerce for operators: None (-> NotImplemented) on foreign types."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Poly.const(value)
        return None

    def __add__(self, other: PolyLike) -> "Poly":
        if type(other) is int:
            if not other:
                return self
            terms = self._terms
            if not terms or (len(terms) == 1 and _CONST_MONO in terms):
                return Poly.const(terms.get(_CONST_MONO, 0) + other)
            other = Poly.const(other)
        else:
            other = Poly._try_coerce(other)
            if other is None:
                return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = terms.get(mono, 0) + coeff
            if total:
                terms[mono] = total
            else:
                del terms[mono]
        return Poly._of(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        terms = self._terms
        if not terms or (len(terms) == 1 and _CONST_MONO in terms):
            return Poly.const(-terms.get(_CONST_MONO, 0))
        return Poly._of({m: -c for m, c in terms.items()})

    def __sub__(self, other: PolyLike) -> "Poly":
        if type(other) is int:
            return self + (-other)
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> "Poly":
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: PolyLike) -> "Poly":
        other = Poly._try_coerce(other)
        if other is None:
            return NotImplemented
        if other.is_constant():
            factor, scaled = other.constant_term(), self
        elif self.is_constant():
            factor, scaled = self.constant_term(), other
        else:
            factor = None
        if factor is not None:
            # A non-zero constant factor scales every coefficient: none
            # becomes zero.
            if not factor or scaled.is_constant():
                return Poly.const(factor * scaled.constant_term())
            return Poly._of({m: c * factor for m, c in scaled._terms.items()})
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative int: {exponent!r}")
        result = Poly.const(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- substitution and evaluation -----------------------------------------

    def subs(self, mapping: Mapping[str, PolyLike]) -> "Poly":
        """Substitute polynomials (or ints) for symbols.

        Symbols absent from ``mapping`` are kept as-is.
        """
        if not mapping:
            return self
        result = Poly()
        for mono, coeff in self._terms.items():
            term = Poly.const(coeff)
            for sym, exp in mono:
                if sym in mapping:
                    term = term * (Poly.coerce(mapping[sym]) ** exp)
                else:
                    term = term * (Poly.symbol(sym) ** exp)
            result = result + term
        return result

    def evaluate(self, values: Mapping[str, int]) -> int:
        """Evaluate at an integer point; every symbol must be supplied."""
        total = 0
        for mono, coeff in self._terms.items():
            prod = coeff
            for sym, exp in mono:
                if sym not in values:
                    raise KeyError(f"no value for symbol {sym!r}")
                prod *= values[sym] ** exp
            total += prod
        return total

    # -- divisibility ----------------------------------------------------------

    def divmod_single(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Split ``self = q*divisor + r`` for a single-term ``divisor``.

        Every term whose monomial part is divisible by the divisor's monomial
        contributes its largest multiple of the divisor coefficient to the
        quotient; the rest (including wholly indivisible terms) stays in the
        remainder.  For constant ``self`` and ``divisor`` this coincides with
        Python's ``divmod`` (remainder in ``[0, divisor)`` for positive
        divisors).

        This is exactly the decomposition ``c0 = D0 + r`` the delinearization
        algorithm needs: the quotient part ``q*divisor`` is divisible by the
        suffix gcd.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_single_term():
            raise ValueError(f"divisor {divisor} is not a single term")
        ((gmono, gcoeff),) = divisor._terms.items()
        if not gmono and self.is_constant():
            q, r = divmod(self._terms.get(_CONST_MONO, 0), gcoeff)
            return Poly.const(q), Poly.const(r)
        q_terms: dict[Monomial, int] = {}
        r_terms: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            if _mono_divides(gmono, mono):
                q, r = divmod(coeff, gcoeff)
                if q:
                    q_terms[_mono_div(mono, gmono)] = q
                if r:
                    r_terms[mono] = r
            else:
                r_terms[mono] = coeff
        return Poly._of(q_terms), Poly._of(r_terms)

    def exact_div(self, divisor: int) -> "Poly":
        """Divide every coefficient by an integer that must divide exactly."""
        if divisor == 0:
            raise ZeroDivisionError("exact_div by zero")
        terms = {}
        for mono, coeff in self._terms.items():
            if coeff % divisor:
                raise ValueError(f"{divisor} does not divide {self}")
            terms[mono] = coeff // divisor
        return Poly._of(terms)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- display -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(
            self._terms.items(),
            key=lambda item: (-_mono_degree(item[0]), item[0]),
        )
        parts: list[str] = []
        for mono, coeff in ordered:
            if mono == _CONST_MONO:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = _mono_str(mono)
            else:
                body = f"{abs(coeff)}*{_mono_str(mono)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def poly_gcd(a: PolyLike, b: PolyLike) -> Poly:
    """A conservative GCD of two polynomials.

    Returns ``content_gcd * common_monomial_factor``.  This is always a common
    divisor of both arguments (which is all the delinearization theorem
    requires: soundness never depends on the gcd being *greatest*), and it is
    exact for the single-term coefficients that arise from linearized array
    subscripts (``1``, ``N``, ``N*N``, ``10``, ``100``...).

    >>> poly_gcd(Poly.symbol("N") ** 2, Poly.symbol("N"))
    Poly(N)
    >>> poly_gcd(100, 10).as_int()
    10
    """
    return _poly_gcd_cached(Poly.coerce(a), Poly.coerce(b))


@lru_cache(maxsize=4096)
def _poly_gcd_cached(a: Poly, b: Poly) -> Poly:
    if a.is_zero():
        return _positive_content(b)
    if b.is_zero():
        return _positive_content(a)
    content = math.gcd(a.content(), b.content())
    mono = _mono_gcd(a.monomial_factor(), b.monomial_factor())
    return Poly({mono: content})


def poly_gcd_many(values: Iterable[PolyLike]) -> Poly:
    """GCD of a sequence of polynomials (zero polynomial when empty)."""
    acc = Poly()
    for value in values:
        acc = poly_gcd(acc, value)
        if acc == Poly.const(1):
            break
    return acc


def _positive_content(p: Poly) -> Poly:
    """Normalize a polynomial used as a gcd: positive leading content."""
    if p.is_zero():
        return p
    content = p.content()
    mono = p.monomial_factor()
    return Poly({mono: content})
