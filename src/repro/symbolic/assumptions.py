"""Assumption-based comparison of integer polynomials.

The symbolic delinearization example in the paper needs facts such as

    "Since N**3 - 1 is an upper bound of array A, N**3 >= 1 and
     therefore N >= 1.  Knowing this ... N - 1 < N is a true inequality
     for any N, ... N**2 + N <= N**2 * N for any N > 1."

We capture such knowledge as *integer intervals on symbols* — a lower bound,
an upper bound, or both — and decide polynomial inequalities with a sound,
incomplete procedure:

    to prove ``p >= 0`` for all integer assignments with ``s in [L_s, U_s]``,
    substitute either ``s = L_s + t_s`` or ``s = U_s - t_s`` with fresh
    ``t_s >= 0`` and check that the expanded polynomial has only non-negative
    coefficients.  Each substitution covers a superset of the interval
    (``s >= L_s`` respectively ``s <= U_s``), so success is always sound;
    when a symbol carries both bounds every combination of shift directions
    is tried.

The check is sufficient (never wrongly claims an inequality) and handles every
comparison the paper's symbolic example requires.  When a bound cannot be
proven either way the query answers ``None`` and callers fall back to
conservative behaviour (no dimension split).

Queries are memoized per instance: the shifted-polynomial expansion dominates
the delinearization hot path (every barrier check asks several ``is_nonneg``
questions about the same running extremes), and :class:`Assumptions` values
are immutable, so caching is free precision-wise.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping

from .poly import Poly, PolyLike

#: Trying every combination of lower/upper shifts is exponential in the
#: number of doubly-bounded symbols; beyond this many combinations only the
#: first available shift per symbol is used.
_MAX_SHIFT_COMBINATIONS = 64

_MISSING = object()


def _constant(value: PolyLike) -> int | None:
    """The value of an ``int`` or constant :class:`Poly`; None otherwise.

    ``bool`` and foreign types answer None, so the caller's coercion still
    raises for them.
    """
    if type(value) is int:
        return value
    if isinstance(value, Poly):
        return value.constant_term() if value.is_constant() else None
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    return None


class Assumptions:
    """A set of integer intervals on symbols, e.g. ``{"N": 1}`` for ``N >= 1``.

    The positional mapping gives *lower* bounds (the historical form);
    ``upper_bounds`` adds the other end.  Symbols without any recorded bound
    are *unconstrained*: no inequality that mentions them can be proven.

    >>> a = Assumptions({"N": 1})
    >>> n = Poly.symbol("N")
    >>> a.is_nonneg(n * n - n)   # N^2 - N >= 0 whenever N >= 1
    True
    >>> a.is_nonneg(n - 5) is None
    True

    Upper bounds make the mirrored queries provable:

    >>> b = Assumptions(upper_bounds={"N": 4})
    >>> b.is_nonneg(5 - n)       # 5 - N >= 0 whenever N <= 4
    True
    >>> b.is_nonpos(n - 4)
    True
    """

    def __init__(
        self,
        lower_bounds: Mapping[str, int] | None = None,
        upper_bounds: Mapping[str, int] | None = None,
    ):
        self._lower: dict[str, int] = dict(lower_bounds or {})
        self._upper: dict[str, int] = dict(upper_bounds or {})
        self._nonneg_cache: dict[Poly, bool | None] = {}

    @classmethod
    def empty(cls) -> "Assumptions":
        return cls()

    def lower_bound(self, symbol: str) -> int | None:
        """The recorded lower bound for ``symbol`` (None when unknown)."""
        return self._lower.get(symbol)

    def upper_bound(self, symbol: str) -> int | None:
        """The recorded upper bound for ``symbol`` (None when unknown)."""
        return self._upper.get(symbol)

    def interval(self, symbol: str) -> tuple[int | None, int | None]:
        """The recorded ``(lower, upper)`` interval for ``symbol``."""
        return self._lower.get(symbol), self._upper.get(symbol)

    def symbols(self) -> set[str]:
        """The symbols these assumptions constrain.

        Used by the lint dataflow passes to verify each constrained symbol
        really is a loop-invariant parameter of the analyzed program.
        """
        return set(self._lower) | set(self._upper)

    def is_empty(self) -> bool:
        """True when no symbol carries any bound."""
        return not self._lower and not self._upper

    def items(self) -> Iterator[tuple[str, int | None, int | None]]:
        """Iterate ``(symbol, lower, upper)`` triples in name order."""
        for symbol in sorted(self.symbols()):
            yield symbol, self._lower.get(symbol), self._upper.get(symbol)

    def with_bound(self, symbol: str, lower: int) -> "Assumptions":
        """A new assumption set with ``symbol >= lower`` added (tightening only)."""
        return self.with_interval(symbol, lower=lower)

    def with_upper_bound(self, symbol: str, upper: int) -> "Assumptions":
        """A new assumption set with ``symbol <= upper`` added (tightening only)."""
        return self.with_interval(symbol, upper=upper)

    def with_interval(
        self,
        symbol: str,
        lower: int | None = None,
        upper: int | None = None,
    ) -> "Assumptions":
        """A new assumption set with ``lower <= symbol <= upper`` added.

        Existing bounds are only ever tightened (max of lower bounds, min of
        upper bounds); ``None`` leaves an end unchanged.
        """
        lowers = dict(self._lower)
        uppers = dict(self._upper)
        if lower is not None:
            lowers[symbol] = (
                max(lowers[symbol], lower) if symbol in lowers else lower
            )
        if upper is not None:
            uppers[symbol] = (
                min(uppers[symbol], upper) if symbol in uppers else upper
            )
        return Assumptions(lowers, uppers)

    def merged(self, other: "Assumptions") -> "Assumptions":
        """Combine two assumption sets, keeping the tighter bound per end."""
        result = self
        for symbol, lower, upper in other.items():
            result = result.with_interval(symbol, lower, upper)
        return result

    # -- provers ------------------------------------------------------------

    def is_nonneg(self, p: PolyLike) -> bool | None:
        """Prove ``p >= 0`` under the assumptions.

        Returns True when proven, None when unknown.  (The procedure cannot
        prove negations; use ``is_nonneg(-p)`` for the other direction.)
        """
        if type(p) is int:
            return True if p >= 0 else None
        p = Poly.coerce(p)
        if p.is_constant():
            return True if p.constant_term() >= 0 else None
        cached = self._nonneg_cache.get(p, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        result = self._prove_nonneg(p)
        self._nonneg_cache[p] = result
        return result

    def _prove_nonneg(self, p: Poly) -> bool | None:
        """The uncached shift-and-expand procedure behind :meth:`is_nonneg`."""
        per_symbol: list[tuple[str, list[Poly]]] = []
        combinations = 1
        for sym in sorted(p.symbols()):
            shifts: list[Poly] = []
            lower = self._lower.get(sym)
            upper = self._upper.get(sym)
            fresh = Poly.symbol(f"_t_{sym}")
            if lower is not None:
                # s = lower + t with t >= 0 covers all s >= lower.
                shifts.append(fresh + lower)
            if upper is not None:
                # s = upper - t with t >= 0 covers all s <= upper.
                shifts.append(-fresh + upper)
            if not shifts:
                return None
            per_symbol.append((sym, shifts))
            combinations *= len(shifts)
        if combinations > _MAX_SHIFT_COMBINATIONS:
            per_symbol = [(sym, shifts[:1]) for sym, shifts in per_symbol]
        for choice in product(*(shifts for _, shifts in per_symbol)):
            substitution = {
                sym: shift
                for (sym, _), shift in zip(per_symbol, choice)
            }
            shifted = p.subs(substitution)
            if all(coeff >= 0 for coeff in shifted.terms.values()):
                return True
        return None

    def is_nonpos(self, p: PolyLike) -> bool | None:
        """Prove ``p <= 0``."""
        return self.is_nonneg(-Poly.coerce(p))

    def is_pos(self, p: PolyLike) -> bool | None:
        """Prove ``p >= 1`` (strict positivity for integer-valued p)."""
        return self.is_nonneg(Poly.coerce(p) - 1)

    def is_neg(self, p: PolyLike) -> bool | None:
        """Prove ``p <= -1``."""
        return self.is_nonneg(-Poly.coerce(p) - 1)

    def is_lt(self, a: PolyLike, b: PolyLike) -> bool | None:
        """Prove ``a < b`` (for integer values: ``b - a >= 1``)."""
        a_int, b_int = _constant(a), _constant(b)
        if a_int is not None and b_int is not None:
            return True if a_int < b_int else None
        return self.is_pos(Poly.coerce(b) - Poly.coerce(a))

    def is_le(self, a: PolyLike, b: PolyLike) -> bool | None:
        """Prove ``a <= b``."""
        a_int, b_int = _constant(a), _constant(b)
        if a_int is not None and b_int is not None:
            return True if a_int <= b_int else None
        return self.is_nonneg(Poly.coerce(b) - Poly.coerce(a))

    def sign(self, p: PolyLike) -> int | None:
        """Return a proven sign: +1, -1, 0, or None when undecided.

        +1 means ``p >= 0`` and p is not the zero polynomial (for sorting by
        magnitude a weak sign suffices); 0 means p is identically zero.
        """
        value = _constant(p)
        if value is not None:
            return (value > 0) - (value < 0)
        p = Poly.coerce(p)
        if self.is_nonneg(p):
            return 1
        if self.is_nonpos(p):
            return -1
        return None

    def abs_poly(self, p: PolyLike) -> Poly | None:
        """Return a polynomial equal to ``|p|`` when the sign is provable."""
        p = Poly.coerce(p)
        sgn = self.sign(p)
        if sgn is None:
            return None
        return p if sgn >= 0 else -p

    def abs_le(self, a: PolyLike, b: PolyLike) -> bool | None:
        """Prove ``|a| <= |b|`` (requires provable signs of both)."""
        abs_a = self.abs_poly(a)
        abs_b = self.abs_poly(b)
        if abs_a is None or abs_b is None:
            return None
        return self.is_le(abs_a, abs_b)

    def __repr__(self) -> str:
        parts = []
        for symbol, lower, upper in self.items():
            if lower is not None and upper is not None:
                parts.append(f"{lower} <= {symbol} <= {upper}")
            elif lower is not None:
                parts.append(f"{symbol} >= {lower}")
            else:
                parts.append(f"{symbol} <= {upper}")
        return f"Assumptions({', '.join(parts)})"
