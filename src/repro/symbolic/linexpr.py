"""Affine (linear) expressions over loop variables.

A :class:`LinExpr` is ``const + sum(coeff_v * v)`` where each coefficient and
the constant are integer polynomials in *loop-invariant* symbols
(:class:`~repro.symbolic.poly.Poly`), and the variables ``v`` are loop
iteration variables identified by name.

These are the subscript functions f_i / g_i of the paper (eqs. (3), (4)) and,
after combining a pair of references, the dependence equations (5).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from .poly import Poly, PolyLike

LinLike = Union["LinExpr", Poly, int]

_ZERO = Poly.const(0)


class LinExpr:
    """Immutable affine expression: ``const + sum coeffs[v] * v``.

    >>> i, j = LinExpr.var("i"), LinExpr.var("j")
    >>> str(i + 10 * j + 5)
    'i + 10*j + 5'
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(
        self,
        coeffs: Mapping[str, PolyLike] | None = None,
        const: PolyLike = 0,
    ):
        cleaned: dict[str, Poly] = {}
        for name, coeff in (coeffs or {}).items():
            if type(coeff) is not Poly:
                coeff = Poly.coerce(coeff)
            if coeff:
                cleaned[name] = coeff
        self._coeffs = cleaned
        self._const = const if type(const) is Poly else Poly.coerce(const)
        self._hash: int | None = None

    @classmethod
    def _of(cls, coeffs: dict[str, Poly], const: Poly) -> "LinExpr":
        """Wrap non-zero ``Poly`` coefficients and a ``Poly`` constant as is.

        ``coeffs`` may be shared with another expression: no expression
        ever mutates its own.
        """
        expr = object.__new__(cls)
        expr._coeffs = coeffs
        expr._const = const
        expr._hash = None
        return expr

    # -- constructors ------------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return cls({name: 1})

    @classmethod
    def const_expr(cls, value: PolyLike) -> "LinExpr":
        return cls({}, value)

    @classmethod
    def coerce(cls, value: LinLike) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, (Poly, int)):
            return cls({}, value)
        raise TypeError(f"cannot coerce {type(value).__name__} to LinExpr")

    # -- inspection ----------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[str, Poly]:
        return dict(self._coeffs)

    @property
    def const(self) -> Poly:
        return self._const

    def coeff(self, name: str) -> Poly:
        """Coefficient of variable ``name`` (zero when absent)."""
        return self._coeffs.get(name, _ZERO)

    def variables(self) -> set[str]:
        return set(self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs and self._const.is_zero()

    def symbols(self) -> set[str]:
        """Symbolic parameters mentioned in coefficients or constant."""
        out = set(self._const.symbols())
        for coeff in self._coeffs.values():
            out |= coeff.symbols()
        return out

    def is_integer_concrete(self) -> bool:
        """True when every coefficient and the constant are plain integers."""
        return self._const.is_constant() and all(
            c.is_constant() for c in self._coeffs.values()
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: LinLike) -> "LinExpr":
        other = LinExpr.coerce(other)
        if not other._coeffs:
            return LinExpr._of(self._coeffs, self._const + other._const)
        coeffs = dict(self._coeffs)
        for name, coeff in other._coeffs.items():
            total = coeffs[name] + coeff if name in coeffs else coeff
            if total:
                coeffs[name] = total
            else:
                del coeffs[name]
        return LinExpr._of(coeffs, self._const + other._const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._of(
            {n: -c for n, c in self._coeffs.items()}, -self._const
        )

    def __sub__(self, other: LinLike) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other: LinLike) -> "LinExpr":
        return (-self) + LinExpr.coerce(other)

    def __mul__(self, factor: PolyLike) -> "LinExpr":
        """Multiply by a loop-invariant polynomial (or int)."""
        factor = Poly.coerce(factor)
        return LinExpr(
            {n: c * factor for n, c in self._coeffs.items()},
            self._const * factor,
        )

    __rmul__ = __mul__

    # -- substitution / evaluation -----------------------------------------------

    def substitute_var(self, name: str, replacement: "LinExpr") -> "LinExpr":
        """Replace variable ``name`` by an affine expression."""
        if name not in self._coeffs:
            return self
        coeff = self._coeffs[name]
        rest = LinExpr(
            {n: c for n, c in self._coeffs.items() if n != name}, self._const
        )
        return rest + replacement * coeff

    def rename_vars(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables (used to keep the two sides of a pair apart)."""
        coeffs: dict[str, Poly] = {}
        for name, coeff in self._coeffs.items():
            new = mapping.get(name, name)
            coeffs[new] = coeffs[new] + coeff if new in coeffs else coeff
        return LinExpr(coeffs, self._const)

    def subs_symbols(self, mapping: Mapping[str, PolyLike]) -> "LinExpr":
        """Substitute values for symbolic parameters in all coefficients."""
        return LinExpr(
            {n: c.subs(mapping) for n, c in self._coeffs.items()},
            self._const.subs(mapping),
        )

    def evaluate(
        self,
        var_values: Mapping[str, int],
        sym_values: Mapping[str, int] | None = None,
    ) -> int:
        """Evaluate at an integer point."""
        sym_values = sym_values or {}
        total = self._const.evaluate(sym_values)
        for name, coeff in self._coeffs.items():
            if name not in var_values:
                raise KeyError(f"no value for variable {name!r}")
            total += coeff.evaluate(sym_values) * var_values[name]
        return total

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Poly)):
            other = LinExpr.coerce(other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._coeffs.items()), self._const))
        return self._hash

    # -- display ------------------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for name in sorted(self._coeffs):
            coeff = self._coeffs[name]
            if coeff == Poly.const(1):
                body = name
            elif coeff == Poly.const(-1):
                body = f"-{name}"
            elif coeff.is_constant() or coeff.is_single_term():
                body = f"{coeff}*{name}"
            else:
                body = f"({coeff})*{name}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        if not self._const.is_zero() or not parts:
            const_str = str(self._const)
            if not parts:
                parts.append(const_str)
            elif const_str.startswith("-"):
                parts.append(f"- {const_str[1:]}")
            else:
                parts.append(f"+ {const_str}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinExpr({self})"


def linear_combination(pairs: Iterable[tuple[PolyLike, LinExpr]]) -> LinExpr:
    """Sum of ``factor * expr`` products."""
    acc = LinExpr()
    for factor, expr in pairs:
        acc = acc + expr * Poly.coerce(factor)
    return acc
