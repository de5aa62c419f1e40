"""Direction vectors, distance vectors, distance-direction vectors.

Following the paper's Section 2: for a dependence between instances
``alpha`` (first/source reference) and ``beta`` (second/sink reference) of two
statements sharing ``n0`` loops, the *direction vector* element at level i is

    '<'  if alpha_i < beta_i,   '='  if alpha_i = beta_i,   '>'  if alpha_i > beta_i.

A *distance vector* element is the constant value of ``beta_i - alpha_i``
when one exists; a *distance-direction vector* mixes exact distances with
direction elements (paper: "if some element of distance vector is not
constant we can replace it with the corresponding element of direction
vector").

Direction elements are sets of the three atoms, represented as bitmasks, so
``'*' = {<,=,>}``, ``'<=' = {<,=}`` and so on.  This makes summarization and
the algorithm's ``dv ∩ nv`` merge plain set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

LT = 1
EQ = 2
GT = 4
STAR = LT | EQ | GT

_NAMES = {
    LT: "<",
    EQ: "=",
    GT: ">",
    LT | EQ: "<=",
    EQ | GT: ">=",
    LT | GT: "!=",
    STAR: "*",
    0: "0",
}
_FROM_NAME = {v: k for k, v in _NAMES.items()}


@dataclass(frozen=True)
class DirElem:
    """One direction-vector element: a non-empty subset of {<, =, >}.

    There are only eight masks; the operations below return the shared
    instance of each (:data:`_ELEMS`) instead of building a new one.
    """

    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= STAR:
            raise ValueError(f"bad direction mask {self.mask}")

    @classmethod
    def parse(cls, text: str) -> "DirElem":
        if text not in _FROM_NAME:
            raise ValueError(f"unknown direction element {text!r}")
        return _ELEMS[_FROM_NAME[text]]

    def is_empty(self) -> bool:
        return self.mask == 0

    def atoms(self) -> list["DirElem"]:
        """The atomic elements contained (subsets of size one)."""
        return list(_ATOMS[self.mask])

    def __and__(self, other: "DirElem") -> "DirElem":
        return _ELEMS[self.mask & other.mask]

    def __or__(self, other: "DirElem") -> "DirElem":
        return _ELEMS[self.mask | other.mask]

    def __contains__(self, other: "DirElem") -> bool:
        return (self.mask & other.mask) == other.mask

    def __hash__(self) -> int:
        # The value the generated dataclass hash gives, looked up.
        return _HASHES[self.mask]

    def __str__(self) -> str:
        return _NAMES[self.mask]

    def __repr__(self) -> str:
        return f"DirElem({_NAMES[self.mask]!r})"


_HASHES = tuple(hash((mask,)) for mask in range(STAR + 1))
#: The shared element of each mask.
_ELEMS = tuple(DirElem(mask) for mask in range(STAR + 1))
#: Each mask's atomic elements, in ``<``, ``=``, ``>`` order.
_ATOMS = tuple(
    tuple(_ELEMS[bit] for bit in (LT, EQ, GT) if mask & bit)
    for mask in range(STAR + 1)
)

#: Convenient singletons.
D_LT = _ELEMS[LT]
D_EQ = _ELEMS[EQ]
D_GT = _ELEMS[GT]
D_STAR = _ELEMS[STAR]
D_LE = _ELEMS[LT | EQ]
D_GE = _ELEMS[EQ | GT]
D_NE = _ELEMS[LT | GT]


class DirVec(tuple):
    """A direction vector: a tuple of :class:`DirElem`."""

    def __new__(cls, elems: Iterable[DirElem | str]) -> "DirVec":
        converted = tuple(
            e if isinstance(e, DirElem) else DirElem.parse(e) for e in elems
        )
        return super().__new__(cls, converted)

    @classmethod
    def _of(cls, elems: Iterable[DirElem]) -> "DirVec":
        """A vector of elements already known to be :class:`DirElem`."""
        return tuple.__new__(cls, elems)

    @classmethod
    def star(cls, length: int) -> "DirVec":
        return cls._of((D_STAR,) * length)

    @classmethod
    def parse(cls, text: str) -> "DirVec":
        """Parse ``"(*, <, =)"`` or ``"*,<,="``."""
        body = text.strip().strip("()")
        if not body:
            return cls([])
        return cls([DirElem.parse(part.strip()) for part in body.split(",")])

    def meet(self, other: "DirVec") -> "DirVec | None":
        """Per-position intersection; None when any position empties.

        This is the ``dv ∩ nv ≠ ∅`` merge in the paper's Figure 4 algorithm.
        """
        if len(self) != len(other):
            raise ValueError("direction vectors of different lengths")
        out = []
        for a, b in zip(self, other):
            mask = a.mask & b.mask
            if not mask:
                return None
            out.append(_ELEMS[mask])
        return DirVec._of(out)

    def join(self, other: "DirVec") -> "DirVec":
        """Per-position union (used by summarization)."""
        if len(self) != len(other):
            raise ValueError("direction vectors of different lengths")
        return DirVec._of([a | b for a, b in zip(self, other)])

    def atomic_vectors(self) -> Iterator["DirVec"]:
        """Enumerate all fully-refined (<,=,> only) vectors contained."""
        for combo in product(*(_ATOMS[e.mask] for e in self)):
            yield DirVec._of(combo)

    def contains(self, other: "DirVec") -> bool:
        return all(b in a for a, b in zip(self, other)) and len(self) == len(other)

    def reversed_directions(self) -> "DirVec":
        """Swap < and > in every element (reversing source and sink)."""
        out = []
        for e in self:
            mask = (e.mask & EQ)
            if e.mask & LT:
                mask |= GT
            if e.mask & GT:
                mask |= LT
            out.append(_ELEMS[mask])
        return DirVec._of(out)

    def is_all_equal(self) -> bool:
        return all(e.mask == EQ for e in self)

    def lexicographic_class(self) -> str:
        """'positive' (first non-= atom can be <), 'negative', 'zero', 'mixed'.

        A *positive* vector means the source instance executes no later than
        the sink for at least one contained atomic vector.
        """
        classes = {self._atomic_class(v) for v in self.atomic_vectors()}
        if classes == {"zero"}:
            return "zero"
        if classes <= {"positive", "zero"}:
            return "positive"
        if classes <= {"negative", "zero"}:
            return "negative"
        return "mixed"

    @staticmethod
    def _atomic_class(vec: "DirVec") -> str:
        for e in vec:
            if e.mask == LT:
                return "positive"
            if e.mask == GT:
                return "negative"
        return "zero"

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self) + ")"

    def __repr__(self) -> str:
        return f"DirVec{self}"


@dataclass(frozen=True)
class DistanceElem:
    """A distance-direction vector element: an exact int or a direction."""

    distance: int | None
    direction: DirElem

    @classmethod
    def exact(cls, value: int) -> "DistanceElem":
        if value > 0:
            direction = D_LT
        elif value < 0:
            direction = D_GT
        else:
            direction = D_EQ
        return cls(value, direction)

    @classmethod
    def unknown(cls, direction: DirElem) -> "DistanceElem":
        return cls(None, direction)

    def is_exact(self) -> bool:
        return self.distance is not None

    def __str__(self) -> str:
        if self.distance is None:
            return str(self.direction)
        return f"{self.distance:+d}" if self.distance else "0"


class DistanceVec(tuple):
    """A distance-direction vector (paper: combines both kinds of precision).

    Exact elements use the *sink minus source* convention: a dependence
    carried by loop i from iteration alpha_i to a later iteration beta_i has
    positive distance beta_i - alpha_i, matching direction '<'.
    """

    def __new__(cls, elems: Iterable[DistanceElem]) -> "DistanceVec":
        return super().__new__(cls, tuple(elems))

    def direction_vector(self) -> DirVec:
        return DirVec([e.direction for e in self])

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self) + ")"

    def __repr__(self) -> str:
        return f"DistanceVec{self}"


def merge_direction_sets(
    old: Iterable[DirVec], new: Iterable[DirVec]
) -> set[DirVec]:
    """The Figure-4 merge: ``{dv ∩ nv | dv ∈ old, nv ∈ new, dv ∩ nv ≠ ∅}``."""
    out: set[DirVec] = set()
    for dv in old:
        for nv in new:
            met = dv.meet(nv)
            if met is not None:
                out.add(met)
    return out


def summarize(vectors: Iterable[DirVec]) -> set[DirVec]:
    """Combine direction vectors without losing precision.

    Two vectors may be joined when they differ in at most one position: then
    their join contains exactly their union of atomic decompositions (the
    paper's rule that (=,<) + (=,=) may merge to (=,<=), but (<,=) + (=,<)
    must NOT merge to (<=,<=)).  Applied to fixpoint.
    """
    work = set(vectors)
    changed = True
    while changed:
        changed = False
        for a in list(work):
            for b in list(work):
                if a is b or a not in work or b not in work:
                    continue
                differing = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
                if len(a) == len(b) and len(differing) <= 1:
                    merged = a.join(b)
                    if merged != a or merged != b:
                        work.discard(a)
                        work.discard(b)
                        work.add(merged)
                        changed = True
                        break
            if changed:
                break
    return work
