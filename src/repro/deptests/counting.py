"""Exact solution counting by dynamic programming over partial sums.

The soundness audit needs three facts about a small concrete problem:
whether it has a solution, which atomic direction vectors its solutions
realize, and how many box points solve one equation.  Enumerating the box
answers all three in time proportional to its size; this module answers
them in time proportional to the number of distinct partial sums.

:func:`solution_census` splits the variables into *stages*:

* each complete level pair ``(alpha, beta)`` is one stage.  When the pair's
  coefficients cancel in every equation (the ``a*alpha - a*beta`` shape of
  every same-loop subscript) its contribution depends on the distance
  ``d = beta - alpha`` alone, so the stage has one row per distance:
  ``Z_alpha + Z_beta + 1`` rows, each weighted by the number of
  ``(alpha, beta)`` at that distance.  Otherwise the stage tabulates every
  ``(alpha, beta)`` by contribution and direction;
* every other variable is a stage of its own, one row per value.

The stages are folded, coarsest coefficients first, into a map from
(tuple of partial sums, direction prefix) to a point count.  A state whose
sums cannot reach zero with the remaining stages' extreme contributions is
dropped, and the last stage is not folded at all: each surviving state asks
it for the rows that complete it, a dictionary lookup for a table and a
division for a distance or a single variable.  This is the plain integer DP
over partial sums that Rubinstein's partition formulas and Polyhedral Omega
solve in closed form; :mod:`repro.deptests.exhaustive` stays the ground
truth it is property-tested against.
"""

from __future__ import annotations

from operator import add, le

from ..core.chaos import chaos_point
from ..core.resilience import Budget
from ..dirvec.vectors import D_EQ, D_GT, D_LT, DirVec
from .problem import DependenceProblem

#: Direction codes are base-3 numbers, one digit per complete level pair
#: (digit ``k`` is the ``k``-th pair in level order).
_ELEMS = (D_LT, D_EQ, D_GT)

#: One stage row: (contribution to each equation, direction digit already
#: shifted to its pair's place, number of variable assignments).
_Row = tuple[tuple[int, ...], int, int]


def solution_census(
    problem: DependenceProblem, budget: Budget | None = None
) -> dict[DirVec, int] | None:
    """Solving box points per realized atomic direction vector.

    Directions range over the problem's *complete* level pairs (levels
    whose side-0 and side-1 variables are both present), in level order;
    with none, the single key is the empty vector.  Every variable of the
    problem counts, whether or not an equation mentions it.  The result is
    empty when nothing solves the problem, and None when ``budget`` (one
    step per DP transition; unbounded when omitted) runs out first.
    Concrete problems only: symbolic ones raise :exc:`ValueError`.
    """
    chaos_point("audit.count")
    if not problem.is_concrete():
        raise ValueError(f"solution census needs a concrete problem: {problem}")
    if budget is None:
        budget = Budget(label="solution census")
    if any(var.upper.as_int() < 0 for var in problem.variables.values()):
        return {}  # an empty range: the box has no points
    equations = problem.equations

    def coeffs(name: str) -> tuple[int, ...]:
        return tuple(eq.coeff(name).as_int() for eq in equations)

    pairs = []
    for level in range(1, problem.common_levels + 1):
        pair = problem.level_pair(level)
        if pair is not None:
            pairs.append(pair)
    stages: list[_Single | _Distance | _Table] = []
    paired: set[str] = set()
    for slot, (alpha, beta) in enumerate(pairs):
        paired.update((alpha.name, beta.name))
        first, second = coeffs(alpha.name), coeffs(beta.name)
        uppers = (alpha.upper.as_int(), beta.upper.as_int())
        if all(a + b == 0 for a, b in zip(first, second)):
            stages.append(_Distance(second, uppers, 3**slot))
        else:
            stages.append(_Table(first, second, uppers, 3**slot))
    for name, var in problem.variables.items():
        if name not in paired:
            stages.append(_Single(coeffs(name), var.upper.as_int()))

    consts = tuple(eq.const.as_int() for eq in equations)
    if not stages:
        return {} if any(consts) else {DirVec([]): 1}
    # Coarsest first: the fine stages left at the end bound the remaining
    # contribution tightly, so pruning keeps few states alive.
    stages.sort(
        key=lambda stage: -max(
            (hi - lo for lo, hi in zip(stage.lows, stage.highs)), default=0
        )
    )
    # rest[k]: the least and greatest contribution of stages k.. per equation.
    rest = [((0,) * len(consts), (0,) * len(consts))]
    for stage in reversed(stages):
        lows, highs = rest[-1]
        rest.append(
            (
                tuple(a + b for a, b in zip(stage.lows, lows)),
                tuple(a + b for a, b in zip(stage.highs, highs)),
            )
        )
    rest.reverse()

    states: dict[tuple[tuple[int, ...], int], int] = {(consts, 0): 1}
    for index, stage in enumerate(stages[:-1]):
        rows = stage.rows()
        if not budget.spend(len(states) * len(rows)):
            return None
        # The later stages can cancel sums in [-highs, -lows] only.
        lows, highs = rest[index + 1]
        floor, ceiling = tuple(-h for h in highs), tuple(-lo for lo in lows)
        folded: dict[tuple[tuple[int, ...], int], int] = {}
        for (sums, code), count in states.items():
            for contrib, digit, ways in rows:
                new = tuple(map(add, sums, contrib))
                if all(map(le, floor, new)) and all(map(le, new, ceiling)):
                    key = (new, code + digit)
                    folded[key] = folded.get(key, 0) + count * ways
        if not folded:
            return {}
        states = folded

    if not budget.spend(len(states)):
        return None
    census: dict[int, int] = {}
    for (sums, code), count in states.items():
        for digit, ways in stages[-1].completing(tuple(-s for s in sums)):
            census[code + digit] = census.get(code + digit, 0) + count * ways
    return {_decode(code, len(pairs)): n for code, n in census.items()}


class _Single:
    """A variable of no complete level pair: values ``t`` in ``[0, upper]``
    contributing ``step * t``, with no direction."""

    def __init__(self, step: tuple[int, ...], upper: int):
        self.step, self.upper = step, upper
        self.lows, self.highs = _extremes(step, 0, upper)

    def rows(self) -> list[_Row]:
        return _merge(
            (_times(self.step, t), 0, 1) for t in range(self.upper + 1)
        )

    def completing(self, target: tuple[int, ...]) -> list[tuple[int, int]]:
        """``(digit, ways)`` of the values with ``step * t == target``."""
        ways = len(_solutions(self.step, target, 0, self.upper))
        return [(0, ways)] if ways else []


class _Distance:
    """A level pair whose coefficients cancel: it contributes ``step * d``
    for the distance ``d = beta - alpha`` in ``[-Z_alpha, Z_beta]``, which
    every ``alpha`` in ``[max(0, -d), min(Z_alpha, Z_beta - d)]`` realizes
    with the direction of ``d``."""

    def __init__(
        self, step: tuple[int, ...], uppers: tuple[int, int], place: int
    ):
        self.step, self.uppers, self.place = step, uppers, place
        self.lo, self.hi = -uppers[0], uppers[1]
        self.lows, self.highs = _extremes(step, self.lo, self.hi)

    def _row(self, d: int) -> tuple[int, int]:
        """``(direction digit, ways)`` of distance ``d``."""
        upper_alpha, upper_beta = self.uppers
        ways = min(upper_alpha, upper_beta - d) - max(0, -d) + 1
        return _digit(0, d) * self.place, ways

    def rows(self) -> list[_Row]:
        return _merge(
            (_times(self.step, d), *self._row(d))
            for d in range(self.lo, self.hi + 1)
        )

    def completing(self, target: tuple[int, ...]) -> list[tuple[int, int]]:
        """``(digit, ways)`` of the distances with ``step * d == target``."""
        merged: dict[int, int] = {}
        for d in _solutions(self.step, target, self.lo, self.hi):
            digit, ways = self._row(d)
            merged[digit] = merged.get(digit, 0) + ways
        return list(merged.items())


class _Table:
    """A level pair whose coefficients do not cancel: every
    ``(alpha, beta)``, grouped by contribution and direction."""

    def __init__(
        self,
        first: tuple[int, ...],
        second: tuple[int, ...],
        uppers: tuple[int, int],
        place: int,
    ):
        self._rows = _merge(
            (
                tuple(a * x + b * y for a, b in zip(first, second)),
                _digit(x, y) * place,
                1,
            )
            for x in range(uppers[0] + 1)
            for y in range(uppers[1] + 1)
        )
        self._completing: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for contrib, digit, n in self._rows:
            self._completing.setdefault(contrib, []).append((digit, n))
        columns = list(zip(*(row[0] for row in self._rows)))
        self.lows = tuple(map(min, columns))
        self.highs = tuple(map(max, columns))

    def rows(self) -> list[_Row]:
        return self._rows

    def completing(self, target: tuple[int, ...]) -> list[tuple[int, int]]:
        return self._completing.get(target, [])


def _merge(rows) -> list[_Row]:
    """``rows`` with equal contribution and digit summed into one."""
    table: dict[tuple[tuple[int, ...], int], int] = {}
    for contrib, digit, ways in rows:
        table[contrib, digit] = table.get((contrib, digit), 0) + ways
    return [(contrib, digit, n) for (contrib, digit), n in table.items()]


def _times(step: tuple[int, ...], t: int) -> tuple[int, ...]:
    return tuple(s * t for s in step)


def _extremes(
    step: tuple[int, ...], lo: int, hi: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-equation least and greatest ``step * t`` over ``t`` in
    ``[lo, hi]``."""
    ends = [(s * lo, s * hi) for s in step]
    return tuple(min(end) for end in ends), tuple(max(end) for end in ends)


def _solutions(
    step: tuple[int, ...], target: tuple[int, ...], lo: int, hi: int
) -> range:
    """The ``t`` in ``[lo, hi]`` with ``step * t == target``: all of them
    for a zero step and a zero target, otherwise at most one."""
    t = None
    for s, want in zip(step, target):
        if s == 0:
            if want:
                return range(0)
        elif want % s or (t is not None and t != want // s):
            return range(0)
        else:
            t = want // s
    if t is None:
        return range(lo, hi + 1)
    return range(t, t + 1) if lo <= t <= hi else range(0)


def _digit(alpha: int, beta: int) -> int:
    """The base-3 digit of the direction of ``alpha`` against ``beta``."""
    if alpha < beta:
        return 0  # D_LT
    return 1 if alpha == beta else 2  # D_EQ, D_GT


def _decode(code: int, length: int) -> DirVec:
    elems = []
    for _ in range(length):
        code, digit = divmod(code, 3)
        elems.append(_ELEMS[digit])
    return DirVec(elems)
