"""Loop residue tests: the Simple Loop Residue test [MHL91] and a
Shostak-style two-variable closure [Sho81, BC86].

**Simple Loop Residue.**  When every equation has the difference form
``z_i - z_j + c = 0`` (coefficients +1/-1, or a single ±1 variable), the
whole problem is a system of difference constraints.  Such systems are
feasible over the *integers* iff the constraint graph has no negative-weight
cycle, so the test is exact when it applies: shortest-path (Bellman-Ford)
negative-cycle detection gives INDEPENDENT/DEPENDENT.  Any equation outside
the difference form makes the test inapplicable (MAYBE) — which is why it
cannot handle the paper's intro equation (1) with its mixed 1/10
coefficients.

**Shostak loop residues.**  Constraints of the form ``a*x + b*y <= c`` with
arbitrary integer coefficients are closed under elimination of a shared
variable with opposite signs.  Saturating the closure and looking for a
contradictory residue ``0 <= c`` with ``c < 0`` decides *real* feasibility
for two-variables-per-constraint systems; like Banerjee it therefore cannot
disprove integer-only infeasibilities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ..core.chaos import chaos_point
from ..core.resilience import Budget
from .problem import DependenceProblem, Verdict

_ZERO = "__zero__"


def simple_loop_residue_test(
    problem: DependenceProblem, budget: Budget | None = None
) -> Verdict:
    """Difference-constraint feasibility via negative-cycle detection."""
    chaos_point("deptest.residue")
    if not problem.is_concrete():
        return Verdict.MAYBE
    # Edge u -> v with weight w encodes  v - u <= w.
    edges: list[tuple[str, str, int]] = []
    for eq in problem.equations:
        coeffs = {n: c.as_int() for n, c in eq.coeffs.items()}
        constant = eq.const.as_int()
        if not coeffs:
            if constant != 0:
                return Verdict.INDEPENDENT
            continue
        values = sorted(coeffs.values())
        names = list(coeffs)
        if len(coeffs) == 1 and abs(values[0]) == 1:
            # z = -c/coeff: encode as two difference constraints vs zero.
            (name,) = names
            value = -constant * values[0]
            edges.append((_ZERO, name, value))
            edges.append((name, _ZERO, -value))
        elif len(coeffs) == 2 and values == [-1, 1]:
            pos = next(n for n in names if coeffs[n] == 1)
            neg = next(n for n in names if coeffs[n] == -1)
            # pos - neg + c = 0  =>  pos - neg <= -c and neg - pos <= c.
            edges.append((neg, pos, -constant))
            edges.append((pos, neg, constant))
        else:
            return Verdict.MAYBE
    for name, var in problem.variables.items():
        upper = var.upper.as_int()
        if upper < 0:
            return Verdict.INDEPENDENT
        edges.append((_ZERO, name, upper))  # name - 0 <= upper
        edges.append((name, _ZERO, 0))  # 0 - name <= 0
    nodes = {_ZERO, *problem.variables}
    distance = {node: 0 for node in nodes}
    for _ in range(len(nodes)):
        if budget is not None and not budget.spend(len(edges)):
            return Verdict.MAYBE
        updated = False
        for u, v, w in edges:
            if distance[u] + w < distance[v]:
                distance[v] = distance[u] + w
                updated = True
        if not updated:
            return Verdict.DEPENDENT  # no negative cycle: integer-feasible
    return Verdict.INDEPENDENT  # still relaxing after |V| rounds


_MAX_DERIVED = 2000


def shostak_test(
    problem: DependenceProblem, budget: Budget | None = None
) -> Verdict:
    """Real feasibility for <=2-variable constraints via residue closure.

    The saturation loop is metered on ``budget`` (default: a fresh budget
    of ``_MAX_DERIVED`` steps, one per pass and one per residue that adds or
    tightens a constraint); exhaustion answers MAYBE.
    """
    chaos_point("deptest.shostak")
    if not problem.is_concrete():
        return Verdict.MAYBE
    if budget is None:
        budget = Budget(steps=_MAX_DERIVED, label="shostak saturation")
    # Constraints: normalized ((var, coeff), ...) -> c, meaning sum <= c.
    # Only the tightest bound per coefficient vector is kept: a looser one
    # is implied by it, and keeping both lets the saturation loop pile up
    # ever looser copies and rescan them all on every pass.
    constraints: dict[tuple[tuple[str, Fraction], ...], Fraction] = {}
    updates = 0  # constraints added or tightened so far

    def add(coeffs: dict[str, Fraction], bound: Fraction) -> bool:
        """Add a normalized constraint; False signals a contradiction."""
        nonlocal updates
        live = {n: c for n, c in coeffs.items() if c}
        if not live:
            return bound >= 0
        scale = abs(next(iter(sorted(live.values(), key=abs, reverse=True))))
        normalized = tuple(sorted((n, c / scale) for n, c in live.items()))
        bound = bound / scale
        if normalized not in constraints or bound < constraints[normalized]:
            constraints[normalized] = bound
            updates += 1
        return True

    for eq in problem.equations:
        coeffs = {n: Fraction(c.as_int()) for n, c in eq.coeffs.items()}
        constant = Fraction(eq.const.as_int())
        if len(coeffs) > 2:
            return Verdict.MAYBE
        if not add(dict(coeffs), -constant):
            return Verdict.INDEPENDENT
        if not add({n: -c for n, c in coeffs.items()}, constant):
            return Verdict.INDEPENDENT
    for name, var in problem.variables.items():
        upper = Fraction(var.upper.as_int())
        if not add({name: Fraction(1)}, upper):
            return Verdict.INDEPENDENT
        if not add({name: Fraction(-1)}, Fraction(0)):
            return Verdict.INDEPENDENT

    # Saturate: eliminate a shared variable between constraint pairs.
    settled = -1
    while updates != settled:
        if not budget.spend():
            return Verdict.MAYBE
        settled = updates
        for first, second in combinations(list(constraints.items()), 2):
            derived = _combine(first, second)
            if derived is None:
                continue
            coeffs, bound = derived
            if not coeffs:
                if bound < 0:
                    return Verdict.INDEPENDENT
                continue
            before = updates
            if not add(dict(coeffs), bound):
                return Verdict.INDEPENDENT
            if updates != before and not budget.spend():
                return Verdict.MAYBE
    return Verdict.MAYBE


def _combine(
    first: tuple[tuple[tuple[str, Fraction], ...], Fraction],
    second: tuple[tuple[tuple[str, Fraction], ...], Fraction],
) -> tuple[tuple[tuple[str, Fraction], ...], Fraction] | None:
    """Eliminate one variable shared with opposite signs, if any."""
    coeffs1, bound1 = first
    coeffs2, bound2 = second
    map1, map2 = dict(coeffs1), dict(coeffs2)
    shared = [
        name
        for name in map1
        if name in map2 and (map1[name] > 0) != (map2[name] > 0)
    ]
    if not shared:
        return None
    name = shared[0]
    scale1 = abs(map2[name])
    scale2 = abs(map1[name])
    merged: dict[str, Fraction] = {}
    for n, c in map1.items():
        merged[n] = merged.get(n, Fraction(0)) + c * scale1
    for n, c in map2.items():
        merged[n] = merged.get(n, Fraction(0)) + c * scale2
    merged = {n: c for n, c in merged.items() if c}
    if len(merged) > 2:
        return None
    return tuple(sorted(merged.items())), bound1 * scale1 + bound2 * scale2
