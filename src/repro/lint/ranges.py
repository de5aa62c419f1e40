"""Interval abstract interpretation over the loop-nest IR.

A forward dataflow pass, run by the shared solver of
:mod:`repro.lint.dataflow` over the same CFG as the ``DF`` passes, that
computes, for every program point, an integer interval for each scalar and
induction variable: widening at loop headers guarantees termination, a
bounded descending (narrowing) phase recovers precision lost to widening,
and the loop guard is applied as a meet on the header-to-body edges only
(the fall-through edge keeps the pre-loop environment, so a scalar that
happens to share the loop variable's name stays sound after the loop).

The results feed three consumers:

* **auto-derived assumptions** (:func:`derive_assumptions`): declared array
  extents imply symbol bounds — the paper's own Section 6 step ("since
  ``N**3 - 1`` is an upper bound of ``A``, ``N >= 1``") — and the read-site
  hull of every assigned scalar becomes an interval fact, so
  :mod:`repro.core.theorem` receives tighter predicates without user
  annotations;
* **per-pair loop facts** (:func:`nonempty_loop_assumptions`): a dependence
  requires both statements to execute, so every enclosing loop of either
  reference is non-empty and its (rectangularized) upper bound is >= 0 —
  applied per dependence pair because the fact is *not* true globally;
* **the ``DB`` diagnostics** (:func:`check_bounds`): provably or possibly
  out-of-bounds linearized subscripts, EQUIVALENCE/COMMON references that
  cross an aliased member's extent, and induction variables whose range
  overflows the dimension the delinearizer would recover.

No pass rescans the program once per scalar or per COMMON member, and
each runs once per lint.  The first :meth:`RangeAnalysis.read_hull` call
builds the read-site hulls of all scalars in one pass over the CFG.  Given
a program's analysis, :func:`derive_assumptions` stores its result on that
analysis, keyed by the base assumptions, so lint's ``DB`` checks and the
dependence graph it builds share one derivation; the store dies with the
analysis.  A linear bound ``a*N + b``, the per-pair case, is inverted in
closed form rather than by binary search.

Everything here is sound with respect to the reference interpreter
(:mod:`repro.ir.interp`): for any execution that does not abort, every value
a scalar holds at a program point lies inside the point's inferred interval
(property-tested in ``tests/lint/test_ranges.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Mapping

from ..ir import (
    ArrayRef,
    Assignment,
    BinOp,
    Expr,
    IntLit,
    Loop,
    Name,
    Program,
    UnaryOp,
    summarize,
    to_poly,
)
from ..ir.fold import fold
from ..symbolic import Assumptions, LinExpr, Poly
from . import codes
from .dataflow import (
    CFG,
    CFGNode,
    _scalar_reads,
    build_cfg,
    incoming_state,
    solve,
)
from .diagnostics import Diagnostic

#: Loop-header visits joined plainly before widening kicks in.  A short
#: delay lets small constant-bound loops stabilize exactly.
WIDEN_DELAY = 3

#: Descending (narrowing) sweeps after the widened fixed point.
NARROW_PASSES = 2

#: Search window for inverting monotone extent polynomials.
_BOUND_SEARCH_LIMIT = 1 << 40


# ---------------------------------------------------------------------------
# The interval domain
# ---------------------------------------------------------------------------

_NEG = float("-inf")
_POS = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` means unbounded on that side."""

    lo: int | None
    hi: int | None

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, value: int) -> "Interval":
        return cls(value, value)

    @classmethod
    def top(cls) -> "Interval":
        return TOP

    # -- predicates ---------------------------------------------------------

    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    # -- extended-real endpoints -------------------------------------------

    def _lo(self) -> float | int:
        return _NEG if self.lo is None else self.lo

    def _hi(self) -> float | int:
        return _POS if self.hi is None else self.hi

    # -- lattice ------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        return _mk(min(self._lo(), other._lo()), max(self._hi(), other._hi()))

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; may be empty (``is_empty`` true)."""
        return _mk(max(self._lo(), other._lo()), min(self._hi(), other._hi()))

    def widen(self, new: "Interval") -> "Interval":
        """Standard interval widening: unstable ends jump to infinity."""
        lo = self.lo if new._lo() >= self._lo() else None
        hi = self.hi if new._hi() <= self._hi() else None
        return Interval(lo, hi)

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "Interval":
        return _mk(-self._hi(), -self._lo())

    def __add__(self, other: "Interval") -> "Interval":
        return _mk(self._lo() + other._lo(), self._hi() + other._hi())

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        products = [
            _mul_ext(a, b)
            for a in (self._lo(), self._hi())
            for b in (other._lo(), other._hi())
        ]
        return _mk(min(products), max(products))

    def div(self, other: "Interval") -> "Interval":
        """FORTRAN integer division (truncation toward zero).

        Division by zero aborts concrete execution, so zero is excluded from
        the divisor before bounding; a divisor interval spanning zero gives
        TOP (splitting would buy little for the subscripts we care about).
        """
        lo_b, hi_b = other._lo(), other._hi()
        if lo_b == 0 and hi_b == 0:
            return TOP
        if lo_b == 0:
            lo_b = 1
        elif hi_b == 0:
            hi_b = -1
        elif lo_b < 0 < hi_b:
            return TOP
        quotients = [
            _div_ext(a, b)
            for a in (self._lo(), self._hi())
            for b in (lo_b, hi_b)
        ]
        return _mk(min(quotients), max(quotients))

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)


def _mk(lo: float | int, hi: float | int) -> Interval:
    return Interval(
        None if lo == _NEG else int(lo), None if hi == _POS else int(hi)
    )


def _mul_ext(a: float | int, b: float | int) -> float | int:
    # 0 * inf is 0 for interval endpoints (the factor really is zero).
    if a == 0 or b == 0:
        return 0
    return a * b


def _div_ext(a: float | int, b: float | int) -> float | int:
    if a in (_NEG, _POS):
        return a if b > 0 else (_POS if a == _NEG else _NEG)
    if b in (_NEG, _POS):
        return 0
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b > 0) else -quotient


# ---------------------------------------------------------------------------
# Abstract environments
# ---------------------------------------------------------------------------

#: An abstract environment maps names to intervals; a missing name is TOP
#: (parameters are resolved separately).  ``None`` marks an unreachable
#: program point.
Env = "dict[str, Interval] | None"


def _env_join(a, b):
    out: dict[str, Interval] = {}
    for name in set(a) | set(b):
        joined = a.get(name, TOP).join(b.get(name, TOP))
        if not joined.is_top():
            out[name] = joined
    return out


def _env_widen(old, new):
    out: dict[str, Interval] = {}
    for name in set(old) | set(new):
        widened = old.get(name, TOP).widen(new.get(name, TOP))
        if not widened.is_top():
            out[name] = widened
    return out


def _env_meet(old, new):
    """Descending-iteration combine; never produces an empty interval."""
    if old is None or new is None:
        return None
    out: dict[str, Interval] = {}
    for name in set(old) | set(new):
        met = old.get(name, TOP).meet(new.get(name, TOP))
        if met.is_empty():
            # Both operands over-approximate the concrete set, so an empty
            # meet means the point is unreachable for this name; either
            # operand is a sound value to keep.
            met = new.get(name, TOP)
        if not met.is_top():
            out[name] = met
    return out


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------


@dataclass
class RangeAnalysis:
    """Per-program-point interval environments for one program."""

    program: Program
    cfg: CFG
    params: dict[str, Interval]
    env_in: dict[int, "dict[str, Interval] | None"]
    #: Read-site hull of every scalar, built by one CFG pass on first use.
    _hulls: dict[str, Interval] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :func:`derive_assumptions` results, keyed by the base assumptions.
    _derived: dict[tuple, Assumptions] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: :func:`declared_bound_assumptions` results, keyed the same way.
    _declared: dict[tuple, Assumptions] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def interval_at(self, node_id: int, name: str) -> Interval:
        """The interval of ``name`` on entry to a CFG node."""
        env = self.env_in.get(node_id)
        if env is None:
            # Unreachable: any claim is sound; TOP avoids surprising callers.
            return TOP
        return self._lookup(name, env)

    def eval(self, expr: Expr, env) -> Interval:
        """Bound an expression over an abstract environment."""
        if isinstance(expr, IntLit):
            return Interval.point(expr.value)
        if isinstance(expr, Name):
            return self._lookup(expr.name, env or {})
        if isinstance(expr, UnaryOp):
            return -self.eval(expr.operand, env)
        if isinstance(expr, BinOp):
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            return left.div(right)
        # Array loads, calls, dereferences: unknown integer.
        return TOP

    def read_hull(self, name: str) -> Interval:
        """Join of ``name``'s intervals over every node that reads it.

        Sound fact about every *read* of the scalar (unlike a join over all
        points, it is unaffected by program regions where the scalar holds a
        different value but is never consulted).  TOP when never read.
        The first call builds the hulls of all scalars in one CFG pass.
        """
        if self._hulls is None:
            self._hulls = self._read_hulls()
        return self._hulls.get(name, TOP)

    def _read_hulls(self) -> dict[str, Interval]:
        arrays = set(self.program.decls)
        hulls: dict[str, Interval] = {}
        for node in self.cfg.nodes:
            if node.kind not in ("assign", "loop"):
                continue
            env = self.env_in.get(node.id)
            if env is None:
                continue  # unreachable reads constrain nothing
            for name in _scalar_reads(node, arrays):
                value = self._lookup(name, env)
                hull = hulls.get(name)
                hulls[name] = value if hull is None else hull.join(value)
        return hulls

    def _lookup(self, name: str, env: dict[str, Interval]) -> Interval:
        if name in env:
            return env[name]
        return self.params.get(name, TOP)


def analyze_ranges(
    program: Program,
    assumptions: Assumptions | None = None,
    cfg: CFG | None = None,
) -> RangeAnalysis:
    """Run the interval abstract interpretation over a program.

    ``assumptions`` seed the intervals of symbolic parameters (names the
    program never defines); ``cfg`` is the program's CFG when the caller
    already built it.
    """
    if cfg is None:
        cfg = build_cfg(program)
    params: dict[str, Interval] = {}
    if assumptions is not None:
        for symbol, lower, upper in assumptions.items():
            params[symbol] = Interval(lower, upper)
    analysis = RangeAnalysis(program, cfg, params, {})

    transfer = partial(_edge_env, analysis)

    def widen(old, new, visits: int):
        if visits > WIDEN_DELAY:
            return _env_widen(old, new)
        return _env_join(old, new)

    env_in = solve(
        cfg, boundary={}, transfer=transfer, join=_env_join, widen=widen
    )
    analysis.env_in = env_in

    # Descending sweeps: re-apply the transfer functions without widening
    # and meet with the widened solution.  Starting from a post-fixed point
    # every intermediate state still over-approximates the concrete
    # semantics, so a bounded number of passes is sound.
    for _ in range(NARROW_PASSES):
        changed = False
        for node in cfg.nodes:
            if node.id == cfg.entry.id:
                continue
            incoming = incoming_state(cfg, env_in, node, transfer, _env_join)
            refined = _env_meet(env_in[node.id], incoming)
            if refined != env_in[node.id]:
                env_in[node.id] = refined
                changed = True
        if not changed:
            break
    return analysis


def seeded_ranges(
    program: Program,
    assumptions: Assumptions | None = None,
    cfg: CFG | None = None,
) -> RangeAnalysis:
    """:func:`analyze_ranges` seeded with ``assumptions`` and the symbol
    bounds the declared extents imply: the analysis that
    :func:`derive_assumptions` reads.  The seed is kept on the analysis, so
    deriving from it does not compute those bounds again."""
    declared = declared_bound_assumptions(program, assumptions)
    analysis = analyze_ranges(program, declared, cfg)
    analysis._declared[_base_key(assumptions)] = declared
    return analysis


def _transfer(analysis: RangeAnalysis, node: CFGNode, env):
    """The abstract effect of executing one node (OUT from IN)."""
    if env is None or node.kind != "assign":
        return env
    stmt = node.stmt
    assert isinstance(stmt, Assignment)
    if not isinstance(stmt.lhs, Name):
        return env  # array store: no scalar changes
    name = stmt.lhs.name
    if any(loop.var == name for loop in node.loops):
        # Assigning a scalar that shares an enclosing loop variable's name:
        # reads inside the loop still see the (shadowing) loop binding,
        # reads after it see the scalar.  TOP covers both.
        value = TOP
    else:
        value = analysis.eval(stmt.rhs, env)
    out = dict(env)
    if value.is_top():
        out.pop(name, None)
    else:
        out[name] = value
    return out


def _edge_env(analysis: RangeAnalysis, pred: CFGNode, env, succ: CFGNode):
    """The environment flowing along one CFG edge.

    The loop-variable binding is applied only on edges from a loop header
    into its own body; the fall-through edge (zero-trip bypass / normal
    exit) carries the header environment unchanged.
    """
    env = _transfer(analysis, pred, env)
    if env is None or pred.kind != "loop":
        return env
    loop = pred.stmt
    assert isinstance(loop, Loop)
    if loop not in succ.loops:
        return env
    binding = _loop_binding(analysis, loop, env)
    if binding.is_empty():
        return None  # the loop provably never executes
    out = dict(env)
    if binding.is_top():
        out.pop(loop.var, None)
    else:
        out[loop.var] = binding
    return out


def _loop_binding(analysis: RangeAnalysis, loop: Loop, env) -> Interval:
    """The interval of a loop variable inside the loop body."""
    lower = analysis.eval(loop.lower, env)
    upper = analysis.eval(loop.upper, env)
    step = analysis.eval(loop.step, env)
    if step.lo is not None and step.lo >= 1:
        return Interval(lower.lo, upper.hi)
    if step.hi is not None and step.hi <= -1:
        return Interval(upper.lo, lower.hi)
    # Unknown step sign: the hull of both orientations.
    return Interval(lower.lo, upper.hi).join(Interval(upper.lo, lower.hi))


# ---------------------------------------------------------------------------
# Auto-derived assumptions
# ---------------------------------------------------------------------------


def declared_bound_assumptions(
    program: Program, base: Assumptions | None = None
) -> Assumptions:
    """Symbol bounds implied by declared array extents.

    A conforming program declares every dimension with at least one element,
    so each extent polynomial is >= 1.  For extents that are provably
    increasing in a single symbol (all non-constant terms positive with odd
    exponents — ``N``, ``N**3``, ``2*N + 3``...), the implication inverts to
    a lower bound on the symbol: the paper's Section 6 inference that
    ``REAL A(0:N*N*N-1)`` entails ``N >= 1``.
    """
    result = base or Assumptions.empty()
    for decl in program.decls.values():
        for dim in decl.dims:
            if isinstance(dim.lower, IntLit) and isinstance(dim.upper, IntLit):
                continue  # a constant extent bounds no symbol
            extent = to_poly(
                fold(BinOp("+", BinOp("-", dim.upper, dim.lower), IntLit(1)))
            )
            if extent is None or extent.is_constant():
                continue
            inverted = _invert_monotone(extent, 1)
            if inverted is not None:
                symbol, minimum = inverted
                result = result.with_bound(symbol, minimum)
    return result


def nonempty_loop_assumptions(
    loop_vars: Iterable[str],
    bounds: Mapping[str, Poly],
    base: Assumptions,
) -> Assumptions:
    """Symbol bounds implied by the given (normalized) loops executing.

    A dependence between two statements exists only when both execute, so
    every enclosing loop of either reference ran at least once: its
    rectangularized upper bound — which dominates the true bound over the
    enclosing iteration box — is >= 0.  These facts are **per dependence
    pair**: globally assuming ``N >= 2`` because some loop runs to ``N - 2``
    would wrongly constrain statements outside that loop.
    """
    result = base
    for var in sorted(set(loop_vars)):
        upper = bounds.get(var)
        if upper is None or upper.is_constant():
            continue
        inverted = _invert_monotone(upper, 0)
        if inverted is not None:
            symbol, minimum = inverted
            result = result.with_bound(symbol, minimum)
    return result


def derive_assumptions(
    program: Program,
    assumptions: Assumptions | None = None,
    analysis: RangeAnalysis | None = None,
) -> Assumptions:
    """All program-wide assumption sources combined.

    Declared-extent bounds first, then interval facts: for every scalar the
    program assigns, the hull of its value over all *read* sites — when
    finite on either end — becomes an interval assumption, making scalars
    like ``M = 100`` transparent to the dependence tests that treat them as
    opaque symbols.  (Loop-execution facts are per-pair; see
    :func:`nonempty_loop_assumptions`.)

    Given the ``analysis`` of ``program``, the result is stored on it,
    keyed by the base ``assumptions``, so the lint pass and the dependence
    graph it builds derive once; the store dies with the analysis.
    """
    if analysis is None or analysis.program is not program:
        return _derive(program, assumptions, analysis)
    key = _base_key(assumptions)
    derived = analysis._derived.get(key)
    if derived is None:
        derived = analysis._derived[key] = _derive(
            program, assumptions, analysis
        )
    return derived


def _derive(
    program: Program,
    assumptions: Assumptions | None,
    analysis: RangeAnalysis | None,
) -> Assumptions:
    if analysis is None:
        analysis = seeded_ranges(program, assumptions)
    result = None
    if analysis.program is program:
        result = analysis._declared.get(_base_key(assumptions))
    if result is None:
        result = declared_bound_assumptions(program, assumptions)
    table = summarize(program).loop_table
    for name in sorted(table.assigned - table.loop_vars):
        hull = analysis.read_hull(name)
        if hull.is_top():
            continue
        result = result.with_interval(name, hull.lo, hull.hi)
    return result


def _base_key(assumptions: Assumptions | None) -> tuple:
    return tuple(assumptions.items()) if assumptions is not None else ()


def _invert_monotone(poly: Poly, target: int) -> tuple[str, int] | None:
    """Solve ``poly(n) >= target`` for the smallest integer ``n``.

    Only handles polynomials in one symbol that are strictly increasing over
    all of Z (every non-constant term has a positive coefficient and an odd
    exponent); returns ``(symbol, minimal n)`` or None.  The answer must lie
    in ``(-2**40, 2**40]``: a linear ``a*n + b`` is solved in closed form,
    higher odd degrees by binary search over that window.
    """
    symbols = poly.symbols()
    if len(symbols) != 1:
        return None
    (symbol,) = symbols
    terms = poly.terms
    for mono, coeff in terms.items():
        if not mono:
            continue
        ((_, exponent),) = mono
        if coeff <= 0 or exponent % 2 == 0:
            return None
    if poly.degree() == 1:
        # a*n + b >= target  <=>  n >= ceil((target - b) / a), as a > 0.
        slope = terms[((symbol, 1),)]
        minimum = -((poly.constant_term() - target) // slope)
        if -_BOUND_SEARCH_LIMIT < minimum <= _BOUND_SEARCH_LIMIT:
            return symbol, minimum
        return None
    lo, hi = -_BOUND_SEARCH_LIMIT, _BOUND_SEARCH_LIMIT
    if poly.evaluate({symbol: hi}) < target:
        return None
    if poly.evaluate({symbol: lo}) >= target:
        return None  # no information within the search window
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if poly.evaluate({symbol: mid}) >= target:
            hi = mid
        else:
            lo = mid
    return symbol, hi


# ---------------------------------------------------------------------------
# DB diagnostics
# ---------------------------------------------------------------------------


def check_bounds(
    program: Program,
    assumptions: Assumptions | None = None,
    analysis: RangeAnalysis | None = None,
) -> list[Diagnostic]:
    """All ``DB`` checks over one program.

    ``assumptions`` should already include derived facts (see
    :func:`derive_assumptions`) so parameter intervals are as tight as the
    program makes provable.
    """
    if analysis is None:
        analysis = analyze_ranges(program, assumptions)
    diags: list[Diagnostic] = []
    seen: set[tuple] = set()

    def emit(code: str, message: str, stmt: Assignment) -> None:
        key = (code, stmt.label, message)
        if key in seen:
            return
        seen.add(key)
        diags.append(
            Diagnostic.make(
                code, message, statement=stmt.label, span=stmt.span
            )
        )

    _check_linearized_refs(program, analysis, emit)
    _check_equivalence_extents(program, analysis, emit)
    _check_common_extents(program, analysis, emit)
    return diags


def _assign_nodes(analysis: RangeAnalysis):
    """Each reachable assignment's summary with its entry environment."""
    summary = summarize(analysis.program)
    for node in analysis.cfg.nodes:
        if node.kind != "assign":
            continue
        env = analysis.env_in.get(node.id)
        if env is None:
            continue  # unreachable
        yield summary.of(node.stmt), env


def _check_linearized_refs(
    program: Program, analysis: RangeAnalysis, emit
) -> None:
    """``DB001``/``DB002``/``DB004``: linearized subscripts vs bounds."""
    from ..analysis.linearize import is_linearized

    for summary, env in _assign_nodes(analysis):
        for ref in summary.refs:
            decl = program.array(ref.ref.array)
            if decl is None or not decl.dims or ref.ref.rank != decl.rank:
                continue  # implicit shape or a DL002 rank error
            dims = zip(ref.ref.subscripts, ref.forms, decl.dims)
            for sub, form, dim in dims:
                if not is_linearized(form):
                    continue  # single-variable subscripts are DL003-DL005
                value = analysis.eval(sub, env)
                declared = Interval(
                    analysis.eval(dim.lower, env).lo,
                    analysis.eval(dim.upper, env).hi,
                )
                stmt = summary.stmt
                _report_subscript(
                    ref.ref, sub, dim, value, declared, stmt, emit
                )
                _check_dimension_overflow(
                    ref.ref, sub, form, env, stmt, analysis, emit
                )


def _report_subscript(
    ref: ArrayRef,
    sub: Expr,
    dim,
    value: Interval,
    declared: Interval,
    stmt: Assignment,
    emit,
) -> None:
    below = value.hi is not None and declared.lo is not None \
        and value.hi < declared.lo
    above = value.lo is not None and declared.hi is not None \
        and value.lo > declared.hi
    if below or above:
        emit(
            codes.DB001,
            f"{ref.array}({sub}): subscript range {value} never intersects "
            f"declared bounds {dim}",
            stmt,
        )
        return
    may_under = (
        value.lo is not None
        and declared.lo is not None
        and value.lo < declared.lo
    )
    may_over = (
        value.hi is not None
        and declared.hi is not None
        and value.hi > declared.hi
    )
    if may_under or may_over:
        side = "under" if may_under else "over"
        emit(
            codes.DB002,
            f"{ref.array}({sub}): subscript range {value} can {side}run "
            f"declared bounds {dim}",
            stmt,
        )


def _check_dimension_overflow(
    ref: ArrayRef,
    sub: Expr,
    lowered: LinExpr,
    env,
    stmt: Assignment,
    analysis: RangeAnalysis,
    emit,
) -> None:
    """``DB004``: a variable's range overflows the recovered dimension.

    In ``C(i + 10*j)`` the delinearizer recovers a dimension of extent
    ``10 / 1 = 10`` for ``i`` (adjacent coefficient magnitudes with exact
    divisibility, paper Section 3).  If ``i`` ranges over more than 10
    values, distinct ``(i, j)`` pairs collide in storage and the recovered
    dimensions misrepresent the reference.
    """
    magnitudes: list[tuple[int, str]] = []
    for var in sorted(lowered.variables()):
        coeff = lowered.coeff(var)
        if not coeff.is_constant() or coeff.as_int() == 0:
            return  # symbolic strides: handled by the dependence tests
        magnitudes.append((abs(coeff.as_int()), var))
    magnitudes.sort()
    for (small, var), (big, _next_var) in zip(magnitudes, magnitudes[1:]):
        if small == big or big % small != 0:
            continue
        extent = big // small
        iv = analysis._lookup(var, env)
        if iv.lo is None or iv.hi is None:
            continue
        span = iv.hi - iv.lo + 1
        if span > extent:
            emit(
                codes.DB004,
                f"{ref.array}({sub}): {var} spans {span} values "
                f"{iv} but the recovered dimension holds only {extent}",
                stmt,
            )


def _check_equivalence_extents(
    program: Program, analysis: RangeAnalysis, emit
) -> None:
    """``DB003`` (EQUIVALENCE): a reference crossing an alias's extent."""
    from ..analysis.linearize import (
        LinearizationError,
        alias_groups,
        layout_of,
    )

    groups = alias_groups(program)
    if not groups:
        return
    layouts = {}
    sizes = {}
    for group in groups:
        for member in group:
            decl = program.array(member)
            if decl is None or not decl.dims:
                continue
            try:
                layout = layout_of(decl)
            except LinearizationError:
                continue
            layouts[member] = layout
            size = analysis.eval(layout.size(), None)
            if size.is_point():
                sizes[member] = size.lo
    member_group = {m: g for g in groups for m in g}
    for summary, env in _assign_nodes(analysis):
        for ref in (ref.ref for ref in summary.refs):
            group = member_group.get(ref.array)
            layout = layouts.get(ref.array)
            if group is None or layout is None:
                continue
            if len(ref.subscripts) != layout.rank:
                continue
            try:
                offset = layout.offset(ref.subscripts)
            except LinearizationError:
                continue
            span = analysis.eval(offset, env)
            if span.lo is None or span.hi is None:
                continue
            for other in sorted(group):
                if other == ref.array or other not in sizes:
                    continue
                boundary = sizes[other]
                if span.lo < boundary <= span.hi:
                    emit(
                        codes.DB003,
                        f"{ref}: storage offsets {span} cross the extent "
                        f"{boundary} of EQUIVALENCE'd {other}",
                        summary.stmt,
                    )


def _check_common_extents(
    program: Program, analysis: RangeAnalysis, emit
) -> None:
    """``DB003`` (COMMON): a member reference running into its successor."""
    from ..analysis.linearize import LinearizationError, layout_of

    members = {m for block in program.commons for m in block.members}
    if not members:
        return
    # One pass groups the member references.  The checks below visit them
    # block by block and member by member, which fixes the findings' order.
    refs_of: dict[str, list] = {}
    for summary, env in _assign_nodes(analysis):
        for ref in summary.refs:
            if ref.ref.array in members:
                refs_of.setdefault(ref.ref.array, []).append(
                    (summary.stmt, env, ref.ref)
                )
    for block in program.commons:
        for member in block.members:
            decl = program.array(member)
            if decl is None or not decl.dims:
                continue
            try:
                layout = layout_of(decl)
            except LinearizationError:
                continue
            size = analysis.eval(layout.size(), None)
            if not size.is_point():
                continue
            for stmt, env, ref in refs_of.get(member, ()):
                if len(ref.subscripts) != layout.rank:
                    continue
                try:
                    offset = layout.offset(ref.subscripts)
                except LinearizationError:
                    continue
                span = analysis.eval(offset, env)
                if span.hi is None or span.hi < size.lo:
                    continue
                label = f"/{block.name}/" if block.name else "blank"
                emit(
                    codes.DB003,
                    f"{ref}: storage offsets {span} run past the "
                    f"extent {size.lo} of {member} in COMMON {label}",
                    stmt,
                )
