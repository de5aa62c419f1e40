"""Dependence graph construction for whole programs.

Ties the pipeline together: normalize, bound, pair up references, run
delinearization (or any configured test) on each pair, classify the results
as flow/anti/output/input dependences with direction and distance-direction
vectors, and collect everything into a :class:`DependenceGraph`.

Classification conventions (paper Section 2, classic orientation):

* each reference pair is analyzed once with the textually-first reference as
  side 0 ("alpha");
* a feasible atomic direction whose first non-'=' element is '<' means the
  side-0 instance executes first: the dependence runs side0 -> side1;
* '>' means the side-1 instance executes first: the edge is reported
  side1 -> side0 with the direction vector reversed (so reported vectors are
  always lexicographically non-negative, and reported distances are the
  sink-minus-source iteration differences);
* the all-'=' vector is a dependence only from the textually earlier access
  to the later one inside a single iteration (reads of a statement execute
  before its write);
* write/write = output, write/read = flow, read/write = anti,
  read/read = input (off by default).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

from ..analysis.interproc import ensure_calls_resolved
from ..analysis.normalize import normalize_program, rectangular_bounds
from ..analysis.refpairs import build_pair_problem
from ..core.cache import ProblemCache, cached_delinearize, default_cache
from ..core.chaos import active_state, chaos_point
from ..core.delinearize import DelinearizationResult
from ..core.resilience import DEFAULT_PAIR_BUDGET, Barrier, Budget
from ..deptests.problem import Verdict
from ..dirvec.vectors import (
    D_EQ,
    DirVec,
    DistanceElem,
    DistanceVec,
    summarize,
)
from ..ir import Program, RefContext, collect_refs, mutually_exclusive
from ..lint.audit import audit_result
from ..lint.diagnostics import Diagnostic, sort_diagnostics
from ..lint.ranges import derive_assumptions, nonempty_loop_assumptions
from ..symbolic import Assumptions, Poly


@dataclass(frozen=True)
class Dependence:
    """One dependence edge of the graph."""

    source: RefContext
    sink: RefContext
    kind: str  # "flow" | "anti" | "output" | "input"
    direction: DirVec
    distance: DistanceVec | None = None
    assumed: bool = False  # True when analysis gave up (conservative edge)

    @property
    def guarded(self) -> bool:
        """True when either endpoint executes only on specific IF branches.

        Derived from the endpoints' guard chains (program structure), not
        stored on the edge, so :class:`EdgeSpec` stays unchanged and replayed
        outcomes build the same edges as fresh ones.
        """
        return self.source.guarded or self.sink.guarded

    def pair_label(self) -> str:
        return (
            f"{self.source.stmt.label}:{self.source.ref.array} -> "
            f"{self.sink.stmt.label}:{self.sink.ref.array}"
        )

    def __str__(self) -> str:
        distance = f" distance {self.distance}" if self.distance else ""
        flag = " (assumed)" if self.assumed else ""
        guard = " (guarded)" if self.guarded else ""
        return (
            f"{self.pair_label()} {self.kind} {self.direction}"
            f"{distance}{flag}{guard}"
        )


@dataclass
class GraphPerf:
    """Observability counters for one graph build.

    Everything here is *reporting only*: the graph itself is byte-identical
    for any cache state, while these counters describe how the work was done
    (and so legitimately vary between configurations — they are deliberately
    excluded from the graph's table/DOT/JSON output).
    """

    pairs: int = 0
    #: Always ``1 if pairs else 0``: every pair runs in one in-process loop.
    #: Kept because the benchmark reports it as ``depgraph.pool_batches``.
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    degraded_pairs: int = 0
    wall_seconds: float = 0.0
    #: Per-cascade outcome counts: delinearization verdict -> pair count
    #: (pairs whose problem could not even be built are counted under
    #: ``"unbuildable"``; degraded pairs under ``"degraded"``).
    verdicts: dict[str, int] = field(default_factory=dict)

    def count(self, verdict: str) -> None:
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1

    def format(self) -> str:
        cascade = ", ".join(
            f"{name}={count}" for name, count in sorted(self.verdicts.items())
        )
        return (
            f"pairs={self.pairs} "
            f"cache hit/miss={self.cache_hits}/{self.cache_misses} "
            f"degraded={self.degraded_pairs} "
            f"wall={self.wall_seconds:.3f}s [{cascade}]"
        )


@dataclass
class DependenceGraph:
    """All dependences of a program, plus the analyzed program itself."""

    program: Program
    edges: list[Dependence] = field(default_factory=list)
    #: Soundness-auditor findings (``DS`` codes); populated when the graph
    #: was built with ``audit=True`` and empty on a clean audit.
    audit_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Resilience findings (``RS`` codes): dependence pairs that degraded to
    #: the conservative assumed answer on budget exhaustion (RS002) or an
    #: internal dependence-test error (RS001).  Empty on a clean build.
    degradations: list[Diagnostic] = field(default_factory=list)
    #: Interprocedural findings (``AL``/``RS`` codes) produced while
    #: resolving CALL sites into caller-scope references.  Empty when the
    #: program has no CALLs or every call translated exactly and alias-free.
    alias_diagnostics: list[Diagnostic] = field(default_factory=list)
    #: How the build went (pair counts, cache hits, wall time); reporting
    #: only — never part of rendered output compared across configurations.
    perf: GraphPerf | None = None

    def between(self, source_label: str, sink_label: str) -> list[Dependence]:
        return [
            e
            for e in self.edges
            if e.source.stmt.label == source_label
            and e.sink.stmt.label == sink_label
        ]

    def carried_by_level(self, level: int) -> list[Dependence]:
        """Edges whose outermost non-'=' direction position is ``level``."""
        out = []
        for edge in self.edges:
            positions = [i for i, e in enumerate(edge.direction, 1) if e != D_EQ]
            if positions and positions[0] == level:
                out.append(edge)
        return out

    def loop_independent(self) -> list[Dependence]:
        return [e for e in self.edges if e.direction.is_all_equal()]

    def format_table(self) -> str:
        lines = ["Pair of references | kind | direction | distance-direction"]
        for edge in self.edges:
            distance = str(edge.distance) if edge.distance else "-"
            kind = f"{edge.kind} (guarded)" if edge.guarded else edge.kind
            lines.append(
                f"{edge.pair_label()} | {kind} | {edge.direction} | {distance}"
            )
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format (one node per statement).

        Edge styling follows convention: solid = flow, dashed = anti,
        bold = output, dotted = input/assumed.
        """
        styles = {
            "flow": "solid",
            "anti": "dashed",
            "output": "bold",
            "input": "dotted",
            "scalar": "dotted",
        }
        lines = ["digraph dependences {", "  rankdir=TB;"]
        statements = {
            stmt.label: stmt for stmt, _ in self.program.walk_statements()
        }
        for label, stmt in statements.items():
            text = str(stmt).replace('"', "'")
            lines.append(f'  {label} [shape=box, label="{label}: {text}"];')
        for edge in self.edges:
            style = styles.get(edge.kind, "solid")
            annotation = f"{edge.kind} {edge.direction}"
            if edge.distance:
                annotation += f" {edge.distance}"
            if edge.assumed:
                annotation += " (assumed)"
            if edge.guarded:
                annotation += " (guarded)"
            lines.append(
                f"  {edge.source.stmt.label} -> {edge.sink.stmt.label} "
                f'[style={style}, label="{annotation}"];'
            )
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EdgeSpec:
    """A dependence edge described without its :class:`RefContext` endpoints.

    A :class:`PairOutcome` may be replayed by the daemon's outcome cache in
    a later build, whose IR nodes are not the ones the outcome was computed
    against; edges therefore live as specs and each build rebuilds
    :class:`Dependence` objects against its own reference contexts, keeping
    a replayed graph byte-identical to a fresh one.  ``source_first`` orients
    the edge within its pair.
    """

    source_first: bool
    kind: str
    direction: DirVec
    distance: DistanceVec | None = None
    assumed: bool = False

    def build(self, first: RefContext, second: RefContext) -> Dependence:
        source, sink = (
            (first, second) if self.source_first else (second, first)
        )
        return Dependence(
            source, sink, self.kind, self.direction, self.distance, self.assumed
        )


@dataclass
class PairOutcome:
    """Everything one pair evaluation produced, in picklable form."""

    edges: list[EdgeSpec] = field(default_factory=list)
    degradations: list[Diagnostic] = field(default_factory=list)
    audit: list[Diagnostic] = field(default_factory=list)
    cached: bool = False
    #: Delinearization verdict value, ``"unbuildable"`` when no problem
    #: could be formed, or ``"degraded"`` after a barrier fallback.
    verdict: str = "unbuildable"
    #: True when this outcome may be replayed for an identical pair
    #: fingerprint (see :func:`pair_fingerprint`): the evaluation finished
    #: clean — no degradations and no budget/deadline exhaustion.  Degraded
    #: or deadline-cut outcomes must never be replayed: a later run with
    #: more time could do better, and replaying them would freeze a
    #: transient fault into the incremental state.
    reusable: bool = False


def reference_pairs(
    program: Program, include_input: bool = False
) -> list[tuple[RefContext, RefContext]]:
    """The deterministic pair worklist for a (normalized) program.

    Shared by the pair loop and :func:`conservative_graph`, so a pair's
    index means the same thing everywhere.
    """
    by_array: dict[str, list[RefContext]] = {}
    for ref in collect_refs(program):
        by_array.setdefault(ref.ref.array, []).append(ref)
    pairs: list[tuple[RefContext, RefContext]] = []
    for array_refs in by_array.values():
        for i, first in enumerate(array_refs):
            for second in array_refs[i:]:
                if not (first.is_write or second.is_write):
                    if not include_input:
                        continue
                if first is second and not first.is_write:
                    continue  # self input dependences are meaningless
                pairs.append((first, second))
    return pairs


def assumptions_fingerprint(assumptions: Assumptions) -> str:
    """Stable digest of an assumption set, for pair fingerprints."""
    digest = hashlib.sha256()
    for symbol, lower, upper in assumptions.items():
        digest.update(f"{symbol}:{lower}:{upper};".encode())
    return digest.hexdigest()


def bounds_fingerprint(bounds: dict[str, Poly]) -> str:
    """Stable digest of a rectangular-bounds map, for pair fingerprints."""
    digest = hashlib.sha256()
    for var in sorted(bounds):
        digest.update(f"{var}<={bounds[var]};".encode())
    return digest.hexdigest()


def _identity_indices(chains: list[list]) -> list[list[int]]:
    """Map object *instances* across chains to small stable indices.

    Guard mutual-exclusion and common-loop counting compare IR nodes by
    identity (``a is b``), so a fingerprint built from text alone would
    conflate two same-text IF statements (whose arms CAN co-execute) with
    the two arms of one IF (which cannot).  Numbering first occurrences
    across both chains preserves exactly the sharing structure.
    """
    ids: dict[int, int] = {}
    out: list[list[int]] = []
    for chain in chains:
        row = []
        for obj in chain:
            key = id(obj)
            if key not in ids:
                ids[key] = len(ids)
            row.append(ids[key])
        out.append(row)
    return out


def pair_fingerprint(
    first: RefContext,
    second: RefContext,
    order: dict[str, int],
    *,
    bounds_fp: str,
    assumptions_fp: str,
    options: str,
) -> str:
    """Content digest of everything one pair evaluation can observe.

    Two pairs with equal fingerprints produce byte-identical
    :class:`PairOutcome` contents (edges, audit findings, verdict), which is
    what lets a resident server replay outcomes for untouched routines after
    a ``didChange`` instead of re-solving them — reuse is purely
    fingerprint-keyed, so stale state is impossible by construction (an
    edited pair simply stops matching).  The digest covers: both statements'
    label/text/span, the reference texts and access kinds, the full
    enclosing-loop headers *with instance-sharing structure*, the guard
    chains with IF-instance identity and branch, relative statement order,
    the self-pair flag, and program-global digests of the derived bounds and
    assumptions plus an ``options`` token for the analysis knobs.
    """
    digest = hashlib.sha256()
    digest.update(
        f"v1|{options}|{assumptions_fp}|{bounds_fp}|".encode()
    )
    digest.update(b"self|" if first is second else b"pair|")
    position_a = order.get(first.stmt.label, 0)
    position_b = order.get(second.stmt.label, 0)
    relative = 0 if position_a == position_b else (
        -1 if position_a < position_b else 1
    )
    digest.update(f"order={relative}|".encode())
    loop_rows = _identity_indices([list(first.loops), list(second.loops)])
    guard_rows = _identity_indices(
        [[g.node for g in first.guards], [g.node for g in second.guards]]
    )
    for ref, loop_row, guard_row in (
        (first, loop_rows[0], guard_rows[0]),
        (second, loop_rows[1], guard_rows[1]),
    ):
        digest.update(
            f"ref={ref.stmt.label}@{ref.stmt.span}:{ref.stmt}"
            f":{ref.ref}:{int(ref.is_write)}|".encode()
        )
        for loop, ident in zip(ref.loops, loop_row):
            digest.update(
                f"loop#{ident}={loop}+{loop.step}@{loop.span}|".encode()
            )
        for guard, ident in zip(ref.guards, guard_row):
            digest.update(f"guard#{ident}={guard}|".encode())
    return digest.hexdigest()


def analysis_options_token(
    *,
    include_input: bool,
    audit: bool,
    derive_bounds: bool,
    pair_budget: int | None,
    strict: bool,
) -> str:
    """The analysis-knob component of a pair fingerprint."""
    return (
        f"input={int(include_input)},audit={int(audit)},"
        f"derive={int(derive_bounds)},budget={pair_budget},"
        f"strict={int(strict)}"
    )


def analyze_dependences(
    program: Program,
    assumptions: Assumptions | None = None,
    include_input: bool = False,
    normalized: bool = False,
    audit: bool = False,
    derive_bounds: bool = True,
    strict: bool = False,
    pair_budget: int | None = DEFAULT_PAIR_BUDGET,
    use_cache: bool = True,
    cache: ProblemCache | None = None,
    outcome_cache=None,
    deadline: float | None = None,
    analysis=None,
) -> DependenceGraph:
    """Build the dependence graph of a program using delinearization.

    With ``audit=True`` every delinearization outcome is independently
    re-verified by the soundness auditor (:mod:`repro.lint.audit`); findings
    land in :attr:`DependenceGraph.audit_diagnostics`.

    ``derive_bounds`` (on by default) enriches the user assumptions with
    facts the program itself proves: symbol bounds implied by declared array
    extents and interval-analysis value ranges program-wide, plus — per
    dependence pair — non-emptiness of every loop enclosing either
    reference.  This is the paper's Section 6 inference (``N >= 1`` from
    ``REAL A(0:N*N*N-1)``) made automatic.  ``analysis`` is the program's
    interval analysis (as :func:`repro.lint.ranges.derive_assumptions`
    takes it) when the caller already ran it, as lint does; otherwise it
    runs here.  A derivation the caller already made from the same
    analysis and assumptions is stored on the analysis and reused.

    Each dependence pair runs inside an exception barrier with a fresh work
    budget of ``pair_budget`` steps (None disables metering).  A pair whose
    analysis exhausts its budget or raises degrades to the sound
    conservative answer — dependence assumed with the all-``*`` direction —
    recorded on :attr:`DependenceGraph.degradations` as RS002/RS001.  With
    ``strict=True`` internal errors re-raise instead (budget exhaustion
    still degrades: giving up is a designed outcome).

    Performance knobs (none of which may change the resulting graph —
    ``tests/core/test_cache.py`` holds them to byte-identity):

    * ``use_cache`` / ``cache`` — memoize verdicts on the problem cache
      (:mod:`repro.core.cache`); the process-wide default cache unless
      an explicit :class:`ProblemCache` is given.  ``use_cache=False``
      solves every pair from scratch.  With ``audit=True`` each entry
      also holds the audit's findings, so a hit is relabelled for its
      pair instead of re-audited.

    Server extensions:

    * ``outcome_cache`` — an object with ``lookup(fingerprint)`` and
      ``store(fingerprint, outcome)`` (see
      :class:`repro.server.incremental.OutcomeCache`): whole
      :class:`PairOutcome` objects are replayed for pairs whose
      :func:`pair_fingerprint` is unchanged since a previous build, which is
      what makes ``didChange`` re-analysis incremental.  Bypassed entirely
      while chaos injection is active (replay would mask injected faults).
    * ``deadline`` — an absolute ``time.monotonic()`` instant merged into
      every pair budget; pairs that cross it degrade with RS006 instead of
      running long.
    """
    started = time.perf_counter()
    assumptions = assumptions or Assumptions.empty()
    analyzed = program if normalized else normalize_program(program)
    alias_diagnostics = ensure_calls_resolved(analyzed)
    if derive_bounds:
        assumptions = derive_assumptions(analyzed, assumptions, analysis)
    bounds = rectangular_bounds(analyzed)
    graph = DependenceGraph(analyzed)

    order = {
        stmt.label: index
        for index, (stmt, _) in enumerate(analyzed.walk_statements())
    }
    pairs = reference_pairs(analyzed, include_input)
    if cache is not None:
        problem_cache = cache
    else:
        problem_cache = default_cache() if use_cache else None

    perf = GraphPerf(pairs=len(pairs), batches=1 if pairs else 0)
    fingerprints: list[str] | None = None
    if outcome_cache is not None and active_state() is None:
        assumptions_fp = assumptions_fingerprint(assumptions)
        bounds_fp = bounds_fingerprint(bounds)
        options = analysis_options_token(
            include_input=include_input,
            audit=audit,
            derive_bounds=derive_bounds,
            pair_budget=pair_budget,
            strict=strict,
        )
        fingerprints = [
            pair_fingerprint(
                first,
                second,
                order,
                bounds_fp=bounds_fp,
                assumptions_fp=assumptions_fp,
                options=options,
            )
            for first, second in pairs
        ]
    # One assumption set per enclosing-loop set: the pairs of a nest share
    # it, and with it the prover's memo.
    loop_facts: dict[frozenset[str], Assumptions] = {}
    outcomes = []
    for index, (first, second) in enumerate(pairs):
        fingerprint = fingerprints[index] if fingerprints is not None else None
        if fingerprint is not None:
            replayed = outcome_cache.lookup(fingerprint)
            if replayed is not None:
                outcomes.append(replayed)
                continue
        outcome = evaluate_pair(
            first,
            second,
            bounds,
            assumptions,
            order,
            audit=audit,
            derive_bounds=derive_bounds,
            pair_budget=pair_budget,
            strict=strict,
            cache=problem_cache,
            deadline=deadline,
            loop_facts=loop_facts,
        )
        if fingerprint is not None:
            outcome_cache.store(fingerprint, outcome)
        outcomes.append(outcome)

    degradations: list[Diagnostic] = []
    for outcome, (first, second) in zip(outcomes, pairs):
        for spec in outcome.edges:
            graph.edges.append(spec.build(first, second))
        degradations.extend(outcome.degradations)
        graph.audit_diagnostics.extend(outcome.audit)
        perf.count(outcome.verdict)
        if outcome.cached:
            perf.cache_hits += 1
        elif outcome.verdict not in ("degraded", "unbuildable"):
            perf.cache_misses += 1
        if outcome.verdict == "degraded":
            perf.degraded_pairs += 1

    graph.degradations = sort_diagnostics(degradations)
    graph.alias_diagnostics = alias_diagnostics
    if audit:
        graph.audit_diagnostics = sort_diagnostics(graph.audit_diagnostics)
    perf.wall_seconds = time.perf_counter() - started
    graph.perf = perf
    return graph


def evaluate_pair(
    first: RefContext,
    second: RefContext,
    bounds: dict[str, Poly],
    assumptions: Assumptions,
    order: dict[str, int],
    *,
    audit: bool = False,
    derive_bounds: bool = True,
    pair_budget: int | None = DEFAULT_PAIR_BUDGET,
    strict: bool = False,
    cache: ProblemCache | None = None,
    deadline: float | None = None,
    loop_facts: dict[frozenset[str], Assumptions] | None = None,
) -> PairOutcome:
    """Evaluate one pair behind its own barrier and fresh budget.

    On failure the outcome's partial edges are rolled back: a partial
    direction set can be *narrower* than the truth, and narrower is unsound.
    The assumed all-``*`` edges that replace them cover every possible
    dependence.

    ``deadline`` is an absolute ``time.monotonic()`` instant shared by every
    pair of one request: a pair that crosses it answers conservatively and
    carries an RS006 diagnostic (the metered tests may also give up silently
    as MAYBE — the RS006 note makes that visible and, via
    :attr:`PairOutcome.reusable`, non-replayable).

    ``loop_facts`` maps the loop-variable names enclosing a pair to
    :func:`nonempty_loop_assumptions` of them over ``bounds`` and
    ``assumptions``; :func:`analyze_dependences` shares one such dict
    between the pairs of one graph.
    """
    from ..lint import codes

    outcome = PairOutcome()
    barrier = Barrier(strict=strict)
    label = (
        f"{first.stmt.label}:{first.ref.array} / "
        f"{second.stmt.label}:{second.ref.array}"
    )
    budget = (
        None
        if pair_budget is None and deadline is None
        else Budget(
            steps=pair_budget, label=f"pair {label}", deadline=deadline
        )
    )

    def analyze() -> None:
        chaos_point("depgraph.pair")
        _pair_specs(
            outcome,
            first,
            second,
            bounds,
            assumptions,
            order,
            audit,
            derive_bounds,
            budget,
            cache,
            {} if loop_facts is None else loop_facts,
        )

    def degrade() -> None:
        outcome.edges.clear()
        common = sum(
            1 for a, b in zip(first.loops, second.loops) if a is b
        )
        outcome.edges.extend(_assumed_specs(first, second, common))
        outcome.cached = False
        outcome.verdict = "degraded"

    barrier.run(
        "dependence pair",
        analyze,
        degrade,
        code=codes.RS001,
        statement=label,
        span=first.stmt.span,
    )
    if budget is not None and budget.deadline_hit:
        barrier.note(
            codes.RS006,
            "dependence pair",
            f"deadline exceeded analyzing {label}; conservative answer used",
            statement=label,
            span=first.stmt.span,
        )
    outcome.degradations = barrier.degradations
    outcome.reusable = not outcome.degradations and (
        budget is None or not budget.exhausted
    )
    return outcome


def _pair_specs(
    outcome: PairOutcome,
    first: RefContext,
    second: RefContext,
    bounds: dict[str, Poly],
    assumptions: Assumptions,
    order: dict[str, int],
    audit: bool,
    derive_bounds: bool,
    budget: Budget | None,
    cache: ProblemCache | None,
    loop_facts: dict[frozenset[str], Assumptions],
) -> None:
    if derive_bounds:
        # A dependence requires both statement instances to execute, so the
        # loops enclosing either reference are non-empty *for this pair*
        # (the fact would be unsound applied program-wide).  Bounds are
        # keyed by variable name, so the names are all the facts depend on.
        loop_vars = frozenset(loop.var for loop in first.loops + second.loops)
        if loop_vars not in loop_facts:
            loop_facts[loop_vars] = nonempty_loop_assumptions(
                loop_vars, bounds, assumptions
            )
        assumptions = loop_facts[loop_vars]
    pair = build_pair_problem(first, second, bounds, assumptions)
    if pair.problem is None:
        outcome.edges.extend(
            _assumed_specs(first, second, pair.common_levels)
        )
        return
    auditor = None
    if audit:
        label = (
            f"{first.stmt.label}:{first.ref.array} / "
            f"{second.stmt.label}:{second.ref.array}"
        )

        def auditor(problem, result):
            # A hit goes through ``audit_result`` too, which relabels the
            # stored findings: every audited pair calls it exactly once.
            # The cache keeps the findings without this pair's labels.
            findings = audit_result(
                problem, result, statement=label, span=first.stmt.span
            )
            outcome.audit.extend(findings)
            return [replace(f, statement=None, span=None) for f in findings]

    hits_before = cache.stats.hits if cache is not None else 0
    result = cached_delinearize(
        pair.problem, cache=cache, budget=budget, audit=auditor
    )
    outcome.cached = cache is not None and cache.stats.hits > hits_before
    outcome.verdict = result.verdict.value
    if result.verdict is Verdict.INDEPENDENT:
        return
    forward: set[DirVec] = set()
    backward: set[DirVec] = set()
    identity = False
    vectors = result.direction_vectors or {DirVec.star(pair.common_levels)}
    for vector in vectors:
        for atomic in vector.atomic_vectors():
            klass = DirVec._atomic_class(atomic)
            if klass == "positive":
                forward.add(atomic)
            elif klass == "negative":
                backward.add(atomic.reversed_directions())
            else:
                identity = True
    if first is second:
        # A self pair sees every unordered solution twice (once per
        # orientation); the backward set mirrors the forward one.  The
        # all-'=' identity is the same statement instance: not a dependence.
        backward = set()
        identity = False
    if identity and mutually_exclusive(first.guards, second.guards):
        # Opposite arms of one IF: the condition is evaluated once per
        # reaching of the IF, so the two references never co-execute within
        # a single iteration.  Only the same-iteration (all-'=') component
        # is refuted — cross-iteration dependences between the arms remain
        # (the condition may flip between iterations).
        identity = False
    if identity and first.stmt.label != second.stmt.label:
        # Same-statement identity pairs (a statement reading what it writes
        # in the same instance) are guaranteed read-before-write by any
        # execution model, including vector semantics: not recorded.
        if _executes_before(first, second, order):
            forward.add(DirVec([D_EQ] * pair.common_levels))
        else:
            backward.add(DirVec([D_EQ] * pair.common_levels))

    for direction in summarize(forward):
        outcome.edges.append(
            _make_spec(first, second, True, direction, result, negate=False)
        )
    for direction in summarize(backward):
        outcome.edges.append(
            _make_spec(second, first, False, direction, result, negate=True)
        )


def _make_spec(
    source: RefContext,
    sink: RefContext,
    source_first: bool,
    direction: DirVec,
    result: DelinearizationResult,
    negate: bool,
) -> EdgeSpec:
    distance = _distance_for(direction, result, negate)
    return EdgeSpec(
        source_first,
        _kind(source.is_write, sink.is_write),
        direction,
        distance,
    )


def _distance_for(
    direction: DirVec, result: DelinearizationResult, negate: bool
) -> DistanceVec | None:
    if not result.distances:
        return None
    elements = []
    for level in range(1, len(direction) + 1):
        pinned = result.distances.get(level)
        if pinned is not None and pinned.is_constant():
            value = pinned.as_int()
            elements.append(DistanceElem.exact(-value if negate else value))
        else:
            elements.append(DistanceElem.unknown(direction[level - 1]))
    return DistanceVec(elements)


def _kind(source_writes: bool, sink_writes: bool) -> str:
    if source_writes and sink_writes:
        return "output"
    if source_writes:
        return "flow"
    if sink_writes:
        return "anti"
    return "input"


def _executes_before(
    first: RefContext, second: RefContext, order: dict[str, int]
) -> bool:
    if first.stmt.label != second.stmt.label:
        return order[first.stmt.label] < order[second.stmt.label]
    # Within one statement instance the reads happen before the write.
    return not first.is_write


def _assumed_specs(
    first: RefContext, second: RefContext, common_levels: int
) -> list[EdgeSpec]:
    """Conservative edges when no dimension was analyzable."""
    star = DirVec.star(common_levels)
    specs = [
        EdgeSpec(
            True, _kind(first.is_write, second.is_write), star, None, True
        )
    ]
    if first is not second:
        specs.append(
            EdgeSpec(
                False, _kind(second.is_write, first.is_write), star, None, True
            )
        )
    return specs


def control_diagnostics(graph: DependenceGraph) -> list[Diagnostic]:
    """``CD001``: one note per guarded dependence edge of a graph.

    A guarded edge is real only on executions where its endpoints' IF arms
    are taken; schedulers must honor it (soundness), but a human reading the
    table should know the dependence is path-qualified, not unconditional.
    """
    from ..lint import codes

    diagnostics = []
    for edge in graph.edges:
        if not edge.guarded:
            continue
        guards = [str(g) for g in (*edge.source.guards, *edge.sink.guards)]
        diagnostics.append(
            Diagnostic.make(
                codes.CD001,
                f"dependence {edge.pair_label()} ({edge.kind} "
                f"{edge.direction}) holds only under "
                f"{' and '.join(dict.fromkeys(guards))}",
                statement=edge.source.stmt.label,
                span=edge.source.stmt.span,
            )
        )
    return sort_diagnostics(diagnostics)


def dependences_for_arrays(
    graph: DependenceGraph, arrays: Iterable[str]
) -> list[Dependence]:
    wanted = set(arrays)
    return [e for e in graph.edges if e.source.ref.array in wanted]


def conservative_graph(
    program: Program, include_input: bool = False
) -> DependenceGraph:
    """The maximally conservative graph: every pair assumed dependent.

    The whole-analysis fallback for the driver's phase barrier: no
    normalization, no bound derivation, no dependence testing — just
    assumed all-``*`` edges between every pair of references to the same
    array.  By construction it covers any graph the real analysis could
    have produced, so degrading to it is always sound (and forces the
    vectorizer into a fully serial schedule).
    """
    graph = DependenceGraph(program)
    graph.alias_diagnostics = ensure_calls_resolved(program)
    for first, second in reference_pairs(program, include_input):
        common = sum(
            1 for a, b in zip(first.loops, second.loops) if a is b
        )
        for spec in _assumed_specs(first, second, common):
            graph.edges.append(spec.build(first, second))
    return graph
