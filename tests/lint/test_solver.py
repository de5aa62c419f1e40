"""The shared fixed-point solver against the loops it replaced, and one CFG
per lint.

The interval analysis and reaching definitions both run on
:func:`repro.lint.dataflow.solve`.  The references below are the two
loops that solver replaced, kept verbatim in behaviour: the interval
pass's own worklist (join for the first ``WIDEN_DELAY`` visits of a loop
header, widen after that) followed by its narrowing sweeps, and the
set-based solver reaching definitions used, which started every node at the
empty set.  Both must give the same states on every program.
"""

from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.corpus.generator import generate_program
from repro.ir import CallStmt, Name
from repro.lint import dataflow, engine, ranges
from repro.lint.dataflow import (
    ENTRY_DEF,
    _defined_name,
    build_cfg,
    reaching_definitions,
)
from repro.lint.engine import lint_source
from repro.lint.ranges import (
    NARROW_PASSES,
    WIDEN_DELAY,
    _edge_env,
    _env_join,
    _env_meet,
    _env_widen,
    analyze_ranges,
)

from .test_ranges import _programs

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def join_or_none(a, b):
    """Environment join with ``None`` (unreached) as its identity."""
    if a is None:
        return b
    if b is None:
        return a
    return _env_join(a, b)


def widen_or_none(old, new):
    """Environment widening as the former loop applied it to ``None``."""
    if old is None or new is None:
        return new
    return _env_widen(old, new)


def reference_env_in(analysis):
    """The interval pass's former two-phase loop, over ``analysis``'s CFG."""
    cfg = analysis.cfg
    env_in = {node.id: None for node in cfg.nodes}
    env_in[cfg.entry.id] = {}

    def incoming(node):
        joined = None
        for pred_id in node.preds:
            pred = cfg.nodes[pred_id]
            joined = join_or_none(
                joined, _edge_env(analysis, pred, env_in[pred_id], node)
            )
        return joined

    visits = {}
    worklist = deque(node.id for node in cfg.nodes)
    queued = set(worklist)
    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.nodes[nid]
        if nid != cfg.entry.id:
            new = incoming(node)
            if node.kind == "loop":
                visits[nid] = visits.get(nid, 0) + 1
                if visits[nid] > WIDEN_DELAY:
                    new = widen_or_none(env_in[nid], new)
                else:
                    new = join_or_none(env_in[nid], new)
            if new == env_in[nid]:
                continue
            env_in[nid] = new
        for succ in node.succs:
            if succ not in queued:
                queued.add(succ)
                worklist.append(succ)
    for _ in range(NARROW_PASSES):
        changed = False
        for node in cfg.nodes:
            if node.id == cfg.entry.id:
                continue
            refined = _env_meet(env_in[node.id], incoming(node))
            if refined != env_in[node.id]:
                env_in[node.id] = refined
                changed = True
        if not changed:
            break
    return env_in


def reference_reach_in(cfg):
    """Reaching definitions by the former set-based forward solver."""
    defined = {
        name
        for node in cfg.nodes
        if (name := _defined_name(node)) is not None
    }

    def transfer(node, facts):
        if node.kind == "call":
            assert isinstance(node.stmt, CallStmt)
            return facts | frozenset(
                (arg.name, node.id)
                for arg in node.stmt.args
                if isinstance(arg, Name)
            )
        name = _defined_name(node)
        if name is None:
            return facts
        return frozenset(f for f in facts if f[0] != name) | {(name, node.id)}

    state = {node.id: frozenset() for node in cfg.nodes}
    state[cfg.entry.id] = frozenset((name, ENTRY_DEF) for name in defined)
    worklist = deque(node.id for node in cfg.nodes)
    queued = set(worklist)
    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        node = cfg.nodes[nid]
        if nid != cfg.entry.id:
            incoming = frozenset()
            for pred in node.preds:
                incoming |= transfer(cfg.nodes[pred], state[pred])
            if incoming == state[nid]:
                continue
            state[nid] = incoming
        for succ in node.succs:
            if succ not in queued:
                queued.add(succ)
                worklist.append(succ)
    return state


def assert_same_states(program):
    analysis = analyze_ranges(program)
    assert analysis.env_in == reference_env_in(analysis)
    rd = reaching_definitions(program, analysis.cfg)
    assert rd.reach_in == reference_reach_in(analysis.cfg)


@given(_programs())
@settings(max_examples=80, deadline=None)
def test_generated_programs_match_reference_loops(program):
    assert_same_states(program)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_corpus_programs_match_reference_loops(seed):
    source = generate_program(
        f"R{seed}", lines=150, linearized_nests=12, seed=seed
    ).source
    assert_same_states(lint_source(source, audit=False).program)


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.f")), ids=lambda path: path.name
)
def test_examples_match_reference_loops(path):
    program = lint_source(path.read_text(), audit=False).program
    assert program is not None
    assert_same_states(program)


def test_one_cfg_per_lint(monkeypatch):
    calls = Counter()

    def counting(program):
        calls[id(program)] += 1
        return build_cfg(program)

    for module in (dataflow, ranges, engine):
        monkeypatch.setattr(module, "build_cfg", counting)
    source = generate_program("R1", lines=150, linearized_nests=12, seed=1)
    report = lint_source(source.source, schedule=True)
    assert report.program is not None
    assert list(calls.values()) == [1]
