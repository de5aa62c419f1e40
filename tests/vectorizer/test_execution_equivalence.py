"""End-to-end semantic validation of the whole pipeline.

Random loop-nest programs are executed twice: serially by the reference
interpreter, and through the vectorizer's schedule with FORTRAN-90 vector
semantics (gather all RHS, then scatter).  The stores must be identical —
any unsound dependence verdict (including a wrong delinearization split)
would reorder a genuinely dependent pair and corrupt memory.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import normalize_program
from repro.depgraph import analyze_dependences
from repro.driver import compile_fortran
from repro.frontend import parse_fortran
from repro.ir import run_program
from repro.vectorizer import run_schedule, vectorize

ARRAYS = ["A", "B", "C"]
SIZES = {"A": 40, "B": 40, "C": 120}


@st.composite
def subscripts(draw, loop_vars):
    """An affine subscript over the in-scope loop variables."""
    kind = draw(st.sampled_from(["plain", "shift", "linear", "const"]))
    if kind == "const" or not loop_vars:
        return str(draw(st.integers(0, 9)))
    var = draw(st.sampled_from(loop_vars))
    if kind == "plain":
        return var
    if kind == "shift":
        return f"{var}+{draw(st.integers(0, 4))}"
    other = draw(st.sampled_from(loop_vars))
    stride = draw(st.sampled_from([8, 10]))
    return f"{var}+{stride}*{other}"


@st.composite
def statements(draw, loop_vars):
    array = draw(st.sampled_from(ARRAYS))
    lhs = f"{array}({draw(subscripts(loop_vars))})"
    source_array = draw(st.sampled_from(ARRAYS))
    rhs_ref = f"{source_array}({draw(subscripts(loop_vars))})"
    op = draw(st.sampled_from(["+", "*", "-"]))
    constant = draw(st.integers(1, 5))
    return f"{lhs} = {rhs_ref} {op} {constant}"


@st.composite
def programs(draw):
    depth = draw(st.integers(1, 2))
    loop_vars = ["i", "j"][:depth]
    lines = [f"REAL {name}(0:{SIZES[name] - 1})" for name in ARRAYS]
    for var in loop_vars:
        upper = draw(st.integers(1, 5))
        lines.append(f"DO {var} = 0, {upper}")
    for _ in range(draw(st.integers(1, 3))):
        lines.append(draw(statements(loop_vars)))
    for _ in loop_vars:
        lines.append("ENDDO")
    return "\n".join(lines) + "\n"


@given(programs())
@settings(max_examples=100, deadline=None)
def test_vectorized_execution_matches_serial(source):
    program = normalize_program(parse_fortran(source))
    serial = run_program(program)
    graph = analyze_dependences(program, normalized=True)
    plan = vectorize(graph)
    parallel = run_schedule(plan)
    assert serial.snapshot() == parallel.snapshot(), source


@given(programs())
@settings(max_examples=30, deadline=None)
def test_interchange_execution_equivalence(source):
    """Where interchange is judged legal on a perfect 2-nest, semantics hold."""
    from repro.vectorizer import interchange, interchange_legal

    program = normalize_program(parse_fortran(source))
    from repro.ir import Loop

    if len(program.body) != 1 or not isinstance(program.body[0], Loop):
        return
    outer = program.body[0]
    if len(outer.body) != 1 or not isinstance(outer.body[0], Loop):
        return
    graph = analyze_dependences(program, normalized=True)
    if not interchange_legal(graph, 1, 2):
        return
    swapped = interchange(program, outer.var)
    assert run_program(program).snapshot() == run_program(swapped).snapshot(), (
        source
    )


@st.composite
def induction_nests(draw):
    """A two-deep nest around the update ``IB = IB + step``.

    The init and the step read a constant, the symbol ``N``, a loop
    variable or ``M``, which the nest may assign; the inner loop's bound
    may read the outer loop variable.  Only some of these have a closed
    form, and the compiled schedule must match the serial run either way.
    """
    init = draw(st.sampled_from(["0", "-1", "N", "M", "i", "M + 1"]))
    step = draw(st.sampled_from(["1", "2", "N", "M", "i", "j", "i + 1"]))
    inner = draw(st.sampled_from(["2", "N - 1", "i", "i + 1"]))
    assign_m = draw(st.sampled_from(["", "M = M + 1", "M = i"]))
    lines = [
        "REAL A(0:299), B(0:299)",
        "M = 2",
        "i = 1",
        f"IB = {init}",
        f"DO i = 0, {draw(st.integers(1, 3))}",
        assign_m,
        f"DO j = 0, {inner}",
        "IB = IB + " + step,
        f"A(IB) = A(IB) + {draw(st.integers(1, 5))}",
        "B(j) = A(IB + 1)" if draw(st.booleans()) else "",
        "ENDDO",
        "ENDDO",
    ]
    return "\n".join(line for line in lines if line) + "\n"


@given(induction_nests())
@settings(max_examples=60, deadline=None)
def test_induction_nests_compile_to_the_serial_result(source):
    """Substitution replaces the variable by a closed form that holds only
    when its init, step and inner trip counts are invariant in the nest."""
    env = {"N": 3}
    serial = run_program(parse_fortran(source), env)
    plan = compile_fortran(source).plan
    assert run_schedule(plan, env).snapshot() == serial.snapshot(), source


SCOPED_NAMES = ["j", "k", "m"]


@st.composite
def scalar_scope_programs(draw):
    """Nests whose loop variables are other nests' scalars.

    Every name of :data:`SCOPED_NAMES` starts as a scalar; each nest runs
    one of them as its loop variable, assigns the others and reads them in
    subscripts.  Whether a name is a scalar depends on the statement's own
    enclosing loops, not on the loops elsewhere in the program.
    """
    lines = ["REAL A(0:99), B(0:99)"]
    lines += [f"{name} = {draw(st.integers(0, 3))}" for name in SCOPED_NAMES]
    for _ in range(draw(st.integers(2, 4))):
        var = draw(st.sampled_from(SCOPED_NAMES))
        scalars = [name for name in SCOPED_NAMES if name != var]
        lines.append(f"DO {var} = 0, {draw(st.integers(1, 9))}")
        for _ in range(draw(st.integers(1, 3))):
            shift = draw(st.integers(0, 3))
            if draw(st.booleans()):
                target = draw(st.sampled_from(scalars))
                value = draw(st.sampled_from([var, *scalars]))
                if value == target:
                    value = var
                lines.append(f"{target} = {value} + {shift}")
            else:
                lhs = draw(st.sampled_from(["A", "B"]))
                rhs = draw(st.sampled_from(["A", "B"]))
                write = draw(st.sampled_from([var, *scalars]))
                read = draw(st.sampled_from([var, *scalars]))
                lines.append(f"{lhs}({write} + {shift}) = {rhs}({read}) + 1")
        lines.append("ENDDO")
    return "\n".join(lines) + "\n"


@given(scalar_scope_programs())
@settings(max_examples=100, deadline=None)
def test_scalars_named_like_other_nests_loop_variables(source):
    serial = run_program(parse_fortran(source))
    plan = compile_fortran(source).plan
    assert run_schedule(plan).snapshot() == serial.snapshot(), source


def test_known_dependent_case_still_matches():
    source = "REAL D(0:9)\nDO i = 0, 8\nD(i+1) = D(i) + 1\nENDDO\n"
    program = normalize_program(parse_fortran(source))
    serial = run_program(program)
    plan = vectorize(analyze_dependences(program, normalized=True))
    assert run_schedule(plan).snapshot() == serial.snapshot()


def test_known_independent_case_still_matches():
    source = (
        "REAL C(0:99)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n"
        "1 C(i+10*j) = C(i+10*j+5) + 1\n"
    )
    program = normalize_program(parse_fortran(source))
    serial = run_program(program)
    plan = vectorize(analyze_dependences(program, normalized=True))
    assert run_schedule(plan).snapshot() == serial.snapshot()


@pytest.mark.slow
def test_figure3_program_matches():
    from benchmarks.workloads import FIGURE3_SOURCE

    program = normalize_program(parse_fortran(FIGURE3_SOURCE))
    env = {"Q": 3}
    serial = run_program(program, env)
    plan = vectorize(analyze_dependences(program, normalized=True))
    assert run_schedule(plan, env).snapshot() == serial.snapshot()
