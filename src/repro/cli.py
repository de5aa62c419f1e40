"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``analyze <file>``   — print the dependence table of a program;
* ``vectorize <file>`` — print the vectorized program, statically verified
  against the dependence graph (``--no-verify`` to skip; ``--drop-edge`` /
  ``--interchange`` exercise the verifier);
* ``lint <file>...``   — coded diagnostics (semantic checks, dataflow,
  delinearization soundness audit, ``--schedule`` verification) with
  ``--format=json`` and ``--werror``;
* ``census <file>``    — count loop nests containing linearized references;
* ``delinearize``      — run the algorithm on one dependence equation given
  with ``--equation`` and ``--bounds`` (prints the Figure-5 style trace);
* ``compare``          — run every dependence test on one equation;
* ``riceps``           — regenerate the paper's Figure-1 census table;
* ``serve``            — the resident analysis daemon: JSON-lines protocol
  over stdio or a Unix socket, supervised worker pool, per-request
  deadlines, incremental re-analysis (see ``docs/SERVICE.md``).

The source language is inferred from the file extension (.c vs anything
else) and can be forced with ``--lang``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import delinearize
from .core.chaos import DEFAULT_RATE, ChaosState, maybe_chaos, state_from_env
from .corpus import RICEPS_PROFILES, census_source, generate_riceps_program
from .deptests import DependenceProblem, Verdict, run_all
from .driver import TimedBarrier, compile_c, compile_fortran, front_end
from .frontend.lexer import TokenStream, tokenize
from .ir import to_linexpr
from .symbolic import Assumptions


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with maybe_chaos(_chaos_state(args)):
            return args.handler(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _chaos_state(args) -> ChaosState | None:
    """Fault-injection state from ``--chaos-*`` flags or ``REPRO_CHAOS_*``.

    Explicit flags win over the environment; with neither, chaos stays off.
    """
    seed = getattr(args, "chaos_seed", None)
    if seed is None:
        return state_from_env()
    rate = getattr(args, "chaos_rate", None)
    return ChaosState(seed, DEFAULT_RATE if rate is None else rate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Delinearization-based dependence analysis (Maslov, PLDI 1992)",
    )
    sub = parser.add_subparsers(required=True)

    analyze = sub.add_parser("analyze", help="print the dependence table")
    _add_source_args(analyze)
    analyze.add_argument(
        "--perf",
        action="store_true",
        help="also print phase timings and cache counters",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    vectorize = sub.add_parser("vectorize", help="print the vectorized program")
    _add_source_args(vectorize)
    vectorize.add_argument(
        "--report", action="store_true", help="also print the phase summary"
    )
    vectorize.add_argument(
        "--perf",
        action="store_true",
        help="also print phase timings and cache counters",
    )
    vectorize.add_argument(
        "--emit",
        choices=("f90", "c"),
        default="f90",
        help="output dialect (FORTRAN-90 sections or C with pragmas)",
    )
    vectorize.add_argument(
        "--no-verify",
        action="store_true",
        help="skip schedule verification",
    )
    vectorize.add_argument(
        "--drop-edge",
        type=int,
        default=None,
        metavar="N",
        help="drop dependence edge N before codegen (verifier-demonstration "
        "knob: the schedule is still checked against the full graph)",
    )
    vectorize.add_argument(
        "--interchange",
        default=None,
        metavar="VAR",
        help="interchange loop VAR with its child before vectorizing "
        "(re-validated from direction vectors unless --no-verify)",
    )
    vectorize.set_defaults(handler=_cmd_vectorize)

    check = sub.add_parser(
        "check", help="static rank/bounds diagnostics for a program"
    )
    _add_source_args(check, analysis=False)
    check.set_defaults(handler=_cmd_check)

    lint = sub.add_parser(
        "lint",
        help="full diagnostics: semantic checks, dataflow, soundness audit",
    )
    _add_source_args(lint, multiple=True)
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--werror",
        action="store_true",
        help="treat warnings as errors (exit 2 on any warning)",
    )
    lint.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the delinearization soundness audit (DS codes)",
    )
    lint.add_argument(
        "--schedule",
        action="store_true",
        help="vectorize and statically verify the schedule (VR codes)",
    )
    lint.set_defaults(handler=_cmd_lint)

    census = sub.add_parser(
        "census", help="count loop nests with linearized references"
    )
    census.add_argument("file", type=Path)
    census.set_defaults(handler=_cmd_census)

    delin = sub.add_parser(
        "delinearize", help="delinearize one dependence equation"
    )
    delin.add_argument(
        "--equation",
        required=True,
        help="e.g. 'i1 + 10*j1 - i2 - 10*j2 - 5'",
    )
    delin.add_argument(
        "--bounds",
        required=True,
        help="comma list, e.g. 'i1=4,i2=4,j1=9,j2=9'",
    )
    delin.add_argument(
        "--pairs",
        default="",
        help="common-level pairs, e.g. 'i1:i2,j1:j2'",
    )
    delin.add_argument(
        "--assume",
        default="",
        help="symbol lower bounds, e.g. 'N=2'",
    )
    delin.set_defaults(handler=_cmd_delinearize)

    compare = sub.add_parser(
        "compare", help="run every dependence test on one equation"
    )
    compare.add_argument("--equation", required=True)
    compare.add_argument("--bounds", required=True)
    compare.set_defaults(handler=_cmd_compare)

    riceps = sub.add_parser("riceps", help="regenerate the Figure-1 table")
    riceps.add_argument(
        "--scale", type=float, default=0.1, help="program size scale factor"
    )
    riceps.set_defaults(handler=_cmd_riceps)

    serve = sub.add_parser(
        "serve",
        help="run the resident analysis daemon (JSON lines over stdio "
        "or a Unix socket; see docs/SERVICE.md)",
    )
    serve.add_argument(
        "--socket",
        type=Path,
        default=None,
        metavar="PATH",
        help="listen on a Unix socket instead of stdio",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="supervised analysis worker processes (default: 1)",
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=16,
        metavar="N",
        help="admission-control queue bound; requests beyond it are shed "
        "with an 'overloaded' response (default: 16)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request wall-clock deadline; a slow request returns a "
        "conservative RS006-degraded answer (default: 30)",
    )
    serve.add_argument(
        "--strict",
        action="store_true",
        help="workers re-raise internal analysis errors (reported as "
        "degraded responses) instead of degrading in-pipeline",
    )
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministic fault injection across server and workers "
        "(testing knob; see also REPRO_CHAOS_SEED)",
    )
    serve.add_argument(
        "--chaos-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fault probability per injection-site hit (default "
        f"{DEFAULT_RATE}; only with --chaos-seed)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def _add_source_args(
    parser: argparse.ArgumentParser,
    multiple: bool = False,
    analysis: bool = True,
) -> None:
    """The input flags; ``analysis`` adds the dependence-analysis knobs."""
    if multiple:
        parser.add_argument("files", type=Path, nargs="+", metavar="file")
    else:
        parser.add_argument("file", type=Path)
    parser.add_argument(
        "--lang", choices=("fortran", "c"), default=None
    )
    parser.add_argument(
        "--assume", default="", help="symbol lower bounds, e.g. 'N=2'"
    )
    if analysis:
        parser.add_argument(
            "--no-derived-bounds",
            action="store_true",
            help="do not infer assumptions from declarations and value ranges",
        )
        parser.add_argument(
            "--strict",
            action="store_true",
            help="re-raise internal analysis errors instead of degrading to "
            "conservative fallbacks (recommended in CI)",
        )
        if multiple:
            parser.add_argument(
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="lint several files on N worker processes; output is "
                "identical for any N (default: 1)",
            )
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the problem cache (solve every pair fresh)",
        )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="enable deterministic fault injection with this seed "
        "(testing knob; see also REPRO_CHAOS_SEED)",
    )
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fault probability per injection-site hit (default "
        f"{DEFAULT_RATE}; only with --chaos-seed)",
    )


def _language_for(path: Path, lang: str | None) -> str:
    if lang:
        return lang
    return "c" if path.suffix == ".c" else "fortran"


def _language_of(args) -> str:
    return _language_for(args.file, args.lang)


def _perf_options(args) -> dict:
    """The dependence-analysis performance knobs shared by every command."""
    return {"use_cache": not args.no_cache}


def _compile(args, verify: bool = True):
    source = args.file.read_text()
    assumptions = _parse_assumptions(args.assume)
    derive = not getattr(args, "no_derived_bounds", False)
    strict = getattr(args, "strict", False)
    if _language_of(args) == "c":
        return compile_c(
            source,
            assumptions,
            derive_bounds=derive,
            verify=verify,
            strict=strict,
            **_perf_options(args),
        )
    return compile_fortran(
        source,
        assumptions,
        derive_bounds=derive,
        verify=verify,
        strict=strict,
        **_perf_options(args),
    )


def _cmd_analyze(args) -> int:
    report = _compile(args)
    print(report.graph.format_table())
    if args.perf:
        print(report.perf.format(), file=sys.stderr)
    return 0


def _print_plan(plan, emit: str) -> None:
    if emit == "c":
        from .vectorizer import emit_c_program

        print(emit_c_program(plan), end="")
    else:
        from .vectorizer import emit_program

        print(emit_program(plan), end="")


def _cmd_vectorize(args) -> int:
    verify = not args.no_verify

    if args.drop_edge is None and args.interchange is None:
        report = _compile(args, verify=verify)
        if args.report:
            print(report.summary())
            print()
        _print_plan(report.plan, args.emit)
        for diag in report.schedule_diagnostics:
            print(diag)
        for diag in report.degradations:
            print(diag)
        if args.perf:
            print(report.perf.format(), file=sys.stderr)
        return 0 if report.schedule_ok else 2

    # Mutation / transformation flows drive the pipeline by hand: they need
    # the program and graph before codegen, not just the finished report.
    from .depgraph import analyze_dependences
    from .vectorizer import (
        checked_interchange,
        drop_edge,
        interchange,
        vectorize,
        verify_schedule,
    )
    from .lint.diagnostics import Diagnostic

    report = _compile(args, verify=False)
    program, graph = report.program, report.graph
    assumptions = _parse_assumptions(args.assume)
    derive = not getattr(args, "no_derived_bounds", False)
    diags: list[Diagnostic] = []

    if args.interchange is not None:
        if verify:
            swapped, diags = checked_interchange(
                program, graph, args.interchange
            )
            if swapped is None:
                for diag in diags:
                    print(diag)
                return 2
        else:
            swapped = interchange(program, args.interchange)
        program = swapped
        graph = analyze_dependences(
            program,
            assumptions=assumptions,
            normalized=True,
            derive_bounds=derive,
            strict=args.strict,
            **_perf_options(args),
        )

    # The schedule is verified against the *unmutated* graph: --drop-edge
    # exists to demonstrate that a schedule produced from an incomplete
    # graph is caught.
    codegen_graph = graph
    if args.drop_edge is not None:
        codegen_graph = drop_edge(graph, args.drop_edge)
    plan = vectorize(codegen_graph)
    if verify:
        diags = diags + verify_schedule(plan, graph)

    _print_plan(plan, args.emit)
    for diag in diags:
        print(diag)
    return 2 if any(d.severity == "error" for d in diags) else 0


def _cmd_check(args) -> int:
    from .analysis import check_program

    program = front_end(
        args.file.read_text(), _language_of(args), TimedBarrier(strict=True), []
    )
    diagnostics = check_program(program, _parse_assumptions(args.assume))
    for diagnostic in diagnostics:
        print(diagnostic)
    if not diagnostics:
        print("no problems found")
    return 0 if not any(d.severity == "error" for d in diagnostics) else 2


def _lint_one_file(
    path_str: str,
    language: str,
    assumptions: Assumptions,
    options: dict,
    keep_program: bool = True,
):
    """Lint a single path; the unit of work for the multi-file fan-out.

    An unreadable file becomes a DL008 report so the remaining files are
    still linted (one bad path must not abort the whole run).  Pool workers
    call this with ``keep_program=False``: the parent only renders
    diagnostics, so the IR never needs to cross the process boundary.
    """
    from .lint import codes
    from .lint.diagnostics import Diagnostic
    from .lint.engine import LintReport, lint_source

    try:
        source = Path(path_str).read_text()
    except OSError as error:
        report = LintReport(language)
        report.diagnostics = [Diagnostic.make(codes.DL008, str(error))]
        return path_str, report
    report = lint_source(
        source,
        language=language,
        assumptions=assumptions,
        **options,
    )
    if not keep_program:
        report.program = None
    return path_str, report


def _cmd_lint(args) -> int:
    from .core.chaos import active_state
    from .lint import render_json, render_json_many, render_text

    assumptions = _parse_assumptions(args.assume)
    # Sorted by path so multi-file output (and JSON) is deterministic
    # regardless of the order arguments were given in.
    paths = sorted(args.files, key=str)
    options = {
        "audit": not args.no_audit,
        "ranges": not args.no_derived_bounds,
        "schedule": args.schedule,
        "strict": args.strict,
        **_perf_options(args),
    }
    work = [
        (str(path), _language_for(path, args.lang)) for path in paths
    ]
    # Fan out whole files when several were given.  Chaos keeps the serial
    # path: workers would draw from per-file fault streams and diverge from
    # a --jobs 1 run.
    if args.jobs > 1 and len(work) > 1 and active_state() is None:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(args.jobs, len(work))
        ) as pool:
            results = list(
                pool.map(
                    _lint_one_file,
                    [path for path, _ in work],
                    [language for _, language in work],
                    [assumptions] * len(work),
                    [options] * len(work),
                    [False] * len(work),
                )
            )
    else:
        results = [
            _lint_one_file(path, language, assumptions, options)
            for path, language in work
        ]
    reports = [(Path(path_str), report) for path_str, report in results]

    if args.format == "json":
        if len(reports) == 1:
            path, report = reports[0]
            print(render_json(report.diagnostics, filename=str(path)))
        else:
            print(
                render_json_many(
                    [(str(p), r.diagnostics) for p, r in reports]
                )
            )
    else:
        for path, report in reports:
            if report.diagnostics:
                print(render_text(report.diagnostics, filename=str(path)))
        summary = (
            f"{sum(r.error_count for _, r in reports)} error(s), "
            f"{sum(r.warning_count for _, r in reports)} warning(s)"
        )
        if not args.no_audit and any(r.parsed for _, r in reports):
            audited = sum(r.audited_pairs for _, r in reports)
            summary += f", {audited} dependence edge(s) audited"
        print(summary)
    return 2 if any(r.fails(werror=args.werror) for _, r in reports) else 0


def _cmd_serve(args) -> int:
    from .core.chaos import active_state
    from .server import AnalysisServer, ServerConfig

    config = ServerConfig(
        workers=args.workers,
        queue_size=args.queue,
        deadline_seconds=args.deadline,
        strict=args.strict,
    )
    # main() already installed the chaos state (flags or environment); the
    # server also forwards its parameters into every worker job so faults
    # stay deterministic per request across worker restarts.
    server = AnalysisServer(config, chaos=active_state())
    if args.socket is not None:
        return server.serve_unix(str(args.socket))
    return server.serve_stdio()


def _cmd_census(args) -> int:
    source = args.file.read_text()
    result = census_source(source, args.file.name)
    print(
        f"{result.name}: {result.linearized_nests} of {result.total_nests} "
        f"outermost loop nests contain linearized references"
    )
    return 0


def _cmd_delinearize(args) -> int:
    problem = _parse_problem(
        args.equation, args.bounds, args.pairs, args.assume
    )
    result = delinearize(problem, keep_trace=True)
    print(f"equation: {problem}")
    print(f"verdict:  {result.verdict}")
    print(result.format_trace())
    if result.verdict is not Verdict.INDEPENDENT:
        vectors = ", ".join(sorted(str(v) for v in result.direction_vectors))
        print(f"direction vectors: {vectors}")
        if problem.common_levels:
            print(
                "distance-direction: "
                f"{result.distance_direction_vector(problem.common_levels)}"
            )
    return 0


def _cmd_compare(args) -> int:
    problem = _parse_problem(args.equation, args.bounds, "", "")
    small = problem.is_concrete() and problem.iteration_count() <= 2_000_000
    results = run_all(
        problem, include_exhaustive=small, include_extended=True
    )
    results["Delinearization"] = delinearize(problem).verdict
    width = max(len(name) for name in results)
    for name, verdict in results.items():
        print(f"{name:{width}s}  {verdict}")
    return 0


def _cmd_riceps(args) -> int:
    print(f"{'Program':10s} {'Lines':>6s} {'Paper':>6s} {'Measured':>9s}")
    for profile in RICEPS_PROFILES:
        generated = generate_riceps_program(profile, scale=args.scale)
        result = census_source(generated.source, profile.name)
        print(
            f"{profile.name:10s} {profile.lines:6d} {profile.reported:>6s} "
            f"{result.linearized_nests:9d}"
        )
    return 0


# -- equation parsing -------------------------------------------------------


def _parse_problem(
    equation: str, bounds: str, pairs: str, assume: str
) -> DependenceProblem:
    from .deptests import BoundedVar
    from .symbolic import Poly

    bound_map = _parse_bindings(bounds)
    expr = _parse_equation(equation, set(bound_map))
    pair_list = []
    if pairs:
        for chunk in pairs.split(","):
            a, _, b = chunk.partition(":")
            pair_list.append((a.strip(), b.strip()))
    pair_index: dict[str, tuple[int, int]] = {}
    for level, (a, b) in enumerate(pair_list, start=1):
        pair_index[a] = (level, 0)
        pair_index[b] = (level, 1)
    variables = []
    for name, upper in bound_map.items():
        level, side = pair_index.get(name, (None, None))
        variables.append(BoundedVar(name, upper, level, side))
    assumptions = _parse_assumptions(assume)
    return DependenceProblem(
        [expr], variables, common_levels=len(pair_list), assumptions=assumptions
    )


def _parse_assumptions(text: str) -> Assumptions:
    """Parse 'N=2,M=1' into symbol lower bounds."""
    if not text.strip():
        return Assumptions.empty()
    bounds = {
        name: poly.as_int()
        for name, poly in _parse_bindings(text).items()
    }
    return Assumptions(bounds)


def _parse_bindings(text: str):
    """Parse 'name=value,...' where values are integer expressions."""
    from .symbolic import Poly

    out: dict[str, Poly] = {}
    if not text.strip():
        return out
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        name = name.strip()
        if not name or not value.strip():
            raise ValueError(f"bad binding {chunk!r}")
        out[name] = _parse_poly(value.strip())
    return out


def _parse_poly(text: str):
    expr = _parse_scalar_expr(text)
    lowered = to_linexpr(expr, set())
    if lowered is None or not lowered.is_constant():
        raise ValueError(f"not a loop-invariant expression: {text!r}")
    return lowered.const


def _parse_equation(text: str, variables: set[str]):
    expr = _parse_scalar_expr(text)
    lowered = to_linexpr(expr, variables)
    if lowered is None:
        raise ValueError(f"equation is not affine: {text!r}")
    return lowered


def _parse_scalar_expr(text: str):
    """Parse an arithmetic expression using the FORTRAN expression parser."""
    from .frontend.fortran import _FortranParser

    tokens = tokenize(text, comment_chars="!")
    parser = _FortranParser.__new__(_FortranParser)
    parser.ts = TokenStream(tokens)
    parser.implicit_arrays = set()
    from .ir import Program

    parser.program = Program()
    expr = parser.parse_expr()
    if not parser.ts.at_eof():
        parser.ts.expect_end_of_line()
    return expr
