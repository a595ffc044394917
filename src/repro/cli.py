"""Command-line front end: run XQuery queries from the shell.

Installed as ``repro-xquery``::

    repro-xquery --doc curriculum.xml=data/curriculum.xml query.xq
    repro-xquery -e 'with $x seeded by doc("c.xml")//course[@code="c1"]
                     recurse $x/id(./prerequisites/pre_code)' --doc c.xml=c.xml
    repro-xquery --check-distributivity '$x/id(./prerequisites/pre_code)'
    repro-xquery --engine sql --doc c.xml=c.xml query.xq   # fixpoints on SQLite
    repro-xquery --engine algebra --algorithm naive query.xq   # µ, on any engine
    repro-xquery --emit-sql query.xq                       # print the CTE, don't run
"""

from __future__ import annotations

import argparse
import sys

from repro.api import evaluate
from repro.errors import GovernanceError
from repro.fixpoint.decision import ALGORITHM_POLICIES, CHECKERS, decide_fixpoint
from repro.limits import ResourceLimits
from repro.settings import EvalSettings
from repro.xmlio.parser import parse_xml_file
from repro.xmlio.serializer import serialize_sequence
from repro.xquery import ast
from repro.xquery.context import DocumentResolver
from repro.xquery.parser import parse_expression


def _parse_doc_argument(argument: str) -> tuple[str, str]:
    if "=" not in argument:
        raise argparse.ArgumentTypeError(
            "--doc expects URI=PATH (e.g. --doc curriculum.xml=data/curriculum.xml)"
        )
    uri, path = argument.split("=", 1)
    return uri, path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-xquery",
        description="Evaluate XQuery queries with the repro engine "
                    "(inflationary fixed points, Naive/Delta, distributivity analysis)",
    )
    parser.add_argument("query_file", nargs="?", help="file containing the query")
    parser.add_argument("-e", "--expression", help="query text given inline")
    parser.add_argument("--doc", action="append", default=[], type=_parse_doc_argument,
                        metavar="URI=PATH", help="register a document for fn:doc")
    parser.add_argument("--id-attribute", action="append", default=["id", "xml:id"],
                        help="attribute names to treat as IDs (repeatable)")
    parser.add_argument("--algorithm", choices=ALGORITHM_POLICIES, default="auto",
                        help="IFP evaluation policy of every engine (a 'using' "
                             "clause in the query text overrides it)")
    parser.add_argument("--checker", choices=list(CHECKERS), default="syntactic",
                        help="distributivity checker 'auto' asks, on every engine")
    parser.add_argument("--engine", choices=["interpreter", "algebra", "sql"],
                        default="interpreter")
    parser.add_argument("--no-index", action="store_true",
                        help="disable the per-document structural index and answer "
                             "axis steps by walking node objects (A/B escape hatch)")
    parser.add_argument("--no-pushdown", action="store_true",
                        help="disable predicate pushdown and evaluate every "
                             "predicate through the per-item focus loop "
                             "(A/B escape hatch)")
    parser.add_argument("--no-plan-cache", action="store_true",
                        help="disable the parsed-module / compiled-plan caches")
    parser.add_argument("--trace", action="store_true",
                        help="print the query's span tree (parse/compile/execute "
                             "phases, per-fixpoint-round sizes, SQL statement "
                             "timings, kernel:* batch-vs-fallback counters) "
                             "after evaluation")
    parser.add_argument("--timeout-s", type=float, default=None, metavar="SECONDS",
                        help="wall-clock deadline for the evaluation; exceeding "
                             "it exits with a QueryTimeout (status 3)")
    parser.add_argument("--max-fixpoint-rounds", type=int, default=None, metavar="N",
                        help="budget on fixpoint rounds per IFP evaluation; "
                             "exceeding it exits with a BudgetExceeded (status 3)")
    parser.add_argument("--emit-sql", action="store_true",
                        help="print the SQL the sql engine generates for every "
                             "with … recurse fixpoint in the query, then exit")
    parser.add_argument("--stats", action="store_true",
                        help="print IFP statistics (nodes fed back, recursion depth)")
    parser.add_argument("--check", action="store_true",
                        help="lint mode: run the static analyzer only (scopes, "
                             "arity, cardinality, distributivity), print "
                             "diagnostics with line:column, and exit 1 on "
                             "static errors without evaluating anything")
    parser.add_argument("--explain-analysis", action="store_true",
                        help="print the full static-analysis report (diagnostics, "
                             "per-fixpoint distributivity facts, cardinality) "
                             "after evaluation")
    parser.add_argument("--check-distributivity", metavar="BODY",
                        help="only analyse the given recursion body for $x and exit")
    arguments = parser.parse_args(argv)

    if arguments.check_distributivity is not None:
        site = ast.WithExpr("x", ast.EmptySequence(),
                            parse_expression(arguments.check_distributivity))
        for label, checker in (("syntactic (Figure 5): ", "syntactic"),
                               ("algebraic (Section 4):", "algebraic"),
                               ("static analysis:      ", "analysis")):
            decision = decide_fixpoint(site, EvalSettings(distributivity_checker=checker))
            print(f"{label}  "
                  f"{'distributive' if decision.algorithm == 'delta' else 'not inferred'} "
                  f"[{decision.rule}]")
        return 0

    if arguments.expression:
        query = arguments.expression
    elif arguments.query_file:
        with open(arguments.query_file, encoding="utf-8") as handle:
            query = handle.read()
    else:
        parser.error("provide a query file or -e EXPRESSION")
        return 2

    if arguments.check:
        return _check_query(query)

    limits = None
    if arguments.timeout_s is not None or arguments.max_fixpoint_rounds is not None:
        limits = ResourceLimits(timeout_s=arguments.timeout_s,
                                max_fixpoint_rounds=arguments.max_fixpoint_rounds)

    settings = EvalSettings(
        ifp_algorithm=arguments.algorithm,
        distributivity_checker=arguments.checker,
        engine=arguments.engine,
        use_index=not arguments.no_index,
        use_pushdown=not arguments.no_pushdown,
        use_cache=not arguments.no_plan_cache,
        trace=arguments.trace,
        limits=limits,
    )
    if arguments.emit_sql:
        return _emit_sql(query, settings)

    resolver = DocumentResolver()
    for uri, path in arguments.doc:
        resolver.register(uri, parse_xml_file(path, id_attributes=arguments.id_attribute))
    try:
        result = evaluate(query, documents=resolver, settings=settings)
    except GovernanceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(serialize_sequence(result.items))
    if arguments.explain_analysis and result.analysis is not None:
        print("\n-- static analysis", file=sys.stderr)
        print(result.analysis.format(), file=sys.stderr)
    if arguments.trace and result.trace is not None:
        from repro.observability import format_span_tree

        print("\n-- query trace", file=sys.stderr)
        print(format_span_tree(result.trace), file=sys.stderr)
    if arguments.stats:
        print(
            f"\n-- IFP evaluations: {result.statistics.ifp_evaluations}, "
            f"nodes fed back: {result.nodes_fed_back}, "
            f"max recursion depth: {result.recursion_depth}",
            file=sys.stderr,
        )
    return 0


def _check_query(query: str) -> int:
    """``--check``: lint the query statically, never evaluate it."""
    from repro.analysis import analyze_query
    from repro.errors import XQueryError

    try:
        report = analyze_query(query)
    except XQueryError as exc:
        # parse errors surface through the same lint channel
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for diagnostic in report.diagnostics:
        print(diagnostic.format(), file=sys.stderr)
    if not report.ok():
        return 1
    print(f"ok: no static errors ({len(report.warnings())} warning(s))")
    return 0


def _emit_sql(query: str, settings: EvalSettings) -> int:
    """Print the SQL the sql engine would run for each fixpoint in *query*."""
    from repro.sqlbackend.executor import fixpoint_statements
    from repro.xquery.parser import parse_query

    triples = fixpoint_statements(parse_query(query), settings)
    if not triples:
        print("-- the query contains no with … recurse fixpoints")
        return 0
    for index, (expr, decision, emitted) in enumerate(triples, start=1):
        algorithm = f" using {expr.algorithm}" if expr.algorithm != "auto" else ""
        print(f"-- fixpoint {index}: with ${expr.var} seeded by … recurse …{algorithm}")
        if emitted is not None:
            print(emitted.display().rstrip() + ";")
        elif decision.rejected:
            print(f"-- not proved distributive ({decision.checker}: {decision.rule}): "
                  "Naive, executed by the shared driver loop over the "
                  "interpreter body")
        elif decision.algorithm == "naive":
            print(f"-- forced Naive ({decision.reason}): executed by the shared "
                  "driver loop over the interpreter body")
        else:
            print("-- not a linear step chain: executed by the shared "
                  "driver loop (delta over the interpreter body)")
        if index < len(triples):
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
