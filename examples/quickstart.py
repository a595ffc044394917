#!/usr/bin/env python3
"""Quickstart: the paper's curriculum example (Example 1.1 / Query Q1).

Builds the recursive curriculum data of Figure 1, then computes all direct
and indirect prerequisites of course "c1" three ways:

1. the new ``with $x seeded by … recurse …`` IFP form (Query Q1),
2. the recursive user-defined function ``fix`` of Figure 2, and
3. the ``delta`` formulation of Figure 4,

and shows the distributivity analyses and Naive/Delta statistics.

Run with:  python examples/quickstart.py
"""

from repro import evaluate, ifp, is_distributive_algebraic, is_distributive_syntactic, parse_xml

CURRICULUM_XML = """
<!DOCTYPE curriculum [
  <!ELEMENT curriculum (course)*>
  <!ATTLIST course code ID #REQUIRED>
]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites><pre_code>c5</pre_code></prerequisites></course>
  <course code="c5"><prerequisites/></course>
  <course code="c6"><prerequisites><pre_code>c1</pre_code></prerequisites></course>
</curriculum>
"""

QUERY_Q1 = """
with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id (./prerequisites/pre_code)
"""

QUERY_FIGURE_2 = """
declare function rec ($cs) as node()*
{ $cs/id (./prerequisites/pre_code)
};
declare function fix ($x) as node()*
{ let $res := rec ($x)
  return if (empty ($res except $x))
         then $x
         else fix ($res union $x)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code="c1"]
return fix (rec ($seed))
"""

QUERY_FIGURE_4 = """
declare function rec ($cs) as node()*
{ $cs/id (./prerequisites/pre_code)
};
declare function delta ($x, $res) as node()*
{ let $delta := rec ($x) except $res
  return if (empty ($delta))
         then $res
         else delta ($delta, $delta union $res)
};
let $seed := doc("curriculum.xml")/curriculum/course[@code="c1"]
return delta (rec ($seed), rec ($seed))
"""


def codes(result) -> list[str]:
    return sorted(node.get_attribute("code").value for node in result)


def main() -> None:
    documents = {"curriculum.xml": parse_xml(CURRICULUM_XML)}

    print("== Query Q1: the IFP form ==")
    result = evaluate(QUERY_Q1, documents=documents)
    print("prerequisites of c1:", codes(result))
    print("algorithm chosen automatically (distributivity check), "
          f"nodes fed back: {result.nodes_fed_back}, recursion depth: {result.recursion_depth}")

    print("\n== Same query via the fix()/delta() user-defined functions ==")
    print("fix   (Figure 2):", codes(evaluate(QUERY_FIGURE_2, documents=documents)))
    print("delta (Figure 4):", codes(evaluate(QUERY_FIGURE_4, documents=documents)))

    print("\n== Distributivity of the recursion body (Section 3 / Section 4) ==")
    body = "$x/id (./prerequisites/pre_code)"
    print("body:", body)
    print("  syntactic check (Figure 5):", is_distributive_syntactic(body))
    print("  algebraic check (Section 4):",
          is_distributive_algebraic(body, document=documents["curriculum.xml"]))

    print("\n== Naive vs Delta, measured (Figure 3 algorithms) ==")
    seed = evaluate('doc("curriculum.xml")/curriculum/course[@code="c1"]', documents=documents).items
    for algorithm in ("naive", "delta"):
        run = ifp(body, seed, algorithm=algorithm, documents=documents)
        print(f"  {algorithm:>5}: result size {len(run.value)}, "
              f"nodes fed back {run.statistics.total_nodes_fed_back}, "
              f"iterations {run.statistics.recursion_depth}")

    print("\n== The SQL engine: the fixpoint as a real WITH RECURSIVE ==")
    # engine="sql" shreds the document into SQLite pre/post tables and runs
    # the (distributive) recursion as a single recursive CTE.  The same SQL
    # is printable without executing: repro-xquery --emit-sql query.xq
    result = evaluate(QUERY_Q1, documents=documents, settings={"engine": "sql"})
    print("prerequisites of c1 via SQLite:", codes(result))
    from repro.sqlbackend import fixpoint_statements
    from repro.xquery.parser import parse_query

    (_, decision, emitted), = fixpoint_statements(parse_query(QUERY_Q1))
    print(f"{decision.algorithm} ({decision.checker} checker, rule {decision.rule}); "
          "the statement SQLite executes:\n")
    print(emitted.display())

    print("\n== The serving path: structural index + plan cache ==")
    # Axis steps are answered from a per-document structural index (pre/post
    # arrays + name inverted index, DESIGN.md §6) built lazily on first use;
    # repeated evaluate() calls are also served from the module/plan caches.
    # Both have A/B escape hatches: use_index=False (CLI --no-index) and
    # use_cache=False (CLI --no-plan-cache).
    import time

    from repro.api import query_cache_stats

    started = time.perf_counter()
    evaluate(QUERY_Q1, documents=documents)
    warm = time.perf_counter() - started
    print(f"  warm repeated evaluation: {warm * 1000:.2f} ms "
          f"(module cache: {query_cache_stats()['module']['hits']} hits)")

    print("\n== Predicate pushdown: value indexes + batch filter kernels ==")
    # Recognized predicate shapes — [@code = "c1"], [name = $v], [@attr],
    # [1], [last()], [position() < n] — filter whole candidate columns
    # through value inverted indexes instead of a per-candidate focus loop
    # (DESIGN.md §7).  The A/B escape hatch is use_pushdown=False (CLI
    # --no-pushdown); trace=True (CLI --trace) shows which kernels ran, as
    # the kernel:* spans of the query's own trace.
    needle = 'doc("curriculum.xml")//course[@code = "c6"]/prerequisites/pre_code'
    result = evaluate(needle, documents=documents, trace=True)
    print("  prerequisites of c6:", [item.string_value() for item in result])
    for span in result.trace.children:
        if span.name.startswith("kernel:"):
            print(f"  {span.name[len('kernel:'):]}: {span.attributes['batch']} batch / "
                  f"{span.attributes['fallback']} fallback")
    slow = evaluate(needle, documents=documents, use_pushdown=False)
    assert list(slow.items) == list(result.items)  # item-identical either way

    print("\n== Sessions and the query service (DESIGN.md §8) ==")
    # A Session owns its own documents, caches and SQLite pool — the unit
    # the HTTP daemon (repro-serve) serves.  prepare() parses once and
    # reuses module + compiled plan across runs; register_document() is
    # the mutation model (snapshot semantics: in-flight queries finish on
    # the corpus they captured).
    from repro import EvalSettings, Session

    with Session(documents={"curriculum.xml": CURRICULUM_XML},
                 id_attributes=("code",),
                 settings=EvalSettings(engine="sql")) as session:
        prepared = session.prepare(QUERY_Q1)
        print("  prepared run 1:", codes(prepared()))
        print("  prepared run 2:", codes(prepared()))
        print("  generation:", session.generation,
              " module cache:", session.cache_stats()["module"])
    # The HTTP daemon over the same machinery:
    #   repro-serve --doc curriculum.xml=data/curriculum.xml --id-attribute code
    #   curl -X POST localhost:8720/query -d '{"query": "...", "engine": "sql"}'
    #   curl localhost:8720/stats
    #
    # Scaling past one process (DESIGN.md §12): a supervised prefork
    # fleet — N workers accept from one shared socket, crashed/hung
    # workers restart with backoff, and a durable corpus journal keeps
    # POST /documents item-identical across the fleet (each worker
    # replays it before serving):
    #   repro-serve --workers 4 --journal corpus.journal --port 8720
    #   curl localhost:8721/ready     # control endpoint: fleet readiness
    #   curl localhost:8721/metrics   # aggregated, worker="N"-labelled

    print("\n== Tracing: what did the query spend its time on? (DESIGN.md §9) ==")
    # trace=True returns a span tree on result.trace: parse/compile/execute
    # phases, one `fixpoint` span per IFP with a `round` child per iteration
    # (fed/produced/new/result_size — the Table 2 quantities, live), SQL
    # statement timings, kernel batch-vs-fallback summaries.  Same data:
    # repro-xquery --trace, or '{"trace": true}' on POST /query; GET /metrics
    # serves the service-level aggregates in Prometheus text format.
    from repro.observability import format_span_tree

    result = evaluate(QUERY_Q1, documents=documents, trace=True)
    print(format_span_tree(result.trace))


if __name__ == "__main__":
    main()
