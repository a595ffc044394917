"""CI guard: features that promise to be ~free must stay ~free.

Each settings guard is one row of ``GUARDS`` — ``(name, settings A,
settings B, tolerance, what to audit)`` — and asserts that the same prepared
Table-2 closure costs at most ``tolerance`` more CPU under A than under B::

    PYTHONPATH=src python benchmarks/check_overhead.py

``limits``
    generous, never-tripping :class:`~repro.limits.ResourceLimits` (every
    governor checkpoint runs, none fires) vs ``limits=None``.
``analysis``
    the static analyzer on (fingerprint + analysis-cache lookup per run)
    vs ``analyze=False``.

``hoisting``
    (not a settings pair) ``optimize_module`` with the invariant-hoisting
    rule vs the same pass without it (``hoist=False``), on a module that
    declares a prolog variable, a function, a ``for``, a ``let`` and a
    fixpoint and has nothing to hoist: at most 20 %.  This is what the rule
    costs a query it cannot help — the loop-depth bookkeeping of the
    optimizing pass (``optimizer._Scout``); the rule's own walk must not
    run.  A module without prolog variables takes neither; a module whose
    loops do read an outer variable pays for the walk (as much again as
    ``optimize_module`` without it) and, nearly always, gets the rewrite.
    The denominator is what moved: the bookkeeping is the 6 µs it always
    was, and read +2 % (bound 5 %) while the pass took 136 µs on this
    module and ran its four rewrites on every leaf — a cost the scout
    skipped for variable references, which hid half of its own.  Since the
    pass takes 60 µs (one rule per node class, leaves returned as they
    are) it reads +10 % (median of twelve estimates: +2 % to +14 %), and
    +100 % (was +55 %) when the walk runs.

``reply``
    (not a settings pair) the service's ``serialize_items`` on the answers
    of 24 medium-curriculum closures (210–399 ``course`` elements each) vs
    evaluating those closures on the interpreter: serializing an answer
    may cost at most 2.5× computing it, i.e. read +150 % or lower.  The
    denominator is what moved: the single walker of
    ``repro.xmlio.serializer`` took ~55 % of an evaluation until the
    evaluation ran in pre-space (PR 23, a third of the time), and reads
    +55 % to +95 % since; the per-node serializer it replaced cost 2.4× as
    much and would read about +350 %.

``write``
    (not a settings pair) over the ledger's ``service`` corpus in one
    ``Session(sql_store="wal")``: the *first* read after
    ``register_document("notes.xml", …)`` — a document no read touches —
    vs the same read warm, for the ``hospital`` and ``curriculum`` closures
    on ``engine="sql"`` and the ``bidder`` closure on ``engine="algebra"``:
    at most 3× (reads about +50 % on the quarter-millisecond hospital
    closure — a new snapshot, the store pool's retention rule, the collector
    after a parse — and within noise of 0 on the other two), and in the end
    the pool has built one store and dropped no tree, the plan cache has
    missed once.  While a write dropped every connection thread's SQLite
    store and every compiled plan (before PR 21) the two SQL reads cost
    ~55× and ~10×, and the algebra read a recompile each time.

``fed-node``
    (not a settings pair, and a floor, not a ceiling) two medium-curriculum
    closures under ``using naive`` with the index on vs ``use_index=False``:
    the index side may cost at most an eighth.  A fed-back node costs three
    dict probes in pre-space (``repro.xdm.index.batch_id_path``) and reads
    about −96 % (23×); the kernel's failure mode is to decline quietly —
    every answer stays right and the step-by-step path behind it reads
    −71 % (3.4×, which is what the commit before the kernel measured).

``cte``
    (not a settings pair) the ``reply`` row's 24 medium-curriculum closures
    on ``engine="sql"`` — one ``WITH RECURSIVE`` statement each, which the
    row checks on the ``fixpoint`` span — vs the same closures on the
    interpreter: at most 3×.  It reads about +150 % (estimates +101 …
    +181 %) since
    the store keeps the multi-token guard verdicts (one probe per store
    version, where every query used to probe) and the member reads covering
    index entries instead of the frontier's and the ID target's ``node``
    rows; before that it read about +400 % to +450 % (min of five +393 %).

Tracing has no row: its two settings points are watched where every other
number is, in the ledger (``benchmarks/ledger/``) — the *disabled* cost as
``interpreter_ms`` on ``closure-delta`` (parent commit vs change), the
*enabled* cost as the per-layer ``trace.overhead_share``.

The measurement is built for noisy shared runners:

* CPU seconds (``time.process_time``), not wall clock — CPU steal on a
  virtualized host adds tens of percent of one-sided wall-clock noise
  that would drown a 2% signal;
* alternating *blocks* of same-settings runs, order swapping every pair
  so drift cannot favour one side, with a few untimed warm-up runs at
  each block start — CPython's adaptive interpreter re-specializes the
  guarded call sites when the settings flip, and timing that
  re-specialization would charge the A/B switch itself to variant A;
* the **min** of several independent estimates — noise only ever inflates
  an estimate, so the min converges on the true overhead while a genuine
  regression shows up in every estimate, including the min.

A guard fails (exit 1) when A is more than its tolerance slower than B.
Block times below the ``--floor-ms`` noise floor abort with an error
instead of silently passing, so a guard cannot degrade into a no-op on
fast machines — raise ``--inner`` in that case.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from typing import NamedTuple

from repro.bench.queries import get_workload
from repro.limits import ResourceLimits
from repro.service.server import serialize_items
from repro.session import Session
from repro.settings import EvalSettings
from repro.xquery.optimizer import optimize_module
from repro.xquery.parser import parse_query

BASE = EvalSettings(engine="interpreter", ifp_algorithm="delta")

#: Enabled-but-untriggered: nothing the tiny workload does comes within
#: orders of magnitude of these, so every checkpoint runs and none trips.
GENEROUS_LIMITS = ResourceLimits(timeout_s=3600.0,
                                 max_fixpoint_rounds=1_000_000,
                                 max_frontier_nodes=1_000_000_000,
                                 max_result_items=1_000_000_000)


class Guard(NamedTuple):
    name: str
    a: EvalSettings
    b: EvalSettings
    tolerance: float
    audit: str


GUARDS = (
    Guard("limits", BASE.replace(limits=GENEROUS_LIMITS), BASE, 0.02,
          "the `governor is not None` guards and the checkpoint placement/stride"),
    Guard("analysis", BASE.replace(analyze=True), BASE.replace(analyze=False), 0.02,
          "Session._analysis_for and the analysis-cache key"),
)

#: Untimed runs at the start of every block (adaptive re-specialization).
BLOCK_WARMUP = 3


def alternate(block_a, block_b, estimates: int, pairs: int) -> list[tuple[float, float]]:
    """*estimates* independent ``(A, B)`` CPU totals, each summed over
    *pairs* alternating pairs of timed blocks."""
    block_a()  # warm the caches and both paths outside the measurement
    block_b()
    results = []
    for _ in range(estimates):
        totals = {block_a: 0.0, block_b: 0.0}
        for index in range(pairs):
            for block in ((block_a, block_b) if index % 2 == 0 else (block_b, block_a)):
                totals[block] += block()
        results.append((totals[block_a], totals[block_b]))
    return results


def timed_block(run, inner: int):
    """A block: a few untimed warm-up calls of *run*, then the CPU seconds
    of *inner* calls."""
    def block() -> float:
        for _ in range(BLOCK_WARMUP):
            run()
        started = time.process_time()
        for _ in range(inner):
            run()
        return time.process_time() - started
    return block


def timed_block_behind(before, run, inner: int):
    """Like :func:`timed_block`, but every timed call of *run* stands behind
    an untimed call of *before*."""
    def block() -> float:
        for _ in range(BLOCK_WARMUP):
            run()
        total = 0.0
        for _ in range(inner):
            before()
            started = time.process_time()
            run()
            total += time.process_time() - started
        return total
    return block


def measure(guard: Guard, estimates: int, pairs: int, inner: int) -> list[tuple[float, float]]:
    """The ``(A, B)`` CPU totals of one warm session running the tiny
    curriculum closure under the guard's two settings."""
    workload = get_workload("curriculum")
    session = Session()
    session.register_document(workload.document_uri,
                              workload.size("tiny").build_document())
    prepared = session.prepare(workload.ifp_query(algorithm="delta"), settings=BASE)
    results = alternate(timed_block(lambda: prepared.run(settings=guard.a), inner),
                        timed_block(lambda: prepared.run(settings=guard.b), inner),
                        estimates, pairs)
    session.close()
    return results


def verdict(name: str, results: list[tuple[float, float]], tolerance: float, audit: str,
            arguments: argparse.Namespace) -> bool:
    floor_s = arguments.floor_ms / 1000.0 * arguments.pairs
    slowest = max(b for _, b in results)
    if slowest < floor_s:
        print(f"{name} overhead check INVALID: baseline estimate "
              f"{slowest * 1000.0:.2f} CPU ms is below the noise floor "
              f"({floor_s * 1000.0:.0f} ms) — raise --inner", file=sys.stderr)
        return False
    overheads = sorted(a / b - 1.0 for a, b in results)
    passed = overheads[0] <= tolerance
    print(f"{name}: estimates " + " ".join(f"{value:+.2%}" for value in overheads))
    print(f"{name}: overhead (min of {arguments.estimates}) {overheads[0]:+.2%} "
          f"(allowed ≤ {tolerance:.0%}) — {'ok' if passed else 'FAILED'}")
    if not passed:
        print(f"\n{name} overhead check FAILED: A costs more than "
              f"{1.0 + tolerance:.0%} of B even in the most favourable estimate — "
              f"audit {audit}", file=sys.stderr)
    return passed


def check(guard: Guard, arguments: argparse.Namespace) -> bool:
    results = measure(guard, arguments.estimates, arguments.pairs, arguments.inner)
    return verdict(guard.name, results, guard.tolerance, guard.audit, arguments)


#: What the hoisting rule may add to ``optimize_module`` on a module with
#: nothing to hoist (reads about +10 %; +100 % when the hoister's walk runs).
HOISTING_TOLERANCE = 0.20

#: The ledger's bidder closure with a function that reads only its
#: parameter: ``$doc`` feeds the seed, which runs once.
NOTHING_TO_HOIST = """\
declare variable $doc := doc("auction.xml");
declare function bidder ($in as node()*) as node()*
{ for $id in $in/@id
  let $b := $in/../open_auction[seller/@person = $id]/bidder/personref
  return $in/../person[@id = $b/@person]
};
data((with $x seeded by $doc//people/person[@id="person7"] recurse bidder($x))/@id)"""


def check_hoisting(arguments: argparse.Namespace) -> bool:
    """``optimize_module`` with the hoisting rule vs without, on a module
    with a prolog variable and nothing to hoist."""
    module = parse_query(NOTHING_TO_HOIST)
    if (not any(declaration.value is not None for declaration in module.variables)
            or optimize_module(module) != optimize_module(module, hoist=False)):
        print("hoisting overhead check INVALID: the module must declare a prolog "
              "variable and have nothing to hoist", file=sys.stderr)
        return False
    inner = arguments.inner * 20  # one optimize_module is ~0.1 ms
    results = alternate(timed_block(lambda: optimize_module(module), inner),
                        timed_block(lambda: optimize_module(module, hoist=False), inner),
                        arguments.estimates, arguments.pairs)
    return verdict("hoisting", results, HOISTING_TOLERANCE,
                   "repro.xquery.optimizer._Scout (its per-node work, and whether "
                   "it sends this module into the hoister's walk)", arguments)


#: What serializing an answer may cost, relative to computing it: at most
#: 2.5× as much.
REPLY_TOLERANCE = 1.5

#: Start nodes of the reply guard: the back of the medium catalogue, whose
#: prerequisite closures are the deep ones.
REPLY_STARTS = range(777, 801)


def curriculum_closures(starts=REPLY_STARTS, suffix: str = ""):
    """A session over the medium curriculum and the closures from *starts*,
    prepared under ``BASE`` (*suffix* follows the recursion body)."""
    workload = get_workload("curriculum")
    session = Session()
    session.register_document(workload.document_uri,
                              workload.size("medium").build_document())
    closures = [session.prepare(
        f'with $x seeded by doc("{workload.document_uri}")/curriculum/'
        f'course[@code="c{start}"] recurse {workload.recursion_body}{suffix}',
        settings=BASE) for start in starts]
    return session, closures


def check_reply(arguments: argparse.Namespace) -> bool:
    """``serialize_items`` on the answers of curriculum closures vs
    evaluating those closures."""
    session, closures = curriculum_closures()
    answers = [closure.run().items for closure in closures]
    if min(len(answer) for answer in answers) < 200:
        print("reply check INVALID: every closure must answer with at least "
              "200 course elements", file=sys.stderr)
        return False
    inner = max(1, arguments.inner // 10)  # one run is 24 closures, ~50 ms
    results = alternate(
        timed_block(lambda: [serialize_items(answer) for answer in answers], inner),
        timed_block(lambda: [closure.run() for closure in closures], inner),
        arguments.estimates, arguments.pairs)
    session.close()
    return verdict("reply", results, REPLY_TOLERANCE,
                   "repro.xmlio.serializer._write (its per-node work) and "
                   "repro.service.server.serialize_items", arguments)


#: What the index side of a Naive curriculum closure may cost: an eighth of
#: the per-item reference.
FED_NODE_TOLERANCE = -0.875


def check_fed_node(arguments: argparse.Namespace) -> bool:
    """Curriculum closures under ``using naive``: index on vs off."""
    session, closures = curriculum_closures(REPLY_STARTS[:2], " using naive")
    reference = BASE.replace(use_index=False)
    inner = max(1, arguments.inner // 10)  # a reference run is ~80 ms
    results = alternate(
        timed_block(lambda: [closure.run() for closure in closures], inner),
        timed_block(lambda: [closure.run(settings=reference) for closure in closures], inner),
        arguments.estimates, arguments.pairs)
    session.close()
    return verdict("fed-node", results, FED_NODE_TOLERANCE,
                   "repro.xdm.index.batch_id_path and idref_targets (a decline "
                   "is silent: trace the closure and look for kernel:step:id "
                   "fallbacks) and Evaluator._batch_id", arguments)


#: What a curriculum closure may cost as a recursive CTE: 3× the interpreter.
CTE_TOLERANCE = 2.0


def check_cte(arguments: argparse.Namespace) -> bool:
    """The reply guard's curriculum closures on ``engine="sql"`` (one
    ``WITH RECURSIVE`` statement each) vs the interpreter."""
    session, closures = curriculum_closures()
    sql = BASE.replace(engine="sql")
    if any(closure.run(settings=sql, trace=True).trace.find("fixpoint")
           .attributes["path"] != "cte" for closure in closures):
        print("cte check INVALID: every closure must run as a recursive CTE",
              file=sys.stderr)
        return False
    inner = max(1, arguments.inner // 10)  # one run is 24 closures
    results = alternate(
        timed_block(lambda: [closure.run(settings=sql) for closure in closures], inner),
        timed_block(lambda: [closure.run() for closure in closures], inner),
        arguments.estimates, arguments.pairs)
    session.close()
    return verdict("cte", results, CTE_TOLERANCE,
                   "repro.sqlbackend.executor._check_guards (one multi-token probe "
                   "per store version: SqlDocumentStore.verdict) and the emitted "
                   "member (EXPLAIN QUERY PLAN: covering child and id_attr searches, "
                   "no pre lookup of node)", arguments)


#: What the first read after an unrelated write may cost: 3× the read warm.
WRITE_TOLERANCE = 2.0

#: The guarded reads — (ledger op class, engine, multiple of ``--inner``: a
#: warm hospital closure is a quarter of a millisecond).
WRITE_READS = (("hospital", "sql", 4), ("curriculum", "sql", 1), ("bidder", "algebra", 1))


def check_write(arguments: argparse.Namespace) -> bool:
    """The first read after a write to a document it does not touch vs the
    same read warm."""
    from ledger import corpus, ops  # the service workload's own documents and reads

    documents, _ = corpus.build("service")
    scenarios = ops.Scenarios(documents)
    rng = random.Random(0)
    versions = itertools.count(1)
    session = Session(documents, id_attributes=corpus.ID_ATTRIBUTES, sql_store="wal")

    def write() -> None:
        session.register_document("notes.xml", corpus.notes_xml(rng, next(versions)))

    passed = []
    for cls, engine, scale in WRITE_READS:
        text = ops.closure_text(cls, scenarios.start_nodes(cls, rng)[0])

        def read(text=text, engine=engine):
            return session.evaluate(text, engine=engine)

        results = alternate(
            timed_block_behind(write, read, arguments.inner * scale),
            timed_block_behind(lambda: None, read, arguments.inner * scale),
            arguments.estimates, arguments.pairs)
        passed.append(verdict(
            f"write:{cls}/{engine}", results, WRITE_TOLERANCE,
            "repro.sqlbackend.pool.SqlStorePool.store (a store must survive a "
            "write), repro.plancache.CachedPlan.serves (a plan depends on the "
            "documents it read) and Session.register_document (it touches "
            "neither cache)", arguments))
    stats = session.stats()
    session.close()
    pool, plans = stats["sql_pool"], stats["plan"]
    if (pool["created"], pool["trees_dropped"], plans["misses"]) != (1, 0, 1):
        print(f"write check FAILED: the writes cost a store, a shredded tree or a "
              f"compiled plan — sql_pool {pool}, plan cache {plans}", file=sys.stderr)
        passed.append(False)
    return all(passed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--estimates", type=int, default=5,
                        help="independent overhead estimates; the min is "
                             "the verdict (default 5)")
    parser.add_argument("--pairs", type=int, default=4,
                        help="alternating block pairs per estimate (default 4)")
    parser.add_argument("--inner", type=int, default=30,
                        help="timed query evaluations per block (default 30)")
    parser.add_argument("--floor-ms", type=float, default=20.0,
                        help="fail if a baseline block total is below this "
                             "noise floor (default 20 ms); raise --inner instead")
    arguments = parser.parse_args(argv)
    # No short-circuit: every guard reports before the exit status.
    return 0 if all([*(check(guard, arguments) for guard in GUARDS),
                     check_hoisting(arguments), check_reply(arguments),
                     check_fed_node(arguments), check_cte(arguments),
                     check_write(arguments)]) else 1


if __name__ == "__main__":
    sys.exit(main())
