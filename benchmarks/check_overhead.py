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

``limits calls``
    (the ``limits`` row's deterministic companion, not a timing) the same
    warm closure counted in Python calls (``sys.setprofile``) under both
    settings of the ``limits`` row: the untriggered governor may add
    ``LIMITS_CALLS_PER_QUERY`` (2: the ``Governor`` and its ``Deadline``)
    plus ``LIMITS_CALLS_PER_ROUND`` (0) per fixpoint round.  A count is
    immune to the box the 2 % timing rows share; it reads 2 for the 182
    rounds of the tiny curriculum's 40 closures.

``hoisting``
    (not a settings pair) ``optimize_module`` with the invariant-hoisting
    rule vs the same pass without it (``hoist=False``), on a module the
    parser built and optimized (``parse_query(text, optimize=True)``, as a
    session does) that declares a prolog variable, a function, a ``for``, a
    ``let`` and a fixpoint and has nothing to hoist: at most 20 %.  This is
    what the rule costs a query it cannot help — its gate, which the parser
    set while it built the module (``TextFacts.found``: a loop read a
    variable bound outside it, or called ``doc()``); the rule's own walk
    must not run.  A module without prolog variables takes neither; a
    module whose loops do read an outer variable pays for the walk and,
    nearly always, gets the rewrite.  The denominator is what moved: the
    pass took 136 µs and then 60 µs on this module while it also applied
    the local rewrites (the gate's bookkeeping, 6 µs, rode on that walk and
    read +2 % to +10 %); since the parser applies them, the pass is the
    call graph and the set-at-a-time step (both sides run them), the gate
    is a flag, and the row reads about 0 % — and about +125 % when the
    hoister's walk runs: what it guards is that the walk stays off.

``reply``
    (not a settings pair; two parts, each of which must pass) the service's
    ``serialize_items`` on the answers of 24 medium-curriculum closures
    (210–399 ``course`` elements each).  ``reply`` times each answer as a
    *first* reply out of its tree — before each, the tree's value indexes
    are dropped, as a text edit drops them, so the reply walks every node
    and only notes the tree — vs evaluating those closures on the
    interpreter: serializing an answer by the walker may cost at most 5×
    computing it, i.e. read +400 % or lower.  That is what every first
    reply and every reply out of a tree without a cached index pays.  The
    denominator is what moved: the single walker of
    ``repro.xmlio.serializer`` took ~55 % of an evaluation until the
    evaluation's ``id`` step ran in pre-space (a third of the time), and
    read +55 % to +95 % until the closure's rounds did too (see
    ``pre-space``: the evaluation halved again); it reads +200 % to +310 %
    since.  The per-node serializer the walker replaced cost 2.4× as much
    and would read about +770 %.  ``reply warm`` (a floor, not a ceiling)
    times the same answers as warm replies — the tree's text built, every
    node a slice of it — vs those first replies: at most a quarter, i.e.
    read −75 % or lower.  It reads −85 % to −87 % (about 7×).  A warm
    reply that silently walks again reads about 0 %, and one that does not
    slice every item of the first answer makes the row INVALID.

``write``
    (not a settings pair) over the ledger's ``service`` corpus in one
    ``Session(sql_store="wal")``: the *first* read after
    ``register_document("notes.xml", …)`` — a document no read touches —
    vs the same read warm, for the ``hospital`` and ``curriculum`` closures
    on ``engine="sql"`` and the ``bidder`` closure on ``engine="algebra"``:
    at most 3× (reads about +50 % to +80 % on the hospital closure — a new
    snapshot, the store pool's retention rule, the collector after a parse
    — +25 % to +45 % on the curriculum closure and +30 % to +45 % on the
    bidder closure; each read is timed the more often the less its warm
    run costs: the two SQL reads are probes of sql's own images, the bidder
    read an image relation's quarter-millisecond), and in the end
    the pool has built one store and dropped no tree, the plan cache has
    missed once.  While a write dropped every connection thread's SQLite
    store and every compiled plan (before PR 21) the two SQL reads cost
    ~55× and ~10×, and the algebra read a recompile each time.

``fed-node``
    (not a settings pair, and a floor, not a ceiling) two medium-curriculum
    closures under ``using naive`` with the index on vs ``use_index=False``:
    the index side may cost at most an eighth.  A fed-back node costs three
    dict probes in pre-space (``repro.xdm.index.batch_id_path``), which read
    about −96 % (23×); since the rounds run in pre-space (``pre-space``) it
    is one probe of a memoised image, and reads about −98.5 % (65×).
    The failure mode is to decline quietly — every answer stays right and
    the step-by-step path behind it reads −71 % (3.4×, which is what the
    commit before the kernel measured).

``pre-space``
    (not a settings pair, and a floor, not a ceiling; six parts, each of
    which must pass) closures whose body is a step relation the fixpoint
    driver iterates in pre-space (the seed encoded once, a round the union
    of the fed pres' images memoised on the index and set algebra on
    integers, the answer decoded once) vs the same closures with the body
    written ``… | $none`` under ``let $none := () return`` — a free
    variable that is no prolog variable, so no relation, and every round
    evaluates the body on nodes: the pre-space side must be at least 1.5×
    faster.  (Until the image relation, the on-nodes side was ``… | ()``;
    that is a relation itself now.)  Every part's images are filled by the
    engine's own body on the untimed check runs.  ``curriculum/interpreter``
    is the ``reply`` row's 24 medium-curriculum closures,
    ``$x/id(./prerequisites/pre_code)``: it reads −55 % to −66 % (2.2× to
    3×).  ``dialogs/interpreter`` and ``dialogs/algebra`` are the ledger's
    24 dialogs closures over the default play (its band of equal work),
    ``$x/following-sibling::SPEECH[1][not(…)]``: they read about −58 % to
    −66 % (2.7×) and −77 % to −82 % (4.5× to 5.4×).  ``bidder/interpreter``
    and ``bidder/algebra`` are the ledger's six bidder closures,
    ``bidder($x)``: about −79 % to −85 %.  ``curriculum/sql`` is the
    curriculum part's closures on ``engine="sql"``, whose warm rounds probe
    the images sql's recursive CTE filled on each closure's second run (its
    first is the plain statement, run untimed before the check; the
    wrapped forms run sql's driver on nodes): about −55 % to −65 %.  The
    ledger's hospital closures on sql (``$x/parent``, five shallow rounds
    under a filter and a count) are no part: they gain about a third on
    either engine, at the floor itself — of nine such parts run on a 2-vCPU
    VM (seven on sql, two on the interpreter), two failed (−30.1 %,
    −32.3 %) and two passed by under half a point, with single estimates
    from −13 % to −45 %; more closures per block did not narrow that.  A
    closure whose ``fixpoint`` span does not say ``space="pre"`` (the
    relation declined quietly), a wrapped one that runs in pre-space, or
    two forms that answer differently make the part INVALID.

``cte``
    (not a settings pair) the ``reply`` row's 24 medium-curriculum closures
    on ``engine="sql"``, each from an empty sql image memo (no images, no
    notes: what a text edit leaves) — so each is a seed's first miss, one
    plain ``WITH RECURSIVE`` statement over the store's edge table, which
    the row checks on the ``fixpoint`` span (``path="cte"``,
    ``edges="cached"``: a table that silently declines makes the row
    INVALID) — vs the same closures on the interpreter, warm: at most 3×.
    It reads +95 % to +175 %.  The fill — the statement with its image
    join, which a seed's second run pays — is not timed here: it costs
    about 4.5× to 6× the warm interpreted closure (its ~640 ``(src, dst)``
    rows against the plain statement's ~340 ``pre``s, and grouping them
    into images in Python).  The denominator is what moved before: the row read +10 % to +40 %
    (bound 1.75×) until the interpreter's rounds ran in pre-space, and
    reads +120 % to +160 % since.  Against that interpreter the member's
    older forms would read about twice what they did: +117 % to +178 %
    while every frontier row walked two child-index searches, a ``node``
    row and an ``id_attr`` search, and about +400 % to +450 % before the
    store kept the multi-token guard verdicts and the member read covering
    index entries.

``set-for``
    (not a settings pair, and a floor, not a ceiling) the ledger's bidder
    closure from eight of its start nodes on the interpreter: the optimized
    module, whose ``for $id in $in/@id`` loop the optimizer marks
    set-at-a-time (``ForExpr.whole``: one evaluation of the body over the
    whole ``$in/@id`` per round), vs the same module with ``whole`` cleared
    by ``dataclasses.replace`` (one evaluation per fed node), both
    evaluated with ``optimize=False`` so nothing re-marks the loop: the
    marked module must be at least 1.5× faster.  It reads −48 % to −53 %
    (about 2×).  On both sides the body is ``bidder($x) | $none`` under
    ``let $none := () return``, as in ``pre-space``: the bidder closure
    itself is an image relation, whose warm rounds evaluate the loop on no
    node at all.  A module in which not exactly one ``for`` is marked, a
    side whose rounds run in pre-space, or two forms that answer
    differently make the row INVALID.

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
import dataclasses
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
from repro.xdm.index import index_for
from repro.xdm.items import is_node
from repro.xmlio.serializer import ReplyTally
from repro.xquery import ast, pushdown
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


#: What the untriggered governor (``limits`` row, side A) may add to a warm
#: run, in Python calls: none per fixpoint round — its round check is
#: compared inline, its interpreter ticks are a C-level counter — and two
#: per query (the ``Governor`` and its ``Deadline``).
LIMITS_CALLS_PER_ROUND = 0
LIMITS_CALLS_PER_QUERY = 2


def count_python_calls(function) -> int:
    """The Python frames (``sys.setprofile`` ``call`` events) *function*
    runs — a count that repeats exactly, where a timing on a shared box
    does not."""
    calls = 0

    def profile(frame, event, argument):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls - 1  # the frame of *function* itself


def check_limits_calls(arguments: argparse.Namespace) -> bool:
    """The ``limits`` row's deterministic companion: the same warm prepared
    closure as the row, counted in Python calls under generous limits and
    under none.  The difference may be at most
    :data:`LIMITS_CALLS_PER_QUERY` plus :data:`LIMITS_CALLS_PER_ROUND` per
    fixpoint round the run iterates."""
    workload = get_workload("curriculum")
    session = Session()
    session.register_document(workload.document_uri,
                              workload.size("tiny").build_document())
    prepared = session.prepare(workload.ifp_query(algorithm="delta"), settings=BASE)
    governed = GUARDS[0].a
    for _ in range(3):  # caches, memos and both paths warm
        rounds = sum(run.recursion_depth for run in
                     prepared.run(settings=governed).statistics.runs)
        prepared.run(settings=BASE)
    added = (count_python_calls(lambda: prepared.run(settings=governed))
             - count_python_calls(lambda: prepared.run(settings=BASE)))
    session.close()
    allowed = LIMITS_CALLS_PER_QUERY + LIMITS_CALLS_PER_ROUND * rounds
    passed = added <= allowed
    print(f"limits calls: the governor adds {added} Python calls to a run of "
          f"{rounds} rounds ({added / rounds:.2f} per round; allowed ≤ "
          f"{LIMITS_CALLS_PER_QUERY} + {LIMITS_CALLS_PER_ROUND} per round) — "
          f"{'ok' if passed else 'FAILED'}")
    if not passed:
        print(f"\nlimits calls check FAILED: audit {GUARDS[0].audit}", file=sys.stderr)
    return passed


#: What the hoisting rule may add to ``optimize_module`` on a module with
#: nothing to hoist (reads about 0 %; +125 % when the hoister's walk runs).
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
    module = parse_query(NOTHING_TO_HOIST, optimize=True)
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
                   "the hoisting gate the parser sets (repro.xquery.parser: "
                   "TextFacts.found — whether it sends this module into the "
                   "hoister's walk)", arguments)


#: What walking an answer (a first reply) may cost, relative to computing
#: it: at most 5× as much.
REPLY_TOLERANCE = 4.0

#: What a warm reply — every node a slice of its tree's text — may cost,
#: relative to the walk of a first reply: a quarter.
REPLY_WARM_TOLERANCE = -0.75

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
    """Two parts: ``serialize_items`` on the first replies out of the tree
    (the walker) vs evaluating the closures, and on warm replies (slices
    of the tree text) vs those first replies."""
    session, closures = curriculum_closures()
    answers = [closure.run().items for closure in closures]
    if min(len(answer) for answer in answers) < 200:
        print("reply check INVALID: every closure must answer with at least "
              "200 course elements", file=sys.stderr)
        return False
    index = index_for(answers[0][0])
    each_answer = itertools.cycle(answers)
    inner = max(1, arguments.inner // 3)  # one run is 24 closures, ~7 ms
    # Before each timed first reply the tree forgets its text and the note
    # that it was replied from, as after a text edit: the reply walks.
    first_replies = timed_block_behind(index.clear_value_indexes,
                                       lambda: serialize_items(next(each_answer)),
                                       inner * len(answers))
    warm_replies = timed_block(
        lambda: [serialize_items(answer) for answer in answers], inner)
    serialize_items(answers[0])
    tally = ReplyTally()
    serialize_items(answers[0], tally=tally)
    if tally.sliced != len(answers[0]):
        print(f"reply check INVALID: a warm reply must slice every item, got {tally}",
              file=sys.stderr)
        return False
    walker = alternate(first_replies,
                       timed_block(lambda: [closure.run() for closure in closures], inner),
                       arguments.estimates, arguments.pairs)
    warm = alternate(warm_replies, first_replies, arguments.estimates, arguments.pairs)
    session.close()
    # No short-circuit: both parts report.
    return all([verdict("reply", walker, REPLY_TOLERANCE,
                        "repro.xmlio.serializer._write (its per-node work) and "
                        "repro.xmlio.serializer.serialize_items", arguments),
                verdict("reply warm", warm, REPLY_WARM_TOLERANCE,
                        "repro.xmlio.serializer.serialize_items (does a warm reply "
                        "slice?) and StructuralIndex.tree_text", arguments)])


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
                   "repro.xdm.index.StepRelation.bind, ImageSpace.image and "
                   "idref_targets (a decline is silent: trace the closure and look "
                   "for space=nodes on the fixpoint span), batch_id_path and "
                   "Evaluator._batch_id", arguments)


#: What the step relation's rounds in pre-space may cost: two thirds of the
#: same closures iterated on nodes (1.5× faster).
PRE_SPACE_TOLERANCE = -1 / 3


def without_relation(text: str, body: str) -> str:
    """*text* with its recursion *body* written ``body | $none`` under
    ``let $none := () return``: the same answer, but a free variable that
    is no prolog variable — no step relation of any form, so every round
    evaluates the body on nodes."""
    assert text.count(body) == 1 and text.count("with $x") == 1, text
    return (text.replace("with $x", "let $none := () return with $x")
            .replace(body, f"{body} | $none"))


def check_pre_space(arguments: argparse.Namespace) -> bool:
    """Closures whose body is a step relation the driver iterates in
    pre-space vs the same closures written so that no relation takes them
    (:func:`without_relation`) — every round evaluates the body on nodes: the reply
    guard's curriculum closures on the interpreter and on sql (a chain of
    steps), the ledger's dialogs closures (a sibling step with a node-local
    filter) and bidder closures (a value join in a function) on the
    interpreter and on algebra.  Each of the six parts must pass."""
    from ledger import corpus, ops  # the ledger's own documents and closures

    session, closures = curriculum_closures()
    body = get_workload("curriculum").recursion_body
    wrapped = [session.prepare(without_relation(closure.query, body), settings=BASE)
               for closure in closures]
    passed = [pre_space_part(f"curriculum/{engine}", closures, wrapped,
                             BASE.replace(engine=engine),
                             max(1, arguments.inner // 10),  # one run is 24 closures
                             arguments) for engine in ("interpreter", "sql")]
    session.close()

    documents, _ = corpus.build("service")  # its auction document is the full one
    scenarios = ops.Scenarios(documents)
    for cls, uri, scale in (("dialogs", "play.xml", 2),  # 24, ~5 ms
                            ("bidder", "auction.xml", 3)):  # 6, ~1.5 ms
        starts = scenarios.start_nodes(cls, random.Random(0))
        body = ops.BODIES[cls]
        texts = [ops.closure_text(cls, start) for start in starts]
        session = Session({uri: documents[uri]}, id_attributes=corpus.ID_ATTRIBUTES)
        closures = [session.prepare(text, settings=BASE) for text in texts]
        wrapped = [session.prepare(without_relation(text, body), settings=BASE)
                   for text in texts]
        for engine in ("interpreter", "algebra"):
            passed.append(pre_space_part(f"{cls}/{engine}", closures, wrapped,
                                         BASE.replace(engine=engine),
                                         max(1, arguments.inner * scale // 4), arguments))
        session.close()
    return all(passed)


def pre_space_part(name: str, closures: list, on_nodes: list,
                   settings: EvalSettings, inner: int,
                   arguments: argparse.Namespace) -> bool:
    """One part of the ``pre-space`` row: *closures* vs *on_nodes*, their
    wrapped forms, under *settings*.  INVALID unless every closure runs in
    pre-space, every wrapped one on nodes, and the two answer alike."""
    def run(closure, **options):
        return closure.run(settings=settings, **options)

    def space(closure) -> str | None:
        return run(closure, trace=True).trace.find("fixpoint").attributes.get("space")

    def answer(closure) -> list:  # nodes by identity
        return [id(item) if is_node(item) else item for item in run(closure).items]

    for closure in closures:  # sql answers a seed's first miss with its plain statement
        run(closure)
    spaces = {(space(closure), space(wrapped))
              for closure, wrapped in zip(closures, on_nodes)}
    if spaces != {("pre", None)} or any(
            answer(closure) != answer(wrapped) for closure, wrapped in zip(closures, on_nodes)):
        print(f"pre-space {name} check INVALID: every closure must run in pre-space "
              "(space=pre), every wrapped one on nodes, and the two must "
              "answer alike", file=sys.stderr)
        return False
    results = alternate(
        timed_block(lambda: [run(closure) for closure in closures], inner),
        timed_block(lambda: [run(closure) for closure in on_nodes], inner),
        arguments.estimates, arguments.pairs)
    return verdict(f"pre-space {name}", results, PRE_SPACE_TOLERANCE,
                   "repro.xquery.pushdown.recognize_step_relation (which bodies it "
                   "accepts), StepRelation.bind (a decline is silent: the fixpoint "
                   "span says space=nodes), StructuralIndex.memo and ImageSpace.image "
                   "(a warm round must not miss an image)", arguments)


#: What a curriculum closure may cost as a recursive CTE: 3× the
#: interpreter.
CTE_TOLERANCE = 2.0


def check_cte(arguments: argparse.Namespace) -> bool:
    """The reply guard's curriculum closures on ``engine="sql"``, each from
    an empty sql image memo (a seed's first miss: one ``WITH RECURSIVE``
    statement each, over the store's edge table) vs the interpreter."""
    session, closures = curriculum_closures()
    sql = BASE.replace(engine="sql")
    # sql's images are keyed by the relation of the ``with`` node it runs
    # (its body as the parser keyed it, the engine made "sql"), which every
    # closure's body shares — not by a body parsed apart, whose key is its
    # tree: emptying that memo would leave sql's own images in place.
    relation = dataclasses.replace(
        pushdown.fixpoint_relation(closures[0].module.body, {}), engine="sql")
    memo = index_for(session.snapshot().resolve(get_workload("curriculum").document_uri)
                     ).memo(relation)

    def emptied() -> None:  # as a text edit leaves it: no images, no notes
        memo.clear()
        memo.stored = 0
        memo.missed.clear()

    def cold(closure, **options):
        emptied()
        return closure.run(settings=sql, **options)

    for closure in closures:  # the first one builds the edges
        cold(closure)
    spans = [cold(closure, trace=True).trace.find("fixpoint") for closure in closures]
    if any((span.attributes.get("path"), span.attributes.get("edges")) != ("cte", "cached")
           for span in spans):
        print("cte check INVALID: every closure must run as a recursive CTE over "
              "the store's cached edge table", file=sys.stderr)
        return False
    # one run is 24 closures; two tenths of --inner keep the warm
    # interpreted block above the noise floor
    inner = max(1, arguments.inner // 5)

    def cold_block() -> float:
        for closure in closures[:BLOCK_WARMUP]:
            cold(closure)
        total = 0.0
        for _ in range(inner):
            for closure in closures:
                emptied()
                started = time.process_time()
                closure.run(settings=sql)
                total += time.process_time() - started
        return total

    results = alternate(
        cold_block, timed_block(lambda: [closure.run() for closure in closures], inner),
        arguments.estimates, arguments.pairs)
    session.close()
    return verdict("cte", results, CTE_TOLERANCE,
                   "repro.sqlbackend.executor._check_guards (one multi-token probe "
                   "per store version: SqlDocumentStore.verdict), "
                   "SqlDocumentStore.edge_table (one build per tree and member), "
                   "the member (EXPLAIN QUERY PLAN: SEARCH e USING PRIMARY KEY "
                   "(src=?) in both members) and ImageSpace.first_miss (an empty "
                   "memo must not fill)", arguments)


#: What the set-at-a-time ``for`` must save on the bidder closure: the
#: marked module at most two thirds of the per-item one (1.5× faster).
SET_FOR_TOLERANCE = -1 / 3


def _cleared(expr):
    """*expr* with every ``ForExpr.whole`` cleared (``dataclasses.replace``)."""
    updates = {}
    for name, is_tuple in ast.CHILD_FIELDS[type(expr)]:
        value = getattr(expr, name)
        if is_tuple:
            updates[name] = tuple(map(_cleared, value))
        elif value is not None:
            updates[name] = _cleared(value)
    if isinstance(expr, ast.ForExpr):
        updates["whole"] = False
    return dataclasses.replace(expr, **updates) if updates else expr


def check_set_for(arguments: argparse.Namespace) -> bool:
    """The bidder closure: its optimized module vs the same module with its
    set-at-a-time loop run per item."""
    from ledger import corpus, ops  # the ledger's own document and closures

    documents, _ = corpus.build("service")  # its auction document is the full one
    scenarios = ops.Scenarios(documents)
    starts = scenarios.start_nodes("bidder", random.Random(0))[:8]
    marked = [optimize_module(parse_query(without_relation(ops.closure_text("bidder", start),
                                                           ops.BODIES["bidder"])))
              for start in starts]
    loops = [node for node in marked[0].functions[0].body.iter_subexpressions()
             if isinstance(node, ast.ForExpr)]
    if [loop.whole for loop in loops] != [True]:
        print("set-for check INVALID: exactly one loop of the bidder closure must be "
              "set-at-a-time", file=sys.stderr)
        return False
    per_item = [dataclasses.replace(module, functions=tuple(
        dataclasses.replace(function, body=_cleared(function.body))
        for function in module.functions)) for module in marked]
    session = Session({"auction.xml": documents["auction.xml"]},
                      id_attributes=corpus.ID_ATTRIBUTES)
    settings = BASE.replace(optimize=False)
    if any(ops.canonical_items("bidder", session.evaluate_query(a, settings=settings).items)
           != ops.canonical_items("bidder", session.evaluate_query(b, settings=settings).items)
           for a, b in zip(marked, per_item)):
        print("set-for check INVALID: the two modules answer differently", file=sys.stderr)
        return False
    if any("space" in session.evaluate_query(module, settings=settings, trace=True)
           .trace.find("fixpoint").attributes for module in (*marked, *per_item)):
        print("set-for check INVALID: a side's rounds ran in pre-space, not on nodes",
              file=sys.stderr)
        return False
    inner = max(1, arguments.inner // 5)  # one run is eight closures, ~10 ms
    results = alternate(
        timed_block(lambda: [session.evaluate_query(module, settings=settings)
                             for module in marked], inner),
        timed_block(lambda: [session.evaluate_query(module, settings=settings)
                             for module in per_item], inner),
        arguments.estimates, arguments.pairs)
    session.close()
    return verdict("set-for", results, SET_FOR_TOLERANCE,
                   "repro.xquery.optimizer._set_at_a_time (which loops it marks) and "
                   "Evaluator._eval_for (its whole branch)", arguments)


#: What the first read after an unrelated write may cost: 3× the read warm.
WRITE_TOLERANCE = 2.0

#: The guarded reads — (ledger op class, engine, multiple of ``--inner``: a
#: warm hospital closure on sql is a sixth of a millisecond and a warm
#: curriculum one a third, since their rounds are probes of sql's own
#: images, and a warm bidder closure is a quarter of a millisecond since its
#: rounds are an image relation's; each block stays about twice the 80 ms
#: noise floor).
WRITE_READS = (("hospital", "sql", 8), ("curriculum", "sql", 5), ("bidder", "algebra", 5))


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
                     check_limits_calls(arguments), check_hoisting(arguments), check_reply(arguments),
                     check_fed_node(arguments), check_pre_space(arguments),
                     check_cte(arguments),
                     check_set_for(arguments), check_write(arguments)]) else 1


if __name__ == "__main__":
    sys.exit(main())
