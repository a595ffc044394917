"""The golden file: digests of the default-seed op lists, answers included.

They pin the work the default seed replays — documents, start nodes, query
texts, the oracle's answers and, for adhoc's ``q2`` shape, the
reference-mode interpreter's — so that a change to any of them is a change
somebody made on purpose.  ``python3 benchmarks/ledger/golden.py`` rewrites
``golden.json``; the self-tests compare against it.
"""

from __future__ import annotations

import json
import os
import sys

LEDGER = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(LEDGER, "golden.json")

#: Corpus size → the workloads that run on it (``--smoke`` runs all on tiny).
SIZES = {"tiny": ("closure-delta", "closure-naive", "adhoc", "service-mixed"),
         "full": ("closure-delta", "closure-naive"),
         "service": ("service-mixed",)}


def digests() -> dict:
    from ledger import corpus, ops
    from ledger.inprocess import reference_for

    found: dict = {"seed": ops.DEFAULT_SEED}
    for size, workloads in SIZES.items():
        documents, _ = corpus.build(size)
        scenarios = ops.Scenarios(documents)
        found[size] = {workload: ops.digest(ops.op_list(
            workload, scenarios, ops.DEFAULT_SEED, reference_for(documents)))
            for workload in workloads}
    return found


if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(LEDGER),
                    os.path.join(os.path.dirname(os.path.dirname(LEDGER)), "src")]
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(digests(), handle, indent=2)
        handle.write("\n")
    print(f"wrote {PATH}")
