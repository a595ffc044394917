"""The correctness matrix: op class × engine × corpus shape, each cell once.

Run on the tiny corpus (a wrong cell is wrong at any size, and the timed
mixes check every answer on the full-size documents anyway).  The matrix
keeps the cells the timed mixes must leave out: at the seed commit algebra ×
curriculum × four-document answers with no items, because ``fn:id`` resolves
against the resolver's first URI (``session.py``, ``_evaluate_algebra``:
``known_uris()[0]``) instead of the context node's document.
"""

from __future__ import annotations

import random

from repro import Session
from repro.errors import ReproError

from ledger import corpus
from ledger.ops import (CLOSURE_CLASSES, COUNT_TEXT, ENGINES, Scenarios, canonical_items,
                        closure_text)


def matrix(seed: int) -> dict[str, list[str] | int]:
    """``{"total": n, "wrong": [cell names], "unsupported": [cell names]}``;
    a cell is named ``engine/class/corpus``."""
    documents, _ = corpus.build("tiny")
    scenarios = Scenarios(documents)
    rng = random.Random(f"check:{seed}")
    queries = {"count": (COUNT_TEXT, scenarios.count)}
    for cls in CLOSURE_CLASSES:
        start = rng.choice(scenarios.start_nodes(cls, rng))
        queries[cls] = (closure_text(cls, start), scenarios.expected(cls, start))
    four = Session(documents, id_attributes=corpus.ID_ATTRIBUTES)
    total = 0
    wrong: list[str] = []
    unsupported: list[str] = []
    for cls, (text, expected) in queries.items():
        uri = corpus.DOCUMENT_OF[cls]
        single = Session({uri: documents[uri]}, id_attributes=corpus.ID_ATTRIBUTES)
        for shape, session in (("single-document", single), ("four-document", four)):
            for engine in ENGINES:
                total += 1
                try:
                    answer = canonical_items(cls, session.evaluate(text, engine=engine).items)
                except ReproError:
                    unsupported.append(f"{engine}/{cls}/{shape}")
                    continue
                if answer != expected:
                    wrong.append(f"{engine}/{cls}/{shape}")
        single.close()
    four.close()
    return {"total": total, "wrong": wrong, "unsupported": unsupported}
