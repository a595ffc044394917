"""The benchmark's own spans, recorded from outside the program.

A traced replay wraps every op in one root span (the call a user makes:
``Session.evaluate`` or the HTTP round trip) and hangs the span tree the
system ships — ``QueryResult.trace`` / ``"trace": true`` — underneath it.
Spans are kept in memory and dumped when the workload ends.

The shipped tree carries durations and nesting but no start times, so its
spans are laid out one after the other from their parent's start.  Self
times — a span's duration minus what its children cover — do not depend on
that layout, and they are what the per-layer table is made of.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Recorder:
    def __init__(self) -> None:
        #: Flat span records: ``id`` is the list index, ``parent`` an id or
        #: ``None``; spans of one op share ``op``.
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None,
            op: int, **attributes) -> int:
        self.spans.append({"id": len(self.spans), "parent": parent, "op": op,
                           "name": name, "start": start, "end": end,
                           "attributes": attributes})
        return len(self.spans) - 1

    def add_shipped(self, tree: dict, start: float, parent: int, op: int) -> None:
        """Hang a shipped span tree (``Span.to_dict()``) under *parent*."""
        end = start + tree["elapsed_ms"] / 1000.0
        span = self.add(tree["name"], start, end, parent, op, **tree["attributes"])
        cursor = start
        for child in tree["children"]:
            self.add_shipped(child, cursor, span, op)
            cursor += child["elapsed_ms"] / 1000.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def self_seconds(self) -> dict[int, float]:
        """Span id → self time."""
        own = {span["id"]: span["end"] - span["start"] for span in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_by_name(self, key: str) -> dict[str, dict[str, float]]:
        """Root attribute *key* (e.g. ``engine``) → span name → total self
        seconds: where the time of that group's ops went."""
        own = self.self_seconds()
        group_of_op = {span["op"]: span["attributes"].get(key)
                       for span in self.spans if span["parent"] is None}
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            table[group_of_op[span["op"]]][span["name"]] += own[span["id"]]
        return table

    def named(self, name: str, **root_attributes) -> list[dict]:
        """Spans called *name* under roots whose attributes match."""
        ops = {span["op"] for span in self.spans if span["parent"] is None
               and all(span["attributes"].get(key) == value
                       for key, value in root_attributes.items())}
        return [span for span in self.spans if span["name"] == name and span["op"] in ops]


def seconds(span: dict) -> float:
    return span["end"] - span["start"]
