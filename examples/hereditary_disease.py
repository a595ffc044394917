#!/usr/bin/env python3
"""Hospital hereditary-disease exploration (the last row of Table 2).

Generates synthetic patient records with nested ``parent`` subtrees (depth
at most 5), then for every patient counts the diagnosed ancestors by
recursing into the record — a "computationally light" vertical recursion for
which Delta still makes a measurable difference (Table 2: 99,381 vs 50,000
nodes fed back at depth 5).

Also runs Section 2's SQL:1999 ``WITH RECURSIVE P(course_code)`` listing on
``sqlite3``, over a four-row ``C(course, prerequisite)`` table.

Run with:  python examples/hereditary_disease.py [--patients N]
"""

import argparse
import sqlite3

from repro import evaluate
from repro.datagen.hospital import HospitalConfig, generate_hospital
from repro.sqlbackend.emitter import format_with_recursive

QUERY = """
declare variable $doc := doc("hospital.xml");
for $p in subsequence($doc/hospital/patient, 1, {limit})
return <patient>{{ $p/@id }}{{
    count((with $x seeded by $p recurse $x/parent using {algorithm})[@diagnosed = "yes"])
}}</patient>
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=60)
    arguments = parser.parse_args()

    config = HospitalConfig(patients=max(arguments.patients, 10))
    documents = {"hospital.xml": generate_hospital(config)}

    print(f"== {config.patients} patient records, parent subtrees of depth <= {config.max_depth} ==")
    for algorithm in ("naive", "delta"):
        query = QUERY.format(limit=arguments.patients, algorithm=algorithm)
        result = evaluate(query, documents=documents)
        affected = sum(1 for node in result if node.string_value() not in ("", "0"))
        print(f"{algorithm:>5}: {affected} of {len(result)} patients have diagnosed ancestors; "
              f"nodes fed back {result.nodes_fed_back}, recursion depth {result.recursion_depth}")

    print("\n== The SQL:1999 sidebar of Section 2, on sqlite3 ==")
    listing = format_with_recursive(
        "P", ("course_code",),
        "SELECT prerequisite FROM C WHERE course = :course",
        "SELECT C.prerequisite FROM P, C WHERE P.course_code = C.course")
    print(listing)
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE C (course TEXT, prerequisite TEXT)")
        connection.executemany("INSERT INTO C VALUES (?, ?)", [
            ("c1", "c2"), ("c1", "c3"), ("c2", "c4"), ("c4", "c5")])
        rows = connection.execute(listing, {"course": "c1"}).fetchall()
    finally:
        connection.close()
    print(f"prerequisites of c1 = {sorted(row[0] for row in rows)}")


if __name__ == "__main__":
    main()
