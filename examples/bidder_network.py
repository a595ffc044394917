#!/usr/bin/env python3
"""Bidder network (Figure 10): the paper's scalability workload, end to end.

Generates a synthetic XMark-style auction site, then computes for every
person the transitive network of sellers and bidders reachable from them,
comparing algorithm Naive and algorithm Delta — the experiment behind the
first four rows of Table 2.

Run with:  python examples/bidder_network.py [--size tiny|small|medium] [--persons N]
"""

import argparse

from repro.bench.queries import get_workload
from repro.bench.table2 import run_row
from repro.datagen.xmark import XMarkConfig, generate_auction_site, seller_to_bidder_edges


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", default="tiny", choices=["tiny", "small", "medium"],
                        help="document scale (default: tiny)")
    parser.add_argument("--persons", type=int, default=None,
                        help="how many persons to seed the network from (default: size-specific)")
    arguments = parser.parse_args()

    workload = get_workload("bidder-network")
    print("The query (IFP form):\n")
    print(workload.ifp_query(algorithm="delta", seed_limit=arguments.persons or 10))
    print()

    config = {"tiny": XMarkConfig.tiny(), "small": XMarkConfig.small(),
              "medium": XMarkConfig.medium()}[arguments.size]
    document = generate_auction_site(config)
    edges = seller_to_bidder_edges(document)
    print(f"document: {config.persons} persons, "
          f"{sum(len(v) for v in edges.values())} seller→bidder edges\n")

    naive, delta = run_row("bidder-network", arguments.size, engines=("interpreter",),
                           seed_limit=arguments.persons)
    for run in (naive, delta):
        print(f"{run.algorithm:>5}: {run.seconds * 1e3:>10.1f} ms   "
              f"nodes fed back {run.nodes_fed_back:>8,}   "
              f"max recursion depth {run.recursion_depth}")

    assert naive.answers == delta.answers, "Naive and Delta must agree (distributive body)"
    print(f"\nDelta speed-up: {naive.seconds / delta.seconds:.2f}x, "
          f"node-feed reduction: {naive.nodes_fed_back / delta.nodes_fed_back:.2f}x")
    print("(the paper reports 2.2-3.3x time and up to ~9x node-feed reduction on its testbed)")


if __name__ == "__main__":
    main()
