"""A/B: ``repro-serve --workers 2`` against one process, on the ledger's
``service-mixed`` traffic with C concurrent connections::

    python benchmarks/prefork_ab.py --pairs 4 --seconds 10 --connections 1 2 4

Traffic is the ledger's ``service`` corpus and ``service_ops(seed=7)``:
reads on every (class, engine) cell plus a write every 200 ops, every
answer checked.  C client processes each hold one keep-alive connection,
warm it on every cell, then run a closed loop for ``--seconds``; a run's
figure is the raw wall ops/s summed over the clients.  Every run starts a
fresh daemon, journal and WAL store directory, and the pairs alternate
which side goes first.  The fleet is measured once it is up — ten
consecutive ``GET /ready`` answers of 200 and one more second — unless
``--eager``: then the clients connect at the first 200, while a second
worker may still be starting, and their connections can pile onto the
first.  Prints one line per run and the medians per C (DESIGN.md §12).
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "benchmarks"), os.path.join(ROOT, "src")]

from ledger import corpus, inprocess  # noqa: E402
from ledger.ops import Op, Scenarios, service_ops  # noqa: E402
from ledger.service import Client, execute  # noqa: E402


def start_daemon(workers: int, directory: str, documents: dict[str, str],
                 eager: bool) -> tuple[subprocess.Popen, int]:
    command = [sys.executable, "-c",
               "from repro.service.server import main; raise SystemExit(main())",
               "--port", "0", "--journal", os.path.join(directory, "corpus.journal"),
               "--sql-store", "wal", "--sql-store-dir", os.path.join(directory, "sql"),
               "--id-attribute", "code"]
    if workers > 1:
        command += ["--workers", str(workers)]
    for uri, text in documents.items():
        path = os.path.join(directory, uri)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        command += ["--doc", f"{uri}={path}"]
    os.makedirs(os.path.join(directory, "sql"))
    log_path = os.path.join(directory, "server.log")
    with open(log_path, "wb") as log:
        process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log,
                                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    port = 0
    deadline = time.monotonic() + 60.0
    while not port:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            text = log.read()
        if process.poll() is not None or time.monotonic() > deadline:
            raise RuntimeError(f"repro-serve did not start: {text[-400:]}")
        for line in text.splitlines():
            if "listening on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        time.sleep(0.02)
    answers_of_200 = 0
    while answers_of_200 < (1 if eager else 10):
        client = Client(port)
        try:
            status = client.request("GET", "/ready")[0]
        except OSError:
            status = 0
        finally:
            client.close()
        answers_of_200 = answers_of_200 + 1 if status == 200 else 0
        time.sleep(0.05)
    if workers > 1 and not eager:
        time.sleep(1.0)
    return process, port


def client_loop(port: int, index: int, count: int, ops: list[Op], warm_ups: list[Op],
                seconds: float, barrier, results) -> None:
    client = Client(port)
    for op in warm_ups:
        problem = execute(client, op)[1]
        if problem is not None:
            raise RuntimeError(f"warm-up {op.cls}/{op.engine} failed: {problem}")
    barrier.wait()
    offset = index * len(ops) // count
    done = failed = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        op = ops[(offset + done) % len(ops)]
        if op.cls == "write":  # every client writes; the version is not checked
            op = Op("write", "", op.text, ())
        failed += execute(client, op)[1] is not None
        done += 1
    results.put((done, failed, time.perf_counter() - started))
    client.close()


def run(workers: int, count: int, documents: dict[str, str], ops: list[Op],
        warm_ups: list[Op], seconds: float, eager: bool) -> tuple[float, int]:
    """One fresh daemon, *count* clients; returns (ops/s, failed ops)."""
    directory = tempfile.mkdtemp(prefix="prefork-ab-")
    process, port = start_daemon(workers, directory, documents, eager)
    try:
        client = Client(port)
        problem = execute(client, Op("write", "", '<notes version="0"/>', ("0",)))[1]
        client.close()
        if problem is not None:
            raise RuntimeError(f"registering notes.xml failed: {problem}")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(count)
        results = context.Queue()
        clients = [context.Process(target=client_loop,
                                   args=(port, index, count, ops, warm_ups, seconds,
                                         barrier, results))
                   for index in range(count)]
        for each in clients:
            each.start()
        outcomes = [results.get(timeout=600) for _ in clients]
        for each in clients:
            each.join()
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        shutil.rmtree(directory, ignore_errors=True)
    done = sum(outcome[0] for outcome in outcomes)
    return done / max(outcome[2] for outcome in outcomes), sum(outcome[1] for outcome in outcomes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--connections", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--eager", action="store_true",
                        help="connect at the first GET /ready of 200")
    arguments = parser.parse_args()
    documents, _ = corpus.build("service")
    ops = service_ops(Scenarios(documents), 7)
    warm_ups = inprocess.warm_up_ops([op for op in ops if op.cls != "write"])
    for count in arguments.connections:
        rates: dict[int, list[float]] = {1: [], 2: []}
        for pair in range(arguments.pairs):
            for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
                rate, failed = run(workers, count, documents, ops, warm_ups,
                                   arguments.seconds, arguments.eager)
                rates[workers].append(rate)
                print(f"C={count} pair={pair} workers={workers} "
                      f"ops/s={rate:.1f} failed={failed}", flush=True)
        one, two = statistics.median(rates[1]), statistics.median(rates[2])
        print(f"C={count}: --workers 1 median {one:.1f}, --workers 2 median {two:.1f}, "
              f"ratio {two / one:.2f}x", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
