"""service-mixed: the HTTP daemon under a read/write mix.

One ``repro-serve --journal J --sql-store wal`` subprocess holding the four
documents plus ``notes.xml``, and one closed-loop client on a keep-alive
connection (an API script waits for its reply before it sends the next
request).  ``nproc`` is 2 on the reference box: one core for the daemon, one
for the client.

One connection, not the two the issue sketched: the daemon is bound by one
interpreter lock, so a second connection left ``ops_per_s`` where it was
(72.8 against 71.4) and doubled every latency, with interquartile ranges of
2–3× — whether an op's median fell in the "other thread running" mode or
not flipped from run to run (17–21 % spread between runs of one commit).
With one connection a cell's interquartile range is ±10 % of its median.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections.abc import Sequence

from ledger import corpus, stats
from ledger.harness import Samples, closed_loop
from ledger.ops import WRITE_EVERY, Op, canonical
from ledger.spans import Recorder

VERSION_QUERY = 'string(doc("notes.xml")/notes/@version)'


class Server:
    """The daemon subprocess and the files it lives on."""

    def __init__(self, directory: str, documents: dict[str, str], source_root: str):
        self.directory = directory
        self.source_root = source_root
        self.process: subprocess.Popen | None = None
        self.port = 0
        os.makedirs(directory, exist_ok=True)
        self.document_paths = {}
        for uri, text in documents.items():
            self.document_paths[uri] = os.path.join(directory, uri)
            with open(self.document_paths[uri], "w", encoding="utf-8") as handle:
                handle.write(text)
        self.journal_path = os.path.join(directory, "corpus.journal")
        self.log_path = os.path.join(directory, "server.log")

    def start(self) -> float:
        """Spawn the daemon; returns the seconds until ``GET /ready`` is 200
        (documents parsed, journal replayed, socket accepting)."""
        command = [sys.executable, "-c",
                   "from repro.service.server import main; raise SystemExit(main())",
                   "--port", "0", "--journal", self.journal_path,
                   "--sql-store", "wal",
                   "--sql-store-dir", os.path.join(self.directory, "sql")]
        command += ["--id-attribute", "code"]  # on top of the daemon's id and xml:id
        for uri, path in self.document_paths.items():
            command += ["--doc", f"{uri}={path}"]
        os.makedirs(os.path.join(self.directory, "sql"), exist_ok=True)
        environment = dict(os.environ, PYTHONPATH=self.source_root)
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                            stderr=log, env=environment)
        deadline = started + 60.0
        self.port = 0
        while not self.port:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"repro-serve did not start: {self._log_tail()}")
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                for line in log:
                    if "listening on http://" in line:
                        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if not self.port:
                time.sleep(0.01)
        client = Client(self.port)
        try:
            while client.request("GET", "/ready")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro-serve never became ready")
                time.sleep(0.01)
        finally:
            client.close()
        return time.perf_counter() - started

    def _log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            return log.read()[-400:]

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL: no drain, no flush — what a crash leaves is what there is."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        self._end(signal.SIGTERM)

    def _end(self, signum: int) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signum)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None

    def forget(self) -> None:
        """Drop the journal and the SQLite stores: the next start is fresh."""
        shutil.rmtree(os.path.join(self.directory, "sql"), ignore_errors=True)
        if os.path.exists(self.journal_path):
            os.unlink(self.journal_path)

    def remove(self) -> None:
        self.stop()
        shutil.rmtree(self.directory, ignore_errors=True)


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=150.0)
        self.connection.connect()
        # http.client sends headers and body in two writes; without this the
        # second waits for the server's delayed ACK.
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, body: bytes | None = None):
        """Returns (status, body bytes, seconds from send to last byte read)."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.connection.close()


def encode(op: Op, trace: bool = False) -> tuple[str, bytes]:
    if op.cls == "write":
        return "/documents", json.dumps({"uri": "notes.xml", "xml": op.text}).encode()
    payload = {"query": op.text, "engine": op.engine}
    if trace:
        payload["trace"] = True
    return "/query", json.dumps(payload).encode()


def execute(client: Client, op: Op, trace: bool = False):
    """Send *op*; returns (seconds, problem-or-None, status, request bytes,
    response bytes, decoded payload or None)."""
    path, body = encode(op, trace)
    try:
        status, data, seconds = client.request("POST", path, body)
    except (OSError, http.client.HTTPException) as error:
        return 0.0, f"{type(error).__name__}: {error}", 0, len(body), 0, None
    problem = None
    payload = None
    if status != 200:
        problem = f"HTTP {status}: {data[:120]!r}"
    else:
        payload = json.loads(data)
        if not payload.get("ok"):
            problem = f"not ok: {data[:120]!r}"
        elif op.cls != "write":
            answer = canonical(op.cls, payload["items"])
            if answer != op.expected:
                problem = f"answered {answer[:4]}, expected {op.expected[:4]}"
    return seconds, problem, status, len(body), len(data), payload


class Traffic:
    """What the client saw."""

    def __init__(self) -> None:
        self.samples = Samples()
        self.request_bytes = 0
        self.response_bytes = 0
        self.rejected_503 = 0
        #: Client latency minus the reply's ``elapsed_ms``, per read.
        self.http_overhead: list[float] = []


def replay(client: Client, ops: Sequence[Op], *, seconds: float | None = None,
           count: int | None = None, recorder: Recorder | None = None) -> Traffic:
    """Send *ops* (see :func:`~ledger.harness.closed_loop`); a timed window
    holds whole write periods, so that how many re-shreds fall into it does
    not depend on where the clock cut it."""
    traffic = Traffic()

    def run_op(index: int, op: Op, started: float):
        latency, problem, status, sent, received, payload = execute(
            client, op, trace=recorder is not None)
        traffic.request_bytes += sent
        traffic.response_bytes += received
        traffic.rejected_503 += status == 503
        if payload is not None and "elapsed_ms" in payload:
            traffic.http_overhead.append(latency - payload["elapsed_ms"] / 1000.0)
        if recorder is not None:
            root = recorder.add("http", started, started + latency, None, index,
                                cls=op.cls, engine=op.engine or "write")
            if payload is not None and "trace" in payload:
                recorder.add_shipped(payload["trace"], started, root, index)
        return latency, problem

    traffic.samples = closed_loop(ops, run_op, seconds=seconds, period=WRITE_EVERY, count=count)
    return traffic


def set_up(server: Server, warm_ups: Sequence[Op]) -> tuple[Client, float, float]:
    """Fresh daemon → ready → ``notes.xml`` registered → one op per class ×
    engine on the connection the window will use: the daemon serves a
    connection from one thread, and every thread shreds into its own SQLite
    store.  Returns the warmed connection, the set-up seconds and the
    seconds until ``/ready``."""
    server.stop()
    server.forget()
    started = time.perf_counter()
    start_s = server.start()
    client = Client(server.port)
    for op in [Op("write", "", '<notes version="0"/>', ("0",)), *warm_ups]:
        problem = execute(client, op)[1]
        if problem is not None:
            client.close()
            raise RuntimeError(f"warm-up {op.cls}/{op.engine} failed: {problem}")
    return client, time.perf_counter() - started, start_s


def write_burst(client: Client, seed: int, writes: int = 200) -> float:
    """Calibrated p50 seconds of *writes* ``POST /documents`` sent back to
    back.  A replay holds too few writes for a median (each makes the next
    SQL reads re-shred for ~0.45 s), so ``service.write_ms`` is measured here."""
    rng = random.Random(f"writes:{seed}")
    burst = [Op("write", "", corpus.notes_xml(rng, version), ()) for version in range(writes)]
    return stats.median(replay(client, burst, count=writes).samples.latencies["write", ""])


def server_stats(port: int) -> dict:
    client = Client(port)
    try:
        return json.loads(client.request("GET", "/stats")[1])
    finally:
        client.close()


def durability_check(server: Server, version: int = 10**6) -> tuple[float, int]:
    """Write *version*, SIGKILL the daemon once it is acknowledged, restart
    on the same journal; returns (seconds to ``/ready``, lost writes).

    SIGKILL keeps the operating system's cache, so this tests the replay
    path and the fsync ordering, not the device.
    """
    client = Client(server.port)
    try:
        _, problem, *_ = execute(client, Op(
            "write", "", f'<notes version="{version}"/>', (str(version),)))
    finally:
        client.close()
    if problem is not None:
        raise RuntimeError(f"final write failed: {problem}")
    server.kill()
    replay_s = server.start()
    client = Client(server.port)
    try:
        *_, payload = execute(client, Op("notes", "interpreter", VERSION_QUERY, (str(version),)))
    finally:
        client.close()
    lost = 0 if payload is not None and payload.get("items") == [str(version)] else 1
    return replay_s, lost
