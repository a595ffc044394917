"""Prefork supervisor: bind once, fork N workers, keep them alive.

``repro-serve --workers N --journal PATH`` runs this module instead of
the in-process server.  The supervisor:

* binds and listens on the service socket exactly once, then spawns
  ``N`` worker subprocesses (:mod:`repro.service.worker`) that inherit
  the socket fd and accept from it concurrently — the kernel spreads
  connections over the fleet, no userspace proxy involved;
* holds one ``socketpair`` per worker for JSON-line heartbeats up and
  fleet-status pushes down;
* detects crashes via SIGCHLD (self-pipe into the select loop) and
  hangs via heartbeat timeout (a silent worker is SIGKILLed and treated
  as crashed);
* restarts failed workers with exponential backoff
  (:class:`BackoffSchedule`) and refuses to flap forever: a
  :class:`CrashLoopBreaker` trips after ``threshold`` crashes inside a
  sliding ``window`` and blocks restarts for ``cooldown`` seconds,
  during which the fleet reports ``degraded: true`` and readiness
  carries ``workers_alive < workers_target``;
* serves a control endpoint (``--control-port``, default service port
  + 1) with ``/health``, ``/ready``, ``/stats`` and an aggregated
  ``/metrics`` that scrapes every worker's private port and merges the
  expositions under ``worker="<slot>"`` labels, adding its own
  ``repro_worker_restarts_total`` / ``repro_workers_alive`` series.

Corpus consistency across the fleet is the journal's job, not the
supervisor's: ``POST /documents`` lands on *one* worker, which appends
to the shared journal; every other worker tails it, and a restarted
worker replays it before accepting traffic (see
:mod:`repro.service.journal` and DESIGN.md §12).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from collections import deque
from http.server import ThreadingHTTPServer

import repro
from repro.observability import MetricsRegistry, merge_expositions
from repro.service.server import _JsonHandler

#: Exit summary fields logged per reaped worker.
_SIGNAL_NAMES = {int(s): s.name for s in signal.Signals}


class BackoffSchedule:
    """Exponential restart backoff: ``base * 2**(failures-1)``, capped.

    ``delay(0)`` is 0.0 — the first spawn (or a restart after a stable
    run reset the streak) is immediate.
    """

    def __init__(self, base: float = 0.2, cap: float = 10.0):
        if base < 0 or cap < 0:
            raise ValueError("backoff base and cap must be non-negative")
        self.base = base
        self.cap = cap

    def delay(self, failures: int) -> float:
        if failures <= 0:
            return 0.0
        return min(self.cap, self.base * (2.0 ** (failures - 1)))


class CrashLoopBreaker:
    """A circuit breaker over worker crash events.

    Trips when ``threshold`` crashes land within a sliding ``window``;
    while tripped, :meth:`allow_restart` returns ``False`` until
    ``cooldown`` elapses (half-open).  A crash while tripped re-opens
    the breaker — the cooldown starts over.  :meth:`note_stable`
    (a restarted worker survived long enough) fully resets it.

    The clock is injectable so unit tests drive time by hand.
    """

    def __init__(self, threshold: int = 5, window: float = 30.0,
                 cooldown: float = 30.0, clock=time.monotonic):
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self._clock = clock
        self._crashes: deque[float] = deque()
        self._tripped_at: float | None = None

    @property
    def tripped(self) -> bool:
        return self._tripped_at is not None

    def record_crash(self) -> bool:
        """Record one crash; returns ``True`` when this one trips (or
        re-opens) the breaker."""
        now = self._clock()
        self._crashes.append(now)
        cutoff = now - self.window
        while self._crashes and self._crashes[0] < cutoff:
            self._crashes.popleft()
        if self._tripped_at is not None or len(self._crashes) >= self.threshold:
            self._tripped_at = now
            return True
        return False

    def allow_restart(self) -> bool:
        if self._tripped_at is None:
            return True
        return self._clock() - self._tripped_at >= self.cooldown

    def note_stable(self) -> None:
        """A restarted worker proved itself; close the breaker."""
        self._crashes.clear()
        self._tripped_at = None

    def snapshot(self) -> dict:
        return {"tripped": self.tripped,
                "recent_crashes": len(self._crashes),
                "threshold": self.threshold,
                "window_s": self.window,
                "cooldown_s": self.cooldown}


class WorkerHandle:
    """Supervisor-side state for one worker slot."""

    def __init__(self, slot: int, process: subprocess.Popen,
                 control: socket.socket, started_at: float):
        self.slot = slot
        self.process = process
        self.control = control
        self.started_at = started_at
        self.last_heartbeat = started_at
        self.buffer = b""
        self.ready = False
        self.direct_port: int | None = None
        self.in_flight = 0
        self.stable = False
        self.hung = False

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None


def _forwarded_flags(arguments: argparse.Namespace) -> list[str]:
    """The service flags a worker must inherit from the supervisor CLI."""
    flags: list[str] = []
    for doc in arguments.doc:
        flags += ["--doc", doc]
    for attribute in arguments.id_attribute:
        flags += ["--id-attribute", attribute]
    flags += ["--engine", arguments.engine,
              "--sql-store", arguments.sql_store,
              "--drain-timeout", str(arguments.drain_timeout)]
    if arguments.sql_store_dir:
        flags += ["--sql-store-dir", arguments.sql_store_dir]
    if arguments.journal:
        flags += ["--journal", arguments.journal]
    if arguments.verbose:
        flags.append("--verbose")
    if arguments.log_json:
        flags.append("--log-json")
    if arguments.slow_query_ms is not None:
        flags += ["--slow-query-ms", str(arguments.slow_query_ms)]
    if arguments.max_concurrency is not None:
        flags += ["--max-concurrency", str(arguments.max_concurrency)]
    if arguments.max_timeout is not None:
        flags += ["--max-timeout", str(arguments.max_timeout)]
    return flags


class ControlHandler(_JsonHandler):
    """The control port's routes (``GET /health``, ``/ready``, ``/stats``,
    ``/metrics``) over the data port's HTTP shell (:class:`~repro.service.
    server._JsonHandler`): the same head reader and checks, JSON error
    replies with a status line, no ``Server`` header.  The server it runs
    under carries the :class:`Supervisor` as ``supervisor``."""

    def do_GET(self):
        if self.headers.get("content-length", "0").strip("0"):
            self.close_connection = True  # its body stays unread
        supervisor = self.server.supervisor  # type: ignore[attr-defined]
        if self.path == "/health":
            snapshot = supervisor.status_snapshot()
            self._respond(200, {
                "ok": True, "role": "supervisor",
                "workers_alive": snapshot["workers_alive"],
                "workers_target": snapshot["workers_target"],
                "degraded": snapshot["degraded"]})
        elif self.path == "/ready":
            self._respond(*supervisor.ready_response())
        elif self.path == "/stats":
            self._respond(200, supervisor.status_snapshot())
        elif self.path == "/metrics":
            self._respond_text(200, supervisor.metrics_exposition())
        else:
            self._respond(404, {"ok": False, "error": f"unknown path {self.path}"})


class Supervisor:
    def __init__(self, arguments: argparse.Namespace):
        self.arguments = arguments
        self.target = arguments.workers
        self.backoff = BackoffSchedule(arguments.restart_backoff,
                                       arguments.restart_backoff_max)
        self.breaker = CrashLoopBreaker(arguments.breaker_threshold,
                                        arguments.breaker_window,
                                        arguments.breaker_cooldown)
        self.stable_after = arguments.stable_after
        self.heartbeat_interval = arguments.heartbeat_interval
        self.heartbeat_timeout = arguments.heartbeat_timeout

        self.registry = MetricsRegistry()
        self._restarts = self.registry.counter(
            "repro_worker_restarts_total",
            "Worker processes restarted after a crash or hang.")
        self._restarts.inc(0.0)
        self._alive_gauge = self.registry.gauge(
            "repro_workers_alive", "Worker processes currently running.")
        self._target_gauge = self.registry.gauge(
            "repro_workers_target", "Configured worker count (--workers).")
        self._target_gauge.set(float(self.target))
        self._degraded_gauge = self.registry.gauge(
            "repro_fleet_degraded",
            "1 when the crash-loop breaker is tripped, else 0.")
        self._degraded_gauge.set(0.0)

        #: Guards the tables below — the control HTTP server reads them
        #: from handler threads while the select loop mutates them.
        self._lock = threading.Lock()
        self.workers: dict[int, WorkerHandle] = {}
        self.failures: dict[int, int] = {slot: 0 for slot in range(self.target)}
        self.restart_due: dict[int, float] = {}
        self.restarts_by_slot: dict[int, int] = {
            slot: 0 for slot in range(self.target)}
        self.stopping = False
        self.started_at = time.monotonic()

        self.listen_socket: socket.socket | None = None
        self.control_server: ThreadingHTTPServer | None = None
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._last_status_push: tuple | None = None

    # -- fleet state ---------------------------------------------------------

    def workers_alive(self) -> int:
        return sum(1 for handle in self.workers.values() if handle.alive())

    def workers_ready(self) -> int:
        return sum(1 for handle in self.workers.values()
                   if handle.alive() and handle.ready)

    def degraded(self) -> bool:
        return self.breaker.tripped

    def status_snapshot(self) -> dict:
        with self._lock:
            workers = []
            now = time.monotonic()
            for slot in sorted(self.workers):
                handle = self.workers[slot]
                workers.append({
                    "slot": slot,
                    "pid": handle.pid,
                    "alive": handle.alive(),
                    "ready": handle.ready,
                    "direct_port": handle.direct_port,
                    "in_flight": handle.in_flight,
                    "uptime_s": round(now - handle.started_at, 3),
                    "heartbeat_age_s": round(now - handle.last_heartbeat, 3),
                    "failures": self.failures.get(slot, 0),
                    "restarts": self.restarts_by_slot.get(slot, 0),
                })
            return {
                "role": "supervisor",
                "pid": os.getpid(),
                "workers_target": self.target,
                "workers_alive": self.workers_alive(),
                "workers_ready": self.workers_ready(),
                "degraded": self.degraded(),
                "stopping": self.stopping,
                "breaker": self.breaker.snapshot(),
                "restarts_total": sum(self.restarts_by_slot.values()),
                "uptime_s": round(now - self.started_at, 3),
                "workers": workers,
            }

    def ready_response(self) -> tuple[int, dict]:
        snapshot = self.status_snapshot()
        ok = (snapshot["workers_ready"] >= 1 and not snapshot["stopping"])
        body = {"ready": ok,
                "workers_alive": snapshot["workers_alive"],
                "workers_ready": snapshot["workers_ready"],
                "workers_target": snapshot["workers_target"],
                "degraded": snapshot["degraded"],
                "stopping": snapshot["stopping"]}
        return (200 if ok else 503), body

    def metrics_exposition(self) -> str:
        """Own series plus every worker's ``/metrics``, relabeled."""
        with self._lock:
            targets = [(handle.slot, handle.direct_port)
                       for handle in self.workers.values()
                       if handle.alive() and handle.direct_port]
        per_worker: dict[str, str] = {}
        for slot, port in targets:
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics",
                        timeout=2.0) as response:
                    per_worker[str(slot)] = response.read().decode("utf-8")
            except OSError:
                continue  # mid-restart; the next scrape catches it
        own = self.registry.render()
        merged = merge_expositions(per_worker, label="worker")
        return own + merged

    # -- process management --------------------------------------------------

    def _spawn(self, slot: int, restart: bool = False) -> None:
        parent, child = socket.socketpair()
        listen_fd = self.listen_socket.fileno()
        command = [sys.executable, "-m", "repro.service.worker",
                   "--listen-fd", str(listen_fd),
                   "--control-fd", str(child.fileno()),
                   "--slot", str(slot),
                   "--heartbeat-interval", str(self.heartbeat_interval)]
        command += _forwarded_flags(self.arguments)
        environment = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        environment["PYTHONPATH"] = package_root + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            command, pass_fds=(listen_fd, child.fileno()), env=environment)
        child.close()
        parent.setblocking(False)
        with self._lock:
            self.workers[slot] = WorkerHandle(
                slot, process, parent, time.monotonic())
            if restart:
                self.restarts_by_slot[slot] = (
                    self.restarts_by_slot.get(slot, 0) + 1)
        if restart:
            self._restarts.inc()
        print(f"repro-serve: {'restarted' if restart else 'started'} "
              f"worker slot {slot} (pid {process.pid})", file=sys.stderr)

    def _worker_exited(self, handle: WorkerHandle) -> None:
        returncode = handle.process.returncode
        try:
            handle.control.close()
        except OSError:
            pass
        if self.stopping:
            with self._lock:
                self.workers.pop(handle.slot, None)
            return
        cause = "hang" if handle.hung else "crash"
        if returncode is not None and returncode < 0:
            detail = _SIGNAL_NAMES.get(-returncode, f"signal {-returncode}")
        else:
            detail = f"exit {returncode}"
        with self._lock:
            self.workers.pop(handle.slot, None)
            self.failures[handle.slot] = self.failures.get(handle.slot, 0) + 1
            failures = self.failures[handle.slot]
        just_tripped = self.breaker.record_crash()
        delay = self.backoff.delay(failures)
        with self._lock:
            self.restart_due[handle.slot] = time.monotonic() + delay
        print(f"repro-serve: worker slot {handle.slot} (pid {handle.pid}) "
              f"{cause} ({detail}); restart in {delay:.2f}s "
              f"(failure streak {failures})", file=sys.stderr)
        if just_tripped:
            print(f"repro-serve: crash-loop breaker TRIPPED "
                  f"({self.breaker.threshold} crashes inside "
                  f"{self.breaker.window:.0f}s); restarts paused for "
                  f"{self.breaker.cooldown:.0f}s — fleet degraded",
                  file=sys.stderr)

    def _reap(self) -> None:
        for handle in list(self.workers.values()):
            if handle.process.poll() is not None:
                self._worker_exited(handle)

    def _check_restarts(self) -> None:
        now = time.monotonic()
        degraded_before = self.degraded()
        for slot, due in sorted(self.restart_due.items()):
            if now < due:
                continue
            if not self.breaker.allow_restart():
                continue  # breaker open; retry next loop tick
            with self._lock:
                self.restart_due.pop(slot, None)
            self._spawn(slot, restart=True)
        if degraded_before and not self.degraded():
            print("repro-serve: crash-loop breaker reset; fleet nominal",
                  file=sys.stderr)

    def _check_hangs(self) -> None:
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if not handle.alive() or handle.hung:
                continue
            if now - handle.last_heartbeat > self.heartbeat_timeout:
                handle.hung = True
                print(f"repro-serve: worker slot {handle.slot} "
                      f"(pid {handle.pid}) missed heartbeats for "
                      f"{now - handle.last_heartbeat:.1f}s; killing",
                      file=sys.stderr)
                try:
                    handle.process.kill()
                except OSError:
                    pass

    def _note_stability(self) -> None:
        now = time.monotonic()
        for handle in self.workers.values():
            if handle.stable or not handle.alive():
                continue
            if now - handle.started_at >= self.stable_after:
                handle.stable = True
                with self._lock:
                    self.failures[handle.slot] = 0
                self.breaker.note_stable()

    def _read_heartbeats(self, readable: list) -> None:
        for handle in list(self.workers.values()):
            if handle.control not in readable:
                continue
            try:
                chunk = handle.control.recv(65536)
            except OSError as error:
                if error.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                    continue
                chunk = b""
            if not chunk:
                continue  # EOF: exit shows up via poll() shortly
            handle.buffer += chunk
            while b"\n" in handle.buffer:
                line, _, handle.buffer = handle.buffer.partition(b"\n")
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                if message.get("type") != "heartbeat":
                    continue
                handle.last_heartbeat = time.monotonic()
                handle.ready = bool(message.get("ready"))
                handle.direct_port = message.get("direct_port")
                handle.in_flight = int(message.get("in_flight") or 0)

    def _push_status(self) -> None:
        alive = self.workers_alive()
        self._alive_gauge.set(float(alive))
        self._degraded_gauge.set(1.0 if self.degraded() else 0.0)
        status = (alive, self.target, self.degraded())
        if status == self._last_status_push:
            return
        self._last_status_push = status
        line = json.dumps({"type": "status",
                           "workers_alive": alive,
                           "workers_target": self.target,
                           "degraded": self.degraded()}).encode("utf-8") + b"\n"
        for handle in list(self.workers.values()):
            try:
                handle.control.sendall(line)
            except OSError:
                continue

    # -- main loop -----------------------------------------------------------

    def _wake(self, *_ignored) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _request_stop(self, signum, frame) -> None:
        self.stopping = True
        self._wake()

    def _bind(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.arguments.host, self.arguments.port))
        listener.listen(128)
        listener.set_inheritable(True)
        self.listen_socket = listener

    def _start_control_server(self) -> None:
        control_port = self.arguments.control_port
        if control_port is None:
            control_port = (0 if self.arguments.port == 0
                            else self.arguments.port + 1)
        server = ThreadingHTTPServer(
            (self.arguments.host, control_port), ControlHandler)
        server.supervisor = self
        server.daemon_threads = True
        self.control_server = server
        threading.Thread(target=server.serve_forever,
                         name="supervisor-control", daemon=True).start()

    def run(self) -> int:
        self._bind()
        self._start_control_server()
        signal.signal(signal.SIGCHLD, self._wake)
        signal.signal(signal.SIGTERM, self._request_stop)
        signal.signal(signal.SIGINT, self._request_stop)

        for slot in range(self.target):
            self._spawn(slot)

        host, port = self.listen_socket.getsockname()[:2]
        control_host, control_port = (
            self.control_server.server_address[:2])
        print(f"repro-serve: listening on http://{host}:{port} "
              f"(workers: {self.target}, "
              f"control: http://{control_host}:{control_port}, "
              f"journal: {self.arguments.journal})", file=sys.stderr)

        try:
            while not self.stopping:
                self._reap()
                self._check_hangs()
                self._check_restarts()
                self._note_stability()
                self._push_status()
                watched = [self._wake_r] + [
                    handle.control for handle in self.workers.values()
                    if handle.alive()]
                try:
                    readable, _, _ = select.select(
                        watched, [], [], self.heartbeat_interval)
                except OSError:
                    continue  # a control fd closed under us; rebuild next tick
                if self._wake_r in readable:
                    try:
                        while os.read(self._wake_r, 4096):
                            pass
                    except BlockingIOError:
                        pass
                self._read_heartbeats(readable)
        finally:
            self._shutdown()
        return 0

    def _shutdown(self) -> None:
        self.stopping = True
        print("repro-serve: supervisor stopping; terminating workers",
              file=sys.stderr)
        for handle in list(self.workers.values()):
            if handle.alive():
                try:
                    handle.process.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + self.arguments.drain_timeout + 2.0
        for handle in list(self.workers.values()):
            remaining = deadline - time.monotonic()
            try:
                handle.process.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=5.0)
            try:
                handle.control.close()
            except OSError:
                pass
        if self.control_server is not None:
            self.control_server.shutdown()
            self.control_server.server_close()
        if self.listen_socket is not None:
            self.listen_socket.close()
        restarts = sum(self.restarts_by_slot.values())
        print(f"repro-serve: supervisor stopped "
              f"({self.target} workers, {restarts} restarts, "
              f"degraded: {self.degraded()})", file=sys.stderr)


def run_supervisor(arguments: argparse.Namespace) -> int:
    """Entry point used by ``repro-serve --workers N``."""
    return Supervisor(arguments).run()


__all__ = ["BackoffSchedule", "CrashLoopBreaker", "Supervisor",
           "WorkerHandle", "run_supervisor"]
