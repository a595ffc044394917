"""Tests for the prefork supervisor (:mod:`repro.service.supervisor`).

Two layers:

* pure unit tests for the restart policy — :class:`BackoffSchedule`,
  :class:`CrashLoopBreaker` (driven by a fake clock) — and for the
  Prometheus exposition merging used by the aggregated ``/metrics``;
* subprocess integration tests that boot a real ``repro-serve
  --workers N`` fleet on ephemeral ports and exercise the acceptance
  criteria: kernel-balanced serving, ``POST /documents`` convergence
  through the journal, SIGKILL-mid-traffic crash recovery with
  item-identical answers after replay, hung-worker reaping, and the
  crash-loop breaker's explicit degraded mode.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.observability import inject_label, merge_expositions
from repro.service.supervisor import BackoffSchedule, CrashLoopBreaker
from repro.session import Session


class TestBackoffSchedule:
    def test_doubles_from_base_and_caps(self):
        schedule = BackoffSchedule(base=0.2, cap=10.0)
        assert schedule.delay(0) == 0.0
        assert [schedule.delay(n) for n in range(1, 7)] == [
            0.2, 0.4, 0.8, 1.6, 3.2, 6.4]
        assert schedule.delay(7) == 10.0  # 12.8 capped
        assert schedule.delay(100) == 10.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            BackoffSchedule(base=-1.0)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCrashLoopBreaker:
    def make(self, **overrides):
        clock = FakeClock()
        defaults = dict(threshold=3, window=30.0, cooldown=60.0, clock=clock)
        defaults.update(overrides)
        return CrashLoopBreaker(**defaults), clock

    def test_trips_at_threshold_within_window(self):
        breaker, clock = self.make()
        assert breaker.record_crash() is False
        clock.advance(1)
        assert breaker.record_crash() is False
        assert not breaker.tripped and breaker.allow_restart()
        clock.advance(1)
        assert breaker.record_crash() is True
        assert breaker.tripped and not breaker.allow_restart()

    def test_old_crashes_age_out_of_the_window(self):
        breaker, clock = self.make()
        breaker.record_crash()
        clock.advance(31)  # first crash leaves the window
        breaker.record_crash()
        clock.advance(1)
        assert breaker.record_crash() is False
        assert not breaker.tripped

    def test_half_open_after_cooldown_and_retrip(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_crash()
        assert not breaker.allow_restart()
        clock.advance(59)
        assert not breaker.allow_restart()
        clock.advance(2)
        assert breaker.allow_restart()  # half-open: one restart allowed
        assert breaker.tripped  # still tripped until proven stable
        # The probe worker crashes again: cooldown starts over.
        assert breaker.record_crash() is True
        assert not breaker.allow_restart()

    def test_note_stable_resets_fully(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_crash()
        breaker.note_stable()
        assert not breaker.tripped and breaker.allow_restart()
        # The streak starts from scratch afterwards.
        assert breaker.record_crash() is False

    def test_snapshot_shape(self):
        breaker, _ = self.make()
        breaker.record_crash()
        snapshot = breaker.snapshot()
        assert snapshot["tripped"] is False
        assert snapshot["recent_crashes"] == 1
        assert snapshot["threshold"] == 3


class TestExpositionMerging:
    def test_inject_label_into_bare_and_labeled_samples(self):
        assert (inject_label("repro_requests_total 4", "worker", "0")
                == 'repro_requests_total{worker="0"} 4')
        assert (inject_label('repro_latency_bucket{le="0.1"} 2', "worker", "1")
                == 'repro_latency_bucket{worker="1",le="0.1"} 2')
        assert inject_label("# HELP x y", "worker", "0") == "# HELP x y"

    def test_merge_keeps_one_header_per_family(self):
        a = ("# HELP repro_requests_total Requests.\n"
             "# TYPE repro_requests_total counter\n"
             "repro_requests_total 3\n")
        b = ("# HELP repro_requests_total Requests.\n"
             "# TYPE repro_requests_total counter\n"
             "repro_requests_total 5\n")
        merged = merge_expositions({"0": a, "1": b})
        assert merged.count("# HELP repro_requests_total") == 1
        assert merged.count("# TYPE repro_requests_total") == 1
        assert 'repro_requests_total{worker="0"} 3' in merged
        assert 'repro_requests_total{worker="1"} 5' in merged


# --------------------------------------------------------------------------
# Subprocess integration
# --------------------------------------------------------------------------

CURRICULUM_DOC = "<r><a id='x'/><a id='y'/></r>"


def _http(url: str, payload=None, timeout: float = 10.0):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
            return response.status, (json.loads(body) if body else None)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _http_text(url: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


class Fleet:
    """A running ``repro-serve --workers N`` subprocess under test."""

    def __init__(self, tmp_path, workers: int = 2, extra_args=(), env_extra=None):
        self.journal_path = tmp_path / "corpus.journal"
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        environment = dict(os.environ)
        environment["PYTHONPATH"] = package_root
        environment.update(env_extra or {})
        command = [sys.executable, "-m", "repro.service.server",
                   "--workers", str(workers),
                   "--journal", str(self.journal_path),
                   "--port", "0",
                   "--heartbeat-interval", "0.1",
                   "--heartbeat-timeout", "2.0",
                   "--restart-backoff", "0.05",
                   "--restart-backoff-max", "0.5",
                   "--stable-after", "0.5",
                   *extra_args]
        self.process = subprocess.Popen(
            command, env=environment,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.stderr_lines: list[str] = []
        self._ready = threading.Event()
        self.base_url = None
        self.control_url = None

        def drain():
            for line in self.process.stderr:
                self.stderr_lines.append(line)
                if "listening on " in line and "control: " in line:
                    self.base_url = line.split("listening on ", 1)[1].split()[0]
                    self.control_url = line.split("control: ", 1)[1].split(",")[0].rstrip(")")
                    self._ready.set()
            self._ready.set()  # EOF: unblock waiters even on startup failure

        threading.Thread(target=drain, daemon=True).start()

    def wait_listening(self, timeout: float = 30.0) -> None:
        assert self._ready.wait(timeout), "supervisor never printed its URL"
        assert self.base_url, "".join(self.stderr_lines)

    def wait_ready(self, timeout: float = 30.0) -> dict:
        self.wait_listening(timeout)
        deadline = time.monotonic() + timeout
        last = None
        while time.monotonic() < deadline:
            try:
                status, body = _http(self.control_url + "/ready", timeout=5.0)
            except OSError:
                time.sleep(0.1)
                continue
            last = body
            if status == 200 and body.get("ready"):
                return body
            time.sleep(0.1)
        raise AssertionError(f"fleet never became ready: {last}\n"
                             + "".join(self.stderr_lines))

    def stats(self) -> dict:
        return _http(self.control_url + "/stats")[1]

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)


@pytest.fixture()
def fleet_factory(tmp_path):
    fleets: list[Fleet] = []

    def start(**kwargs) -> Fleet:
        fleet = Fleet(tmp_path, **kwargs)
        fleets.append(fleet)
        return fleet

    yield start
    for fleet in fleets:
        fleet.stop()


class TestPreforkFleet:
    def test_serves_converges_and_recovers_from_sigkill(self, fleet_factory):
        fleet = fleet_factory(workers=2)
        ready = fleet.wait_ready()
        assert ready["workers_target"] == 2 and ready["workers_alive"] == 2

        # Plain queries flow through the shared socket.
        status, body = _http(fleet.base_url + "/query", {"query": "1 + 1"})
        assert status == 200 and body["items"] == ["2"]

        # POST /documents lands on one worker; the journal carries it to
        # every other worker, which must answer from the new corpus.
        status, body = _http(fleet.base_url + "/documents",
                             {"uri": "d.xml", "xml": CURRICULUM_DOC})
        assert status == 200 and body["op"] == "register"
        assert self._converged(fleet, expected="2")

        # The aggregated exposition labels every worker's series.
        metrics = _http_text(fleet.control_url + "/metrics")
        assert 'worker="0"' in metrics and 'worker="1"' in metrics
        assert metrics.count("# HELP repro_requests_total") == 1
        assert "repro_worker_restarts_total 0" in metrics

        # SIGKILL one worker mid-traffic: the supervisor restarts it, the
        # newcomer replays the journal, and its answers are item-identical
        # to a direct evaluation over the same corpus.
        victim = fleet.stats()["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            workers = {w["slot"]: w for w in fleet.stats()["workers"]}
            replacement = workers.get(victim["slot"])
            if (replacement and replacement["pid"] != victim["pid"]
                    and replacement["ready"]):
                break
            time.sleep(0.1)
        else:
            raise AssertionError("killed worker was never replaced")

        with Session() as session:
            session.register_document("d.xml", CURRICULUM_DOC)
            direct = [str(item) for item in
                      session.evaluate('count(doc("d.xml")//a)')]
        status, body = _http(
            f"http://127.0.0.1:{replacement['direct_port']}/query",
            {"query": 'count(doc("d.xml")//a)'})
        assert status == 200 and body["items"] == direct

        metrics = _http_text(fleet.control_url + "/metrics")
        assert "repro_worker_restarts_total 1" in metrics

    def _converged(self, fleet: Fleet, expected: str,
                   timeout: float = 15.0) -> bool:
        """Every live worker answers the doc query with *expected*."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ports = [w["direct_port"] for w in fleet.stats()["workers"]
                     if w["alive"] and w["direct_port"]]
            answers = []
            for port in ports:
                try:
                    _, body = _http(f"http://127.0.0.1:{port}/query",
                                    {"query": 'count(doc("d.xml")//a)'})
                    answers.append(body.get("items"))
                except OSError:
                    answers.append(None)
            if ports and all(a == [expected] for a in answers):
                return True
            time.sleep(0.2)
        return False

    def test_worker_readiness_gates_on_journal_replay(self, fleet_factory):
        fleet = fleet_factory(workers=2)
        fleet.wait_ready()
        # Worker /ready on the shared socket reflects fleet status pushes.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, body = _http(fleet.base_url + "/ready")
            if body.get("workers_target") == 2:
                break
            time.sleep(0.1)
        assert status == 200
        assert body["ready"] is True and body["journal_replayed"] is True
        assert body["workers_target"] == 2 and body["degraded"] is False

    def test_hung_worker_is_reaped_and_restarted(self, fleet_factory):
        fleet = fleet_factory(
            workers=2,
            env_extra={"REPRO_FAULTS": "worker-hang:sleep=30,after=3,limit=1"})
        fleet.wait_ready()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any("missed heartbeats" in line for line in fleet.stderr_lines):
                break
            time.sleep(0.2)
        else:
            raise AssertionError("supervisor never detected the hang:\n"
                                 + "".join(fleet.stderr_lines))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            metrics = _http_text(fleet.control_url + "/metrics")
            restarts = [line for line in metrics.splitlines()
                        if line.startswith("repro_worker_restarts_total ")]
            if restarts and float(restarts[0].split()[1]) >= 1:
                break
            time.sleep(0.2)
        else:
            raise AssertionError("hung worker was never restarted")

    def test_crash_loop_trips_breaker_into_degraded_mode(self, fleet_factory):
        fleet = fleet_factory(
            workers=2,
            extra_args=["--breaker-threshold", "3",
                        "--breaker-window", "30",
                        "--breaker-cooldown", "60"],
            env_extra={"REPRO_FAULTS": "worker-kill"})
        fleet.wait_ready()
        # Every query SIGKILLs its worker; each restarted worker dies on
        # its first query too, so the breaker must trip.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                _http(fleet.base_url + "/query", {"query": "1 + 1"},
                      timeout=5.0)
            except OSError:
                pass
            status, body = _http(fleet.control_url + "/ready", timeout=5.0)
            if status == 503 and body.get("degraded"):
                break
            time.sleep(0.2)
        else:
            raise AssertionError("breaker never tripped:\n"
                                 + "".join(fleet.stderr_lines))
        # /ready turns degraded when the crash is recorded; the line is
        # printed after that, and read here by another thread
        deadline = time.monotonic() + 5
        while (not any("breaker TRIPPED" in line for line in fleet.stderr_lines)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert any("breaker TRIPPED" in line for line in fleet.stderr_lines)
        metrics = _http_text(fleet.control_url + "/metrics")
        assert "repro_fleet_degraded 1" in metrics

    def test_workers_require_journal(self):
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        environment = dict(os.environ, PYTHONPATH=package_root)
        process = subprocess.run(
            [sys.executable, "-m", "repro.service.server",
             "--workers", "2", "--port", "0"],
            env=environment, capture_output=True, text=True, timeout=60)
        assert process.returncode != 0
        assert "--journal" in process.stderr
