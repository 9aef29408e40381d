"""Process and socket plumbing: boot ``repro serve``, drive it, meter it.

Everything here uses the standard library only. Server processes are
started in their own session, so the whole tree (the pool's forked
workers too) shares one process group: CPU and memory are summed over
that group, and shutdown waits until no live member of the group is
left.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HOST = "127.0.0.1"
#: Budget for a clean drain after SIGTERM. A process tree still alive
#: past it is a stall: it is counted, then the group is SIGKILLed, so a
#: stuck worker never burns CPU into the next measurement.
DRAIN_SECONDS = 10.0
BOOT_SECONDS = 60.0
HTTP_TIMEOUT = 30.0
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024


def host_ref_ms(repetitions: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed probe.

    Recorded beside the metrics so a spread between sets of runs can be
    traced to the host; never used to normalise a metric.
    """
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _group_members(pgid: int) -> list[tuple[int, str, int]]:
    """``(pid, state, rss_pages)`` of every process in a group."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                text = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = text[text.rindex(")") + 2:].split()
        if int(fields[2]) != pgid:
            continue
        members.append((int(entry), fields[0], int(fields[21])))
    return members


def _process_cpu_seconds(pid: int) -> float:
    """CPU time of every thread ``pid`` has run, ended ones included.

    Reads the kernel's per-process CPU clock (Linux encodes it as
    ``(~pid << 3) | CPUCLOCK_SCHED``), which counts nanoseconds, where
    ``/proc/<pid>/stat`` rounds to 10 ms clock ticks. Time the
    hypervisor stole from the vCPU is not counted.
    """
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:  # the process has just ended
        return 0.0


@dataclass
class Server:
    """One ``repro serve`` process tree on an ephemeral port."""

    proc: subprocess.Popen
    port: int
    setup_s: float
    log_path: Path

    def live_members(self):
        return [m for m in _group_members(self.proc.pid) if m[1] != "Z"]

    def cpu_seconds(self) -> float:
        """User+system CPU of every live process of the tree, so far."""
        return sum(_process_cpu_seconds(m[0]) for m in self.live_members())

    def rss_mb(self) -> float:
        """Resident memory summed over the live processes of the tree."""
        return sum(m[2] for m in self.live_members()) * _PAGE_KB / 1024

    def stop(self) -> bool:
        """SIGTERM, wait for every process of the group to end.

        Returns True when the tree drained within :data:`DRAIN_SECONDS`;
        False when it stalled and had to be SIGKILLed. The SIGKILL also
        runs when the wait is cut short by an exception (the run's
        watchdog alarm), so no process of the tree outlives the run.
        """
        drained = False
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + DRAIN_SECONDS
            while time.monotonic() < deadline:
                self.proc.poll()
                if not self.live_members():
                    drained = True
                    break
                time.sleep(0.02)
        finally:
            if not drained:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                while self.live_members():
                    time.sleep(0.02)
            self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        return drained


def spawn_server(
    repo: Path, work: Path, argv: list[str], tag: str, hash_seed: str,
    trace_dir: Path | None = None,
) -> Server:
    """Start ``argv`` (a ``python ...`` command line) and wait for it.

    Returns once the server printed its "listening on" line; ``setup_s``
    so far covers spawn to that line.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    env["PYTHONHASHSEED"] = hash_seed
    if trace_dir is not None:
        env["SERVEBENCH_TRACE_DIR"] = str(trace_dir)
    log_path = work / f"server-{tag}.log"
    started = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=repo,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            start_new_session=True,
        )
    server = Server(proc, 0, 0.0, log_path)
    timer = threading.Timer(BOOT_SECONDS, proc.kill)
    timer.start()
    try:
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace")
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                server.port = int(address.rsplit(":", 1)[1])
                break
        if not server.port:
            raise RuntimeError(
                f"server did not start; log:\n{log_path.read_text()[-4000:]}"
            )
    except BaseException:
        server.stop()
        raise
    finally:
        timer.cancel()
    server.setup_s = time.perf_counter() - started
    return server


@dataclass
class Op:
    """One HTTP operation as the client saw it (perf_counter_ns clock)."""

    index: int
    start_ns: int = 0
    end_ns: int = 0
    status: int | None = None
    body: bytes = b""
    local_port: int = 0
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _exchange(conn, op: Op, path: str, body: bytes, fresh: bool) -> None:
    headers = {"Content-Type": "application/json"}
    if fresh:
        headers["Connection"] = "close"
    conn.request("POST", path, body=body, headers=headers)
    response = conn.getresponse()
    op.body = response.read()
    op.status = response.status


def run_fresh(
    port: int, requests: list[tuple[str, bytes]], first: int = 0
) -> list[Op]:
    """One client, a new TCP connection per request (like ``HttpClient``).

    ``requests`` are the sequence's operations from index ``first`` on.
    """
    ops = []
    for offset, (path, body) in enumerate(requests):
        op = Op(first + offset)
        op.start_ns = time.perf_counter_ns()
        conn = http.client.HTTPConnection(HOST, port, timeout=HTTP_TIMEOUT)
        try:
            conn.connect()
            op.local_port = conn.sock.getsockname()[1]
            _exchange(conn, op, path, body, fresh=True)
        except (OSError, http.client.HTTPException) as error:
            op.error = f"{type(error).__name__}: {error}"
        finally:
            conn.close()
        op.end_ns = time.perf_counter_ns()
        ops.append(op)
    return ops


def run_keepalive(
    port: int, requests: list[tuple[str, bytes]], conns: list, first: int = 0
) -> list[Op]:
    """``len(conns)`` closed-loop clients, one persistent connection each.

    ``conns`` holds the connections (None until opened) and outlives the
    call, so consecutive calls reuse them; the caller closes them.
    Operation ``i`` goes to connection ``i % len(conns)``.
    """
    ops = [Op(first + offset) for offset in range(len(requests))]

    def client(lane: int) -> None:
        for op in ops[lane::len(conns)]:
            path, body = requests[op.index - first]
            op.start_ns = time.perf_counter_ns()
            try:
                if conns[lane] is None:
                    conns[lane] = http.client.HTTPConnection(
                        HOST, port, timeout=HTTP_TIMEOUT
                    )
                    conns[lane].connect()
                op.local_port = conns[lane].sock.getsockname()[1]
                _exchange(conns[lane], op, path, body, fresh=False)
            except (OSError, http.client.HTTPException) as error:
                op.error = f"{type(error).__name__}: {error}"
                conns[lane].close()
                conns[lane] = None
            op.end_ns = time.perf_counter_ns()

    threads = [
        threading.Thread(target=client, args=(lane,))
        for lane in range(len(conns))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops


def get_json(port: int, path: str):
    """GET ``path`` on a fresh connection; returns the decoded body."""
    conn = http.client.HTTPConnection(HOST, port, timeout=HTTP_TIMEOUT)
    try:
        conn.request("GET", path, headers={"Connection": "close"})
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


@dataclass
class Chunk:
    """A consecutive slice of the timed phase, timed on its own."""

    ops: list[Op]
    wall_s: float


@dataclass
class Phase:
    """One replay of the sequence: client ops plus server-side meters."""

    chunks: list[Chunk]
    cpu_s: float
    rss_mb: float
    setup_s: float
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    @property
    def ops(self) -> list[Op]:
        return [op for chunk in self.chunks for op in chunk.ops]
