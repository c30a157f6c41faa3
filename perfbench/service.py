"""The ``service`` workload: one served run driven by an open-loop client.

The program under test is the runner CLI in its own process::

    python -m repro.experiments.runner --group spec --trace 5 \\
        --policy g-loadsharing --serve 0 --pace 500 --submit-stdin ...

It replays SPEC trace 5 at a fixed pace and stays open while its
stdin is open (the ingest hold).  This process is the single client.
It sends one request at a time, on a fixed schedule whatever the
replies do (an open loop):

* ``POST /submit`` with a batch of ``BATCH`` jobs, ``RATE`` times per
  second; each latency is taken from the request's due time, so a
  stall also counts against the requests queued behind it.  The jobs
  are drawn, with replacement, from SPEC trace 5's own jobs (program,
  CPU work, memory phases, home node);
* ``POST /checkpoint`` every ``CHECKPOINT_EVERY_S`` seconds;
* once the loop ends, ``GET /snapshot.json`` for the loop's throughput;
  then, once every posted job has finished, ``FORKS`` times: a
  checkpoint written to a file by the server, and right after it (so
  at the same point of the engine's slice every time) one
  ``POST /fork`` to ``v-reconfiguration``.

Then it closes the server's stdin, waits for the run to exit and
checks the exported summary: every posted job was admitted and
finished, alongside every job of the trace.

Why this traffic (measured on a 2-vCPU host).  The jobs are SPEC trace
5's, and the job rate is bounded by the cluster: the trace offers 777
jobs in 3582 simulated seconds, 1.2-1.5 times the CPU of the 32 nodes,
so a stream at its full rate never drains.  The client posts
``RATE * BATCH / PACE`` = 0.072 jobs per simulated second, a third of
the trace's rate, which the cluster absorbs.  The request rate is
bounded below by the p99: 36 requests per second give 1080 timed
requests in a 30 s run, ten beyond the p99.  The pace is bounded by
the engine: at 1000 or 2000 simulated seconds per wall second (with
2 or 3 jobs per request at the same job rate per simulated second)
the engine held the interpreter lock for 25-50 % of the requests, and
the median submit latency jumped between 2 and 6 ms from run to run.
At 500, a third of the trace's rate is 36 jobs per wall second, one
per request.  The 32-job batches of the perf harness's ingest bench
would give one request per second.  The forks wait for the posted jobs
to drain because a fork replays the rest of the run: forking with jobs
in flight made ``fork_s`` follow whichever long SPEC job was still
running (spread 0.23 over five seeds, against 0.09 after draining).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

PACE = 500.0               # simulated seconds per wall second
# Window of the live aggregation; every slice renders its whole history
# into the dashboard, so a wide window keeps that render short.
WINDOW_S = 250.0
RATE = 36.0                # submit requests per wall second
BATCH = 1                  # jobs per submit request
# The paced engine answers /checkpoint and /fork at its next slice
# boundary, one every SLICE_WALL_S = 0.25 s.  An interval off that
# grid moves each checkpoint 50 ms later in the slice, so one run's
# checkpoints sample every phase instead of repeating one random phase.
CHECKPOINT_EVERY_S = 4.05  # wall seconds between checkpoints
FORK_POLICY = "v-reconfiguration"
FORKS = 5                  # forks after the loop; fork_s is their median
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0
#: Extra server starts per run, each timed to port ready and killed,
#: so ``setup_s`` is a median of several set-ups.
SETUP_PROBES = 2


class _Server:
    """The served runner process and its files."""

    def __init__(self, root: str, workdir: str, seed: int,
                 report_out: Optional[str]):
        self.port_file = os.path.join(workdir, "port")
        self.summary_file = os.path.join(workdir, "summary.json")
        for path in (self.port_file, self.summary_file):
            if os.path.exists(path):
                os.remove(path)
        runner_args = [
            "--group", "spec", "--trace", "5", "--seed", str(seed),
            "--policy", "g-loadsharing", "--serve", "0",
            "--serve-port-file", self.port_file, "--pace", str(PACE),
            "--window", str(WINDOW_S),
            "--submit-stdin", "--export-json", self.summary_file]
        if report_out is None:
            command = [sys.executable, "-m", "repro.experiments.runner"]
        else:
            command = [sys.executable,
                       os.path.join(root, "perfbench", "layers.py"),
                       "--report-out", report_out, "--"]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.out_file = os.path.join(workdir, "server.out")
        self.err_file = os.path.join(workdir, "server.err")
        self.rusage = None
        with open(self.out_file, "wb") as out, \
                open(self.err_file, "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(command + runner_args, cwd=root,
                                         env=env, stdin=subprocess.PIPE,
                                         stdout=out, stderr=err)

    def output(self, err: bool = False) -> str:
        with open(self.err_file if err else self.out_file,
                  encoding="utf-8", errors="replace") as stream:
            return stream.read()

    def wait_port(self) -> Tuple[int, float]:
        """Poll for the port file; returns (port, ready time)."""
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited before binding its port: "
                                   + self.output(err=True)[-2000:])
            try:
                with open(self.port_file, encoding="utf-8") as stream:
                    text = stream.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text), time.perf_counter()
            time.sleep(0.002)
        raise RuntimeError("server did not bind its port in time")

    def finish(self) -> float:
        """Release the ingest hold, wait for the run to drain; returns
        the exit time."""
        self.proc.stdin.close()
        deadline = time.perf_counter() + EXIT_TIMEOUT_S
        while time.perf_counter() < deadline:
            # wait4, not Popen.wait: it also returns the child's rusage.
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                return time.perf_counter()
            time.sleep(0.005)
        raise RuntimeError("server did not exit after its stdin closed")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def probe_setup(root: str, workdir: str, seed: int) -> float:
    """Start the server, time it to port ready, then kill it."""
    server = _Server(root, workdir, seed, None)
    try:
        _, ready = server.wait_port()
    finally:
        server.kill()
    return ready - server.started


def _post(conn: http.client.HTTPConnection, path: str,
          body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _snapshot(conn: http.client.HTTPConnection) -> dict:
    """``GET /snapshot.json``: the server's live aggregates, as of its
    last slice boundary."""
    conn.request("GET", "/snapshot.json")
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise RuntimeError(f"/snapshot.json answered {response.status}")
    return json.loads(body)


def trace_specs(root: str, seed: int) -> List[dict]:
    """SPEC trace 5 at ``seed`` as ``/submit`` job specs, one per job:
    the client's pool to draw posted jobs from."""
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.workload.generator import build_trace
    from repro.workload.programs import WorkloadGroup

    trace = build_trace(WorkloadGroup.SPEC, 5, seed=seed)
    return [{"program": job.program, "lifetime_s": job.cpu_work_s,
             "peak_demand_mb": job.peak_demand_mb,
             "memory_phases": [[p.start_progress, p.demand_mb]
                               for p in job.memory.phases],
             "home_node": job.home_node,
             "io_stall_per_cpu_s": job.io_stall_per_cpu_s,
             "buffer_cache_mb": job.buffer_cache_mb}
            for job in trace.build_jobs()]


def _fork(conn: http.client.HTTPConnection, path: str,
          trace_jobs: int) -> Tuple[List[float], List[str]]:
    """A checkpoint written to ``path`` by the server, then a fork:
    the checkpoint answers just after a slice boundary, so the fork
    always meets the engine at the same point of its slice.  Returns
    ([checkpoint ms, fork s], problems)."""
    problems = []
    start = time.perf_counter()
    status, body = _post(conn, "/checkpoint",
                         json.dumps({"path": path}).encode())
    checkpoint_ms = (time.perf_counter() - start) * 1e3
    if status != 200 or not json.loads(body).get("bytes"):
        problems.append(f"checkpoint answered {status}")
    start = time.perf_counter()
    status, body = _post(conn, "/fork", json.dumps(
        {"policy": FORK_POLICY}).encode())
    fork_s = time.perf_counter() - start
    fork: dict = json.loads(body) if status == 200 else {}
    if status != 200 or fork.get("policy") != "V-Reconfiguration" \
            or fork["summary"]["num_jobs"] < trace_jobs:
        problems.append(f"fork answered {status}: {body[:200]!r}")
    return [checkpoint_ms, fork_s], problems


def run(root: str, workdir: str, seed: int, seconds: float,
        pool: List[dict], report_out: Optional[str] = None) -> Dict:
    """One served run; returns raw samples, counts and problems.
    ``pool`` is the trace's job specs (``trace_specs``)."""
    rng = random.Random(seed)
    trace_jobs = len(pool)
    server = _Server(root, workdir, seed, report_out)
    problems: List[str] = []
    try:
        port, ready = server.wait_port()
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=HTTP_TIMEOUT_S)
        # The port opens before the runner binds the job list; until it
        # does, /submit answers 503.  An empty body is answered 400
        # once the run can take jobs.
        while True:
            status, _ = _post(conn, "/submit", b"")
            if status == 400:
                break
            if time.perf_counter() - ready > READY_TIMEOUT_S:
                raise RuntimeError("server never accepted jobs")
            time.sleep(0.002)

        final_path = os.path.join(workdir, "final.ckpt")
        submit_ms: List[float] = []
        checkpoint_ms: List[float] = []
        checkpoint_bytes: List[int] = []
        fork_s: List[float] = []
        late_max_s = 0.0
        failed = posted = requests = 0
        start = time.perf_counter()
        submits = int(seconds * RATE)
        checkpoints = int(seconds / CHECKPOINT_EVERY_S)
        schedule = sorted(
            [(start + i / RATE, "submit") for i in range(submits)]
            + [(start + (i + 0.5) * CHECKPOINT_EVERY_S, "checkpoint")
               for i in range(checkpoints)])
        for due, kind in schedule:
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            late_max_s = max(late_max_s, time.perf_counter() - due)
            requests += 1
            if kind == "submit":
                specs = rng.choices(pool, k=BATCH)
                status, body = _post(conn, "/submit",
                                     json.dumps(specs).encode())
                submit_ms.append((time.perf_counter() - due) * 1e3)
                if status == 202 and json.loads(body).get("accepted") \
                        == BATCH:
                    posted += BATCH
                else:
                    failed += 1
                    problems.append(f"submit answered {status}: "
                                    f"{body[:200]!r}")
            else:
                status, body = _post(conn, "/checkpoint", b"")
                checkpoint_ms.append((time.perf_counter() - due) * 1e3)
                checkpoint_bytes.append(len(body))
                if status != 200 or body[:2] != b"\x1f\x8b":
                    failed += 1
                    problems.append(f"checkpoint answered {status}")

        # The open loop's throughput, from the server's own counters.
        loop = _snapshot(conn)
        loop_s = time.perf_counter() - ready
        requests += 1
        # Fork once the posted jobs have drained, so every fork replays
        # an empty remainder instead of whichever long job is still
        # running.
        drain_deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while _snapshot(conn)["totals"]["jobs_finished"] \
                < trace_jobs + posted:
            if time.perf_counter() > drain_deadline:
                raise RuntimeError("posted jobs did not drain in time")
            time.sleep(0.05)
        for _ in range(FORKS):
            requests += 2
            (ckpt, fork), fork_problems = _fork(conn, final_path,
                                                trace_jobs)
            checkpoint_ms.append(ckpt)
            fork_s.append(fork)
            failed += len(fork_problems)
            problems += fork_problems
        conn.close()
        server.finish()
    finally:
        server.kill()

    if server.proc.returncode != 0:
        problems.append(f"server exited {server.proc.returncode}: "
                        + server.output(err=True)[-2000:])
        summary: dict = {}
    else:
        with open(server.summary_file, encoding="utf-8") as stream:
            summary = json.load(stream)[0]
    extra = summary.get("extra", {})
    admitted = int(extra.get("obs.live_jobs_admitted", 0))
    finished = summary.get("num_jobs", 0) - trace_jobs
    # Every job sent is an operation: it fails unless admitted and
    # finished.
    sent = BATCH * submits
    missing = sent - min(posted, admitted, finished)
    if missing or finished != admitted:
        problems.append(f"{posted} jobs posted, {admitted} admitted, "
                        f"{finished} finished besides the trace's "
                        f"{trace_jobs}")
    match = re.search(r", (\d+) events", server.output())
    usage = server.rusage
    return {
        "setup_s": ready - server.started,
        "loop_s": loop_s,
        "loop_sim_s": loop["t"],
        "loop_jobs": loop["totals"]["jobs_finished"],
        "events": int(match.group(1)) if match else 0,
        "cpu_s": usage.ru_utime + usage.ru_stime if usage else 0.0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0 if usage else 0.0,
        "sim_lag_max_s": extra.get("obs.live_sim_lag_max_s", 0.0),
        "submit_ms": submit_ms,
        "checkpoint_ms": checkpoint_ms,
        "checkpoint_bytes": checkpoint_bytes,
        "fork_s": fork_s,
        "late_max_ms": late_max_s * 1e3,
        "attempted": requests + sent,
        "failed": failed + missing,
        "problems": problems,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank q-th percentile: always a value that was observed,
    so it never extrapolates past the largest sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
