"""The benchmark's workloads: set-up, one timed repeat, output checks.

Every workload is driven the same way by ``bench.py``::

    setup = workload.open(seed)      # set-up seconds, one per sample
    for _ in range(repeats):
        ops, failed = workload.repeat()
    workload.per_layer()             # --trace 1 only
    problems = workload.check()
    workload.close()

A repeat's *operations* are the rows a user reads from it: Table II
cells, §V-E2 pipelines, sweep cells, serve jobs.  Throughput is
operations per second of a repeat.

The seed is the only input: it seeds the experiment configs and the
serve payload, and names the serve job ids.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import benchstats
import layers
from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExperimentConfig, ExtractorCache, bench_config
from repro.serve import LoadShedded, ServeClient, ServeError, default_router

__all__ = ["WORKLOADS", "ROOT", "child_env"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("perfbench", "bench.py")

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_SAMPLES = 5

#: Every run makes at least this many timed repeats.
MIN_REPEATS = 3

#: Scratch space for daemon sockets and journals, inside the checkout.
#: Socket paths stay relative (and short): AF_UNIX caps them at ~107 bytes.
RUN_DIR = ".bench_run"


def child_env():
    """Environment for processes the harness starts: ``src`` importable,
    BLAS pinned (inherited from ``bench.py``)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    return env


def _stop(proc, timeout=60.0):
    """Wait for ``proc`` to exit, killing it if it will not."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name = ""
    #: Seconds one repeat takes on the reference machine (2-core x86,
    #: BLAS pinned to one thread).  Fixes the repeat count for a given
    #: ``--seconds``, so both sides of a comparison do the same work.
    nominal_s = 1.0

    def repeat_count(self, seconds):
        return max(MIN_REPEATS, int(round(seconds / self.nominal_s)))

    def open(self, seed):
        """Set up; returns the set-up seconds, one per sample."""
        raise NotImplementedError

    def repeat(self):
        """One timed repeat; returns ``(operations, failed)``."""
        raise NotImplementedError

    def per_layer(self):
        """The per-layer run after the timed repeats.

        Returns ``(wall, metrics, operations, failed)``: ``wall`` is the
        traced repeat's, comparable with one timed repeat, and
        ``metrics`` maps ``schema.PER_LAYER`` names to values.
        """
        raise NotImplementedError

    def check(self):
        """Failed output checks, as messages."""
        return []

    def close(self):
        pass


# ----------------------------------------------------------------------
# Experiment workloads: run_matrix in this process, set-up probed in
# fresh interpreters
# ----------------------------------------------------------------------
def _probe_seconds(name, seed):
    """Spawn -> ready of a fresh interpreter doing ``name``'s set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, BENCH, "--setup-probe", name, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _stop(proc)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe for %s failed (exit %s)"
                           % (name, proc.returncode))
    return elapsed


class _Experiment(Workload):
    """A paper experiment run through ``run_matrix``, serially."""

    def prepare(self, seed):
        """Everything before the first timed operation (also the probe)."""
        raise NotImplementedError

    def results(self):
        """Per-layer values read off the timed repeats' outputs."""
        return {}

    def open(self, seed):
        samples = [_probe_seconds(self.name, seed)
                   for _ in range(SETUP_SAMPLES)]
        self.coverage = None
        self.prepare(seed)
        return samples

    def per_layer(self):
        from repro import telemetry
        from repro.telemetry import profile_ops

        from shims import LayerShims

        out = self.results()
        session = telemetry.session()
        with LayerShims() as shims, session, profile_ops() as profile:
            wall, (ops, failed) = _timed(self.repeat)
        out.update(layers.from_trace(session.records, profile.stats(),
                                     shims, wall))
        self.coverage = out["span_coverage"]
        return wall, out, ops, failed

    def check(self):
        # run_matrix wraps all its work in a ``runner`` span, so the
        # top-level spans' self times must account for the traced wall.
        if self.coverage is not None and abs(self.coverage - 1.0) > 0.05:
            return ["top-level spans cover %.1f%% of the traced wall"
                    % (100 * self.coverage)]
        return []


def _eos_bac(result):
    return [metrics["bac"] for key, metrics in result.cells.items()
            if key[-1] == "eos" and isinstance(metrics, dict)]


class Table2Small(_Experiment):
    """Table II at small scale: 4 losses x 5 samplers, cold extractors."""

    name = "table2-small"
    nominal_s = 3.0

    def prepare(self, seed):
        self.config = ExperimentConfig(scale="small", seed=seed)
        self.reports = set()
        self.bac = []

    def repeat(self):
        # No cache passed: run_matrix builds a fresh ExtractorCache, so
        # every repeat trains its four phase-1 extractors like a user's run.
        result = run_matrix(MatrixSpec("table2", config=self.config))
        self.reports.add(result.report)
        self.bac.append(statistics.mean(_eos_bac(result)))
        return len(result.cells), len(result.degraded)

    def results(self):
        return {"experiments.eos_bac": statistics.median(self.bac)}

    def check(self):
        problems = super().check()
        if len(self.reports) != 1:
            problems.append("Table II report differs between repeats "
                            "(%d variants)" % len(self.reports))
        return problems


class RuntimeRT(_Experiment):
    """The §V-E2 runtime comparison: pixel-space training vs EOS."""

    name = "runtime-rt"
    nominal_s = 4.5

    def prepare(self, seed):
        self.config = bench_config(seed=seed)
        self.sides = []

    def repeat(self):
        result = run_matrix(MatrixSpec("runtime_comparison",
                                       config=self.config))
        # The figure view exposes its timings only through the
        # deprecated mapping access.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pre, eos = result["pre_seconds"], result["eos_seconds"]
            speedup = result["speedup"]
        self.sides.append((statistics.mean(pre), eos, speedup))
        return len(pre) + 1, 0

    def results(self):
        pixel, eos, speedup = zip(*self.sides)
        return {
            "experiments.rt_pixel_s": statistics.median(pixel),
            "experiments.rt_eos_s": statistics.median(eos),
            "experiments.rt_speedup": statistics.median(speedup),
        }

    def check(self):
        problems = super().check()
        slow = [s for _, _, s in self.sides if not s > 1.0]
        if slow:
            problems.append("EOS pipeline not cheaper than pixel-space "
                            "training (speedup %s)"
                            % ", ".join("%.2f" % s for s in slow))
        return problems


#: The embedding-space samplers the sweep compares (Table II, CE row).
SWEEP_SAMPLERS = ("smote", "bsmote", "balsvm", "adasyn", "eos")


class EmbedSweep(_Experiment):
    """Table IV plus the CE row of Table II against one warm extractor."""

    name = "embed-sweep"
    nominal_s = 0.75

    def prepare(self, seed):
        self.config = ExperimentConfig(scale="small", seed=seed)
        self.cache = ExtractorCache()
        self.cache.get(self.config, "ce")
        self.reports = set()
        self.bac = []

    def repeat(self):
        knn = run_matrix(MatrixSpec("table4", config=self.config),
                         cache=self.cache)
        row = run_matrix(MatrixSpec("table2", config=self.config,
                                    losses=("ce",), samplers=SWEEP_SAMPLERS),
                         cache=self.cache)
        self.reports.add(knn.report + "\n" + row.report)
        self.bac.append(statistics.mean(
            [m["bac"] for m in knn.cells.values() if isinstance(m, dict)]
            + _eos_bac(row)
        ))
        return (len(knn.cells) + len(row.cells),
                len(knn.degraded) + len(row.degraded))

    def results(self):
        return {"experiments.eos_bac": statistics.median(self.bac)}

    def check(self):
        problems = super().check()
        if len(self.reports) != 1:
            problems.append("sweep report differs between passes "
                            "(%d variants)" % len(self.reports))
        misses = self.cache.stats()["misses"]
        if misses != 1:
            problems.append("phase 1 retrained during the sweep "
                            "(%d extractor cache misses)" % misses)
        return problems


# ----------------------------------------------------------------------
# Serve workload: the daemon as a subprocess, one client in this process
# ----------------------------------------------------------------------
#: Class counts of the resample payload (the Table II long tail, shrunk).
SERVE_COUNTS = (60, 30, 15, 8, 4)
SERVE_DIM = 32
JOB_TIMEOUT = 60.0


def serve_payload(seed):
    """EOS over a seeded 117x32 embedding with a long-tailed label set."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(SERVE_COUNTS)), SERVE_COUNTS)
    order = rng.permutation(labels.size)
    centers = rng.normal(size=(len(SERVE_COUNTS), SERVE_DIM))
    x = centers[labels] + rng.normal(size=(labels.size, SERVE_DIM))
    return {
        "x": np.round(x[order], 4).tolist(),
        "y": labels[order].tolist(),
        "sampler": "eos",
    }


class _CountingClient(ServeClient):
    """The shipped client, counting ``result`` requests (``wait`` polls)."""

    polls = 0

    def result(self, job_id):
        self.polls += 1
        return super().result(job_id)


class Daemon:
    """``python -m repro.serve start`` in the default fork-per-job mode."""

    def __init__(self, run_dir, tag, trace_out=None):
        self.socket = os.path.join(run_dir, tag + ".sock")
        cmd = [sys.executable, "-m", "repro.serve", "start",
               "--socket", self.socket,
               "--journal", os.path.join(run_dir, tag, "journal.jsonl"),
               "--workers", "2", "--max-depth", "128"]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        probe = ServeClient(self.socket, client_id="bench-setup")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL)
        while not probe.alive():
            if self.proc.poll() is not None:
                raise RuntimeError("serve daemon exited with %d before "
                                   "answering" % self.proc.returncode)
            if time.perf_counter() - start > 60.0:
                self.stop()
                raise RuntimeError("serve daemon did not answer in 60 s")
            time.sleep(0.002)
        self.ready_seconds = time.perf_counter() - start

    def health(self):
        return ServeClient(self.socket, client_id="bench-health").health()

    def stop(self):
        """Graceful stop (drain, flush the trace); kill if that fails."""
        if self.proc.poll() is None:
            try:
                ServeClient(self.socket, client_id="bench-stop").stop()
            except (OSError, ServeError):
                self.proc.terminate()
        _stop(self.proc)


def _settled_ok(response):
    if response.get("status") != "done":
        return False
    counts = response["result"]["class_counts"]
    return len(counts) == len(SERVE_COUNTS) and len(set(counts)) == 1


class ServeResample(Workload):
    """EOS resample jobs over the daemon's socket through ``ServeClient``.

    The timed repeats are closed-loop: one job outstanding, ``submit``
    then the shipped ``wait()`` and its 0.05 s poll.  The per-layer run
    adds bursts: back-to-back submits, then every job awaited.
    """

    name = "serve-resample"
    nominal_s = 1.0
    closed_jobs = 10
    burst_jobs = 64
    bursts = 2

    def open(self, seed):
        self.seed = seed
        self.payload = serve_payload(seed)
        self.run_dir = os.path.join(RUN_DIR, "%s-%d" % (self.name,
                                                         os.getpid()))
        os.makedirs(self.run_dir)
        self.daemons = []
        self.next_job = 0
        self.ack, self.latency = [], []
        self.kept = {}
        self.health = None
        samples = []
        for index in range(SETUP_SAMPLES):
            if self.daemons:
                self.daemons[-1].stop()
            self.daemons.append(Daemon(self.run_dir, "d%d" % index))
            samples.append(self.daemons[-1].ready_seconds)
        self.client = _CountingClient(self.daemons[-1].socket,
                                      client_id="bench")
        return samples

    def _job_id(self, index):
        return "s%d-%s-%05d" % (self.seed, self.name, index)

    def _next_job_id(self):
        self.next_job += 1
        return self._job_id(self.next_job)

    def _job(self, job_id):
        return {"job_id": job_id, "kind": "resample", "payload": self.payload}

    def _settle(self, job_id, response, keep):
        """0 for a good settlement, else 1; keeps whole results only when
        asked (each is a few hundred KB once decoded)."""
        if keep:
            self.kept[job_id] = response
        return 0 if _settled_ok(response) else 1

    def _closed(self, client):
        failed = 0
        for index in range(self.closed_jobs):
            job_id = self._next_job_id()
            start = time.perf_counter()
            try:
                client.submit("resample", self.payload, job_id=job_id)
                acked = time.perf_counter()
                response = client.wait(job_id, timeout=JOB_TIMEOUT)
            except (LoadShedded, ServeError, TimeoutError, OSError):
                failed += 1
                continue
            self.ack.append(acked - start)
            self.latency.append(time.perf_counter() - start)
            failed += self._settle(job_id, response, keep=index == 0)
        return self.closed_jobs, failed

    def _burst(self, client):
        failed = 0
        submitted = []
        for _ in range(self.burst_jobs):
            job_id = self._next_job_id()
            try:
                client.submit("resample", self.payload, job_id=job_id)
            except (LoadShedded, ServeError, OSError):
                failed += 1
                continue
            submitted.append(job_id)
        for index, job_id in enumerate(submitted):
            try:
                response = client.wait(job_id, timeout=JOB_TIMEOUT)
            except (ServeError, TimeoutError, OSError):
                failed += 1
                continue
            failed += self._settle(job_id, response, keep=index == 0)
        return self.burst_jobs, failed

    def repeat(self):
        return self._closed(self.client)

    def _timed_daemon_health(self):
        if self.health is None:
            self.health = self.daemons[-1].health()
        return self.health

    def per_layer(self):
        from repro.telemetry import load_trace

        from shims import LayerShims

        settled = len(self.latency)
        out = {
            "serve.ack_p50_ms": 1e3 * statistics.median(self.ack),
            "serve.latency_p50_ms": 1e3 * statistics.median(self.latency),
            "serve.result_polls_per_job": self.client.polls / settled,
        }
        # p90 only once ten samples lie beyond it (the default run has
        # 150 closed-loop jobs); 0 otherwise.
        for metric, samples in (("serve.ack_p90_ms", self.ack),
                                ("serve.latency_p90_ms", self.latency)):
            if (benchstats.tail_percentile(len(samples)) or 0) >= 90:
                out[metric] = 1e3 * benchstats.percentile(samples, 90)
        router = default_router()
        job = self._job(next(iter(self.kept)))
        out["serve.handler_ms"] = 1e3 * statistics.median(
            _timed(router.dispatch, job)[0] for _ in range(21))

        # Bursts, untraced, against the same daemon.  Their throughput
        # moved 37% between two ten-run sets on the shared 2-core box
        # (both workers and the daemon need both cores), too far for
        # an end-to-end bound, so it is reported here.
        ops = failed = 0
        burst_wall = 0.0
        for _ in range(self.bursts):
            wall, (done, bad) = _timed(self._burst, self.client)
            burst_wall += wall
            ops += done
            failed += bad
        out["serve.burst_jobs_per_s"] = ops / burst_wall
        # The final health of the timed daemon, after the bursts.
        health = self._timed_daemon_health()
        out.update({
            "serve.completed": health["counters"]["completed"],
            "serve.failed": health["counters"]["failed"],
            "serve.shed": health["counters"]["shed"],
            "serve.admission_mean_service_ms":
                1e3 * health["admission"]["mean_service_seconds"],
            "serve.journal_bytes": health["journal"]["bytes"],
            "serve.journal_segments": health["journal"]["segments"],
        })

        # One closed-loop repeat and one burst against a daemon started
        # with --trace-out: its trace holds serve.batch and the sampler
        # spans forwarded from forked workers.  The neighbors layer is
        # timed on the same jobs replayed through the handler here,
        # where the shims can reach it.
        trace_path = os.path.join(self.run_dir, "daemon-trace.jsonl")
        daemon = Daemon(self.run_dir, "traced", trace_out=trace_path)
        self.daemons.append(daemon)
        first = self.next_job
        client = _CountingClient(daemon.socket, client_id="bench")
        wall, (done, bad) = _timed(self._closed, client)
        burst, (burst_done, burst_bad) = _timed(self._burst, client)
        ops += done + burst_done
        failed += bad + burst_bad
        daemon.stop()
        with LayerShims() as shims:
            for index in range(first + 1, self.next_job + 1):
                router.dispatch(self._job(self._job_id(index)))
        out.update(layers.from_trace(load_trace(trace_path), {}, shims,
                                     wall + burst))
        return wall, out, ops, failed

    def check(self):
        problems = []
        counters = self._timed_daemon_health()["counters"]
        if counters["failed"] or counters["shed"]:
            problems.append("daemon failed %d and shed %d jobs"
                            % (counters["failed"], counters["shed"]))
        # A job's settlement is a pure function of its id and payload
        # (job_seed): it must equal the handler run here on the same job.
        router = default_router()
        for job_id, response in self.kept.items():
            expected = router.dispatch(self._job(job_id))
            if response["result"] != json.loads(json.dumps(expected)):
                problems.append("settlement of %s differs from the handler's "
                                "own result" % job_id)
        return problems

    def close(self):
        for daemon in getattr(self, "daemons", ()):
            daemon.stop()
        if getattr(self, "run_dir", None):
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                os.rmdir(RUN_DIR)
            except OSError:
                pass  # another run still uses it


WORKLOADS = {
    cls.name: cls
    for cls in (Table2Small, RuntimeRT, EmbedSweep, ServeResample)
}
