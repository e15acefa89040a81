"""divkit benchmark: one client, one thread, a closed loop of jobs.

    python3 perfbench/run.py --workload corpus|dim_sweep|degree_sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; divkit is imported from `src/`.
Each job is DSL source text, timed through the path of `dk run --json`
(dsl.parse -> cli.run_job -> cli.certificate_json) and checked against the
answer its construction gives.  Jobs run in whole passes over the workload's
job list for at most `--seconds`, so every run has the same job mix; each
job's time is its median run, scaled to the host's idle speed (see `Host`
and `Result`).

--trace 0 prints the end-to-end metrics; --trace 1 measures untraced for
half the time and traced for the other half, and prints per-layer metrics
per pass plus the tracing overhead.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A wrong answer aborts the run
with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

from polys import mul
from workloads import WORKLOADS, check, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Per-job wall-clock limit, enforced in process with SIGALRM.  A job beyond it
# counts as failed and enters the latency percentiles at the limit.
JOB_LIMIT_S = 10.0

# Percentile of the job times reported as job_tail_ms.  Each job runs once
# per pass and passes repeat (at least eight times in a 40 s run at the seed
# commit), so at least ten measurements lie beyond it on every workload.
TAIL_PERCENTILE = 90.0

SETUP_RUNS = 11
SETUP_CODE = (
    "import divkit\n"
    "from divkit import cli, dsl\n"
    "job = dsl.parse('chart x, y;\\npi = x^2*Dx^^Dy;\\nlift pi to frame log(x);\\n')\n"
    "cli.certificate_json(cli.run_job(job)[0])\n"
)


# Host contention.  Other tenants of a shared host slow it by up to 1.8x, in
# spells that last from seconds to longer than a run, so raw wall times of the
# same code swing between runs by more than any bound worth keeping.  A fixed
# reference computation of the benchmark's own, which never calls divkit, is
# timed every PROBE_INTERVAL_S between jobs.  Every measured time is scaled by
# PROBE_IDLE_S / (median probe time within PROBE_WINDOW_S of it): the time the
# work would take on the idle host.  A change to divkit moves scaled times as
# much as raw ones; the host's state moves only the probe.
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
# The probe's time on the idle host it was calibrated on: a 2-vCPU Intel Xeon
# KVM guest, Python 3.11.7.  It fixes the unit of the scaled times only.
PROBE_IDLE_S = 0.0024
PROBE_P = {(i, j, k): Fraction(i + 2 * j + 1, k + 2)
           for i in range(4) for j in range(4) for k in range(3) if i + j + k <= 4}
PROBE_Q = {(i, j, k): 3 * i + j - k + 1
           for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 4}


class Host:
    """Probe times of the run so far, to scale measured times by."""

    def __init__(self):
        self.times = []
        self.probes = []
        for _ in range(5):  # warm-up, not recorded
            mul(PROBE_P, PROBE_Q)

    def probe(self):
        t0 = time.perf_counter()
        mul(PROBE_P, PROBE_Q)
        self.probes.append(time.perf_counter() - t0)
        self.times.append(t0)

    def maybe_probe(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, t0, t1):
        """Idle-host factor for work done from t0 to t1: PROBE_IDLE_S over
        the median of the probes within PROBE_WINDOW_S of it, or of the
        three nearest when fewer lie there."""
        lo = bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, t0)
            lo = max(0, min(mid - 1, len(self.times) - 3))
            hi = min(len(self.times), lo + 3)
        return PROBE_IDLE_S / statistics.median(self.probes[lo:hi])

    def slowdown(self):
        """Median probe time of the run against the idle host."""
        return statistics.median(self.probes) / PROBE_IDLE_S


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception`
    inside divkit can swallow it."""


class WrongAnswer(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def time_setup(host):
    """Time of a fresh process that imports divkit and runs one small job,
    what every `dk` invocation pays, scaled to the idle host."""
    host.probe()
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    t1 = time.perf_counter()
    host.probe()
    return (t1 - t0) * host.scale(t0, t1)


class Loop:
    """Closed loop over whole passes of a job list."""

    def __init__(self, jobs, dsl, cli, check, host=None):
        self.jobs = jobs
        self.host = host if host is not None else Host()
        self.dsl = dsl
        self.cli = cli
        self.check = check
        self.options = cli.RunOptions()
        self.tracer = None

    def run_one(self, job, job_id):
        """Latency in seconds, or None when the job passed the limit."""
        if self.tracer is not None:
            self.tracer.job = job_id
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            t0 = time.perf_counter()
            parsed = self.dsl.parse(job.source)
            cert, _ = self.cli.run_job(parsed, self.options)
            text = self.cli.certificate_json(cert)
            elapsed = time.perf_counter() - t0
        except JobTimeout:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        err = self.check(job, cert, text)
        if err is not None:
            raise WrongAnswer("%s: %s" % (job.name, err))
        return elapsed

    def run(self, seconds, between_passes=None):
        """Whole passes, at least one, while another pass as long as the last
        still ends within `seconds`; `between_passes(elapsed)` runs after
        each pass, outside the timed jobs."""
        # arrays, not lists of floats, so that peak_rss_mb does not grow with
        # the number of passes the host's speed allowed
        starts, latencies, pass_walls, failed = array("d"), array("d"), [], 0
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for job in self.jobs:
                self.host.maybe_probe()
                starts.append(time.perf_counter())
                lat = self.run_one(job, len(latencies))
                if lat is None:
                    failed += 1
                    lat = JOB_LIMIT_S
                latencies.append(lat)
            self.host.probe()
            now = time.perf_counter()
            pass_walls.append(now - pass_start)
            if now - start + pass_walls[-1] > seconds:
                scaled = array("d", (
                    lat if lat >= JOB_LIMIT_S else lat * self.host.scale(t0, t0 + lat)
                    for t0, lat in zip(starts, latencies)
                ))
                return Result(len(self.jobs), scaled, pass_walls, failed, latencies)
            if between_passes is not None:
                between_passes(time.perf_counter() - start)


class Result:
    """Latencies of whole passes over one job list.

    Each job's time is its median run among the passes.  On a shared host
    other tenants slow the machine by up to 1.8x, in spells that last from
    seconds to longer than a run.  The fastest run therefore depends on
    whether a quiet moment happened to come while the job ran, whereas the
    median follows the state the host was in for most of the run.  Every
    pass runs the same jobs, so the job mix never changes."""

    def __init__(self, jobs_per_pass, latencies, pass_walls, failed, raw):
        # latencies are scaled to the idle host; pass_walls and raw are not
        self.jobs_per_pass = jobs_per_pass
        self.latencies = latencies
        self.raw = raw
        self.pass_walls = pass_walls
        self.failed = failed

    @property
    def passes(self):
        return len(self.pass_walls)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def correct(self):
        return self.attempted - self.failed

    def job_times(self):
        """Per job, its median run (a run past the limit counts as the limit)."""
        n = self.jobs_per_pass
        return [statistics.median(self.latencies[j::n]) for j in range(n)]

    def jobs_per_s(self):
        """Correct jobs of a pass per second of their summed job times."""
        times = self.job_times()
        return sum(1 for t in times if t < JOB_LIMIT_S) / sum(times)

    def percentile_ms(self, p):
        """Nearest-rank percentile of the job times, in ms."""
        ordered = sorted(self.job_times())
        return 1000.0 * ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]

    def slowest_completed(self):
        done = [t for t in self.raw if t < JOB_LIMIT_S]
        return max(done) if done else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res, setup_s, host):
    info = {
        "passes": res.passes,
        "jobs_per_pass": res.jobs_per_pass,
        "samples": res.attempted,
        "tail_percentile": TAIL_PERCENTILE,
        "jobs_beyond_tail": res.jobs_per_pass - math.ceil(TAIL_PERCENTILE / 100.0 * res.jobs_per_pass),
        "latency_ms": {str(p): res.percentile_ms(p) for p in (50.0, 75.0, 90.0, 100.0)},
        "wall_jobs_per_s": res.correct / sum(res.pass_walls),
        "host_slowdown": host.slowdown(),
        "job_limit_s": JOB_LIMIT_S,
        "slowest_completed_s": res.slowest_completed(),
        "limit_gap_s": JOB_LIMIT_S - res.slowest_completed(),
    }
    metrics = {
        "jobs_per_s": metric(res.jobs_per_s(), "1/s"),
        "job_p50_ms": metric(res.percentile_ms(50.0), "ms"),
        "job_tail_ms": metric(res.percentile_ms(TAIL_PERCENTILE), "ms"),
        "decided_ratio": metric(res.correct / res.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    return metrics, info


def per_layer(workload, loop, seconds):
    from spans import TARGETS, Tracer

    untraced = loop.run(seconds / 2.0)
    tracer = Tracer()
    loop.tracer = tracer
    tracer.install()
    try:
        traced = loop.run(seconds / 2.0)
    finally:
        tracer.uninstall()
        loop.tracer = None
    table, grid_evaluations = tracer.summary()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("%s.spans" % workload))

    passes = traced.passes
    metrics = {}
    for name, _, _ in TARGETS:
        calls, self_s, _ = table[name]
        metrics[name + ".calls"] = metric(calls / passes, "count")
        metrics[name + ".self_s"] = metric(self_s / passes, "s")
    for key in (
        "rings.mul.terms_out",
        "rings.exact_divide.misses",
        "multivector.partial_pfaffian.terms_out",
        "cli.certificate_json.bytes",
        "poisson.sample_grid.points",
    ):
        metrics[key] = metric(tracer.counts[key] / passes, "count")
    metrics["rings.mul.max_degree"] = metric(tracer.maxima["rings.mul.max_degree"], "count")
    metrics["rings.poly_gcd.max_depth"] = metric(tracer.maxima["rings.poly_gcd.max_depth"], "count")
    metrics["poisson.grid_evaluations"] = metric(grid_evaluations / passes, "count")
    points = tracer.counts["poisson.sample_grid.points"]
    metrics["poisson.grid_useful_ratio"] = metric(grid_evaluations / points if points else 0.0, "ratio")
    traced_jps = traced.jobs_per_s()
    untraced_jps = untraced.jobs_per_s()
    metrics["trace.jobs_per_s"] = metric(traced_jps, "1/s")
    metrics["trace.untraced_jobs_per_s"] = metric(untraced_jps, "1/s")
    metrics["trace.overhead"] = metric(untraced_jps / traced_jps, "x")

    job_time = table["dsl.parse"][2] + table["cli.run_job"][2] + table["cli.certificate_json"][2]
    info = {
        "untraced_passes": untraced.passes,
        "traced_passes": passes,
        "host_slowdown": loop.host.slowdown(),
        "spans": len(tracer),
        "self_share": {
            name: round(s / job_time, 4)
            for name, (_, s, _) in sorted(table.items(), key=lambda kv: -kv[1][1])
            if s
        },
        "inclusive_share": {
            name: round(t / job_time, 4)
            for name, (_, _, t) in sorted(table.items(), key=lambda kv: -kv[1][2])
            if t
        },
    }
    return metrics, info, untraced, traced


def run_workload(args):
    if not (SRC / "divkit" / "__init__.py").is_file():
        print("error: %s/divkit not found; run from a divkit checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from divkit import cli, dsl

    jobs = make_jobs(args.workload, args.seed, SRC / "divkit" / "corpus")
    host = Host()
    loop = Loop(jobs, dsl, cli, check, host)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        loop.run_one(jobs[0], -1)  # warm-up, untimed
        if args.trace:
            metrics, info, untraced, traced = per_layer(args.workload, loop, args.seconds)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            # Set-up runs are spread over the measurement, so that their median
            # sees the same spells of interference as the jobs do.
            time_setup(host)  # compiles bytecode
            setups = []

            def between_passes(elapsed):
                if len(setups) < SETUP_RUNS and elapsed >= len(setups) * args.seconds / SETUP_RUNS:
                    setups.append(time_setup(host))

            res = loop.run(args.seconds, between_passes)
            while len(setups) < SETUP_RUNS:
                setups.append(time_setup(host))
            metrics, info = end_to_end(res, statistics.median(setups), host)
            attempted, failed = res.attempted, res.failed
    except WrongAnswer as e:
        print("error: wrong answer: %s" % e, file=sys.stderr)
        return 1
    print("# info " + json.dumps(dict(info, workload=args.workload), sort_keys=True))
    print(
        json.dumps(
            {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args):
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("%s: failed with exit code %d" % (workload, proc.returncode))
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("%s: attempted %d, failed %d" % (workload, result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
