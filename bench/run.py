"""The repository benchmark: four ``repro-study`` workloads, timed from outside.

From the repository root (the harness sets ``PYTHONPATH=src`` for the
programs it starts)::

    python3 bench/run.py [--seed N] [--out results.json]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --check A.json [B.json]

The first form runs a *set*: every workload gets one discarded warm-up
round, then :data:`SET_ROUNDS` timed rounds run round-robin so machine
drift hits every workload equally, then setup probes, the archive
checks and one traced run per workload.  It prints every end-to-end
metric as median, quartiles and n, and the traced per-layer tables.

The second form measures one workload for at least ``--seconds``
seconds (and at least :data:`MIN_ROUNDS` rounds) and prints, as its last
line, one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced run with ``--trace 1``.

The third compares two sets (or the two sets of one calibration file)
metric by metric against the bounds in ``BENCHMARK.json``.

Load generation: this harness is one process that starts one child at
a time, a closed loop of one client.  Each child is the real CLI
(``python -m repro.cli``) with no ``--workers`` override, so the program
sizes its own pool from the core count.  Metric names, units and bounds
come from ``BENCHMARK.json``; see ``bench/README.md`` for what each means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
PINS_PATH = os.path.join(ROOT, "bench", "pins.json")
SCENARIO = "bench/scenarios/all-faults.json"

#: Timed rounds per workload in a full set, after one warm-up round.
SET_ROUNDS = 5
#: Fewest timed rounds in a single-workload run, whatever ``--seconds``.
MIN_ROUNDS = 3
#: Setup-time children per workload; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A child still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 150.0
DAYS = "28"
INTERVAL_HOURS = "12"
#: Scale and days of the warm-up round: the workload's own command line,
#: small enough to cost about a second, which still compiles every
#: module it imports and starts its worker pool.
WARM_UP = ("0.05", "2")


@dataclass(frozen=True)
class Workload:
    """One named ``repro.cli`` command line and the archive it touches."""

    name: str
    scale: str
    #: Subcommand and its workload-specific arguments; ``{work}`` is the
    #: set's scratch directory.  Seed and scale arguments are added.
    command: Tuple[str, ...]
    #: The archive the command writes (or, for ``reanalyze``, reads).
    archive: str
    writes: bool = True

    def argv(self, seed: int, work: str, warm_up: bool = False) -> List[str]:
        subcommand, *rest = self.command
        scale, days = WARM_UP if warm_up else (self.scale, DAYS)
        return [
            subcommand, "--seed", str(seed), "--scale", scale,
            "--days", days, "--interval-hours", INTERVAL_HOURS,
            *(arg.replace("{work}", work) for arg in rest),
        ]

    def setup_argv(self, seed: int) -> List[str]:
        argv = [
            "--seed", str(seed), "--scale", self.scale,
            "--days", DAYS, "--interval-hours", INTERVAL_HOURS,
        ]
        for flag in ("--scenario", "--executor"):
            if flag in self.command:
                argv += [flag, self.command[self.command.index(flag) + 1]]
        return argv


#: In run order: ``reanalyze`` reads the archive ``campaign-report`` wrote
#: earlier in the same round.  Why each exists is in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "campaign-report", "1.0",
            ("run", "--report", "-o", "{work}/campaign.jsonl"),
            "campaign.jsonl",
        ),
        Workload(
            "reanalyze", "1.0",
            ("report", "--dataset", "{work}/campaign.jsonl"),
            "campaign.jsonl", writes=False,
        ),
        Workload(
            "durable-faults", "1.0",
            ("run", "--checkpoint", "--backend", "columnar",
             "--scenario", SCENARIO, "-o", "{work}/faults.col"),
            "faults.col",
        ),
        Workload(
            "serial-campaign", "0.5",
            ("run", "--executor", "serial", "-o", "{work}/serial.jsonl"),
            "serial.jsonl",
        ),
    )
}

_ALL = tuple(WORKLOADS)
_SIMULATING = ("campaign-report", "durable-faults", "serial-campaign")

#: Which end-to-end metric, on which workload, each layer's metrics
#: should move (keyed by the part of the metric name before the dot).
LAYER_MOVES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "world": tuple(("setup_s", name) for name in _ALL)
    + (("wall_s", "campaign-report"), ("wall_s", "durable-faults")),
    "scheduler": (("wall_s", "serial-campaign"),),
    "experiment": (("wall_s", "serial-campaign"),),
    "probes": (("wall_s", "serial-campaign"), ("cpu_s", "campaign-report"),
               ("wall_s", "durable-faults")),
    "dns": (("wall_s", "serial-campaign"), ("cpu_s", "campaign-report"),
            ("cpu_s", "durable-faults")),
    "cdn": (("wall_s", "serial-campaign"),),
    "transport": (("wall_s", "durable-faults"),),
    "rng": (("wall_s", "serial-campaign"),),
    "records": tuple(("cpu_s", name) for name in _SIMULATING)
    + (("wall_s", "reanalyze"), ("peak_rss_mb", "reanalyze"),
       ("wall_s", "serial-campaign")),
    "backends": (("wall_s", "campaign-report"), ("wall_s", "durable-faults"),
                 ("wall_s", "reanalyze")),
    "checkpoint": (("wall_s", "durable-faults"),),
    "campaign": (("cpu_s", "campaign-report"), ("wall_s", "campaign-report"),
                 ("cpu_s", "durable-faults"), ("wall_s", "durable-faults")),
    "engine": (("wall_s", "campaign-report"), ("peak_rss_mb", "campaign-report"),
               ("wall_s", "reanalyze"), ("peak_rss_mb", "reanalyze")),
    "suite": (("wall_s", "campaign-report"), ("wall_s", "reanalyze")),
    # The trace rows check the table itself and move nothing.
    "trace": (),
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _tree_bytes(path: str) -> int:
    """Bytes of a file, or of every file under a directory."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for directory, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, f)) for f in files)
    return total


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


# -- children -------------------------------------------------------------------


@dataclass
class Child:
    """What one child process did, measured from outside."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit: int
    stdout: bytes
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: Sequence[str], work: str) -> Child:
    """Run ``python ARGS`` from the repository root and wait for it.

    Wall clock runs from just before the spawn to the reap.  CPU time
    and peak RSS come from ``wait4``: the child's own usage plus that of
    every descendant it reaped, which covers its pool workers.  The
    child runs in its own session so a timeout kills its workers too.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        TMPDIR=os.path.join(work, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            proc.returncode = -1
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
        # A worker the CLI failed to join would outlive it; stop it too.
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Child(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        exit=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


_WROTE = re.compile(rb"Wrote (\d+) experiments")


def _executor(stderr: str) -> Optional[str]:
    """The ``executor NAME`` the CLI logged, or None when it logs none."""
    for line in stderr.splitlines():
        if line.startswith("executor "):
            return line.split(":", 1)[0]
    return None


# -- per-layer metrics ------------------------------------------------------------


def collect_trace(trace_dir: str) -> dict:
    """The parent's and every worker's totals from one traced run."""
    parent = None
    workers = []
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name), encoding="utf-8") as handle:
            data = json.load(handle)
        if data["role"] == "parent":
            parent = data
        else:
            workers.append(data)
    return {"parent": parent, "workers": workers}


def span_totals(processes: Sequence[dict]) -> Dict[str, List[float]]:
    """``span -> [calls, inclusive_s, self_s]`` summed over processes."""
    totals: Dict[str, List[float]] = {}
    for process in processes:
        for name, _parent, calls, inclusive, own in process["spans"]:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += inclusive
            entry[2] += own
    return totals


def layer_metrics(trace: dict, wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (parent plus workers)."""
    processes = [trace["parent"], *trace["workers"]]
    spans = span_totals(processes)

    def calls(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    def own(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    def counter(section, key):
        return sum(process[section].get(key, 0) for process in processes)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    parent_self = sum(own for _, _, _, _, own in trace["parent"]["spans"])
    peeks = [sum(process["peeks"][i] for process in processes) for i in (0, 1)]
    return {
        "world.build_s": own("world.build"),
        "world.boot_s": own("world.boot"),
        "world.boot_calls": calls("world.boot"),
        "scheduler.self_s": own("scheduler.push", "scheduler.pop"),
        "scheduler.events": calls("scheduler.pop"),
        "experiment.self_s": own("experiment.run"),
        "experiment.calls": calls("experiment.run"),
        "probes.dns_self_s": own("probes.dns"),
        "probes.dns_calls": calls("probes.dns"),
        "probes.ping_s": own("probes.ping"),
        "probes.ping_calls": calls("probes.ping"),
        "probes.traceroute_s": own("probes.traceroute"),
        "probes.traceroute_calls": calls("probes.traceroute"),
        "probes.http_s": own("probes.http"),
        "probes.http_calls": calls("probes.http"),
        "dns.resolve_self_s": own("dns.resolve"),
        "dns.resolve_calls": calls("dns.resolve"),
        "dns.cache_hit_ratio": ratio(peeks[1], peeks[0]),
        "cdn.select_s": own("cdn.select"),
        "cdn.select_calls": calls("cdn.select"),
        "transport.attempts": counter("transport", "attempts"),
        "transport.delivered_ratio": ratio(
            counter("transport", "delivered"), counter("transport", "attempts")
        ),
        "transport.retries": counter("transport", "retries"),
        "rng.pool_refills": counter("rng", "pool_refills"),
        "rng.pool_hit_ratio": ratio(
            counter("rng", "pool_hits"), counter("rng", "pool_uniforms")
        ),
        "rng.pool_realignments": counter("rng", "pool_realignments"),
        "records.serialize_s": own("records.serialize"),
        "records.serialize_calls": calls("records.serialize"),
        "records.load_s": own("records.load"),
        "records.save_s": own("records.save"),
        "records.content_hash_s": own("records.content_hash"),
        "backends.merge_self_s": own("backends.merge"),
        "backends.append_calls": calls("backends.append"),
        "backends.seal_s": own("backends.seal"),
        "backends.seal_calls": calls("backends.seal"),
        "backends.iter_lines_s": own("backends.iter_lines"),
        "checkpoint.commit_s": own("checkpoint.commit", "checkpoint.manifest"),
        "checkpoint.commit_calls": calls("checkpoint.commit"),
        "campaign.pool_created": counter("pool", "created"),
        "campaign.pool_reused": counter("pool", "reused"),
        "campaign.worker_busy_s": sum(w["cpu_s"] for w in trace["workers"]),
        "engine.ingest_s": own("engine.ingest"),
        "engine.ingest_line_s": own("engine.ingest_line"),
        "engine.ingest_calls": calls("engine.ingest"),
        "engine.finalize_s": own("engine.finalize"),
        "engine.scan_s": own("engine.scan"),
        "suite.render_s": spans.get("suite.render", (0, 0.0, 0.0))[1],
        "trace.wall_s": wall_s,
        "trace.residual_s": wall_s - parent_self,
        "trace.overhead_ratio": wall_s / untraced_wall_s,
    }


def format_trace_table(name: str, trace: dict, metrics: Dict[str, float]) -> str:
    """Parent self time per span, a residual, and worker totals beside."""
    parent = span_totals([trace["parent"]])
    workers = span_totals(trace["workers"])
    have_workers = metrics["campaign.pool_created"] > 0
    lines = [
        f"traced run: {name}",
        f"  {'span':<22}{'parent self_s':>14}{'incl_s':>10}{'calls':>10}"
        f"{'worker self_s':>15}{'calls':>10}",
    ]
    for span in sorted(set(parent) | set(workers),
                       key=lambda s: -parent.get(s, (0, 0.0, 0.0))[2]):
        p_calls, p_incl, p_self = parent.get(span, (0, 0.0, 0.0))
        if not have_workers:
            worker_cells = f"{'-':>15}{'-':>10}"
        elif trace["workers"]:
            w_calls, _, w_self = workers.get(span, (0, 0.0, 0.0))
            worker_cells = f"{w_self:>15.3f}{w_calls:>10d}"
        else:
            worker_cells = f"{'missing':>15}{'missing':>10}"
        lines.append(
            f"  {span:<22}{p_self:>14.3f}{p_incl:>10.3f}{p_calls:>10d}{worker_cells}"
        )
    wall_s = metrics["trace.wall_s"]
    parent_self = wall_s - metrics["trace.residual_s"]
    outside_main = wall_s - trace["parent"]["in_process_s"]
    lines += [
        f"  {'sum of parent rows':<22}{parent_self:>14.3f}",
        f"  {'trace.residual_s':<22}{metrics['trace.residual_s']:>14.3f}"
        "   (time in no span:",
        f"  {'':<22}{outside_main:>14.3f}"
        "     interpreter start before the tracer; exit: pool join, teardown",
        f"  {'':<22}{metrics['trace.residual_s'] - outside_main:>14.3f}"
        "     imports, argparse, study build and glue between spans)",
        f"  {'trace.wall_s':<22}{metrics['trace.wall_s']:>14.3f}"
        "   = parent rows + residual",
        f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f}"
        " (traced wall / untraced median wall_s)",
    ]
    if have_workers:
        busy = (
            f"{metrics['campaign.worker_busy_s']:.3f} s cpu over "
            f"{len(trace['workers'])} workers"
            if trace["workers"] else "missing"
        )
        lines += [
            f"  campaign.worker_busy_s {busy}",
            "  backends.merge_self_s includes the parent blocking on "
            "workers' spill output",
        ]
    return "\n".join(lines)


# -- a run of the benchmark ---------------------------------------------------------


class Bench:
    """Runs, checks and samples for one seed, under one scratch dir."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        with open(PINS_PATH, encoding="utf-8") as handle:
            pins = json.load(handle)
        self.pins: Dict[str, dict] = pins["workloads"] if seed == pins["seed"] else {}
        self.attempted = 0
        self.failed = 0
        #: Per workload: the first run's executor, stdout and archive sha.
        self.first: Dict[str, dict] = {}
        self.records: Dict[str, int] = {}
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.layers: Dict[str, Dict[str, float]] = {}
        self._checked: set = set()

    # -- bookkeeping ---------------------------------------------------------

    def _account(self, workload: str, label: str, reasons: List[str]) -> bool:
        self.attempted += 1
        for reason in reasons:
            print(f"FAIL {workload} {label}: {reason}", flush=True)
        if reasons:
            self.failed += 1
        return not reasons

    def sample(self, workload: str, metric: str, value: float) -> None:
        self.samples.setdefault(workload, {}).setdefault(metric, []).append(value)

    # -- children ------------------------------------------------------------

    def _clear_output(self, workload: Workload) -> None:
        """Delete the last run's archive outside the timed region."""
        if workload.writes:
            archive = os.path.join(self.work, workload.archive)
            _remove(archive)
            _remove(archive + ".shards")

    def warm_up(self, workload: Workload) -> None:
        """The discarded round, at :data:`WARM_UP` scale; checks exit only."""
        self._clear_output(workload)
        argv = workload.argv(self.seed, self.work, warm_up=True)
        child = run_child(["-m", "repro.cli", *argv], self.work)
        reasons = [] if child.exit == 0 else [
            f"exit status {child.exit}: {child.stderr.strip()[-200:]}"
        ]
        self._account(workload.name, "warm-up", reasons)

    def cli(self, workload: Workload, label: str, tracer_dir: Optional[str] = None):
        """One run of the workload's command line, checked; returns the child."""
        archive = os.path.join(self.work, workload.archive)
        self._clear_output(workload)
        argv = workload.argv(self.seed, self.work)
        if tracer_dir is None:
            child = run_child(["-m", "repro.cli", *argv], self.work)
        else:
            child = run_child(["bench/trace.py", tracer_dir, "--", *argv], self.work)
        reasons = []
        if child.exit != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            reasons.append(f"exit status {child.exit}: {tail[0]}")
        stdout_sha = hashlib.sha256(child.stdout).hexdigest()
        archive_sha = _sha256_file(archive) if os.path.isfile(archive) else None
        found = _WROTE.search(child.stdout + child.stderr.encode())
        if found:
            self.records[workload.archive] = int(found.group(1))
        executor = _executor(child.stderr)
        first = self.first.setdefault(workload.name, {
            "executor": executor,
            "stdout": stdout_sha,
            "archive": archive_sha,
        })
        if executor != first["executor"]:
            reasons.append(f"executor flipped: {executor} after {first['executor']}")
        if stdout_sha != first["stdout"]:
            reasons.append("stdout differs from the first run's")
        if workload.writes and archive_sha != first["archive"]:
            reasons.append("archive sha256 differs from the first run's")
        pin = self.pins.get(workload.name, {}).get("report_sha256")
        if pin is not None and stdout_sha != pin:
            reasons.append(f"report sha256 {stdout_sha[:12]} != pinned {pin[:12]}")
        if workload.name == "reanalyze":
            streamed = self.first.get("campaign-report", {}).get("stdout")
            if stdout_sha != streamed:
                reasons.append("report bytes differ from campaign-report's "
                               "streamed report")
        self._account(workload.name, label, reasons)
        return child

    def timed_round(self, workload: Workload, label: str) -> float:
        child = self.cli(workload, label)
        archive = os.path.join(self.work, workload.archive)
        records = self.records.get(workload.archive, 0)
        self.sample(workload.name, "wall_s", child.wall_s)
        self.sample(workload.name, "records_per_s", records / child.wall_s)
        self.sample(workload.name, "cpu_s", child.cpu_s)
        self.sample(workload.name, "peak_rss_mb", child.peak_rss_mb)
        size = _tree_bytes(archive)
        if workload.writes and os.path.isdir(archive + ".shards"):
            size += _tree_bytes(archive + ".shards")
        self.sample(workload.name, "archive_mb", size / 1e6)
        return child.wall_s

    def setup_probes(self, workload: Workload) -> None:
        for index in range(SETUP_PROBES):
            child = run_child(
                ["bench/probe.py", "setup", *workload.setup_argv(self.seed)],
                self.work,
            )
            reasons = [] if child.exit == 0 else [
                f"exit status {child.exit}: {child.stderr.strip()[-200:]}"
            ]
            if self._account(workload.name, f"setup probe {index}", reasons):
                self.sample(workload.name, "setup_s", child.wall_s)

    def check_archive(self, workload: Workload) -> None:
        """Validate the archive once, as ``repro-study validate`` would.

        Also checks that it holds as many records as the CLI said it
        wrote, and, where pinned, that its content hash is the pin.
        """
        archive = os.path.join(self.work, workload.archive)
        if archive in self._checked:
            return
        self._checked.add(archive)
        child = run_child(["bench/probe.py", "check", archive], self.work)
        try:
            found = json.loads(child.stdout)
        except ValueError:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self._account(workload.name, "archive check",
                          [f"exit status {child.exit}: {tail[0]}"])
            return
        reasons = list(found["problems"])
        wrote = self.records.get(workload.archive)
        if found["records"] != wrote:
            reasons.append(f"archive holds {found['records']} records, "
                           f"the CLI wrote {wrote}")
        pin = self.pins.get(workload.name, {}).get("content_hash")
        if pin is not None and found["content_hash"] != pin:
            reasons.append(f"content hash {found['content_hash'][:12]} "
                           f"!= pinned {pin[:12]}")
        self._account(workload.name, "archive check", reasons)

    def traced(self, workload: Workload, untraced_wall_s: float) -> Dict[str, float]:
        """One traced run: per-layer metrics, checked against the untraced run."""
        trace_dir = os.path.join(self.work, f"trace-{workload.name}")
        _remove(trace_dir)
        os.makedirs(trace_dir)
        child = self.cli(workload, "traced run", tracer_dir=trace_dir)
        trace = collect_trace(trace_dir)
        reasons = []
        if trace["parent"] is None:
            self._account(workload.name, "trace", ["the traced child wrote no totals"])
            return {}
        metrics = layer_metrics(trace, child.wall_s, untraced_wall_s)
        if metrics["trace.residual_s"] < 0:
            reasons.append("parent span self times exceed the traced wall clock")
        if metrics["campaign.pool_created"] > 0 and not trace["workers"]:
            reasons.append("pool workers ran but wrote no totals (missing)")
        retries = metrics["transport.retries"]
        if workload.name == "durable-faults" and retries <= 0:
            reasons.append("the fault scenario caused no retries")
        if workload.name != "durable-faults" and retries != 0:
            reasons.append(f"{retries} retries on a fault-free workload")
        names = {metric["name"] for metric in load_spec()["per_layer"]}
        if set(metrics) != names:
            reasons.append("per-layer metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ names)}")
        self._account(workload.name, "trace", reasons)
        print(format_trace_table(workload.name, trace, metrics), flush=True)
        self.layers[workload.name] = metrics
        return metrics


def _untraced_median(bench: Bench, name: str) -> float:
    return statistics.median(bench.samples[name]["wall_s"])


def run_set(seed: int, work: str) -> Tuple[Bench, dict]:
    """Warm-up, round-robin timed rounds, setup probes, checks, traces."""
    bench = Bench(seed, work)
    workloads = list(WORKLOADS.values())
    for workload in workloads:
        bench.warm_up(workload)
    for index in range(SET_ROUNDS):
        for workload in workloads:
            wall = bench.timed_round(workload, f"round {index + 1}")
            print(f"round {index + 1} {workload.name}: {wall:.3f} s", flush=True)
    for workload in workloads:
        bench.setup_probes(workload)
        bench.check_archive(workload)
    # campaign-report's traced run rewrites the archive reanalyze reads;
    # the traced run's own check requires identical bytes.
    for workload in workloads:
        bench.traced(workload, _untraced_median(bench, workload.name))
    env = run_child(["bench/probe.py", "env"], work)
    header = json.loads(env.stdout) if env.exit == 0 else {}
    header.update(seed=seed, rounds=SET_ROUNDS, setup_probes=SETUP_PROBES)
    return bench, header


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: str) -> Bench:
    """One workload: at least ``seconds`` of timed rounds, or one traced run."""
    bench = Bench(seed, work)
    workload = WORKLOADS[name]
    if name == "reanalyze":
        # Writes the archive reanalyze reads and warms the same modules.
        bench.cli(WORKLOADS["campaign-report"], "input archive")
    else:
        bench.warm_up(workload)
    if trace:
        bench.timed_round(workload, "untraced run")
        bench.traced(workload, _untraced_median(bench, name))
    else:
        bench.setup_probes(workload)
        started = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
            rounds += 1
            bench.timed_round(workload, f"round {rounds}")
    bench.check_archive(workload)
    return bench


# -- output ---------------------------------------------------------------------------


def format_end_to_end(bench: Bench, spec: dict) -> str:
    lines = [
        f"{'metric':<15}{'unit':<11}{'workload':<17}{'median':>12}"
        f"{'q1':>12}{'q3':>12}{'n':>4}",
    ]
    for metric in spec["end_to_end"]:
        for name in WORKLOADS:
            values = bench.samples.get(name, {}).get(metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            lines.append(
                f"{metric['name']:<15}{metric['unit']:<11}{name:<17}"
                f"{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(values):>4}"
            )
    lines.append("No tail percentile is reported: a handful of samples per "
                 "workload cannot support one.")
    return "\n".join(lines)


def workload_result(bench: Bench, name: str, trace: bool, spec: dict) -> dict:
    if trace:
        wanted = spec["per_layer"]
        values = bench.layers.get(name, {})
    else:
        wanted = spec["end_to_end"]
        values = {
            metric: statistics.median(samples)
            for metric, samples in bench.samples.get(name, {}).items()
        }
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    correct = bench.failed == 0 and len(metrics) == len(wanted)
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def set_result(bench: Bench, header: dict) -> dict:
    return {
        "header": header,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "workloads": {
            name: {
                "end_to_end": bench.samples.get(name, {}),
                "per_layer": bench.layers.get(name, {}),
            }
            for name in WORKLOADS
        },
    }


# -- comparing two sets -----------------------------------------------------------------


def compare_sets(first: dict, second: dict, spec: dict) -> Tuple[List[str], bool]:
    """Rows of the ``--check`` table, and whether any pair regressed."""
    rows = [
        f"{'metric':<15}{'workload':<17}{'median A':>12}{'median B':>12}"
        f"{'delta':>9}{'bound':>8}  verdict"
    ]
    bad = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in WORKLOADS:
            a = first["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            b = second["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1]
            worse = delta if metric["better"] == "lower" else -delta
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            if spread > bound:
                verdict = f"unresolved (IQR {spread:.1%})"
            elif worse > bound:
                verdict = "regressed"
                bad = True
            else:
                verdict = "agree"
            rows.append(
                f"{name:<15}{workload:<17}{qa[1]:>12.4f}{qb[1]:>12.4f}"
                f"{delta:>+9.2%}{bound:>8.0%}  {verdict}"
            )
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOADS:
        a = first["workloads"].get(workload, {}).get("per_layer", {})
        b = second["workloads"].get(workload, {}).get("per_layer", {})
        differing = [name for name in counts if a.get(name) != b.get(name)]
        if differing:
            bad = True
            rows.append(f"per-layer counts differ on {workload}: {differing}")
        else:
            rows.append(f"per-layer counts identical on {workload}")
    return rows, bad


def _load_sets(paths: Sequence[str]) -> List[dict]:
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        sets.extend(data["sets"] if "sets" in data else [data])
    return sets


# -- entry point ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the set's samples here (JSON)")
    parser.add_argument("--check", nargs="+", metavar="SET.json",
                        help="compare two result sets (or one file holding two)")
    args = parser.parse_args(argv)

    if not os.path.isfile(SPEC_PATH):
        print(f"error: {SPEC_PATH} not found", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.check:
        sets = _load_sets(args.check)
        if len(sets) != 2:
            print("error: --check needs exactly two sets", file=sys.stderr)
            return 2
        rows, bad = compare_sets(sets[0], sets[1], spec)
        print("\n".join(rows))
        return 1 if bad else 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload:
            bench = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work)
            if not args.trace:
                print(format_end_to_end(bench, spec))
            result = workload_result(bench, args.workload, bool(args.trace), spec)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        bench, header = run_set(args.seed, work)
        print(format_end_to_end(bench, spec))
        print(f"error_rate = {bench.failed}/{bench.attempted} = "
              f"{bench.failed / max(bench.attempted, 1):.4f}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(set_result(bench, header), handle, indent=1)
                handle.write("\n")
        return 1 if bench.failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
