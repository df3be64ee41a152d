"""Clock-only tracing of one ``repro-study`` run, from outside the program.

Usage (from the repository root)::

    PYTHONPATH=src python bench/trace.py TRACE_DIR -- run --scale 0.05 ...

The child installs wrappers on each layer's public entry points (see
:data:`SPANS`), then calls ``repro.cli.main(argv)`` in-process with the
given argv, so the traced run is the CLI's own run and report logic.
The wrappers only read the clock: they draw no random numbers and touch
no record, so the traced run writes the same bytes as an untraced one.

Totals are kept per process and per ``(span, parent span)`` pair: call
count, inclusive seconds, and self seconds (inclusive minus the time of
direct child spans).  Raw spans are not kept, because a bench-scale run
makes about a million wrapped calls.  The parent writes
``parent.json`` to ``TRACE_DIR`` when ``main`` returns.  Pool workers
started by ``multiprocessing`` under ``fork`` inherit the wrappers; each
resets the inherited totals when it starts and writes
``worker-<pid>.json`` when it exits.  Under any other start method the
workers run unwrapped and write nothing, which the harness reports as
``missing``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Optional

_STARTED = time.perf_counter()

from multiprocessing import util  # noqa: E402  (after the start stamp)

#: ``(span, module, class or None, attributes)``.  A class name ending
#: in ``+`` wraps the attribute on the class and on every subclass that
#: defines its own (backends and executors override these methods).
#: Several entry points may share one span name; their totals add.
#: ``study.init``, ``campaign.run`` and ``checkpoint.run`` have no metric
#: of their own: they claim the glue and the waiting on pool workers
#: that would otherwise land in the residual.
SPANS = (
    ("study.init", "repro.core.study", "CellularDNSStudy", ("__init__",)),
    ("world.build", "repro.core.world", None, ("build_world",)),
    ("world.boot", "repro.core.world", None, ("boot_world",)),
    ("scheduler.push", "repro.measure.scheduler", "ProbeEventQueue", ("push",)),
    ("scheduler.pop", "repro.measure.scheduler", "ProbeEventQueue", ("pop",)),
    ("campaign.run", "repro.measure.campaign", "Campaign+",
     ("run", "run_streaming")),
    ("experiment.run", "repro.measure.experiment", "ExperimentRunner", ("run",)),
    ("probes.dns", "repro.measure.probes", "DeviceProbeSession",
     ("dns_local", "dns_public")),
    ("probes.ping", "repro.measure.probes", "DeviceProbeSession",
     ("bootstrap_ping", "ping_ip", "ping_configured_resolver",
      "ping_public_resolver")),
    ("probes.traceroute", "repro.measure.probes", "DeviceProbeSession",
     ("traceroute_ip",)),
    ("probes.http", "repro.measure.probes", "DeviceProbeSession", ("http_get",)),
    ("dns.resolve", "repro.dns.recursive", "RecursiveEngine", ("resolve",)),
    ("cdn.select", "repro.cdn.provider", "CDNProvider", ("select_replicas",)),
    ("records.serialize", "repro.measure.records", "ExperimentRecord",
     ("to_json_line",)),
    ("records.load", "repro.measure.records", "Dataset", ("load",)),
    ("records.save", "repro.measure.records", "Dataset", ("save",)),
    ("records.content_hash", "repro.measure.records", "Dataset",
     ("content_hash",)),
    ("backends.merge", "repro.measure.backends", "DatasetBackend+",
     ("write_archive_lines",)),
    ("backends.iter_lines", "repro.measure.backends", "DatasetBackend+",
     ("iter_lines",)),
    ("backends.append", "repro.measure.backends", "ShardWriter", ("append",)),
    ("backends.seal", "repro.measure.backends", "ShardWriter", ("seal",)),
    ("checkpoint.run", "repro.measure.checkpoint", None, ("run_checkpointed",)),
    ("checkpoint.commit", "repro.measure.checkpoint", "CheckpointStore",
     ("commit_shard",)),
    ("checkpoint.manifest", "repro.measure.checkpoint", "CheckpointStore",
     ("write_manifest",)),
    ("engine.ingest", "repro.analysis.engine", "ProjectionAccumulator",
     ("ingest",)),
    ("engine.ingest_line", "repro.analysis.engine", "ProjectionAccumulator",
     ("ingest_line",)),
    ("engine.finalize", "repro.analysis.engine", "ProjectionAccumulator",
     ("finalize",)),
    ("engine.scan", "repro.analysis.engine", None, ("get_engine",)),
    ("suite.render", "repro.analysis.suite", None, ("regenerate_report",)),
)


def _with_subclasses(cls) -> list:
    """``cls`` and every class derived from it, parents first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found += [c for c in _with_subclasses(sub) if c not in found]
    return found


class Tracer:
    """Span totals, counters and observed objects of one process."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.role = "parent"
        #: Open spans, innermost last: ``[name, child_seconds]``.
        self.stack: list = []
        #: ``(span, parent span or None) -> [calls, inclusive_s, self_s]``.
        self.totals: dict = {}
        #: ``[peek_entry calls, peeks that returned an entry]``.
        self.peeks = [0, 0]
        #: Counter objects of the worlds built or booted in this process
        #: (transport counters, RNG registries) and of the CLI's studies
        #: (pool stats).  Holding the worlds themselves would keep every
        #: DNS cache alive until exit and move its teardown.
        self.transports: list = []
        self.registries: list = []
        self.pools: list = []
        self._patches: list = []

    # -- wrappers -------------------------------------------------------------

    def _record(self, name: str, frame: list, elapsed: float, calls: int):
        stack = self.stack
        parent = stack[-1] if stack else None
        key = (name, parent[0] if parent is not None else None)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if parent is not None:
            parent[1] += elapsed

    def span(self, name: str, fn):
        """``fn`` timed as span ``name`` (generators: every resumption)."""
        clock = time.perf_counter
        stack = self.stack
        record = self._record

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                calls = 1
                try:
                    while True:
                        frame = [name, 0.0]
                        stack.append(frame)
                        started = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = clock() - started
                            stack.pop()
                            record(name, frame, elapsed, calls)
                            calls = 0
                        yield item
                finally:
                    inner.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                record(name, frame, elapsed, 1)

        return traced

    def _count_peeks(self, fn):
        peeks = self.peeks

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            peeks[0] += 1
            if result is not None:
                peeks[1] += 1
            return result

        return counted

    def _keep_world(self, fn):
        @functools.wraps(fn)
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            world = result[0] if isinstance(result, tuple) else result
            self.transports.append(world.transport.counters)
            self.registries.append(world.rng)
            return result

        return kept

    def _keep_study(self, fn):
        @functools.wraps(fn)
        def kept(study, *args, **kwargs):
            fn(study, *args, **kwargs)
            self.pools.append(getattr(study.campaign, "pool_stats", {}))

        return kept

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))
        if inspect.ismodule(owner):
            # ``from module import fn`` copies the binding: rebind every
            # loaded repro module that holds the original.
            for name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and name.startswith("repro")
                    and module.__dict__.get(attr) is raw
                ):
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, raw))

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`SPANS`; idempotent per tracer."""
        if self._patches:
            return self
        importlib.import_module("repro.cli")
        world = importlib.import_module("repro.core.world")
        for attr in ("build_world", "boot_world"):
            self._patch(world, attr, self._keep_world)
        study = importlib.import_module("repro.core.study")
        self._patch(study.CellularDNSStudy, "__init__", self._keep_study)
        cache = importlib.import_module("repro.dns.cache")
        self._patch(cache.DnsCache, "peek_entry", self._count_peeks)
        for name, module_name, owner_name, attrs in SPANS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                owners = [module]
            elif owner_name.endswith("+"):
                owners = _with_subclasses(getattr(module, owner_name[:-1]))
            else:
                owners = [getattr(module, owner_name)]
            for owner in owners:
                for attr in attrs:
                    if attr in owner.__dict__:
                        self._patch(owner, attr,
                                    functools.partial(self.span, name))
        util.register_after_fork(self, Tracer._start_worker)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- workers and output -----------------------------------------------------

    def _start_worker(self) -> None:
        """Runs in each new ``multiprocessing`` child, before its target.

        The child inherited the parent's totals and open spans; it starts
        from empty ones and writes its own when it exits.  (``Finalize``
        objects registered before the fork were cleared by then, so the
        exit hook is registered here.)
        """
        if not self._patches:
            return
        self.role = "worker"
        self.stack.clear()
        self.totals.clear()
        self.peeks[:] = [0, 0]
        self.transports.clear()
        self.registries.clear()
        self.pools.clear()
        util.Finalize(None, self.dump, exitpriority=10)

    def snapshot(self) -> dict:
        """Everything this process measured, as plain JSON data."""
        def summed(items, as_dict):
            total: dict = {}
            for item in {id(item): item for item in items}.values():
                for key, value in as_dict(item).items():
                    total[key] = total.get(key, 0) + value
            return total

        return {
            "role": self.role,
            "pid": os.getpid(),
            "cpu_s": time.process_time(),
            "spans": [
                [name, parent, calls, inclusive, own]
                for (name, parent), (calls, inclusive, own)
                in sorted(self.totals.items(), key=lambda item: str(item[0]))
            ],
            "peeks": list(self.peeks),
            "transport": summed(self.transports, lambda c: c.as_dict()),
            "rng": summed(self.registries, lambda r: r.pool_stats()),
            "pool": summed(self.pools, dict),
        }

    def dump(self, extra: Optional[dict] = None) -> str:
        """Write :meth:`snapshot` (plus ``extra``) into the trace dir."""
        data = self.snapshot()
        data.update(extra or {})
        name = "parent.json" if self.role == "parent" else f"worker-{os.getpid()}.json"
        path = os.path.join(self.trace_dir, name)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(path + ".tmp", path)
        return path


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py TRACE_DIR -- <repro-study argv>", file=sys.stderr)
        return 2
    trace_dir, cli_argv = argv[0], argv[2:]
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(trace_dir).install()
    from repro.cli import main as cli_main

    code = cli_main(cli_argv)
    sys.stdout.flush()
    tracer.dump({"in_process_s": time.perf_counter() - _STARTED, "exit": code})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
