"""Small child programs the benchmark harness times or checks with.

From the repository root, with ``PYTHONPATH=src``::

    python bench/probe.py setup --seed 2014 --scale 1.0 --days 28 \\
        --interval-hours 12 [--scenario FILE] [--executor NAME]
    python bench/probe.py check ARCHIVE
    python bench/probe.py env

``setup`` imports ``repro`` and builds the study a workload's command
line describes (world, population, executor decision), then exits: its
wall clock is the benchmark's ``setup_s``.  ``check`` loads ARCHIVE once,
runs the checks ``repro-study validate`` runs (every record, and the
checkpoint manifests when ``ARCHIVE.shards/`` exists), and prints as
JSON whether they passed, the record count and
``Dataset.content_hash()``, the value the benchmark pins.
``env`` prints, as JSON, the facts a result set records about the box:
core count, the worker start method the program picks, the Python
version and whether orjson is importable.
"""

from __future__ import annotations

import argparse
import json
import sys


def _setup(args) -> int:
    from repro import CellularDNSStudy, StudyConfig
    from repro.core.faults import load_scenario
    from repro.core.world import WorldConfig

    world = WorldConfig()
    if args.scenario:
        world.scenario = load_scenario(args.scenario)
    CellularDNSStudy(
        StudyConfig(
            seed=args.seed,
            device_scale=args.scale,
            duration_days=args.days,
            interval_hours=args.interval_hours,
            executor=args.executor,
            world=world,
        )
    )
    return 0


def _check(args) -> int:
    import os

    from repro.measure.records import Dataset
    from repro.measure.validate import validate_dataset, verify_manifests

    dataset = Dataset.load(args.archive)
    report = validate_dataset(dataset)
    problems = [str(finding) for finding in report.errors[:3]]
    if os.path.isdir(args.archive + ".shards"):
        manifests = verify_manifests(args.archive)
        problems += [str(row) for row in manifests.rows if not row.passed][:3]
        if not manifests.rows:
            problems.append("checkpoint directory holds no manifests")
    print(json.dumps({
        "ok": not problems,
        "problems": problems,
        "records": report.records_checked,
        "content_hash": dataset.content_hash(),
    }))
    return 0


def _env(args) -> int:
    import importlib.util
    import os
    import platform

    from repro.measure.campaign import resolve_mp_context

    print(json.dumps({
        "nproc": os.cpu_count(),
        "mp_context": resolve_mp_context("auto"),
        "python": platform.python_version(),
        "orjson": importlib.util.find_spec("orjson") is not None,
        "platform": platform.platform(),
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("env").set_defaults(handler=_env)
    setup = commands.add_parser("setup")
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--scale", type=float, required=True)
    setup.add_argument("--days", type=float, required=True)
    setup.add_argument("--interval-hours", type=float, required=True)
    setup.add_argument("--scenario", default=None)
    setup.add_argument("--executor", default="auto")
    setup.set_defaults(handler=_setup)
    check = commands.add_parser("check")
    check.add_argument("archive")
    check.set_defaults(handler=_check)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
