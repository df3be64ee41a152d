"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re

import pytest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A campaign small enough to trace in about a second.
SMALL = ["run", "--scale", "0.1", "--days", "7", "--interval-hours", "12",
         "--report"]

#: Counts that depend on the executor by design, not on the simulation:
#: pool bookkeeping, and work memoised per process (each worker's world
#: caches CDN mapping decisions and refills its own copy of a shared
#: RNG stream's draw pool).
EXECUTOR_COUNTS = {"world.boot_calls", "campaign.pool_created",
                   "campaign.pool_reused", "cdn.select_calls",
                   "rng.pool_refills"}


def _traced(harness, tmp_path, label, argv):
    trace_dir = tmp_path / f"trace-{label}"
    output = tmp_path / f"{label}.jsonl"
    child = harness.run_child(
        ["bench/trace.py", str(trace_dir), "--", *argv, "-o", str(output)],
        str(tmp_path),
    )
    assert child.exit == 0, child.stderr
    trace = harness.collect_trace(str(trace_dir))
    metrics = harness.layer_metrics(trace, child.wall_s, child.wall_s)
    return child, output, trace, metrics


def test_benchmark_json_validates(harness):
    spec = harness.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))

    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)

    assert 1 <= len(spec["end_to_end"]) <= 16
    bounds = {}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": bounds["setup_s"]} in spec["end_to_end"]
    assert bounds["setup_s"] == max(bounds.values())

    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        layer = metric["name"].split(".", 1)[0]
        moves = harness.LAYER_MOVES[layer]
        assert moves or layer == "trace", metric["name"]
        for end_to_end, workload in moves:
            assert end_to_end in bounds, (metric["name"], end_to_end)
            assert workload in harness.WORKLOADS, (metric["name"], workload)


def test_wrappers_are_removed_after_tracing(tracing, tmp_path):
    originals = []
    for _, module_name, owner_name, attrs in tracing.SPANS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            owners = [module]
        elif owner_name.endswith("+"):
            owners = tracing._with_subclasses(getattr(module, owner_name[:-1]))
        else:
            owners = [getattr(module, owner_name)]
        for owner in owners:
            for attr in attrs:
                if attr in owner.__dict__:
                    originals.append((owner, attr, owner.__dict__[attr]))
    study = importlib.import_module("repro.core.study")
    originals.append((study, "build_world", study.build_world))

    tracer = tracing.Tracer(str(tmp_path)).install()
    try:
        changed = [o for o, a, raw in originals if o.__dict__[a] is not raw]
        assert len(changed) == len(originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)


def test_traced_campaign_hashes_like_an_untraced_one(harness, tmp_path):
    argv = ["run", "--scale", "0.05", "--days", "7", "--interval-hours", "12",
            "--executor", "sharded", "--report"]
    plain_out = tmp_path / "plain.jsonl"
    plain = harness.run_child(
        ["-m", "repro.cli", *argv, "-o", str(plain_out)], str(tmp_path)
    )
    assert plain.exit == 0, plain.stderr
    traced, traced_out, trace, _ = _traced(harness, tmp_path, "traced", argv)
    digest = [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (plain_out, traced_out)
    ]
    assert digest[0] == digest[1]
    assert plain.stdout == traced.stdout
    assert trace["workers"], "pool workers wrote no totals"


def test_call_counts_match_between_serial_and_sharded(harness, tmp_path):
    spec = harness.load_spec()
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and m["name"] not in EXECUTOR_COUNTS]
    _, _, serial_trace, serial = _traced(
        harness, tmp_path, "serial", SMALL + ["--executor", "serial"])
    _, _, sharded_trace, sharded = _traced(
        harness, tmp_path, "sharded", SMALL + ["--executor", "sharded"])
    assert not serial_trace["workers"] and len(sharded_trace["workers"]) >= 1
    assert serial["experiment.calls"] > 0
    assert {n: serial[n] for n in counts} == {n: sharded[n] for n in counts}


def test_layer_table_adds_up_to_wall_clock(harness, tmp_path):
    child, _, trace, metrics = _traced(
        harness, tmp_path, "table", SMALL + ["--executor", "sharded"])
    parent_self = sum(span[4] for span in trace["parent"]["spans"])
    assert metrics["trace.residual_s"] >= 0
    assert parent_self + metrics["trace.residual_s"] == pytest.approx(child.wall_s)
    table = harness.format_trace_table("table", trace, metrics)
    assert "missing" not in table


def _set(values):
    return {"workloads": {"serial-campaign": {
        "end_to_end": {"wall_s": values}, "per_layer": {}}}}


@pytest.mark.parametrize("first, second, verdict", [
    ([10.0, 10.1, 10.0, 9.9, 10.0], [10.2, 10.1, 10.2, 10.3, 10.2], "agree"),
    ([10.0, 10.1, 10.0, 9.9, 10.0], [11.0, 11.1, 11.0, 10.9, 11.0], "regressed"),
    ([8.0, 10.0, 12.0, 9.0, 11.0], [10.0, 10.0, 10.0, 10.0, 10.0], "unresolved"),
])
def test_check_verdicts(harness, first, second, verdict):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.05}], "per_layer": []}
    rows, bad = harness.compare_sets(_set(first), _set(second), spec)
    assert verdict in rows[1]
    assert bad == (verdict == "regressed")


def test_calibration_sets_agree(harness):
    path = os.path.join(harness.ROOT, "bench", "results", "seed-calibration.json")
    with open(path, encoding="utf-8") as handle:
        calibration = json.load(handle)
    assert {"nproc", "mp_context", "python", "orjson"} <= set(calibration["header"])
    first, second = calibration["sets"]
    rows, bad = harness.compare_sets(first, second, harness.load_spec())
    assert not bad, "\n".join(rows)
    assert not any("unresolved" in row or "regressed" in row for row in rows)
