"""Heap policy: cyclic GC paused in batch processes, and why that is safe.

The CLI and every shard worker run with the cyclic collector paused
(:mod:`repro.core.heap`).  That is only sound while the pipeline leaves
no cyclic garbage behind, so each stage below runs with the collector
paused and must leave ``gc.collect()`` nothing to free.  The stages keep
their results alive: a world that is *dropped* becomes cyclic garbage
(its objects refer to one another), but a batch process holds it to
exit.
"""

import gc
import multiprocessing

import pytest

from repro import CellularDNSStudy, StudyConfig, cli
from repro.analysis.engine import ProjectionAccumulator
from repro.core.heap import pause_cyclic_gc
from repro.core.world import WorldConfig, build_world
from repro.measure.campaign import Campaign, CampaignConfig, ShardedCampaign
from repro.measure.records import Dataset

TINY = dict(device_scale=0.05, duration_days=4.0, interval_hours=24.0)

AVAILABLE_CONTEXTS = multiprocessing.get_all_start_methods()


@pytest.fixture()
def paused_gc():
    """Start from an empty garbage list, collector paused; restore after."""
    gc.collect()
    restore = pause_cyclic_gc()
    try:
        yield
    finally:
        restore()


@pytest.fixture(scope="module")
def tiny_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("heap") / "tiny.jsonl"
    dataset = Campaign(build_world(WorldConfig(seed=2014)),
                       CampaignConfig(**TINY)).run()
    dataset.save(str(path))
    return str(path), dataset.content_hash()


@pytest.mark.usefixtures("paused_gc")
class TestNoCyclicGarbage:
    def test_world_build(self):
        world = build_world(WorldConfig(seed=2014))
        assert gc.collect() == 0
        assert world.operators

    def test_serial_campaign_run(self):
        campaign = Campaign(build_world(WorldConfig(seed=2014)),
                            CampaignConfig(**TINY))
        gc.collect()
        dataset = campaign.run()
        assert gc.collect() == 0
        assert len(dataset) > 0

    @pytest.mark.skipif("fork" not in AVAILABLE_CONTEXTS,
                        reason="fork start method unavailable")
    def test_sharded_streaming_with_accumulator(self, tmp_path, tiny_archive):
        campaign = ShardedCampaign(
            build_world(WorldConfig(seed=2014)), CampaignConfig(**TINY),
            workers=2, mp_context="fork",
        )
        try:
            gc.collect()
            sink = ProjectionAccumulator()
            result = campaign.run_streaming(str(tmp_path / "out.jsonl"),
                                            sink=sink)
            assert gc.collect() == 0
        finally:
            campaign.close()
        assert result["content_hash"] == tiny_archive[1]

    @pytest.mark.skipif("fork" not in AVAILABLE_CONTEXTS,
                        reason="fork start method unavailable")
    def test_worker_frees_the_world_it_reboots_from(self, tmp_path):
        """A warm worker serving a new run drops its old campaign, whose
        world is cyclic: with GC paused it must collect it itself."""
        campaign = ShardedCampaign(
            build_world(WorldConfig(seed=2014)), CampaignConfig(**TINY),
            workers=1, mp_context="fork",
        )
        try:
            campaign.run_streaming(str(tmp_path / "first.jsonl"))
            pool = campaign._executor
            pool.submit(gc.collect).result(timeout=120)
            for name in ("second.jsonl", "third.jsonl"):
                campaign.run_streaming(str(tmp_path / name))
            assert pool.submit(gc.collect).result(timeout=120) == 0
        finally:
            campaign.close()

    def test_dataset_load_and_hash(self, tiny_archive):
        path, digest = tiny_archive
        gc.collect()
        dataset = Dataset.load(path)
        assert dataset.content_hash() == digest
        assert gc.collect() == 0

    def test_regenerate_report(self, tiny_archive):
        study = CellularDNSStudy(StudyConfig(seed=2014, executor="serial",
                                             **TINY))
        study.use_dataset(Dataset.load(tiny_archive[0]))
        gc.collect()
        text = study.regenerate_report().text
        assert gc.collect() == 0
        assert "Table 1" in text


class TestCliRestoresCollector:
    """``main`` pauses GC around the handler and restores the caller's
    state on return and on error (tests and tracers call it in-process)."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_state_restored(self, monkeypatch, tmp_path, enabled, fails):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            if fails:
                raise RuntimeError("handler failed")
            return 0

        monkeypatch.setattr(cli, "_cmd_validate", handler)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if fails:
                with pytest.raises(RuntimeError):
                    cli.main(["validate", str(tmp_path / "x.jsonl")])
            else:
                assert cli.main(["validate", str(tmp_path / "x.jsonl")]) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


@pytest.mark.parametrize(
    "context",
    [pytest.param(name, marks=pytest.mark.skipif(
        name not in AVAILABLE_CONTEXTS, reason=f"{name} unavailable"))
     for name in ("fork", "spawn")],
)
def test_pool_workers_run_with_gc_paused(context):
    """The pool initializer pauses GC in every worker, including spawned
    ones that do not inherit the parent's collector state."""
    assert gc.isenabled()
    campaign = ShardedCampaign(
        build_world(WorldConfig(seed=2014)), CampaignConfig(**TINY),
        workers=1, mp_context=context,
    )
    try:
        pool = campaign._ensure_pool(1)
        assert pool.submit(gc.isenabled).result(timeout=120) is False
    finally:
        campaign.close()
