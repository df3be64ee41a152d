"""Heap policy: batch processes run with the cyclic garbage collector paused.

A campaign or a reanalysis builds a large, long-lived heap — the world,
DNS memos, records, projections — and leaves no cyclic garbage behind:
whatever dies mid-run is acyclic, so reference counting frees it the
moment it dies.  CPython's cyclic collector still rescans that whole
heap each time allocations cross its thresholds: at bench scale its
full collections free nothing and take about a third of a
reanalysis's wall clock (DESIGN.md, "Heap policy", has the counts).

:func:`pause_cyclic_gc` is the one switch for that policy.  It has two
call sites: :func:`repro.cli.main`, around the subcommand handler, and
the shard-worker pool initializer, for the worker's lifetime (spawn and
forkserver workers do not inherit the parent's collector state).  The
pause is sound only while the pipeline creates no cyclic garbage;
``tests/core/test_heap_policy.py`` pins that invariant.  The one known
exception, a warm worker dropping its world for a new run, collects
explicitly at that point.
"""

from __future__ import annotations

import gc
from typing import Callable


def pause_cyclic_gc() -> Callable[[], None]:
    """Pause cyclic GC; return a callable that restores the prior state.

    Reference counting still frees every acyclic object immediately;
    only the collector's periodic rescans of the live heap stop.  A
    caller that owns the process for its lifetime (a pool worker) may
    drop the returned callable.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    return gc.enable if was_enabled else gc.disable
