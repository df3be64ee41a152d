"""Load the harness modules by path.

``bench/`` is not a package, and ``bench/trace.py`` would lose to the
standard library's ``trace`` module on a plain import, so each module is
loaded from its file under a name of its own.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH_DIR, filename)
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def harness():
    """``bench/run.py``."""
    return _load("bench_harness_run", "run.py")


@pytest.fixture(scope="session")
def tracing():
    """``bench/trace.py``."""
    return _load("bench_harness_trace", "trace.py")
