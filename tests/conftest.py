"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import HealthCheck, settings

from repro.graphs import (
    path_graph,
    random_connected_graph,
    random_tree,
    ring_graph,
    star_graph,
)

# Simulation-backed property tests are slower than hypothesis' default
# expectations; register profiles once for the whole suite.
settings.register_profile(
    "sim",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sim")


@pytest.fixture
def small_ring():
    return ring_graph(8, seed=1)


@pytest.fixture
def small_path():
    return path_graph(7, seed=2)


@pytest.fixture
def small_star():
    return star_graph(9, seed=3)


@pytest.fixture
def small_tree():
    return random_tree(10, seed=4)


@pytest.fixture
def small_random_graph():
    return random_connected_graph(16, extra_edge_prob=0.2, seed=5)


@pytest.fixture
def survivors():
    """``survivors(pids)``: the PIDs among ``pids`` still alive after up to
    ``wait_s`` seconds (a reaped process is gone; a zombie is not)."""

    def check(pids, wait_s=5.0):
        alive = set(pids)
        deadline = time.monotonic() + wait_s
        while alive and time.monotonic() < deadline:
            for pid in list(alive):
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    alive.discard(pid)
            if alive:
                time.sleep(0.02)
        return alive

    return check


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (larger n)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: larger, slower scaling tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
