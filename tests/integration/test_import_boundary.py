"""What a process loads: numpy only behind the array engine, and
``multiprocessing`` only behind a worker pool.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.  The snippet passed to :func:`fresh`
prints one JSON line as its last output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.orchestrator import execute_with_policy, expand_grid

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules that only the array engine or a worker pool may load.
HEAVY = ("numpy", "multiprocessing", "concurrent.futures.process")

#: Coroutine cells, as ``expand_grid`` keyword arguments.
CELLS = {
    "randomized": dict(
        algorithms=["randomized"], families=["gnp"], sizes=[16], seeds=[1]
    ),
    "deterministic": dict(
        algorithms=["deterministic"], families=["gnp"], sizes=[8], seeds=[1]
    ),
    "mis": dict(
        algorithms=["Sleeping-MIS"],
        families=["gnp"],
        sizes=[16],
        seeds=[1],
        problem="mis",
    ),
    "faulted-monitored": dict(
        algorithms=["randomized"],
        families=["gnp"],
        sizes=[16],
        seeds=[1],
        faults=["dup:0.1"],
        monitors="all",
    ),
}

PRELUDE = f"""
import hashlib, json, sys
HEAVY = {HEAVY!r}
def loaded():
    return [name for name in HEAVY if name in sys.modules]
def cell(kwargs, **extra):
    from repro.orchestrator import execute_with_policy, expand_grid
    (spec,) = expand_grid(**kwargs, **extra)
    return execute_with_policy(spec)
def digest(record):
    return hashlib.sha256(record.fingerprint()).hexdigest()
"""


def fresh(code: str, block_numpy: bool = False):
    """Run ``code`` in a new interpreter; return its last stdout line as JSON.

    ``block_numpy`` makes ``import numpy`` fail there, as on an install
    without it.
    """
    prelude = PRELUDE
    if block_numpy:
        prelude = "import sys\nsys.modules['numpy'] = None\n" + prelude
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def importtime_heavy_lines(cli_args) -> list:
    """Run ``python -X importtime -m repro.cli *cli_args`` in a fresh
    interpreter; return the ``import time:`` lines naming numpy or
    multiprocessing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", *cli_args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return [
        line
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
        and ("numpy" in line or "multiprocessing" in line)
    ]


def digest_here(kwargs) -> str:
    """The fingerprint digest of a cell run in this process."""
    (spec,) = expand_grid(**kwargs)
    return hashlib.sha256(execute_with_policy(spec).fingerprint()).hexdigest()


class TestBoundary:
    def test_package_imports_load_neither(self):
        modules = [
            "repro",
            "repro.orchestrator",
            "repro.invariants",
            "repro.service",
            "repro.cli",
        ]
        after = fresh(
            f"""
import importlib
after = {{}}
for name in {modules!r}:
    importlib.import_module(name)
    after[name] = loaded()
print(json.dumps(after))
"""
        )
        assert after == {name: [] for name in modules}

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_coroutine_cell_loads_neither(self, name):
        status, after = fresh(
            f"""
record = cell({CELLS[name]!r})
print(json.dumps([record.status, loaded()]))
"""
        )
        assert (status, after) == ("ok", [])

    def test_cli_run_and_check_load_neither(self):
        codes, after = fresh(
            """
from repro.cli import main
args = ["--algorithm", "randomized", "--graph", "gnp", "--n", "32",
        "--seed", "1"]
codes = [main(["run", *args]), main(["check", *args, "--faults", "dup:0.1"])]
print(json.dumps([codes, loaded()]))
"""
        )
        assert (codes, after) == ([0, 0], [])
        # The same two commands through the `python -m repro.cli` entry
        # point, as a user runs them: no `-X importtime` line may name
        # numpy or multiprocessing.
        args = ["--algorithm", "randomized", "--graph", "gnp", "--n", "32",
                "--seed", "1"]
        for command in (["run", *args], ["check", *args, "--faults", "dup:0.1"]):
            assert importtime_heavy_lines(command) == [], command

    def test_serial_run_jobs_loads_neither(self):
        failed, after = fresh(
            f"""
from repro.orchestrator import expand_grid, run_jobs
report = run_jobs(expand_grid(**{CELLS["randomized"]!r}), workers=1)
print(json.dumps([report.failed, loaded()]))
"""
        )
        assert (failed, after) == (0, [])

    def test_pool_loads_numpy_before_forking_only_for_array_cells(self):
        # Forked workers inherit the parent's modules: a pool that runs
        # array cells imports numpy once, before it starts, rather than
        # once per worker; a coroutine-only pool imports none of it.
        pytest.importorskip("numpy")
        coroutine, array = fresh(
            f"""
from repro.orchestrator import expand_grid, run_jobs
def pool(**extra):
    report = run_jobs(expand_grid(**{CELLS["randomized"]!r}, **extra),
                      workers=2)
    assert report.failed == 0
    return [loaded(), "repro.core.array_ops" in sys.modules]
print(json.dumps([pool(), pool(engine="array")]))
"""
        )
        assert coroutine == [["multiprocessing", "concurrent.futures.process"], False]
        assert array == [list(HEAVY), True]

    def test_array_cell_loads_numpy_and_matches_coroutine(self):
        pytest.importorskip("numpy")
        same, after = fresh(
            f"""
coroutine = cell({CELLS["randomized"]!r})
array = cell({CELLS["randomized"]!r}, engine="array")
assert array.status == "ok", array.error
print(json.dumps([array.metrics == coroutine.metrics, loaded()]))
"""
        )
        assert same
        assert after == ["numpy"]


class TestWithoutNumpy:
    """An install without numpy loses ``engine="array"`` and nothing else."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return fresh(
            f"""
from repro.cli import main
from repro.core import run_randomized_mst
from repro.orchestrator import GRAPH_FAMILIES, expand_grid, run_jobs
from repro.sim.errors import UnsupportedFeatureError

cells = {{name: digest(cell(kwargs)) for name, kwargs in {CELLS!r}.items()}}
try:
    run_randomized_mst(GRAPH_FAMILIES["ring"](8, 1, None), 1, engine="array")
    raised = None
except UnsupportedFeatureError as error:
    raised = str(error)
failed = cell({CELLS["randomized"]!r}, engine="array")
pooled = run_jobs(expand_grid(**{CELLS["randomized"]!r}, engine="array"),
                  workers=2).records[0]
code = main(["run", "--graph", "ring", "--n", "8", "--seed", "1",
             "--engine", "array"])
print(json.dumps({{"cells": cells, "raised": raised,
                  "record": [failed.status, failed.error],
                  "pooled": [pooled.status, pooled.error], "exit": code}}))
""",
            block_numpy=True,
        )

    def test_coroutine_cells_keep_their_fingerprints(self, outcome):
        assert outcome["cells"] == {
            name: digest_here(kwargs) for name, kwargs in CELLS.items()
        }

    def test_array_engine_names_numpy(self, outcome):
        assert "running without numpy" in outcome["raised"]

    @pytest.mark.parametrize("where", ["record", "pooled"])
    def test_array_cell_fails_with_that_error(self, outcome, where):
        status, error = outcome[where]
        assert status == "failed"
        assert error.startswith("UnsupportedFeatureError")
        assert "running without numpy" in error

    def test_cli_exits_2(self, outcome):
        assert outcome["exit"] == 2
