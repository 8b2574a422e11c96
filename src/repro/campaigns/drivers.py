"""Adaptive drivers: probe-by-probe searches over the experiment space.

Dense grids measure a fixed set of cells; a *driver* decides its next
cell from the results so far.  Two drivers ship:

* :class:`BisectDriver` binary-searches the smallest ``n`` where a
  predicate comparing two measured quantities flips — e.g. the smallest
  graph where the sleeping algorithm's awake complexity beats an
  always-awake baseline's round complexity (the paper's headline
  trade-off, located empirically instead of eyeballed off a sweep).
* :class:`ThresholdDriver` scans a fault-rate axis upward and reports
  the first rate where correctness breaks — where
  :func:`repro.graphs.verify_or_diagnose` stops saying ``correct`` or an
  invariant monitor first fires.

Both are deterministic given their config: every probe is recorded in an
audit trail that lands in the campaign report, and every measurement
goes through an *executor* (see :mod:`repro.campaigns.runner`) — the
driver itself never runs a simulation, which is what lets ``campaign
report`` replay a finished ledger without re-running anything, and lets
tests drive the search logic with synthetic predicates.

The search core, :class:`BisectSearch`, is a pure propose/feed state
machine with a hard probe budget — no I/O, no simulation — so property
tests can hammer it with arbitrary monotone predicates.

Adding a driver kind
--------------------
Write a class with ``kind``/``name`` attributes, a ``run(run_grid)``
method taking a ``(payload, label) -> records`` callable and returning a
JSON-safe audit dict, and a ``from_config`` classmethod raising
:class:`~repro.campaigns.spec.CampaignSpecError` on bad config; then
register it in :data:`DRIVER_KINDS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.stats import mean

from .spec import CampaignSpecError, _context

#: ``(grid payload, label) -> execute_job-style record dicts`` — how a
#: driver asks the campaign runner for measurements.
GridRunner = Callable[[Mapping[str, Any], str], List[Dict[str, Any]]]

#: Comparison operators a bisect predicate may use.
PREDICATE_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class DriverBudgetError(RuntimeError):
    """A driver needed more probes than its hard budget allows."""


def default_budget(lo: int, hi: int) -> int:
    """Probe budget for a bisection over ``[lo, hi]``.

    A binary search over ``R = hi - lo + 1`` candidates needs at most
    ``ceil(log2 R)`` narrowing probes plus one confirmation probe; the
    default budget adds one more of slack.
    """
    span = max(1, hi - lo + 1)
    return math.ceil(math.log2(span)) + 2


class BisectSearch:
    """Pure binary search for the smallest value where a predicate holds.

    Assumes the predicate is *monotone*: false up to some threshold,
    true from it onward (either side possibly empty).  Usage::

        search = BisectSearch(4, 512)
        while (value := search.propose()) is not None:
            search.feed(value, predicate(value))
        search.found  # smallest true value, or None if never true

    ``feed`` enforces the hard probe ``budget`` — a non-monotone
    predicate cannot send the search into an unbounded walk — and
    records every ``(value, verdict)`` pair in :attr:`probes` for the
    audit trail.  Proposals always stay inside ``[lo, hi]``.
    """

    def __init__(self, lo: int, hi: int, budget: Optional[int] = None) -> None:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"bisect range is empty: lo={lo} > hi={hi}")
        self.initial_lo = lo
        self.initial_hi = hi
        self.lo = lo
        self.hi = hi
        self.budget = default_budget(lo, hi) if budget is None else int(budget)
        if self.budget < 1:
            raise ValueError(f"bisect budget must be >= 1, got {self.budget}")
        self.probes: List[Tuple[int, bool]] = []
        self._verdicts: Dict[int, bool] = {}
        self._done = False

    def propose(self) -> Optional[int]:
        """Next value to probe, or ``None`` when the search is finished."""
        if self._done:
            return None
        if self.lo < self.hi:
            return (self.lo + self.hi) // 2
        # Interval collapsed: one confirmation probe of the survivor,
        # unless the narrowing already measured it.
        if self.lo in self._verdicts:
            self._done = True
            return None
        return self.lo

    def feed(self, value: int, verdict: bool) -> None:
        """Record the predicate's verdict at ``value`` and narrow."""
        if self._done:
            raise RuntimeError("search already finished")
        if not (self.lo <= value <= self.hi):
            raise ValueError(
                f"probe {value} outside current interval "
                f"[{self.lo}, {self.hi}]"
            )
        if len(self.probes) >= self.budget:
            raise DriverBudgetError(
                f"bisect over [{self.initial_lo}, {self.initial_hi}] "
                f"exceeded its probe budget of {self.budget}"
            )
        verdict = bool(verdict)
        self.probes.append((value, verdict))
        self._verdicts[value] = verdict
        if self.lo < self.hi:
            if verdict:
                self.hi = value
            else:
                self.lo = value + 1
        else:
            self._done = True

    @property
    def done(self) -> bool:
        return self._done or (
            self.lo == self.hi and self.lo in self._verdicts
        )

    @property
    def found(self) -> Optional[int]:
        """Smallest value where the predicate held, or ``None``."""
        if not self.done:
            return None
        return self.lo if self._verdicts.get(self.lo) else None


@dataclass(frozen=True)
class ProbeSide:
    """One side of a bisect predicate: what to run and what to measure."""

    algorithm: str
    metric: str = "max_awake"
    engine: Optional[str] = None
    problem: Optional[str] = None

    def payload(self, family: str, n: int, seeds: Sequence[int]) -> Dict[str, Any]:
        grid: Dict[str, Any] = {
            "algorithms": [self.algorithm],
            "families": [family],
            "sizes": [n],
            "seeds": list(seeds),
        }
        if self.engine:
            grid["engine"] = self.engine
        if self.problem:
            grid["problem"] = self.problem
        return grid

    def describe(self) -> str:
        suffix = f"@{self.problem}" if self.problem else ""
        return f"mean {self.metric}({self.algorithm}{suffix})"


def _parse_side(
    config: Any, driver: str, side: str, source: Optional[str]
) -> ProbeSide:
    if not isinstance(config, Mapping) or "algorithm" not in config:
        raise CampaignSpecError(
            f"driver {driver!r} needs a {side!r} table with at least "
            f"'algorithm'{_context(source)}"
        )
    unknown = set(config) - {"algorithm", "metric", "engine", "problem"}
    if unknown:
        raise CampaignSpecError(
            f"driver {driver!r} {side} side has unknown keys "
            f"{sorted(unknown)}{_context(source)}"
        )
    return ProbeSide(
        algorithm=str(config["algorithm"]),
        metric=str(config.get("metric", "max_awake")),
        engine=config.get("engine"),
        problem=config.get("problem"),
    )


def _seeds(value: Any) -> List[int]:
    if isinstance(value, int):
        return list(range(value))
    return [int(seed) for seed in value]


@dataclass(frozen=True)
class BisectDriver:
    """Binary-search the smallest ``n`` where ``left OP right`` holds.

    Each probe at size ``n`` runs both sides' one-size grids over the
    configured seeds and compares the per-side means of the configured
    metrics.  With the defaults in ``examples/campaigns/crossover.toml``
    the predicate reads "the sleeping algorithm's mean max awake time is
    below the always-awake baseline's mean round count" — its flip point
    is the crossover size the campaign artifact records.
    """

    kind = "bisect"

    name: str
    family: str
    seeds: Tuple[int, ...]
    lo: int
    hi: int
    left: ProbeSide
    right: ProbeSide
    op: str = "<"
    budget: Optional[int] = None

    @classmethod
    def from_config(
        cls, config: Mapping[str, Any], source: Optional[str] = None
    ) -> "BisectDriver":
        name = config.get("name")
        if not isinstance(name, str) or not name:
            raise CampaignSpecError(
                f"bisect driver needs a non-empty 'name'{_context(source)}"
            )
        allowed = {
            "kind", "name", "family", "seeds", "lo", "hi",
            "left", "right", "op", "budget",
        }
        unknown = set(config) - allowed
        if unknown:
            raise CampaignSpecError(
                f"driver {name!r} has unknown keys {sorted(unknown)}"
                f"{_context(source)}"
            )
        for required in ("family", "lo", "hi", "left", "right"):
            if required not in config:
                raise CampaignSpecError(
                    f"bisect driver {name!r} is missing {required!r}"
                    f"{_context(source)}"
                )
        op = config.get("op", "<")
        if op not in PREDICATE_OPS:
            raise CampaignSpecError(
                f"driver {name!r} has unknown op {op!r}; choose from "
                f"{sorted(PREDICATE_OPS)}{_context(source)}"
            )
        lo, hi = int(config["lo"]), int(config["hi"])
        if lo > hi:
            raise CampaignSpecError(
                f"driver {name!r} has an empty range: lo={lo} > hi={hi}"
                f"{_context(source)}"
            )
        seeds = _seeds(config.get("seeds", 3))
        if not seeds:
            raise CampaignSpecError(
                f"driver {name!r} needs at least one seed{_context(source)}"
            )
        budget = config.get("budget")
        return cls(
            name=name,
            family=str(config["family"]),
            seeds=tuple(seeds),
            lo=lo,
            hi=hi,
            left=_parse_side(config["left"], name, "left", source),
            right=_parse_side(config["right"], name, "right", source),
            op=op,
            budget=None if budget is None else int(budget),
        )

    def predicate_label(self) -> str:
        return f"{self.left.describe()} {self.op} {self.right.describe()}"

    def _measure(
        self, run_grid: GridRunner, side: ProbeSide, n: int, label: str
    ) -> float:
        records = run_grid(side.payload(self.family, n, self.seeds), label)
        values = [
            float(record[side.metric])
            for record in records
            if record.get(side.metric) is not None
        ]
        if not values:
            raise RuntimeError(
                f"driver {self.name!r}: no {side.metric!r} measurements "
                f"for {side.algorithm} at n={n}"
            )
        return mean(values)

    def run(self, run_grid: GridRunner) -> Dict[str, Any]:
        """Execute the search; returns the audit-trail report fragment."""
        search = BisectSearch(self.lo, self.hi, self.budget)
        compare = PREDICATE_OPS[self.op]
        probes: List[Dict[str, Any]] = []
        while (n := search.propose()) is not None:
            label = f"{self.name}/n={n}"
            left_mean = self._measure(run_grid, self.left, n, f"{label}/left")
            right_mean = self._measure(
                run_grid, self.right, n, f"{label}/right"
            )
            verdict = compare(left_mean, right_mean)
            search.feed(n, verdict)
            probes.append(
                {
                    "n": n,
                    "left": round(left_mean, 3),
                    "right": round(right_mean, 3),
                    "verdict": verdict,
                }
            )
        return {
            "kind": self.kind,
            "name": self.name,
            "predicate": self.predicate_label(),
            "family": self.family,
            "seeds": list(self.seeds),
            "range": [self.initial_range[0], self.initial_range[1]],
            "budget": search.budget,
            "probes": probes,
            "probe_count": len(probes),
            "crossover": search.found,
        }

    @property
    def initial_range(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class ThresholdDriver:
    """Scan a fault-rate axis upward until correctness first breaks.

    For each rate the driver runs ``algorithm`` on ``(family, n)`` over
    the seeds under the channel ``{fault}:{rate}``, optionally with
    invariant monitors attached.  A rate *breaks* when any cell is not
    ``correct`` (crashed, hung, or wrong output per
    ``verify_or_diagnose``) or any monitor records a violation.  The
    scan stops at the first breaking rate — later rates are never run —
    and reports it as ``threshold`` (``None`` if the whole axis
    survived).
    """

    kind = "threshold"

    name: str
    algorithm: str
    family: str
    n: int
    seeds: Tuple[int, ...]
    rates: Tuple[float, ...]
    fault: str = "drop"
    monitors: Optional[str] = None
    problem: Optional[str] = None

    @classmethod
    def from_config(
        cls, config: Mapping[str, Any], source: Optional[str] = None
    ) -> "ThresholdDriver":
        name = config.get("name")
        if not isinstance(name, str) or not name:
            raise CampaignSpecError(
                f"threshold driver needs a non-empty 'name'{_context(source)}"
            )
        allowed = {
            "kind", "name", "algorithm", "family", "n", "seeds",
            "rates", "fault", "monitors", "problem",
        }
        unknown = set(config) - allowed
        if unknown:
            raise CampaignSpecError(
                f"driver {name!r} has unknown keys {sorted(unknown)}"
                f"{_context(source)}"
            )
        for required in ("algorithm", "family", "n", "rates"):
            if required not in config:
                raise CampaignSpecError(
                    f"threshold driver {name!r} is missing {required!r}"
                    f"{_context(source)}"
                )
        rates = [float(rate) for rate in config["rates"]]
        if not rates:
            raise CampaignSpecError(
                f"driver {name!r} needs a non-empty 'rates' list"
                f"{_context(source)}"
            )
        if rates != sorted(rates):
            raise CampaignSpecError(
                f"driver {name!r} rates must be ascending (the scan stops "
                f"at the first breaking rate){_context(source)}"
            )
        seeds = _seeds(config.get("seeds", 3))
        if not seeds:
            raise CampaignSpecError(
                f"driver {name!r} needs at least one seed{_context(source)}"
            )
        return cls(
            name=name,
            algorithm=str(config["algorithm"]),
            family=str(config["family"]),
            n=int(config["n"]),
            seeds=tuple(seeds),
            rates=tuple(rates),
            fault=str(config.get("fault", "drop")),
            monitors=config.get("monitors"),
            problem=config.get("problem"),
        )

    def _payload(self, rate: float) -> Dict[str, Any]:
        grid: Dict[str, Any] = {
            "algorithms": [self.algorithm],
            "families": [self.family],
            "sizes": [self.n],
            "seeds": list(self.seeds),
            "faults": [f"{self.fault}:{rate:g}"],
        }
        if self.monitors:
            grid["monitors"] = self.monitors
        if self.problem:
            grid["problem"] = self.problem
        return grid

    def run(self, run_grid: GridRunner) -> Dict[str, Any]:
        """Execute the scan; returns the audit-trail report fragment."""
        probes: List[Dict[str, Any]] = []
        threshold: Optional[float] = None
        for rate in self.rates:
            label = f"{self.name}/{self.fault}:{rate:g}"
            records = run_grid(self._payload(rate), label)
            incorrect = sum(
                1 for record in records if not record.get("correct")
            )
            violations = sum(
                record.get("violations") or 0 for record in records
            )
            outcomes = sorted(
                {
                    str(record.get("outcome") or "correct")
                    for record in records
                }
            )
            broke = incorrect > 0 or violations > 0
            probes.append(
                {
                    "rate": rate,
                    "cells": len(records),
                    "incorrect": incorrect,
                    "violations": violations,
                    "outcomes": outcomes,
                    "broke": broke,
                }
            )
            if broke:
                threshold = rate
                break
        return {
            "kind": self.kind,
            "name": self.name,
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "seeds": list(self.seeds),
            "fault": self.fault,
            "rates": list(self.rates),
            "monitors": self.monitors,
            "probes": probes,
            "probe_count": len(probes),
            "threshold": threshold,
        }


#: Registered driver kinds: config ``kind`` -> driver class.
DRIVER_KINDS: Dict[str, Any] = {
    BisectDriver.kind: BisectDriver,
    ThresholdDriver.kind: ThresholdDriver,
}


def build_driver(
    config: Mapping[str, Any], source: Optional[str] = None
) -> Any:
    """Build a driver instance from a ``[[drivers]]`` spec section."""
    kind = config.get("kind")
    if kind not in DRIVER_KINDS:
        raise CampaignSpecError(
            f"unknown driver kind {kind!r}; choose from "
            f"{sorted(DRIVER_KINDS)}{_context(source)}"
        )
    return DRIVER_KINDS[kind].from_config(config, source=source)
