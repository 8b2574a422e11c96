"""Engine selection and the array engine's capability matrix.

Every ``run_*(..., engine=...)`` knob resolves here, and :func:`require`
is the one check that raises
:class:`~repro.sim.errors.UnsupportedFeatureError` for a configuration
the vectorized backend (:mod:`repro.sim.array_engine`,
:mod:`repro.core.array_ops`) cannot run.

This module does not import numpy: the CLI, the orchestrator and the
service resolve engines through it without loading the array engine.
``require("array")`` is where numpy loads; without numpy it raises, and
only ``engine="array"`` is unavailable.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .errors import UnsupportedFeatureError

#: Simulation backends selectable through ``run_*(..., engine=...)``.
ENGINES = ("coroutine", "array")

# What the array engine can run.  The coroutine engine runs every
# configuration; these tables are the one statement of the array engine's
# narrower matrix.  :func:`require` raises from them, and the feature
# matrix in docs/performance.md is tested against them.

#: Algorithms the array engine vectorizes.
ARRAY_ALGORITHMS = ("Randomized-MST",)

#: ``SleepingSimulator`` keyword arguments the array engine rejects when
#: set, with the feature name its error message uses.  Each attaches an
#: observer that the vectorized execution does not feed.
ARRAY_REJECTED_KWARGS = {
    "trace": "event tracing",
    "max_trace_events": "event tracing",
    "observe": "observability spans",
    "obs_registry": "observability spans",
    "monitors": "invariant monitors",
    "track_knowledge": "knowledge tracking",
}

#: Feature name for a ``channel=`` that is not perfect: the array engine
#: accepts only channels with ``is_perfect`` set.
ARRAY_REJECTED_CHANNELS = "fault specs"

#: ``SleepingSimulator`` keyword arguments the array engine honours, with
#: their defaults.  Any keyword in neither table is rejected.
ARRAY_SIM_OPTIONS = {
    "congest_universe": None,
    "strict_congest": True,
    "congest_factor": None,
    "max_rounds": None,
    "max_awake_events": 50_000_000,
}


def resolve_engine(engine: Optional[str]) -> str:
    """Normalise an ``engine=`` knob value; ``None`` means the default."""
    if engine is None:
        return "coroutine"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def require(
    engine: Optional[str],
    algorithm: Optional[str] = None,
    sim_kwargs: Optional[Dict[str, Any]] = None,
) -> str:
    """Check that ``engine`` can run ``algorithm`` with ``sim_kwargs``.

    Returns the resolved engine name.  The coroutine engine runs
    everything.  For the array engine this imports numpy and raises
    :class:`UnsupportedFeatureError` naming the first feature outside the
    tables above, checked in this order: numpy itself, the algorithm, the
    channel, the observer keywords, then any unknown keyword.
    """
    engine = resolve_engine(engine)
    if engine != "array":
        return engine
    try:
        import numpy  # noqa: F401 - the array engine's one dependency
    except ImportError:
        raise UnsupportedFeatureError(
            "running without numpy", "the array engine is vectorized"
        ) from None
    if algorithm is not None and algorithm not in ARRAY_ALGORITHMS:
        raise UnsupportedFeatureError(
            algorithm, f"only {', '.join(ARRAY_ALGORITHMS)} is vectorized"
        )
    kwargs = sim_kwargs or {}
    channel = kwargs.get("channel")
    if channel is not None and not getattr(channel, "is_perfect", False):
        raise UnsupportedFeatureError(
            ARRAY_REJECTED_CHANNELS,
            f"{type(channel).__name__} is a fault-injecting channel",
        )
    for key, feature in ARRAY_REJECTED_KWARGS.items():
        if kwargs.get(key):
            raise UnsupportedFeatureError(feature)
    unknown = sorted(
        set(kwargs) - {"channel", *ARRAY_REJECTED_KWARGS, *ARRAY_SIM_OPTIONS}
    )
    if unknown:
        raise UnsupportedFeatureError(f"simulator options ({', '.join(unknown)})")
    return engine


def validate_array_sim_kwargs(sim_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The :data:`ARRAY_SIM_OPTIONS` subset of ``sim_kwargs``, defaults applied.

    Raises :class:`UnsupportedFeatureError` (through :func:`require`) for
    observers, monitors, knowledge tracking, any non-perfect channel, or an
    unknown keyword: the features that would make the vectorized execution
    silently diverge from the coroutine engine.
    """
    require("array", sim_kwargs=sim_kwargs)
    return {
        key: sim_kwargs.get(key, default)
        for key, default in ARRAY_SIM_OPTIONS.items()
    }
