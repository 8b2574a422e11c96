"""Declarative campaign specs: TOML/JSON files compiled to JobSpec grids.

A campaign is one small spec file describing everything an experiment
needs — dense grids over the orchestrator's axes, adaptive drivers that
search for crossover points, and statistical fits — so "reproduce the
paper's curves" becomes one resumable command instead of a hand-rolled
script.

The grid sections reuse the orchestrator's grid-payload schema verbatim
(:data:`repro.orchestrator.jobs.GRID_PAYLOAD_KEYS`): a campaign grid
compiles through the same :func:`~repro.orchestrator.grid_from_payload`
/ :func:`~repro.orchestrator.expand_grid` pipeline every other front
door uses, so cells are content-hashed identically and an identical cell
across campaigns, batches, and service submissions costs one simulation.

Spec grammar (TOML shown; the JSON form is isomorphic)::

    [campaign]
    name = "crossover"
    description = "..."

    [[grids]]
    name = "mst-curve"
    algorithms = ["randomized"]
    families = ["gnp"]
    sizes = {base = 16, doublings = 4}   # derived axis: 16,32,...,256
    seeds = 5                            # or an explicit list
    engine = "array"                     # any grid-payload key works
    order = "default"                    # or "reversed" / "shuffled"

    [[drivers]]
    kind = "bisect"                      # see repro.campaigns.drivers
    ...

    [[fits]]
    name = "mst-awake-vs-logn"
    grid = "mst-curve"
    metric = "max_awake"
    model = "log"                        # any repro.analysis MODELS key
    resamples = 200
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.complexity import MODELS
from repro.orchestrator import JobSpec, grid_from_payload
from repro.orchestrator.jobs import GRID_PAYLOAD_KEYS, canonical_json

#: Top-level sections a campaign spec may contain.
CAMPAIGN_SECTIONS = ("campaign", "grids", "drivers", "fits")

#: Execution orderings a grid section may request.  Ordering affects the
#: order cells are *executed* in, never their hashes or the report (the
#: report always lists records in canonical expansion order).
GRID_ORDERS = ("default", "reversed", "shuffled")

#: Grid-section keys beyond the shared orchestrator grid payload.
GRID_EXTRA_KEYS = ("name", "order", "repeats")

#: Fit-section keys.
FIT_KEYS = (
    "name", "grid", "metric", "model", "algorithm", "resamples",
    "confidence", "seed",
)


class CampaignSpecError(ValueError):
    """A malformed campaign spec; the message names the spec file."""


def _context(source: Optional[str]) -> str:
    return f" (campaign spec {source})" if source else ""


def _require_keys(
    section: Mapping[str, Any],
    allowed: Sequence[str],
    where: str,
    source: Optional[str],
) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise CampaignSpecError(
            f"unknown keys {sorted(unknown)} in {where}{_context(source)}; "
            f"allowed: {sorted(allowed)}"
        )


def _derived_sizes(
    sizes: Mapping[str, Any], where: str, source: Optional[str]
) -> List[int]:
    """Expand a derived size axis ``{base, doublings, factor}``.

    ``base`` is the smallest size; ``doublings`` counts how many further
    sizes follow, each the previous multiplied by ``factor`` (default 2).
    """
    _require_keys(sizes, ("base", "doublings", "factor"), where, source)
    try:
        base = int(sizes["base"])
        doublings = int(sizes["doublings"])
    except (KeyError, TypeError, ValueError):
        raise CampaignSpecError(
            f"derived sizes need integer 'base' and 'doublings' in "
            f"{where}{_context(source)}"
        ) from None
    factor = int(sizes.get("factor", 2))
    if base < 2 or doublings < 0 or factor < 2:
        raise CampaignSpecError(
            f"derived sizes need base >= 2, doublings >= 0, factor >= 2 "
            f"in {where}{_context(source)}"
        )
    return [base * factor**step for step in range(doublings + 1)]


@dataclass(frozen=True)
class GridSection:
    """One named dense grid of a campaign (a grid payload + ordering)."""

    name: str
    #: The orchestrator grid payload (GRID_PAYLOAD_KEYS subset).
    payload: Mapping[str, Any]
    order: str = "default"

    def specs(self) -> List[JobSpec]:
        """Compile to JobSpecs in canonical expansion order."""
        return grid_from_payload(self.payload)

    def execution_order(self, specs: Sequence[JobSpec], campaign: str) -> List[JobSpec]:
        """Reorder ``specs`` for execution per the section's ``order``.

        The shuffle is seeded from the campaign and grid names, so an
        interrupted shuffled campaign resumes in the same order.
        """
        ordered = list(specs)
        if self.order == "reversed":
            ordered.reverse()
        elif self.order == "shuffled":
            random.Random(f"{campaign}/{self.name}/order").shuffle(ordered)
        return ordered

    def to_payload(self) -> Dict[str, Any]:
        section: Dict[str, Any] = {"name": self.name, **dict(self.payload)}
        if self.order != "default":
            section["order"] = self.order
        return section


@dataclass(frozen=True)
class FitSection:
    """One statistical fit over a named grid's records."""

    name: str
    grid: str
    metric: str = "max_awake"
    model: str = "log"
    algorithm: Optional[str] = None
    resamples: int = 200
    confidence: float = 0.95
    seed: int = 0

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "grid": self.grid,
            "metric": self.metric,
            "model": self.model,
            "resamples": self.resamples,
            "confidence": self.confidence,
            "seed": self.seed,
        }
        if self.algorithm is not None:
            payload["algorithm"] = self.algorithm
        return payload


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: grids + drivers + fits, content-hashable."""

    name: str
    description: str = ""
    grids: Tuple[GridSection, ...] = field(default_factory=tuple)
    #: Raw driver configs; :func:`repro.campaigns.drivers.build_driver`
    #: turns them into driver instances at run time (they are validated
    #: eagerly at load time).
    drivers: Tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    fits: Tuple[FitSection, ...] = field(default_factory=tuple)
    #: Where the spec was loaded from (context for error messages and
    #: the report); not part of the content hash.
    source: Optional[str] = None

    # -- loading -------------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load and validate a ``.toml`` or ``.json`` campaign spec.

        TOML needs the standard library's ``tomllib`` (Python 3.11+); the
        JSON form of the same spec loads on every supported Python.
        """
        path = Path(path)
        parse = json.load
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError:
                raise CampaignSpecError(
                    f"cannot read campaign spec {path}: TOML specs need "
                    "Python 3.11+ (tomllib); write the spec as JSON instead"
                ) from None
            parse = tomllib.load
        try:
            with open(path, "rb") as handle:
                payload = parse(handle)
        except OSError as error:
            raise CampaignSpecError(
                f"cannot read campaign spec {path}: {error}"
            ) from error
        except ValueError as error:
            # TOMLDecodeError and JSONDecodeError are both ValueErrors.
            raise CampaignSpecError(
                f"cannot parse campaign spec {path}: {error}"
            ) from error
        return cls.from_payload(payload, source=str(path))

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], source: Optional[str] = None
    ) -> "CampaignSpec":
        """Validate a parsed spec payload (the TOML/JSON document)."""
        _require_keys(payload, CAMPAIGN_SECTIONS, "campaign spec", source)
        header = payload.get("campaign") or {}
        _require_keys(
            header, ("name", "description"), "[campaign]", source
        )
        name = header.get("name")
        if not isinstance(name, str) or not name:
            raise CampaignSpecError(
                f"[campaign] needs a non-empty string 'name'"
                f"{_context(source)}"
            )
        grids = tuple(
            cls._parse_grid(section, index, source)
            for index, section in enumerate(payload.get("grids") or [])
        )
        if not grids:
            raise CampaignSpecError(
                f"campaign {name!r} declares no [[grids]] section"
                f"{_context(source)}"
            )
        seen: set = set()
        for grid in grids:
            if grid.name in seen:
                raise CampaignSpecError(
                    f"duplicate grid name {grid.name!r}{_context(source)}"
                )
            seen.add(grid.name)
        drivers = tuple(
            dict(section) for section in payload.get("drivers") or []
        )
        fits = tuple(
            cls._parse_fit(section, index, {g.name for g in grids}, source)
            for index, section in enumerate(payload.get("fits") or [])
        )
        spec = cls(
            name=name,
            description=str(header.get("description") or ""),
            grids=grids,
            drivers=drivers,
            fits=fits,
            source=source,
        )
        spec.validate()
        return spec

    @staticmethod
    def _parse_grid(
        section: Mapping[str, Any], index: int, source: Optional[str]
    ) -> GridSection:
        where = f"[[grids]] #{index}"
        if not isinstance(section, Mapping):
            raise CampaignSpecError(
                f"{where} must be a table{_context(source)}"
            )
        _require_keys(
            section,
            tuple(GRID_PAYLOAD_KEYS) + GRID_EXTRA_KEYS,
            where,
            source,
        )
        grid_name = section.get("name")
        if not isinstance(grid_name, str) or not grid_name:
            raise CampaignSpecError(
                f"{where} needs a non-empty string 'name'{_context(source)}"
            )
        where = f"grid {grid_name!r}"
        payload = {
            key: section[key] for key in GRID_PAYLOAD_KEYS if key in section
        }
        sizes = payload.get("sizes")
        if isinstance(sizes, Mapping):
            payload["sizes"] = _derived_sizes(sizes, where, source)
        if "repeats" in section:
            if "seeds" in payload:
                raise CampaignSpecError(
                    f"{where} sets both 'seeds' and 'repeats'; pick one"
                    f"{_context(source)}"
                )
            payload["seeds"] = int(section["repeats"])
        order = section.get("order", "default")
        if order not in GRID_ORDERS:
            raise CampaignSpecError(
                f"{where} has unknown order {order!r}; choose from "
                f"{list(GRID_ORDERS)}{_context(source)}"
            )
        # Empty axes are rejected eagerly, with the axis name and spec
        # path in the message (expand_grid would catch them later, but
        # without the file context).
        for axis in ("algorithms", "families", "sizes"):
            if axis in payload and len(payload[axis]) == 0:
                raise CampaignSpecError(
                    f"empty grid axis {axis!r} in {where}{_context(source)}"
                )
        if payload.get("faults") is not None and len(payload["faults"]) == 0:
            raise CampaignSpecError(
                f"empty grid axis 'faults' in {where}{_context(source)}"
            )
        seeds = payload.get("seeds")
        if isinstance(seeds, list) and not seeds:
            raise CampaignSpecError(
                f"empty grid axis 'seeds' in {where}{_context(source)}"
            )
        return GridSection(
            name=grid_name, payload=payload, order=order
        )

    @staticmethod
    def _parse_fit(
        section: Mapping[str, Any],
        index: int,
        grid_names: set,
        source: Optional[str],
    ) -> FitSection:
        where = f"[[fits]] #{index}"
        _require_keys(section, FIT_KEYS, where, source)
        fit_name = section.get("name")
        if not isinstance(fit_name, str) or not fit_name:
            raise CampaignSpecError(
                f"{where} needs a non-empty string 'name'{_context(source)}"
            )
        grid = section.get("grid")
        if grid not in grid_names:
            raise CampaignSpecError(
                f"fit {fit_name!r} references unknown grid {grid!r}; "
                f"declared grids: {sorted(grid_names)}{_context(source)}"
            )
        model = section.get("model", "log")
        if model not in MODELS:
            raise CampaignSpecError(
                f"fit {fit_name!r} has unknown model {model!r}; choose "
                f"from {sorted(MODELS)}{_context(source)}"
            )
        return FitSection(
            name=fit_name,
            grid=grid,
            metric=str(section.get("metric", "max_awake")),
            model=model,
            algorithm=section.get("algorithm"),
            resamples=int(section.get("resamples", 200)),
            confidence=float(section.get("confidence", 0.95)),
            seed=int(section.get("seed", 0)),
        )

    # -- validation / compilation --------------------------------------

    def validate(self) -> None:
        """Validate everything that needs the full registry.

        Grid payloads compile (axis values resolve against the
        orchestrator registries) and driver configs build.  Raises
        :class:`CampaignSpecError` with the spec path in the message.
        """
        from .drivers import build_driver

        for grid in self.grids:
            try:
                grid.specs()
            except ValueError as error:
                raise CampaignSpecError(
                    f"grid {grid.name!r}: {error}{_context(self.source)}"
                ) from error
        for config in self.drivers:
            build_driver(config, source=self.source)

    def compile(self) -> Dict[str, List[JobSpec]]:
        """Compile every grid section to JobSpecs (canonical order)."""
        return {grid.name: grid.specs() for grid in self.grids}

    # -- hashing / serialisation ---------------------------------------

    def payload(self) -> Dict[str, Any]:
        """The canonical content of the spec, as plain JSON types."""
        return {
            "campaign": {"name": self.name, "description": self.description},
            "grids": [grid.to_payload() for grid in self.grids],
            "drivers": [dict(config) for config in self.drivers],
            "fits": [fit.to_payload() for fit in self.fits],
        }

    @property
    def spec_hash(self) -> str:
        """Stable content hash of the spec (not the file bytes — the
        parsed content, so TOML and JSON spellings of the same campaign
        hash identically)."""
        return hashlib.sha256(
            canonical_json(self.payload()).encode()
        ).hexdigest()
