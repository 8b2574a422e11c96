"""Campaign spec loading, validation, and golden-pinned compilation."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec, CampaignSpecError
from repro.orchestrator import JobSpec, expand_grid, grid_key

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CI_SPEC = REPO_ROOT / "examples" / "campaigns" / "ci.toml"
COMPARE_SPEC = REPO_ROOT / "examples" / "campaigns" / "compare.toml"
CROSSOVER_SPEC = REPO_ROOT / "examples" / "campaigns" / "crossover.toml"

#: Pinned content hash of the committed CI spec's "awake" grid.  Moves
#: only if the JobSpec hashing scheme or the committed grid changes —
#: both of which invalidate every cached result, so this should move
#: deliberately.
SMOKE_GRID_KEY = (
    "6ef2a35723a2fd590b99c400e57ae2f10992edb3b6a8579a5014523f70a5d02e"
)


def load_toml_spec(path):
    """Load a ``.toml`` spec; skips where ``tomllib`` (3.11+) is missing."""
    pytest.importorskip("tomllib")
    return CampaignSpec.load(path)


def minimal_payload(**overrides):
    payload = {
        "campaign": {"name": "t"},
        "grids": [
            {
                "name": "g",
                "algorithms": ["randomized"],
                "families": ["ring"],
                "sizes": [8],
                "seeds": 1,
            }
        ],
    }
    payload.update(overrides)
    return payload


class TestCommittedSpecs:
    def test_smoke_spec_compiles_to_golden_grid(self):
        spec = load_toml_spec(CI_SPEC)
        grids = spec.compile()
        assert grid_key(grids["awake"]) == SMOKE_GRID_KEY

    def test_smoke_grid_matches_hand_rolled_expand_grid(self):
        spec = load_toml_spec(CI_SPEC)
        hand = expand_grid(
            ["randomized"], ["ring"], [8, 16], [0, 1], monitors="all"
        )
        assert [job.key for job in spec.compile()["awake"]] == [
            job.key for job in hand
        ]

    def test_compare_grids_match_hand_built_job_specs(self):
        # PROBLEMS_compare.json's cells were keyed by these exact specs;
        # the campaign must hash every one of them identically.
        grids = load_toml_spec(COMPARE_SPEC).compile()
        cells = [(n, seed) for n in (64, 256, 1024) for seed in (0, 1, 2)]
        mst = [
            JobSpec.create(
                "Randomized-MST", "gnp", n, seed, options={"engine": "array"}
            )
            for n, seed in cells
        ]
        mis = [
            JobSpec.create("Sleeping-MIS", "gnp", n, seed, problem="mis")
            for n, seed in cells
        ]
        assert [job.key for job in grids["mst"]] == [job.key for job in mst]
        assert [job.key for job in grids["mis"]] == [job.key for job in mis]

    def test_crossover_spec_validates(self):
        spec = load_toml_spec(CROSSOVER_SPEC)
        assert {grid.name for grid in spec.grids} == {
            "mst-curve", "mis-curve"
        }
        assert {config["kind"] for config in spec.drivers} == {
            "bisect", "threshold"
        }
        assert len(spec.fits) == 2

    def test_derived_sizes_expand_to_doublings(self):
        spec = load_toml_spec(CROSSOVER_SPEC)
        mst = next(grid for grid in spec.grids if grid.name == "mst-curve")
        assert mst.payload["sizes"] == [16, 32, 64, 128, 256]


class TestValidation:
    def test_json_and_toml_content_hash_identically(self, tmp_path):
        toml_spec = load_toml_spec(CI_SPEC)
        json_path = tmp_path / "ci.json"
        json_path.write_text(json.dumps(toml_spec.payload()))
        assert CampaignSpec.load(json_path).spec_hash == toml_spec.spec_hash

    def test_error_names_the_spec_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text(
            '[campaign]\nname = "bad"\n'
            '[[grids]]\nname = "g"\nalgorithms = []\n'
            'families = ["ring"]\nsizes = [8]\n'
        )
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.load(path)
        message = str(excinfo.value)
        assert "empty grid axis 'algorithms'" in message
        assert str(path) in message

    def test_empty_seed_list_rejected_with_path(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text(
            '[campaign]\nname = "bad"\n'
            '[[grids]]\nname = "g"\nalgorithms = ["randomized"]\n'
            'families = ["ring"]\nsizes = [8]\nseeds = []\n'
        )
        with pytest.raises(
            CampaignSpecError, match="empty grid axis 'seeds'"
        ) as excinfo:
            CampaignSpec.load(path)
        assert str(path) in str(excinfo.value)

    def test_unparseable_file_names_the_spec_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text("[campaign\n")
        with pytest.raises(CampaignSpecError, match=str(path)):
            CampaignSpec.load(path)

    def test_missing_name_rejected(self):
        with pytest.raises(CampaignSpecError, match="non-empty string 'name'"):
            CampaignSpec.from_payload(minimal_payload(campaign={}))

    def test_no_grids_rejected(self):
        with pytest.raises(CampaignSpecError, match="no \\[\\[grids\\]\\]"):
            CampaignSpec.from_payload(minimal_payload(grids=[]))

    def test_duplicate_grid_names_rejected(self):
        payload = minimal_payload()
        payload["grids"].append(dict(payload["grids"][0]))
        with pytest.raises(CampaignSpecError, match="duplicate grid name"):
            CampaignSpec.from_payload(payload)

    def test_unknown_grid_key_rejected(self):
        payload = minimal_payload()
        payload["grids"][0]["sizzes"] = [8]
        with pytest.raises(CampaignSpecError, match="sizzes"):
            CampaignSpec.from_payload(payload)

    def test_unknown_algorithm_carries_source(self):
        payload = minimal_payload()
        payload["grids"][0]["algorithms"] = ["nope"]
        with pytest.raises(CampaignSpecError, match="spec.toml"):
            CampaignSpec.from_payload(payload, source="spec.toml")

    def test_seeds_and_repeats_conflict(self):
        payload = minimal_payload()
        payload["grids"][0]["repeats"] = 2
        with pytest.raises(CampaignSpecError, match="both 'seeds' and 'repeats'"):
            CampaignSpec.from_payload(payload)

    def test_repeats_expands_like_integer_seeds(self):
        payload = minimal_payload()
        del payload["grids"][0]["seeds"]
        payload["grids"][0]["repeats"] = 3
        spec = CampaignSpec.from_payload(payload)
        assert [job.seed for job in spec.compile()["g"]] == [0, 1, 2]

    def test_unknown_order_rejected(self):
        payload = minimal_payload()
        payload["grids"][0]["order"] = "sideways"
        with pytest.raises(CampaignSpecError, match="unknown order"):
            CampaignSpec.from_payload(payload)

    def test_fit_must_reference_a_declared_grid(self):
        payload = minimal_payload(
            fits=[{"name": "f", "grid": "ghost"}]
        )
        with pytest.raises(CampaignSpecError, match="unknown grid 'ghost'"):
            CampaignSpec.from_payload(payload)

    def test_fit_model_must_be_registered(self):
        payload = minimal_payload(
            fits=[{"name": "f", "grid": "g", "model": "cubic"}]
        )
        with pytest.raises(CampaignSpecError, match="unknown model 'cubic'"):
            CampaignSpec.from_payload(payload)

    def test_unknown_driver_kind_rejected(self):
        payload = minimal_payload(drivers=[{"kind": "anneal", "name": "d"}])
        with pytest.raises(CampaignSpecError, match="unknown driver kind"):
            CampaignSpec.from_payload(payload)

    def test_derived_sizes_need_base_and_doublings(self):
        payload = minimal_payload()
        payload["grids"][0]["sizes"] = {"base": 8}
        with pytest.raises(CampaignSpecError, match="doublings"):
            CampaignSpec.from_payload(payload)


class TestWithoutTomllib:
    """Python 3.9/3.10 ship no ``tomllib``; only TOML loading needs it."""

    @pytest.fixture
    def spec_module(self, monkeypatch):
        # A fresh copy of repro.campaigns.spec imported while tomllib is
        # unimportable; the shared module stays untouched.
        monkeypatch.setitem(sys.modules, "tomllib", None)
        name = "repro.campaigns._spec_without_tomllib"
        origin = importlib.util.find_spec("repro.campaigns.spec").origin
        loader_spec = importlib.util.spec_from_file_location(name, origin)
        module = importlib.util.module_from_spec(loader_spec)
        monkeypatch.setitem(sys.modules, name, module)
        loader_spec.loader.exec_module(module)
        return module

    def test_json_specs_load_and_toml_specs_name_the_fix(
        self, spec_module, tmp_path
    ):
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(minimal_payload()))
        assert spec_module.CampaignSpec.load(json_path).name == "t"
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text('[campaign]\nname = "t"\n')
        with pytest.raises(spec_module.CampaignSpecError) as excinfo:
            spec_module.CampaignSpec.load(toml_path)
        message = str(excinfo.value)
        assert "Python 3.11+" in message and "JSON" in message
        assert str(toml_path) in message


class TestOrdering:
    def test_shuffled_order_is_deterministic_and_a_permutation(self):
        payload = minimal_payload()
        payload["grids"][0].update({"sizes": [8, 10, 12, 14], "order": "shuffled"})
        spec = CampaignSpec.from_payload(payload)
        grid = spec.grids[0]
        canonical = grid.specs()
        once = grid.execution_order(canonical, spec.name)
        twice = grid.execution_order(canonical, spec.name)
        assert [job.key for job in once] == [job.key for job in twice]
        assert sorted(job.key for job in once) == sorted(
            job.key for job in canonical
        )
        assert [job.key for job in once] != [job.key for job in canonical]

    def test_reversed_order(self):
        payload = minimal_payload()
        payload["grids"][0].update({"sizes": [8, 10], "order": "reversed"})
        grid = CampaignSpec.from_payload(payload).grids[0]
        canonical = grid.specs()
        assert [job.key for job in grid.execution_order(canonical, "t")] == [
            job.key for job in reversed(canonical)
        ]
