"""JobSpec content hashing, grid expansion, and single-job execution."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.orchestrator import (
    JobSpec,
    canonical_json,
    execute_job,
    expand_grid,
    grid_from_payload,
    grid_key,
)
from repro.problems import MST_BUNDLE


class TestJobSpec:
    def test_aliases_resolve_to_canonical(self):
        spec = JobSpec.create("randomized", "ring", 8, 0)
        assert spec.algorithm == "Randomized-MST"
        assert MST_BUNDLE.resolve_algorithm("DETERMINISTIC") == "Deterministic-MST"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            JobSpec.create("Quantum-MST", "ring", 8, 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            JobSpec.create("randomized", "hypercube", 8, 0)

    def test_key_is_stable_and_content_addressed(self):
        spec = JobSpec.create("randomized", "ring", 16, 3, id_range=160)
        again = JobSpec.create("Randomized-MST", "ring", 16, 3, id_range=160)
        assert spec.key == again.key
        expected = hashlib.sha256(
            canonical_json(spec.payload()).encode()
        ).hexdigest()
        assert spec.key == expected

    def test_key_distinguishes_every_field(self):
        base = JobSpec.create("randomized", "ring", 16, 0)
        variants = [
            JobSpec.create("traditional", "ring", 16, 0),
            JobSpec.create("randomized", "path", 16, 0),
            JobSpec.create("randomized", "ring", 32, 0),
            JobSpec.create("randomized", "ring", 16, 1),
            JobSpec.create("randomized", "ring", 16, 0, id_range=64),
            JobSpec.create(
                "randomized", "ring", 16, 0, options={"termination": "fixed"}
            ),
        ]
        keys = {spec.key for spec in variants} | {base.key}
        assert len(keys) == len(variants) + 1

    def test_round_trips_through_dict(self):
        spec = JobSpec.create(
            "deterministic", "gnp", 16, 2, options={"coloring": "log-star"}
        )
        clone = JobSpec.from_dict(json.loads(canonical_json(spec.to_dict())))
        assert clone == spec
        assert clone.key == spec.key


class TestExpandGrid:
    def test_shape_and_order(self):
        specs = expand_grid(
            ["randomized", "traditional"], ["ring", "path"], [8, 16], [0, 1]
        )
        assert len(specs) == 2 * 2 * 2 * 2
        # family-major, then size, seed, algorithm (the historical order).
        assert specs[0].family == "ring" and specs[0].n == 8
        assert specs[0].algorithm == "Randomized-MST"
        assert specs[1].algorithm == "Traditional-GHS"

    def test_id_range_factor(self):
        (spec,) = expand_grid(["randomized"], ["ring"], [8], [0], id_range_factor=10)
        assert spec.id_range == 80

    def test_grid_key_depends_on_content(self):
        grid_a = expand_grid(["randomized"], ["ring"], [8], [0])
        grid_b = expand_grid(["randomized"], ["ring"], [8], [1])
        assert grid_key(grid_a) != grid_key(grid_b)
        assert grid_key(grid_a) == grid_key(expand_grid(["randomized"], ["ring"], [8], [0]))


class TestExecuteJob:
    def test_metrics_record(self):
        spec = JobSpec.create("randomized", "ring", 8, 0)
        metrics = execute_job(spec)
        assert metrics["algorithm"] == "Randomized-MST"
        assert metrics["family"] == "ring"
        assert metrics["n"] == 8 and metrics["m"] == 8
        assert metrics["correct"] is True
        assert metrics["max_awake"] > 0 and metrics["rounds"] > 0

    def test_options_forwarded_to_runner(self):
        fixed = execute_job(
            JobSpec.create(
                "randomized", "ring", 8, 0, options={"termination": "fixed"}
            )
        )
        adaptive = execute_job(JobSpec.create("randomized", "ring", 8, 0))
        assert fixed["correct"] and adaptive["correct"]
        # The fixed schedule runs the paper's full phase budget.
        assert fixed["phases"] >= adaptive["phases"]

    def test_crashing_diagnostic_raises(self):
        with pytest.raises(RuntimeError, match="Crashing-MST always fails"):
            execute_job(JobSpec.create("crashing", "ring", 8, 0))


class TestGridFromPayload:
    """The JSON grid schema shared by batch --spec and POST /jobs."""

    def test_expands_like_expand_grid(self):
        payload = {
            "algorithms": ["randomized"],
            "families": ["ring", "gnp"],
            "sizes": [8, 16],
            "seeds": 2,
        }
        specs = grid_from_payload(payload)
        expected = expand_grid(["randomized"], ["ring", "gnp"], [8, 16], [0, 1])
        assert [spec.key for spec in specs] == [spec.key for spec in expected]

    def test_seed_list_and_int_are_equivalent(self):
        base = {"algorithms": ["randomized"], "families": ["ring"], "sizes": [8]}
        by_count = grid_from_payload({**base, "seeds": 2})
        by_list = grid_from_payload({**base, "seeds": [0, 1]})
        assert [s.key for s in by_count] == [s.key for s in by_list]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown grid keys"):
            grid_from_payload(
                {"algorithms": ["randomized"], "families": ["ring"],
                 "sizes": [8], "sizzes": [8]}
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            grid_from_payload({"algorithms": [], "families": [], "sizes": []})
        with pytest.raises(ValueError, match="seed"):
            grid_from_payload(
                {"algorithms": ["randomized"], "families": ["ring"],
                 "sizes": [8], "seeds": 0}
            )

    def test_empty_axis_error_names_the_axis(self):
        base = {
            "algorithms": ["randomized"], "families": ["ring"], "sizes": [8]
        }
        for axis in ("algorithms", "families", "sizes"):
            with pytest.raises(ValueError, match=f"empty grid axis '{axis}'"):
                grid_from_payload({**base, axis: []})
        with pytest.raises(ValueError, match="empty grid axis 'seeds'"):
            grid_from_payload({**base, "seeds": []})

    def test_expand_grid_empty_axis_error_names_the_axis(self):
        for index, axis in enumerate(
            ("algorithms", "families", "sizes", "seeds")
        ):
            axes = [["randomized"], ["ring"], [8], [0]]
            axes[index] = []
            with pytest.raises(ValueError, match=f"empty grid axis '{axis}'"):
                expand_grid(*axes)
        with pytest.raises(ValueError, match="empty grid axis 'faults'"):
            expand_grid(["randomized"], ["ring"], [8], [0], faults=[])

    def test_fault_and_monitor_axes_forwarded(self):
        payload = {
            "algorithms": ["randomized"],
            "families": ["ring"],
            "sizes": [8],
            "seeds": 1,
            "faults": ["perfect", "drop:0.05"],
            "monitors": "all",
        }
        specs = grid_from_payload(payload)
        assert len(specs) == 2
        options = [dict(spec.options) for spec in specs]
        assert "faults" not in options[0]  # perfect channel stays hash-stable
        assert options[1]["faults"] == "drop:0.05"
        assert all("monitors" in opts for opts in options)


class TestSpecOptions:
    """A spec carries only options its algorithm's runner accepts."""

    BASE = {"families": ["gnp"], "sizes": [16], "seeds": [1]}

    @pytest.mark.parametrize(
        "payload, option, algorithm",
        [
            (
                {"algorithms": ["mis"], "problem": "mis",
                 "options": {"termination": "fixed"}},
                "termination",
                "Sleeping-MIS",
            ),
            (
                {"algorithms": ["randomized"],
                 "options": {"coloring": "log-star"}},
                "coloring",
                "Randomized-MST",
            ),
            ({"algorithms": ["randomized"], "options": {"bogus": 1}},
             "bogus", "Randomized-MST"),
        ],
    )
    def test_unknown_option_rejected_at_expansion(self, payload, option, algorithm):
        with pytest.raises(ValueError) as excinfo:
            grid_from_payload({**self.BASE, **payload})
        message = str(excinfo.value)
        assert f"unknown option {option!r} for {algorithm}" in message
        # The accepted set is named too.
        assert "accepted: [" in message and "'max_phases'" in message

    def test_every_unknown_option_is_named(self):
        with pytest.raises(ValueError, match="unknown options 'a', 'b' for"):
            JobSpec.create("randomized", "ring", 8, 0, options={"b": 1, "a": 2})

    @pytest.mark.parametrize(
        "algorithm, problem, options",
        [
            ("randomized", None, {"termination": "fixed"}),
            ("deterministic", None, {"coloring": "log-star"}),
            ("logstar", None, {"verify": True}),
            ("traditional", None, {"max_phases": 20}),
            ("pipelined", None, {"termination": "adaptive"}),
            ("mis", "mis", {"max_phases": 2}),
            ("randomized", None, {"strict_congest": False}),
        ],
    )
    def test_accepted_option_runs(self, algorithm, problem, options):
        spec = JobSpec.create(
            algorithm, "gnp", 12, 1, options=options, problem=problem
        )
        assert execute_job(spec)["correct"] is True

    def test_simulator_options_match_the_simulator(self):
        import inspect

        from repro.problems import SIMULATOR_OPTIONS
        from repro.sim import SleepingSimulator

        keywords = {
            name
            for name, parameter in inspect.signature(
                SleepingSimulator.__init__
            ).parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY
        }
        assert SIMULATOR_OPTIONS == (
            keywords - {"seed", "channel", "obs_registry"}
        ) | {"faults"}

    def test_a_bundle_declares_every_algorithms_options(self):
        from repro.problems import ProblemBundle

        with pytest.raises(ValueError, match=r"declares no options for \['B'\]"):
            ProblemBundle(
                name="undeclared", algorithms={"A": print, "B": print},
                aliases={}, default_algorithm="A", check_label="c",
                options={"A": frozenset()},
            )
