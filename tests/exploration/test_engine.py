"""The parallel candidate-evaluation engine: determinism matrix and cache.

The engine's contract: the ranking and every result hash are a pure
function of the candidate specs — independent of worker count, completion
order and cache temperature.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ExplorationError
from repro.exploration import (
    CandidateSpec,
    EvaluationResult,
    ResultCache,
    builder_ref,
    evaluate_spec,
    mapping_sweep_specs,
    run_candidates,
)
from repro.faults import fault_sweep_specs
from repro.uml.semantics import SEMANTICS_VERSION

from tests.conftest import build_pingpong, build_two_cpu_platform


def pingpong_factory():
    """Module-level (importable by name) builder for worker processes."""
    return build_pingpong(), build_two_cpu_platform()


def fault_free_specs():
    return mapping_sweep_specs(pingpong_factory, duration_us=3_000)


def fault_campaign_specs():
    return fault_sweep_specs((1, 2), fault_rate=0.08, duration_us=10_000)


def result_hashes(run):
    return [outcome.result.stable_hash() for outcome in run.ranking()]


class TestDeterminismMatrix:
    """Identical hashes for workers in {0, 1, 4} and repeated runs."""

    @pytest.mark.parametrize("workers", [0, 1, 4])
    @pytest.mark.parametrize(
        "make_specs", [fault_free_specs, fault_campaign_specs],
        ids=["fault-free", "fault-campaign"],
    )
    def test_workers_do_not_change_results(self, workers, make_specs):
        baseline = run_candidates(make_specs(), workers=0)
        run = run_candidates(make_specs(), workers=workers)
        assert result_hashes(run) == result_hashes(baseline)
        assert [o.spec.sort_key() for o in run.ranking()] == [
            o.spec.sort_key() for o in baseline.ranking()
        ]

    def test_repeated_run_same_seed_identical(self):
        first = run_candidates(fault_campaign_specs(), workers=0)
        second = run_candidates(fault_campaign_specs(), workers=0)
        assert result_hashes(first) == result_hashes(second)
        # the campaign actually injected something, so this is a real check
        assert any(o.result.fault_injected > 0 for o in first.outcomes)

    def test_ranking_is_stable_under_cost_ties(self):
        # pingpong on two identical CPUs: mirrored assignments tie on cost;
        # the spec sort key must break the tie the same way every run
        run_a = run_candidates(fault_free_specs(), workers=0)
        run_b = run_candidates(fault_free_specs(), workers=4)
        labels_a = [o.spec.mapping_dict for o in run_a.ranking()]
        labels_b = [o.spec.mapping_dict for o in run_b.ranking()]
        assert labels_a == labels_b
        costs = [o.cost for o in run_a.ranking()]
        assert costs == sorted(costs)


class TestCache:
    def test_second_run_evaluates_nothing(self, tmp_path):
        cache_dir = str(tmp_path)
        cold = run_candidates(fault_free_specs(), workers=0, cache_dir=cache_dir)
        warm = run_candidates(fault_free_specs(), workers=2, cache_dir=cache_dir)
        assert cold.evaluated == len(cold.outcomes)
        assert warm.evaluated == 0
        assert warm.cache_hits == len(warm.outcomes)
        assert result_hashes(warm) == result_hashes(cold)

    def test_cache_roundtrip_preserves_result(self, tmp_path):
        spec = fault_free_specs()[0]
        result = evaluate_spec(spec)
        cache = ResultCache(str(tmp_path))
        cache.store(spec, result, 0.25)
        loaded, elapsed = cache.load(spec)
        assert loaded == result
        assert loaded.stable_hash() == result.stable_hash()
        assert elapsed == 0.25

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = fault_free_specs()[0]
        cache = ResultCache(str(tmp_path))
        path = cache.store(spec, evaluate_spec(spec), 0.1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.load(spec) is None

    def test_entry_of_another_semantics_version_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path)
        specs = fault_free_specs()
        cold = run_candidates(specs, workers=0, cache_dir=cache_dir)
        cache = ResultCache(cache_dir)
        stale, unversioned = specs[0], specs[1]
        for spec, rewrite in (
            (stale, lambda entry: entry.update(semantics=SEMANTICS_VERSION + 1)),
            (unversioned, lambda entry: entry.pop("semantics")),
        ):
            path = cache.path_for(spec.digest())
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
            assert entry["semantics"] == SEMANTICS_VERSION
            rewrite(entry)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            assert cache.load(spec) is None
        warm = run_candidates(specs, workers=0, cache_dir=cache_dir)
        assert sorted(o.index for o in warm.outcomes if not o.cached) == [0, 1]
        assert result_hashes(warm) == result_hashes(cold)
        assert [o.spec.digest() for o in warm.ranking()] == [
            o.spec.digest() for o in cold.ranking()
        ]
        # the re-evaluated entries were overwritten under this version
        for spec in (stale, unversioned):
            with open(cache.path_for(spec.digest()), encoding="utf-8") as handle:
                assert json.load(handle)["semantics"] == SEMANTICS_VERSION
        assert run_candidates(specs, workers=0, cache_dir=cache_dir).evaluated == 0

    def test_digest_is_content_addressed(self):
        specs = fault_free_specs()
        assert specs[0].digest() != specs[1].digest()
        # label is presentation-only: must not change the digest
        relabelled = CandidateSpec.make(
            specs[0].builder,
            specs[0].mapping_dict,
            duration_us=specs[0].duration_us,
            label="renamed",
        )
        assert relabelled.digest() == specs[0].digest()
        # but the horizon is part of the content
        longer = CandidateSpec.make(
            specs[0].builder, specs[0].mapping_dict, duration_us=9_999
        )
        assert longer.digest() != specs[0].digest()

    def test_cache_layout_is_sharded_json(self, tmp_path):
        spec = fault_free_specs()[0]
        cache = ResultCache(str(tmp_path))
        path = cache.store(spec, evaluate_spec(spec), 0.0)
        digest = spec.digest()
        assert path == os.path.join(str(tmp_path), digest[:2], digest + ".json")
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["digest"] == digest
        assert entry["spec"]["mapping"] == spec.mapping_dict


class TestSerialFallback:
    def test_lambda_builder_runs_serially(self):
        factory = lambda: (build_pingpong(), build_two_cpu_platform())  # noqa: E731
        assert builder_ref(factory) is None
        spec = CandidateSpec.make(factory, {"g1": "cpu1", "g2": "cpu1"})
        run = run_candidates([spec], workers=0)
        assert run.outcomes[0].result.bus_bytes == 0

    def test_lambda_builder_rejected_for_workers(self):
        factory = lambda: (build_pingpong(), build_two_cpu_platform())  # noqa: E731
        spec = CandidateSpec.make(factory, {"g1": "cpu1", "g2": "cpu1"})
        with pytest.raises(ExplorationError):
            run_candidates([spec], workers=2)

    def test_lambda_builder_not_cacheable(self, tmp_path):
        factory = lambda: (build_pingpong(), build_two_cpu_platform())  # noqa: E731
        spec = CandidateSpec.make(factory, {"g1": "cpu1", "g2": "cpu1"})
        run = run_candidates([spec], workers=0, cache_dir=str(tmp_path))
        assert run.evaluated == 1
        assert len(ResultCache(str(tmp_path))) == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ExplorationError):
            run_candidates([], workers=-1)


class TestRunSummary:
    def test_progress_records_and_json_summary(self):
        seen = []

        def progress(outcome, done, total):
            seen.append((outcome.index, done, total, outcome.elapsed_s))

        run = run_candidates(fault_free_specs(), workers=0, progress=progress)
        assert len(seen) == len(run.outcomes)
        assert [done for _, done, _, _ in seen] == list(
            range(1, len(run.outcomes) + 1)
        )
        assert all(elapsed > 0 for _, _, _, elapsed in seen)

        summary = run.to_json_dict(top=2)
        assert summary["evaluated"] == len(run.outcomes)
        assert summary["cache_hits"] == 0
        assert len(summary["ranking"]) == 2
        assert summary["ranking"][0]["rank"] == 1
        # per-candidate timing records cover every submitted candidate
        assert len(summary["records"]) == len(run.outcomes)
        assert all("elapsed_s" in record for record in summary["records"])

    def test_fault_results_carry_ledger(self):
        run = run_candidates(fault_campaign_specs(), workers=0)
        for outcome in run.outcomes:
            result = outcome.result
            assert result.fault_injected >= result.fault_detected
            assert result.fault_residual == (
                result.fault_detected - result.fault_recovered
            )
