"""Tests for the trace-driven workload generator and scenario presets."""

import numpy as np
import pytest

from repro.serving import (
    SCENARIOS,
    Request,
    RequestClass,
    WorkloadGenerator,
    WorkloadSpec,
    scenario,
)


def simple_spec(**overrides):
    base = dict(
        name="test",
        arrival_process="poisson",
        arrival_rate_rps=2.0,
        classes=(RequestClass(name="only"),),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestSpecValidation:
    def test_needs_a_class(self):
        with pytest.raises(ValueError, match="at least one request class"):
            simple_spec(classes=())

    def test_arrival_process_validated(self):
        with pytest.raises(ValueError, match="unknown arrival_process"):
            simple_spec(arrival_process="uniform")

    def test_rate_and_burst_validated(self):
        with pytest.raises(ValueError, match="arrival_rate_rps"):
            simple_spec(arrival_rate_rps=0.0)
        with pytest.raises(ValueError, match="burst_rate_multiplier"):
            simple_spec(arrival_process="bursty", burst_rate_multiplier=1.0)
        with pytest.raises(ValueError, match="burst_probability"):
            simple_spec(arrival_process="bursty", burst_probability=1.5)

    def test_class_length_ordering_validated(self):
        with pytest.raises(ValueError, match="prompt_min <= prompt_median"):
            RequestClass(name="bad", prompt_min=100, prompt_median=10, prompt_max=200)

    def test_max_kv_tokens(self):
        spec = simple_spec()
        cls = spec.classes[0]
        assert spec.max_kv_tokens() == cls.prompt_max + cls.output_max


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = WorkloadGenerator(simple_spec(), seed=7).generate(20)
        b = WorkloadGenerator(simple_spec(), seed=7).generate(20)
        assert a == b

    def test_different_seed_different_trace(self):
        a = WorkloadGenerator(simple_spec(), seed=7).generate(20)
        b = WorkloadGenerator(simple_spec(), seed=8).generate(20)
        assert a != b

    def test_seeded_arrival_counts_are_stable_statistics(self):
        """200 Poisson arrivals at 2 req/s span ~100 s; the seeded count inside
        the first 50 simulated seconds stays in a tight band."""
        reqs = WorkloadGenerator(simple_spec(), seed=0).generate(200)
        arrivals = np.array([r.arrival_time_s for r in reqs])
        assert np.all(np.diff(arrivals) >= 0)  # sorted
        early = int(np.sum(arrivals <= 50.0))
        assert 70 <= early <= 130  # ~100 expected, generous 3-sigma band

    def test_seeded_length_quantiles(self):
        reqs = WorkloadGenerator(simple_spec(), seed=0).generate(400)
        prompts = np.array([r.prompt_tokens for r in reqs])
        cls = simple_spec().classes[0]
        assert prompts.min() >= cls.prompt_min
        assert prompts.max() <= cls.prompt_max
        # Lognormal median within 15% of the configured median.
        median = float(np.median(prompts))
        assert 0.85 * cls.prompt_median <= median <= 1.15 * cls.prompt_median

    def test_bursty_arrivals_cluster(self):
        """Bursty gaps have a higher coefficient of variation than Poisson."""
        poisson = WorkloadGenerator(simple_spec(), seed=1).generate(500)
        bursty = WorkloadGenerator(
            simple_spec(arrival_process="bursty", burst_rate_multiplier=10.0,
                        burst_probability=0.2),
            seed=1,
        ).generate(500)

        def cv(reqs):
            gaps = np.diff([0.0] + [r.arrival_time_s for r in reqs])
            return float(np.std(gaps) / np.mean(gaps))

        assert cv(bursty) > cv(poisson)

    def test_mean_rate_preserved_under_bursts(self):
        bursty = WorkloadGenerator(
            simple_spec(arrival_process="bursty"), seed=3
        ).generate(2_000)
        mean_gap = bursty[-1].arrival_time_s / len(bursty)
        assert mean_gap == pytest.approx(1.0 / 2.0, rel=0.15)


class TestGeneratedRequests:
    def test_request_shape(self):
        reqs = WorkloadGenerator(simple_spec(), seed=0).generate(5)
        assert all(isinstance(r, Request) for r in reqs)
        assert [r.request_id for r in reqs] == [f"test-{i}" for i in range(5)]
        assert all(r.prompt_token_ids is None for r in reqs)

    def test_token_ids_do_not_perturb_trace_structure(self):
        """Regression: the same (spec, seed) pair must yield the same arrivals
        and lengths whether or not token ids are attached, so length-only
        cost-model traces stay comparable to real-backend traces."""
        plain = WorkloadGenerator(simple_spec(), seed=9).generate(30)
        with_ids = WorkloadGenerator(simple_spec(), seed=9).generate(
            30, with_token_ids=True, vocab_size=101
        )
        for a, b in zip(plain, with_ids):
            assert (a.arrival_time_s, a.prompt_tokens, a.max_new_tokens, a.priority) == (
                b.arrival_time_s, b.prompt_tokens, b.max_new_tokens, b.priority
            )

    def test_with_token_ids(self):
        reqs = WorkloadGenerator(simple_spec(), seed=0).generate(
            5, with_token_ids=True, vocab_size=101
        )
        for r in reqs:
            assert len(r.prompt_token_ids) == r.prompt_tokens
            assert max(r.prompt_token_ids) < 101

    def test_priority_mixture(self):
        spec = simple_spec(
            classes=(
                RequestClass(name="fg", weight=1.0, priority=0),
                RequestClass(name="bg", weight=1.0, priority=2),
            )
        )
        reqs = WorkloadGenerator(spec, seed=0).generate(100)
        priorities = {r.priority for r in reqs}
        assert priorities == {0, 2}

    def test_requests_are_named_by_the_spec(self):
        """Requests are named after the spec."""
        spec = simple_spec()
        reqs = WorkloadGenerator(spec, seed=0).generate(2)
        assert [r.request_id for r in reqs] == [f"{spec.name}-0", f"{spec.name}-1"]

    def test_n_requests_validated(self):
        with pytest.raises(ValueError, match="n_requests"):
            WorkloadGenerator(simple_spec()).generate(0)


class TestScenarioPresets:
    def test_presets_exist(self):
        assert set(SCENARIOS) == {
            "chat",
            "long_document_qa",
            "shared_prefix",
            "mixed_agentic",
        }

    def test_scenario_accessor(self):
        assert scenario("chat") is SCENARIOS["chat"]
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("nope")

    def test_presets_generate(self):
        for name, spec in SCENARIOS.items():
            reqs = WorkloadGenerator(spec, seed=0).generate(10)
            assert len(reqs) == 10
            assert all(r.prompt_tokens >= 1 for r in reqs)

    def test_mixed_agentic_has_two_priority_classes(self):
        reqs = WorkloadGenerator(scenario("mixed_agentic"), seed=0).generate(200)
        assert {r.priority for r in reqs} == {0, 1}

    def test_long_document_qa_is_long_context(self):
        reqs = WorkloadGenerator(scenario("long_document_qa"), seed=0).generate(50)
        assert min(r.prompt_tokens for r in reqs) >= 16_384


class TestZipfTenantSkew:
    def shared_spec(self, alpha):
        return simple_spec(
            classes=(
                RequestClass(
                    name="tenants",
                    shared_prefix_tokens=64,
                    shared_prefix_pool=8,
                    shared_prefix_zipf_alpha=alpha,
                    prompt_median=128,
                    prompt_min=96,
                    prompt_max=256,
                ),
            )
        )

    @staticmethod
    def tenant_counts(requests):
        prefixes = {}
        for r in requests:
            prefixes.setdefault(r.prompt_token_ids[:64], 0)
            prefixes[r.prompt_token_ids[:64]] += 1
        return sorted(prefixes.values(), reverse=True)

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="shared_prefix_zipf_alpha"):
            RequestClass(
                name="bad",
                shared_prefix_tokens=16,
                prompt_min=32,
                shared_prefix_zipf_alpha=-0.5,
            )

    def test_zero_alpha_draws_roughly_uniform(self):
        requests = WorkloadGenerator(self.shared_spec(0.0), seed=3).generate(
            400, with_token_ids=True
        )
        counts = self.tenant_counts(requests)
        assert len(counts) == 8
        assert counts[0] < 2 * counts[-1]  # no tenant dominates

    def test_high_alpha_concentrates_on_hot_tenants(self):
        requests = WorkloadGenerator(self.shared_spec(2.0), seed=3).generate(
            400, with_token_ids=True
        )
        counts = self.tenant_counts(requests)
        # The hottest tenant takes the majority of the traffic under alpha=2.
        assert counts[0] > 200
        assert counts[0] > 5 * counts[2]

    def test_skewed_draw_is_deterministic(self):
        a = WorkloadGenerator(self.shared_spec(1.5), seed=9).generate(
            50, with_token_ids=True
        )
        b = WorkloadGenerator(self.shared_spec(1.5), seed=9).generate(
            50, with_token_ids=True
        )
        assert [r.prompt_token_ids for r in a] == [r.prompt_token_ids for r in b]

    def test_trace_structure_unchanged_by_alpha(self):
        uniform = WorkloadGenerator(self.shared_spec(0.0), seed=5).generate(40)
        skewed = WorkloadGenerator(self.shared_spec(3.0), seed=5).generate(40)
        assert [r.arrival_time_s for r in uniform] == [r.arrival_time_s for r in skewed]
        assert [r.prompt_tokens for r in uniform] == [r.prompt_tokens for r in skewed]
