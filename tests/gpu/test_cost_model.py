"""Tests for the system cost model and latency simulator."""

import pytest

from repro.baselines.systems import (
    duo_attention_policy,
    lserve_policy,
    lserve_static_only_policy,
    minference_policy,
    qserve_policy,
    quest_policy,
    vllm_policy,
)
from repro.gpu.cost_model import SystemCostModel
from repro.gpu.device import A100_80G, L40S_48G
from repro.gpu.simulator import LatencySimulator, OutOfMemoryError
from repro.model.configs import LLAMA_2_7B, LLAMA_3_8B


def cost(policy, model=LLAMA_3_8B, device=A100_80G) -> SystemCostModel:
    return SystemCostModel(model, device, policy)


class TestDecodeCostModel:
    def test_lserve_faster_than_vllm_at_long_context(self):
        ctx = 262_144
        lserve = cost(lserve_policy()).decode_step_latency(ctx)
        vllm = cost(vllm_policy()).decode_step_latency(ctx)
        assert 1.2 < vllm / lserve < 8.0

    def test_speedup_grows_with_context(self):
        lserve = cost(lserve_policy())
        vllm = cost(vllm_policy())
        ratios = [
            vllm.decode_step_latency(ctx) / lserve.decode_step_latency(ctx)
            for ctx in (65_536, 131_072, 262_144)
        ]
        assert ratios == sorted(ratios)

    def test_lserve_attention_constant_beyond_budget(self):
        lserve = cost(lserve_policy())
        a1 = lserve.decode_attention_latency(65_536)
        a2 = lserve.decode_attention_latency(262_144)
        assert a2 == pytest.approx(a1, rel=0.05)

    def test_dense_attention_linear_in_context(self):
        vllm = cost(vllm_policy())
        a1 = vllm.decode_attention_latency(65_536)
        a2 = vllm.decode_attention_latency(131_072)
        assert 1.8 < a2 / a1 < 2.2

    def test_mha_model_benefits_more(self):
        """Llama-2 (MHA) has 4x the KV traffic of Llama-3 (GQA), so sparsity helps more."""
        def speedup(model):
            return (
                cost(vllm_policy(), model).decode_step_latency(131_072)
                / cost(lserve_policy(), model).decode_step_latency(131_072)
            )
        assert speedup(LLAMA_2_7B) > speedup(LLAMA_3_8B)

    def test_selector_amortised_by_reuse_interval(self):
        with_reuse = cost(lserve_policy(reuse_interval=4)).selector_latency(262_144)
        without = cost(lserve_policy(reuse_interval=1)).selector_latency(262_144)
        assert without / with_reuse == pytest.approx(4.0, rel=0.01)

    def test_selector_disabled_below_budget(self):
        assert cost(lserve_policy()).selector_latency(2048) == 0.0

    def test_static_only_between_dense_and_full_lserve(self):
        ctx = 262_144
        dense = cost(qserve_policy()).decode_attention_latency(ctx)
        static = cost(lserve_static_only_policy()).decode_attention_latency(ctx)
        full = cost(lserve_policy()).decode_attention_latency(ctx)
        assert full < static < dense

    def test_breakdown_sums(self):
        bd = cost(lserve_policy()).decode_step_breakdown(131_072)
        assert bd.total_s == pytest.approx(
            bd.attention_s + bd.gemm_s + bd.selector_s + bd.other_s
        )
        assert 0 < bd.attention_fraction < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            cost(vllm_policy()).decode_step_breakdown(-1)
        with pytest.raises(ValueError):
            cost(vllm_policy()).prefill_breakdown(0)


class TestPrefillCostModel:
    def test_lserve_faster_than_vllm(self):
        seq = 131_072
        lserve = cost(lserve_policy()).prefill_latency(seq)
        vllm = cost(vllm_policy()).prefill_latency(seq)
        assert 1.2 < vllm / lserve < 4.0

    def test_attention_dominates_at_long_context(self):
        """Fig. 2: attention is >50% of prefill beyond 64K, ~75% at 128K."""
        bd = cost(vllm_policy()).prefill_breakdown(131_072)
        assert bd.attention_fraction > 0.5
        short = cost(vllm_policy()).prefill_breakdown(8_192)
        assert short.attention_fraction < bd.attention_fraction

    def test_minference_sparsity_helps_prefill(self):
        seq = 262_144
        minf = cost(minference_policy()).prefill_latency(seq)
        vllm = cost(vllm_policy()).prefill_latency(seq)
        assert minf < vllm

    def test_quadratic_attention_scaling(self):
        vllm = cost(vllm_policy())
        a1 = vllm.prefill_attention_latency(65_536)
        a2 = vllm.prefill_attention_latency(131_072)
        assert 3.5 < a2 / a1 < 4.5


class TestMemoryModel:
    def test_vllm_kv_larger_than_lserve(self):
        ctx = 262_144
        assert cost(vllm_policy()).kv_memory_bytes(ctx) > cost(lserve_policy()).kv_memory_bytes(ctx)

    def test_mha_kv_larger_than_gqa(self):
        ctx = 131_072
        assert (
            cost(vllm_policy(), LLAMA_2_7B).kv_memory_bytes(ctx)
            > cost(vllm_policy(), LLAMA_3_8B).kv_memory_bytes(ctx)
        )

    def test_llama3_fp16_kv_bytes_per_token(self):
        """FP16 KV for Llama-3-8B is 128 KB per token (2 * 32 * 1024 * 2 bytes)."""
        per_token = cost(vllm_policy()).kv_memory_bytes(1)
        assert per_token == pytest.approx(131072, rel=0.01)

    def test_oom_on_l40s_for_mha_long_context(self):
        sim = LatencySimulator(LLAMA_2_7B, L40S_48G, vllm_policy())
        with pytest.raises(OutOfMemoryError):
            sim.decode_step_latency(262_144, batch=2)

    def test_lserve_fits_where_vllm_does_not(self):
        ctx, batch = 262_144, 4
        vllm = cost(vllm_policy(), LLAMA_3_8B, A100_80G)
        lserve = cost(lserve_policy(), LLAMA_3_8B, A100_80G)
        assert not vllm.fits_in_memory(ctx, batch)
        assert lserve.fits_in_memory(ctx, batch)


class TestLatencySimulator:
    def test_generation_estimate(self):
        sim = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        est = sim.generation_estimate(prompt_tokens=65_536, output_tokens=512)
        assert est.prefill_s > 0
        assert est.decode_steps == 512
        assert est.total_s == pytest.approx(est.prefill_s + est.decode_s)
        assert est.decode_throughput_tokens_s > 0

    def test_decode_throughput_decreases_with_context_for_dense(self):
        sim = LatencySimulator(LLAMA_3_8B, A100_80G, vllm_policy())
        assert sim.decode_throughput(32_768) > sim.decode_throughput(262_144)

    def test_memory_check_can_be_disabled(self):
        sim = LatencySimulator(LLAMA_2_7B, L40S_48G, vllm_policy(), check_memory=False)
        assert sim.decode_step_latency(262_144, batch=2) > 0

    def test_generation_estimate_validation(self):
        sim = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        with pytest.raises(ValueError):
            sim.generation_estimate(0, 10)

    def test_quest_vs_lserve_table5_direction(self):
        """Table 5: LServe beats Quest in both stages on Llama-2-7B."""
        quest = LatencySimulator(LLAMA_2_7B, A100_80G, quest_policy())
        lserve = LatencySimulator(LLAMA_2_7B, A100_80G, lserve_policy())
        for seq in (8_192, 32_768):
            assert lserve.prefill_latency(seq) < quest.prefill_latency(seq)
            assert lserve.decode_step_latency(seq) < quest.decode_step_latency(seq)

    def test_duoattention_slower_than_lserve_decode(self):
        duo = LatencySimulator(LLAMA_3_8B, A100_80G, duo_attention_policy())
        lserve = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        assert lserve.decode_step_latency(262_144) < duo.decode_step_latency(262_144)
