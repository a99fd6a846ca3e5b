"""Cold KV tier tests: differential matrix, demote/restore mechanics, leak audits.

The acceptance-critical matrix runs the *same* seeded workload through three
serving configurations — tiering off, ``"offload"`` demotion, and
``"quantized"`` demotion — on the real :class:`LServeBackend`:

* offload demote/restore round trips must be **byte-identical** to an
  unconstrained run (pages come back bit-exact and the reuse-phase selector
  state survives the round trip);
* quantized demotion is lossy by design — its reconstruction error is
  bounded explicitly by the quantizer's worst-case bound (``scale / 2`` per
  group), asserted at the page-image level;
* at a fixed pool size, tiering strictly reduces preemptions (victims are
  parked, not recomputed).

The mechanics half drives the :class:`SimulatedBackend` cost model through
the same scheduler paths and checks the observable surface: decision log,
request-state transitions, per-request restore accounting, live gauges and
Prometheus tier series, abort-while-demoted, and the cold-tier-full fallback
to classic preemption.  Every end-to-end test finishes with the shared
zero-leak audit over both tiers.
"""

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.quantization import quantization_error_bound
from repro.kvcache.tiering import compress_page_images
from repro.model.configs import LLAMA_3_8B
from repro.serving import (
    KVTieringConfig,
    LServeBackend,
    Request,
    RequestStatus,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
)
from tests.conftest import assert_no_leaked_pages
from tests.serving.test_preemption import CONSTRAINED, make_lserve_engine, model  # noqa: F401

UNCONSTRAINED = dict(max_batch_size=4, kv_token_capacity=100_000)


def lserve_serving(model, tiering=None, **sched) -> ServingEngine:
    return ServingEngine(
        LServeBackend(make_lserve_engine(model), tiering=tiering), SchedulerConfig(**sched)
    )


def sim_serving(tiering=None, **sched) -> ServingEngine:
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    return ServingEngine(SimulatedBackend(latency, tiering=tiering), SchedulerConfig(**sched))


def trace(model, n=5, max_new_tokens=24):
    """The seeded differential workload: staggered arrivals, shared geometry."""

    def prompt(seed, length=48):
        return (np.arange(length) * (seed * 2 + 3)) % model.config.vocab_size

    return [
        Request.from_prompt(
            f"r{i}", prompt(i), max_new_tokens=max_new_tokens, arrival_time_s=0.001 * i
        )
        for i in range(n)
    ]


def decision_kinds(engine: ServingEngine) -> set[str]:
    return {entry.split(":")[0] for entry in engine.decision_log}


class TestTieringDifferentialMatrix:
    """One seeded workload, three tiering configurations, one truth."""

    def test_offload_byte_identical_and_fewer_preemptions(self, model):
        free = lserve_serving(model, **UNCONSTRAINED)
        free_metrics = free.run(trace(model))
        assert free_metrics.total_preemptions() == 0

        baseline = lserve_serving(model, **CONSTRAINED)
        baseline_metrics = baseline.run(trace(model))
        assert baseline_metrics.total_preemptions() >= 1

        tiered = lserve_serving(model, tiering=KVTieringConfig(mode="offload"), **CONSTRAINED)
        tiered_metrics = tiered.run(trace(model))

        # Pressure victims were demoted instead of preempted: strictly fewer
        # preemptions than the tiering-off baseline at the same pool size.
        assert tiered.scheduler.total_demotions >= 1
        assert tiered_metrics.total_demotions() >= 1
        assert tiered_metrics.total_preemptions() < baseline_metrics.total_preemptions()
        assert {"demote", "restore"} <= decision_kinds(tiered)

        # Offload round trips are bit-exact: token-for-token identical to the
        # unconstrained run (and to the recompute-based baseline).
        for req in trace(model):
            rid = req.request_id
            assert tiered.handle(rid).output_tokens == free.handle(rid).output_tokens
            assert baseline.handle(rid).output_tokens == free.handle(rid).output_tokens

        # Restore accounting reached the per-request records.
        assert tiered_metrics.total_restored_pages() >= 1
        assert tiered_metrics.mean_restore_ms() > 0.0

        # Zero-leak audit over both tiers, on every engine in the matrix.
        assert tiered.cold_store is not None
        for engine in (free, baseline, tiered):
            assert_no_leaked_pages(
                engine.backend.engine.cache.dense_cache.allocator,
                backend=engine.backend,
                cold_store=engine.cold_store,
            )

    def test_quantized_demote_matches_on_requantized_hot_tier(self, model):
        """``cold_kv_bits == hot kv_bits`` keeps the seeded run token-identical.

        The hot tier already stores KV at 8 bits, so an 8-bit cold round trip
        requantizes already-quantized values; for this seeded workload the
        outputs match the unconstrained run exactly.  (The general lossy-mode
        guarantee is the explicit error bound, tested below.)
        """
        free = lserve_serving(model, **UNCONSTRAINED)
        free.run(trace(model))

        tiered = lserve_serving(
            model,
            tiering=KVTieringConfig(mode="quantized", cold_kv_bits=8),
            **CONSTRAINED,
        )
        tiered_metrics = tiered.run(trace(model))
        assert tiered.scheduler.total_demotions >= 1
        assert tiered_metrics.total_preemptions() == 0
        for req in trace(model):
            rid = req.request_id
            assert tiered.handle(rid).output_tokens == free.handle(rid).output_tokens
        assert_no_leaked_pages(
            tiered.backend.engine.cache.dense_cache.allocator,
            backend=tiered.backend,
            cold_store=tiered.cold_store,
        )

    def test_restore_out_of_pages_resumes_by_recompute(self, model):
        """A restore the hot pool refuses falls back to recompute-resume.

        The first ``handoff_in`` of a cold entry raises ``OutOfPagesError``
        (the allocator, not the token watermark, is ground truth): the entry
        is dropped, the request resumes by recompute and is recounted as a
        preemption, and the run still matches the unconstrained one.
        """
        free = lserve_serving(model, **UNCONSTRAINED)
        free.run(trace(model))

        tiered = lserve_serving(model, tiering=KVTieringConfig(mode="offload"), **CONSTRAINED)
        handoff_in = tiered.backend.handoff_in
        refused: list[str] = []

        def refuse_first(seq_id, handoff):
            if not refused:
                refused.append(seq_id)
                raise OutOfPagesError("hot pool full")
            handoff_in(seq_id, handoff)

        tiered.backend.handoff_in = refuse_first
        metrics = tiered.run(trace(model))
        assert refused, "no restore was ever attempted"
        rid = refused[0]

        # The refused entry's next step for rid is a resume, not a restore.
        log = tiered.decision_log
        after = log[log.index(f"demote:{rid}") + 1 :]
        assert next(e for e in after if e in (f"restore:{rid}", f"resume:{rid}")) == f"resume:{rid}"

        # Counted as a preemption, not a demotion: in the request's record
        # and in the scheduler's totals (one demote entry became a preemption).
        def entries(kind, request_id=""):
            return sum(e.startswith(f"{kind}:{request_id}") for e in log)

        record = tiered.handle(rid).record
        assert record.demotions == entries("demote", rid) - 1
        assert record.preemptions == entries("preempt", rid) + 1
        assert tiered.scheduler.total_demotions == entries("demote") - 1
        assert metrics.total_preemptions() == entries("preempt") + 1
        assert tiered.cold_store.total_restores == entries("restore")

        assert tiered.cold_store.num_entries == 0
        for req in trace(model):
            assert tiered.handle(req.request_id).output_tokens == free.handle(req.request_id).output_tokens
        assert_no_leaked_pages(
            tiered.backend.engine.cache.dense_cache.allocator,
            backend=tiered.backend,
            cold_store=tiered.cold_store,
        )

    @pytest.mark.parametrize("bits", [8, 4])
    def test_quantized_page_image_error_is_explicitly_bounded(self, bits):
        """Lossy demotion error never exceeds the quantizer's worst case.

        The tolerance is not a magic constant: it is the asymmetric uniform
        quantizer's per-group bound ``(max - min) / (2**bits - 1) / 2``, plus
        float slack.
        """
        rng = np.random.default_rng(7)
        images = [rng.normal(size=(3, 16, 2, 8)) for _ in range(2)]
        compressed = compress_page_images(images, bits)
        for original, lossy in zip(images, compressed):
            bound = quantization_error_bound(original, bits)
            assert np.all(np.abs(lossy - original) <= bound + 1e-12)
            if bits < 16:
                assert not np.array_equal(lossy, original)

    def test_sixteen_bit_compression_is_bit_exact_copy(self):
        rng = np.random.default_rng(7)
        images = [rng.normal(size=(2, 8, 2, 4))]
        out = compress_page_images(images, 16)
        assert np.array_equal(out[0], images[0])
        assert out[0] is not images[0]  # a copy, not an alias


class TestTieringMechanicsSimulated:
    """Scheduler/engine-level mechanics on the cost-model backend."""

    def run_tiered(self, tiering=None, n=6, prompt_tokens=48, **overrides):
        engine = sim_serving(tiering=tiering or KVTieringConfig(), **{**CONSTRAINED, **overrides})
        metrics = engine.run(
            [Request(f"r{i}", prompt_tokens=prompt_tokens, max_new_tokens=40) for i in range(n)]
        )
        return engine, metrics

    def test_demote_restore_lifecycle_and_accounting(self):
        engine, metrics = self.run_tiered()
        assert engine.scheduler.total_demotions >= 1
        assert metrics.total_demotions() >= 1
        assert metrics.total_preemptions() == 0
        assert {"demote", "restore"} <= decision_kinds(engine)
        assert metrics.total_restored_pages() >= 1
        assert metrics.mean_restore_ms() > 0.0
        demoted = [r for r in metrics.records if r.demotions > 0]
        assert demoted and all(r.demoted_stall_s > 0 for r in demoted)
        assert all(r.generated_tokens == 40 for r in metrics.records)
        # Both tiers fully drained.
        assert engine.backend.kv_tokens_in_use() == 0
        assert engine.cold_store.num_pages == 0

    def test_step_outcomes_statuses_and_gauges(self):
        engine = sim_serving(tiering=KVTieringConfig(), **CONSTRAINED)
        handles = [
            engine.submit(Request(f"r{i}", prompt_tokens=48, max_new_tokens=40))
            for i in range(6)
        ]
        statuses, kinds, saw_cold = set(), set(), False
        demoted_ids: set[str] = set()
        while (outcome := engine.step()) is not None:
            kinds.add(outcome.kind)
            demoted_ids.update(outcome.demoted_ids)
            for h in handles:
                statuses.add(h.state.status)
            gauges = engine.live_gauges()
            if gauges.cold_pages > 0:
                saw_cold = True
                assert gauges.kv_tokens_cold > 0
                body = gauges.to_prometheus()
                assert 'repro_serving_kv_tier_tokens{tier="hot"}' in body
                assert 'repro_serving_kv_tier_tokens{tier="cold"}' in body
        assert RequestStatus.DEMOTED in statuses
        assert "restore" in kinds and demoted_ids and saw_cold
        final = engine.live_gauges()
        assert final.demotions >= 1 and final.restores >= 1 and final.cold_pages == 0
        restored = [h for h in handles if h.restored_pages > 0]
        assert restored and all(h.restore_ms > 0 for h in restored)

    def test_abort_while_demoted_releases_cold_entry(self):
        engine = sim_serving(tiering=KVTieringConfig(), **CONSTRAINED)
        handles = [
            engine.submit(Request(f"r{i}", prompt_tokens=48, max_new_tokens=40))
            for i in range(6)
        ]
        aborted = None
        while engine.step() is not None:
            if aborted is None:
                victim = next(
                    (h for h in handles if h.state.status is RequestStatus.DEMOTED), None
                )
                if victim is not None:
                    cold_before = engine.cold_store.num_pages
                    engine.abort(victim.request.request_id)
                    assert victim.state.status is RequestStatus.CANCELLED
                    assert engine.cold_store.num_pages < cold_before
                    assert victim.seq_id not in engine.cold_store
                    aborted = victim
        assert aborted is not None, "no request was ever demoted"
        assert engine.backend.kv_tokens_in_use() == 0
        assert engine.cold_store.num_pages == 0

    def test_cold_tier_full_falls_back_to_preemption(self):
        # 80-token prompts span two 64-token pages, so no victim fits in a
        # one-page cold tier: every demotion attempt falls back to classic
        # recompute preemption — and is *counted* as a preemption.
        engine, metrics = self.run_tiered(
            tiering=KVTieringConfig(max_cold_pages=1),
            n=4,
            prompt_tokens=80,
            kv_token_capacity=220,
            kv_high_watermark=200,
            kv_low_watermark=110,
        )
        assert metrics.total_preemptions() >= 1
        assert metrics.total_demotions() == 0
        assert "preempt" in decision_kinds(engine)
        assert all(r.generated_tokens == 40 for r in metrics.records)
        assert engine.cold_store.num_pages == 0
        assert engine.cold_store.total_demotions == 0

    def test_tiering_off_has_no_cold_surface(self):
        engine = sim_serving(**CONSTRAINED)
        metrics = engine.run(
            [Request(f"r{i}", prompt_tokens=48, max_new_tokens=40) for i in range(6)]
        )
        assert metrics.total_demotions() == 0
        assert metrics.total_preemptions() >= 1
        assert engine.cold_store is None
        gauges = engine.live_gauges()
        assert gauges.kv_tokens_cold == 0 and gauges.cold_pages == 0 and gauges.demotions == 0

    def test_demotion_order_is_least_recently_attended_first(self):
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, tiering=KVTieringConfig())
        for sid in ("s0", "s1", "s2"):
            backend.prefill(sid, np.zeros(32))
        backend.decode_batch(["s1"], [0])  # s1 becomes the most recently attended
        assert backend.demotion_order(["s0", "s1", "s2"]) == ["s0", "s2", "s1"]
        assert backend.last_attended("s1") > backend.last_attended("s2")

    def test_handoff_out_forgets_the_attend_stamp(self):
        """A sequence that left (migrated or demoted) leaves no stamp behind —
        a prefill-tier replica hands off every request it ever serves."""
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, tiering=KVTieringConfig())
        for sid in ("s0", "s1", "s2"):
            backend.prefill(sid, np.zeros(32))
        backend.handoff_out("s1")
        assert backend.last_attended("s1") == 0
        assert backend.demotion_order(["s0", "s1", "s2"]) == ["s0", "s2"]
        backend.handoff_out("s0", kv_bits=4)  # what a "quantized" demotion asks for
        assert backend.last_attended("s0") == 0
        assert backend.demotion_order(["s0", "s1", "s2"]) == ["s2"]


def tiered_backend(model, kind: str, tiering: KVTieringConfig | None = None):
    """A backend of either kind carrying ``tiering`` (default: offload)."""
    tiering = tiering or KVTieringConfig()
    if kind == "simulated":
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        return SimulatedBackend(latency, tiering=tiering)
    return LServeBackend(make_lserve_engine(model), tiering=tiering)


def prompt_of(model, i: int) -> np.ndarray:
    return (np.arange(40) * (i + 2)) % model.config.vocab_size


@pytest.mark.parametrize("kind", ["simulated", "lserve"])
def test_demote_restore_order_and_attend_stamps_agree_across_backends(model, kind):
    """One script, both backends, the same victim order: a restore counts as an attend.

    Prefill a/b/c, decode them three steps, hand a out (a demotion), decode
    b/c, hand a back in (its restore): the restored sequence is the newest,
    so it ranks last.
    """
    backend = tiered_backend(model, kind)
    ids = ["a", "b", "c"]
    for i, seq_id in enumerate(ids):
        backend.prefill(seq_id, prompt_of(model, i))
    for t in range(3):
        backend.decode_batch(ids, [t] * 3)
    assert backend.demotion_order(ids) == ["a", "b", "c"]
    parked = backend.handoff_out("a")
    assert backend.demotion_order(ids) == ["b", "c"]
    backend.decode_batch(["b", "c"], [3, 3])
    backend.handoff_in("a", parked)
    assert backend.demotion_order(ids) == ["b", "c", "a"]
    assert backend.last_attended("a") > max(backend.last_attended(s) for s in ("b", "c"))
    for seq_id in ids:
        backend.release(seq_id)
    assert backend.kv_tokens_in_use() == 0


@pytest.mark.parametrize("kind", ["simulated", "lserve"])
def test_a_sequence_handed_in_ranks_newest(model, kind):
    """A migrated sequence arrives as the most recently attended, not as the first victim.

    On a tiered decode replica, a sequence another replica just handed over
    has not been read here yet; ranking it by an empty access history would
    demote it before anything that has been decoding for a while.
    """
    source, target = tiered_backend(model, kind), tiered_backend(model, kind)
    for i, seq_id in enumerate(["a", "b"]):
        target.prefill(seq_id, prompt_of(model, i))
    target.decode_batch(["a", "b"], [1, 1])
    source.prefill("m", prompt_of(model, 2))
    target.handoff_in("m", source.handoff_out("m"))
    assert target.demotion_order(["a", "b", "m"]) == ["a", "b", "m"]
    assert target.last_attended("m") > max(target.last_attended(s) for s in ("a", "b"))


@pytest.mark.parametrize("mode", ["offload", "quantized"])
@pytest.mark.parametrize("kind", ["simulated", "lserve"])
def test_restore_bill_is_the_parked_handoffs_transfer_latency(model, kind, mode):
    """``restore_ms`` is ``KVHandoff.transfer_latency_s(restore_cost)`` of each parked hand-off.

    The hand-off travels at the hot width for ``"offload"`` and at
    ``cold_kv_bits`` for ``"quantized"``, and is billed at that width.
    """
    tiering = KVTieringConfig(mode=mode, cold_kv_bits=4)
    backend = tiered_backend(model, kind, tiering)
    hot_bits = backend.latency.policy.kv_bits if kind == "simulated" else backend.engine.config.kv_bits
    bits = tiering.cold_kv_bits if mode == "quantized" else hot_bits
    assert bits != hot_bits or mode == "offload"
    parked: dict[str, list] = {}
    handoff_out = backend.handoff_out

    def park(seq_id, kv_bits=None):
        handoff = handoff_out(seq_id, kv_bits=kv_bits)
        parked.setdefault(seq_id, []).append(handoff)
        return handoff

    backend.handoff_out = park
    engine = ServingEngine(backend, SchedulerConfig(**CONSTRAINED))
    if kind == "simulated":
        engine.run([Request(f"r{i}", prompt_tokens=48, max_new_tokens=40) for i in range(6)])
    else:
        engine.run(trace(model))
    assert parked, "nothing was demoted"
    cost = tiering.restore_cost
    for rid, handoffs in parked.items():
        assert [h.kv_bits for h in handoffs] == [bits] * len(handoffs)
        want = sum(
            cost.transfer_latency_s(h.n_pages, h.page_size, h.n_layers, h.n_kv_heads, h.head_dim, bits)
            for h in handoffs
        )
        handle = engine.handle(rid)
        assert handle.restore_ms == pytest.approx(want * 1e3, rel=1e-12)
        assert handle.restored_pages == sum(h.n_pages for h in handoffs)


class TestDemotedRequestState:
    def make_decoding(self):
        state = Request("r", prompt_tokens=10, max_new_tokens=5)
        from repro.serving import RequestState

        st = RequestState(state)
        st.record_prefill(0.0)
        st.record_decode_token(1.0)
        return st

    def test_demote_restore_round_trip(self):
        st = self.make_decoding()
        assert st.context_length == 11
        st.record_demote(2.0)
        assert st.status is RequestStatus.DEMOTED
        assert st.context_length == 0  # watermarks count the hot tier only
        assert st.resume_kv_tokens == 11
        assert st.demotions == 1 and st.preemptions == 0
        st.record_restore(5.0)
        assert st.status is RequestStatus.DECODING
        assert st.demoted_stall_s == pytest.approx(3.0)
        assert st.last_demote_time_s is None

    def test_demote_to_preempt_reclassifies(self):
        st = self.make_decoding()
        st.record_demote(2.0)
        st.demote_to_preempt()
        assert st.status is RequestStatus.PREEMPTED
        assert st.demotions == 0 and st.preemptions == 1
        assert st.last_preempt_time_s == pytest.approx(2.0)
        st.record_resume(6.0)
        assert st.preempted_stall_s == pytest.approx(4.0)

    def test_invalid_transitions_raise(self):
        from repro.serving import RequestState

        st = RequestState(Request("r", prompt_tokens=10, max_new_tokens=5))
        with pytest.raises(ValueError, match="cannot demote"):
            st.record_demote(0.0)
        with pytest.raises(ValueError, match="cannot restore"):
            st.record_restore(0.0)
        with pytest.raises(ValueError, match="cannot reclassify"):
            st.demote_to_preempt()
