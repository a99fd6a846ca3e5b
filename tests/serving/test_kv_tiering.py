"""Cold KV tier tests: differential matrix, demote/restore mechanics, leak audits.

The acceptance-critical matrix runs the *same* seeded workload through two
serving configurations — tiering off and tiering on — on the real
:class:`LServeBackend`:

* demote/restore round trips must be **byte-identical** to an
  unconstrained run (pages come back bit-exact and the reuse-phase selector
  state survives the round trip);
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
from repro.core.config import LServeConfig
from repro.core.engine import LServeEngine
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.kvcache.allocator import OutOfPagesError
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
from tests.conftest import assert_no_leaked_pages, step_outcomes
from tests.serving.test_preemption import CONSTRAINED, STREAMING_MASK, make_lserve_engine, model  # noqa: F401

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


def decisions(outcomes) -> list[tuple[str, str]]:
    """``(kind, request_id)`` per admission and eviction of a run, in step order."""
    log = []
    for o in outcomes:
        log += [("preempt", rid) for rid in o.preempted_ids]
        log += [("demote", rid) for rid in o.demoted_ids]
        if o.kind in ("prefill", "resume", "restore"):
            log.append((o.kind, o.request_ids[0]))
    return log


def decision_kinds(outcomes) -> set[str]:
    return {kind for kind, _ in decisions(outcomes)}


class TestTieringDifferentialMatrix:
    """One seeded workload, tiering off and on, one truth."""

    def test_offload_byte_identical_and_fewer_preemptions(self, model):
        free = lserve_serving(model, **UNCONSTRAINED)
        free_metrics = free.run(trace(model))
        assert free_metrics.total_preemptions() == 0

        baseline = lserve_serving(model, **CONSTRAINED)
        baseline_metrics = baseline.run(trace(model))
        assert baseline_metrics.total_preemptions() >= 1

        tiered = lserve_serving(model, tiering=KVTieringConfig(), **CONSTRAINED)
        outcomes = step_outcomes(tiered, trace(model))
        tiered_metrics = tiered.metrics

        # Pressure victims were demoted instead of preempted: strictly fewer
        # preemptions than the tiering-off baseline at the same pool size.
        assert tiered.scheduler.total_demotions >= 1
        assert tiered_metrics.total_demotions() >= 1
        assert tiered_metrics.total_preemptions() < baseline_metrics.total_preemptions()
        assert {"demote", "restore"} <= decision_kinds(outcomes)

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

    def test_restore_out_of_pages_resumes_by_recompute(self, model):
        """A restore the hot pool refuses falls back to recompute-resume.

        The first ``handoff_in`` of a cold entry raises ``OutOfPagesError``
        (the allocator, not the token watermark, is ground truth): the entry
        is dropped, the request resumes by recompute and is recounted as a
        preemption, and the run still matches the unconstrained one.
        """
        free = lserve_serving(model, **UNCONSTRAINED)
        free.run(trace(model))

        tiered = lserve_serving(model, tiering=KVTieringConfig(), **CONSTRAINED)
        handoff_in = tiered.backend.handoff_in
        refused: list[str] = []

        def refuse_first(seq_id, handoff):
            if not refused:
                refused.append(seq_id)
                raise OutOfPagesError("hot pool full")
            handoff_in(seq_id, handoff)

        tiered.backend.handoff_in = refuse_first
        log = decisions(step_outcomes(tiered, trace(model)))
        metrics = tiered.metrics
        assert refused, "no restore was ever attempted"
        rid = refused[0]

        # The refused entry's next step for rid is a resume, not a restore.
        after = log[log.index(("demote", rid)) + 1 :]
        assert next(d for d in after if d in (("restore", rid), ("resume", rid))) == ("resume", rid)

        # Counted as a preemption, not a demotion: in the request's record
        # and in the scheduler's totals (one demote entry became a preemption).
        def entries(kind, request_id=None):
            return sum(k == kind and request_id in (None, r) for k, r in log)

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

class TestTieringMechanicsSimulated:
    """Scheduler/engine-level mechanics on the cost-model backend."""

    def run_tiered(self, tiering=None, n=6, prompt_tokens=48, **overrides):
        engine = sim_serving(tiering=tiering or KVTieringConfig(), **{**CONSTRAINED, **overrides})
        outcomes = step_outcomes(
            engine, [Request(f"r{i}", prompt_tokens=prompt_tokens, max_new_tokens=40) for i in range(n)]
        )
        return engine, engine.metrics, outcomes

    def test_demote_restore_lifecycle_and_accounting(self):
        engine, metrics, outcomes = self.run_tiered()
        assert engine.scheduler.total_demotions >= 1
        assert metrics.total_demotions() >= 1
        assert metrics.total_preemptions() == 0
        assert {"demote", "restore"} <= decision_kinds(outcomes)
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
        engine, metrics, outcomes = self.run_tiered(
            tiering=KVTieringConfig(max_cold_pages=1),
            n=4,
            prompt_tokens=80,
            kv_token_capacity=220,
            kv_high_watermark=200,
            kv_low_watermark=110,
        )
        assert metrics.total_preemptions() >= 1
        assert metrics.total_demotions() == 0
        assert "preempt" in decision_kinds(outcomes)
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
        # A stable sort keeps tied stamps in the order asked: s1 is strictly newer.
        assert backend.demotion_order(["s1", "s2"]) == ["s2", "s1"]

    def test_handoff_out_forgets_the_attend_stamp(self):
        """A sequence that left (migrated or demoted) leaves no stamp behind —
        a prefill-tier replica hands off every request it ever serves."""
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
        backend = SimulatedBackend(latency, tiering=KVTieringConfig())
        for sid in ("s0", "s1", "s2"):
            backend.prefill(sid, np.zeros(32))
        backend.handoff_out("s1")
        assert "s1" not in backend._attend
        assert backend.demotion_order(["s0", "s1", "s2"]) == ["s0", "s2"]
        backend.handoff_out("s0")
        assert backend._attend.keys() == {"s2"}
        assert backend.demotion_order(["s0", "s1", "s2"]) == ["s2"]


def tiered_backend(model, kind: str, tiering: KVTieringConfig | None = None, kv_bits: int = 8):
    """A backend of either kind carrying ``tiering`` whose hot tier stores KV at ``kv_bits``."""
    tiering = tiering or KVTieringConfig()
    if kind == "simulated":
        latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy(kv_bits=kv_bits))
        return SimulatedBackend(latency, tiering=tiering)
    return LServeBackend(make_lserve_engine(model, kv_bits=kv_bits), tiering=tiering)


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
    # Ties keep the order asked, so a, asked first, ranks last only if strictly newer.
    assert backend.demotion_order(ids) == ["b", "c", "a"]
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
    # Asked first, m still ranks last: strictly newer (ties keep the order asked).
    assert target.demotion_order(["m", "a", "b"])[-1] == "m"


@pytest.mark.parametrize("bits", [8, 4, 16])
@pytest.mark.parametrize("kind", ["simulated", "lserve"])
def test_restore_bill_is_the_parked_handoffs_transfer_latency(model, kind, bits):
    """``restore_ms`` is ``KVHandoff.transfer_latency_s(restore_cost)`` of each parked hand-off.

    The hand-off travels at the hot width ``bits`` and is billed at it.
    """
    tiering = KVTieringConfig()
    backend = tiered_backend(model, kind, tiering, kv_bits=bits)
    parked: dict[str, list] = {}
    handoff_out = backend.handoff_out

    def park(seq_id):
        handoff = handoff_out(seq_id)
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


def prefix_backend(model, num_pages: int, kv_bits: int = 8, tiering: KVTieringConfig | None = None):
    """A prefix-caching ``LServeBackend`` on a ``num_pages`` pool of 16-token pages."""
    config = LServeConfig(
        streaming_head_ratio=0.5, kv_bits=kv_bits, physical_page_size=16, logical_page_size=4,
        sink_tokens=16, local_tokens=32, q_block_size=16, token_budget=64, reuse_interval=4,
        prefix_cache_enabled=True,
    )
    engine = LServeEngine(model, config, streaming_kv_heads=STREAMING_MASK, num_cache_pages=num_pages)
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    return LServeBackend(engine, latency=latency, tiering=tiering)


def prefix_prompts(model) -> tuple[np.ndarray, np.ndarray]:
    """Two 80-token prompts sharing a 64-token (four-page) prefix."""
    vocab = model.config.vocab_size
    prefix = (np.arange(64) * 5 + 1) % vocab
    first = np.concatenate([prefix, (np.arange(16) * 3 + 7) % vocab])
    again = np.concatenate([prefix, (np.arange(16) * 11 + 2) % vocab])
    return first, again


def pressure_after_a_prefix(model, pressured, twin, first) -> None:
    """Register ``first`` on both backends, then decode one sequence over all 12 of ``pressured``'s pages."""
    for backend in (pressured, twin):
        backend.prefill("first", first)
        backend.release("first")
    vocab = model.config.vocab_size
    pressured.prefill("grow", np.arange(15) % vocab)
    for t in range(12 * 16 - 15):
        pressured.decode_batch(["grow"], [t % vocab])
    pressured.release("grow")


@pytest.mark.parametrize("tiering", [None, KVTieringConfig()], ids=["untiered", "tiered"])
def test_decode_pressure_drops_a_registered_prefix_with_or_without_tiering(model, tiering):
    """Decode pressure hard-drops a registered prefix; a cold tier parks none of it.

    A 12-page pool: an 80-token prompt registers 5 pages, then another
    sequence decodes to 12 pages, so prefix eviction drops every node.  The
    next prompt sharing the prefix matches nothing and computes the logits of
    an engine that never cached the prefix (an attach would re-read the
    quantised prefix instead).
    """
    first, again = prefix_prompts(model)
    pressured, twin = prefix_backend(model, 12, tiering=tiering), prefix_backend(model, 512, tiering=tiering)
    pressure_after_a_prefix(model, pressured, twin, first)
    assert pressured.engine.prefix_cache.num_nodes == 0
    assert pressured.engine.prefix_cache.match(again, max_tokens=64) == []
    assert twin.engine.prefix_cache.match(again, max_tokens=64) != []

    result = pressured.prefill("again", again)
    uncached = prefix_backend(model, 512).prefill("again", again)
    assert result.prefix_hit_tokens == uncached.prefix_hit_tokens == 0
    assert result.elapsed_s == pressured.latency.prefill_latency(80)
    np.testing.assert_array_equal(result.logits, uncached.logits)


@pytest.mark.parametrize("max_cold_pages", [None, 8])
def test_a_tiered_prefix_cache_never_outgrows_the_pool(model, max_cold_pages):
    """400 distinct prompts through a tiered prefix cache on a 24-page pool keep the trie within the pool.

    Each 80-token prompt registers 5 pages and is released, so the index
    evicts to make room for every later prompt.  Eviction drops nodes with
    their pages whether or not a cold tier is configured: the trie holds at
    most one node per pool page at every checkpoint, and every node holds
    its page.
    """
    backend = prefix_backend(model, 24, tiering=KVTieringConfig(max_cold_pages=max_cold_pages))
    index, pool_pages = backend.engine.prefix_cache, backend.engine.cache.allocator.capacity
    prompts = np.random.default_rng(0).integers(0, model.config.vocab_size, size=(400, 80))
    for i, prompt in enumerate(prompts):
        backend.prefill(i, prompt)
        backend.release(i)
        if i % 50 == 49:
            assert index.num_nodes == index.held_pages <= pool_pages
    assert index.evicted_pages >= 400 * 5 - pool_pages


@pytest.mark.parametrize("bits", [8, 4, 16])
def test_a_demotion_round_trip_is_bit_exact_at_every_hot_width(model, bits):
    """A demotion parks the pool's own records, so a restore changes no bit at any ``kv_bits``.

    The page images, key statistics and counts that come back equal the
    ones that left, and the restored sequence decodes the logits of a twin
    that never left the pool (past a reuse-interval boundary, so the cached
    page selections came back too).
    """
    tiered, twin = (tiered_backend(model, "lserve", kv_bits=bits) for _ in range(2))
    for backend in (tiered, twin):
        backend.prefill("s", prompt_of(model, 3))
        backend.decode_batch(["s"], [5])
    before = tiered.engine.cache.export_sequence("s")
    parked = tiered.handoff_out("s")
    assert parked.kv_bits == bits and parked.n_pages > 0
    tiered.handoff_in("s", parked)
    after = tiered.engine.cache.export_sequence("s")
    for old, new in ((before.dense, after.dense), (before.streaming, after.streaming)):
        assert new.kv_bits == old.kv_bits and new.tokens_per_layer == old.tokens_per_layer
        for field in ("k_pages", "v_pages", "kmin_pages", "kmax_pages"):
            for a, b in zip(getattr(old, field), getattr(new, field), strict=True):
                np.testing.assert_array_equal(a, b)
    for t in range(5):
        got = tiered.decode_batch(["s"], [t]).logits
        np.testing.assert_array_equal(got, twin.decode_batch(["s"], [t]).logits)


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
