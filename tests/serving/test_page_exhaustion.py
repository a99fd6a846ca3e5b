"""Page exhaustion in the serving step: every case evicts or requeues, none kills the server.

Token watermarks admit on estimates; the page allocator is the ground truth.
These tests reach each place a step can run out of pages:

* a request larger than the whole page pool is refused at the door;
* a prefill (fresh or recompute-resume) that cannot get its pages goes back
  to the waiting queue and the step decodes instead, or, with nothing
  decoding, ends that request aborted; the engine-level
  ``LServeEngine.prefill`` undoes its registration first, so a retry works;
* a plain decode that runs out of pages evicts the first member named and
  retries the rest, so a member the freed pages make room for is kept — a
  speculating batchmate still verifies in the same step, its draft source
  asked once;
* a verify that runs out of pages falls its members back to one plain step,
  and a fallback that runs out of pages too evicts as that rule does while
  the others commit.

Every run ends byte-equal to a solo ``generate`` with zero pages allocated.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import LServeConfig
from repro.core.engine import DecodeOutOfPagesError, LServeEngine
from repro.kvcache.allocator import OutOfPagesError
from repro.model.configs import tiny_model_config
from repro.model.transformer import TinyTransformer
from repro.serving import (
    AsyncServingEngine,
    LServeBackend,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
)
from tests.conftest import assert_no_leaked_pages, step_outcomes

STREAMING_MASK = np.array([False, True])


@pytest.fixture(scope="module")
def model():
    return TinyTransformer(tiny_model_config(), seed=11)


def make_engine(model, num_pages=512, page=16, prefix_cache=False, streaming=STREAMING_MASK) -> LServeEngine:
    """Aligned, 16-bit config, so an attached prefix is byte-equal to a computed one."""
    return LServeEngine(
        model,
        LServeConfig(
            streaming_head_ratio=0.5,
            dynamic_sparsity_enabled=True,
            kv_bits=16,
            physical_page_size=page,
            logical_page_size=4,
            sink_tokens=page,
            local_tokens=2 * page,
            q_block_size=16,
            token_budget=64,
            reuse_interval=4,
            prefix_cache_enabled=prefix_cache,
        ),
        streaming_kv_heads=streaming,
        num_cache_pages=num_pages,
    )


def prompt(model, i: int, n: int) -> list[int]:
    return [int(t) for t in (np.arange(n) * (2 * i + 3) + i) % model.config.vocab_size]


def solo_outputs(model, requests, page=16) -> dict[str, list[int]]:
    """Each request generated alone by ``LServeEngine.generate`` on an ample pool."""
    engine = make_engine(model, page=page)
    outputs = {}
    for r in requests:
        outputs[r.request_id] = engine.generate(
            np.asarray(r.prompt_token_ids), r.max_new_tokens, seq_id=r.request_id
        )
        engine.release(r.request_id)
    return outputs


def count_raises(owner, attr: str, error: type) -> list[int]:
    """Wrap ``owner.attr`` to count the calls that raise ``error``; returns the live count."""
    raised = [0]
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except error:
            raised[0] += 1
            raise

    setattr(owner, attr, wrapper)
    return raised


def outputs_of(serving, requests) -> dict[str, list[int]]:
    return {r.request_id: list(serving.handle(r.request_id).output_tokens) for r in requests}


def audit(backend) -> None:
    assert_no_leaked_pages(backend.engine.cache.dense_cache.allocator, backend=backend)


class TestPrefillRequeue:
    """The token watermark admits 12 prompts of 33 tokens; 16 pages of 32 hold 8."""

    def trace(self, model):
        return [
            Request.from_prompt(f"r{i}", prompt(model, i, 33), max_new_tokens=4)
            for i in range(12)
        ]

    def make_backend(self, model):
        backend = LServeBackend(make_engine(model, num_pages=16, page=32))
        return backend, count_raises(backend, "prefill", OutOfPagesError)

    SCHED = SchedulerConfig(max_batch_size=16, kv_token_capacity=512)

    def test_prefill_oom_requeues_and_the_run_completes(self, model):
        requests = self.trace(model)
        backend, prefill_ooms = self.make_backend(model)
        serving = ServingEngine(backend, self.SCHED)
        outcomes = step_outcomes(serving, requests)

        assert prefill_ooms[0] > 0
        assert outputs_of(serving, requests) == solo_outputs(model, requests, page=32)
        assert serving.scheduler.total_preemptions == 0
        assert not any(o.preempted_ids for o in outcomes)
        # A failed admission is stamped at the prefill that finally ran.
        for o in outcomes:
            if o.kind == "prefill":
                state = serving.handle(o.request_ids[0]).state
                assert state.scheduled_time_s == o.clock_s - o.elapsed_s
        audit(backend)

    def test_async_drive_loop_survives_prefill_oom(self, model):
        requests = self.trace(model)
        backend, prefill_ooms = self.make_backend(model)

        async def main():
            async with AsyncServingEngine(backend, self.SCHED) as server:
                handles = [server.submit(r) for r in requests]
                results = {h.request_id: await h.result() for h in handles}
                await server.drain()
            return results

        assert asyncio.run(main()) == solo_outputs(model, requests, page=32)
        assert prefill_ooms[0] > 0
        audit(backend)

    def test_a_request_the_pool_cannot_hold_is_refused_at_the_door(self, model):
        """A prompt plus its tokens larger than the whole page pool never reaches a step:
        the door refuses it with the reason, and the next request is served."""
        backend = LServeBackend(make_engine(model, num_pages=1, page=32))
        serving = ServingEngine(backend, self.SCHED)
        with pytest.raises(ValueError, match="page pool holds 32"):
            serving.submit(Request.from_prompt("big", prompt(model, 0, 29), max_new_tokens=4))
        assert serving.step() is None
        small = Request.from_prompt("small", prompt(model, 1, 20), max_new_tokens=4)
        step_outcomes(serving, [small])
        assert outputs_of(serving, [small]) == solo_outputs(model, [small], page=32)
        audit(backend)

    def test_a_streaming_only_pool_bounds_no_length(self, model):
        """Without dense heads the one pool is the sliding window's, so the door leaves
        a request longer than the pool to it: 220 tokens run through 8 pages of 16."""
        backend = LServeBackend(make_engine(model, num_pages=8, streaming=np.array([True, True])))
        assert backend.pool_token_capacity is None
        serving = ServingEngine(backend, self.SCHED)
        long = Request.from_prompt("long", prompt(model, 0, 20), max_new_tokens=200)
        step_outcomes(serving, [long])
        assert len(outputs_of(serving, [long])["long"]) == 200
        assert_no_leaked_pages(backend.engine.cache.allocator, backend=backend)

    def test_prefill_oom_with_nothing_decoding_ends_that_request_alone(self, model):
        """Pages the door cannot count — a retained request's, with nothing decoding —
        leave a prompt that fits the pool no room: that request ends aborted, nothing is
        left half-admitted, and it is served once the pages come back."""
        backend = LServeBackend(make_engine(model, num_pages=2, page=32))
        serving = ServingEngine(backend, self.SCHED)
        kept = serving.submit(Request.from_prompt("kept", prompt(model, 0, 20), max_new_tokens=4))
        serving.retain_kv_on_finish("kept")
        step_outcomes(serving)
        assert kept.finished and backend.engine.cache.allocator.num_free == 1
        late = Request.from_prompt("late", prompt(model, 1, 40), max_new_tokens=4)
        big = serving.submit(late)
        outcome = serving.step()
        assert (outcome.kind, outcome.finished_ids) == ("abort", ("late",))
        assert big.cancelled and big.output_tokens == []
        assert serving.aborted == 1
        assert serving.scheduler.waiting_count == 0
        assert not serving.scheduler.running
        backend.release(kept.seq_id)
        audit(backend)
        again = Request.from_prompt("again", late.prompt_token_ids, max_new_tokens=4)
        step_outcomes(serving, [again])
        assert outputs_of(serving, [again]) == {"again": solo_outputs(model, [late], page=32)["late"]}
        audit(backend)


class TestEnginePrefillUndo:
    def test_failed_prefill_with_attached_prefix_can_be_retried(self, model):
        vocab = model.config.vocab_size
        shared = (np.arange(64) * 7) % vocab
        tail = (np.arange(48) * 5 + 1) % vocab
        engine = make_engine(model, num_pages=16, prefix_cache=True)
        engine.prefill("a", shared)  # four full pages, registered
        engine.release("a")  # the index alone holds them
        hogs = [pool.allocator.allocate_many(pool.allocator.num_free) for pool in engine.cache.pools]

        attached = []
        attach = engine._attach_prefix

        def record_attach(seq_id, token_ids):
            attached.append(attach(seq_id, token_ids))
            return attached[-1]

        engine._attach_prefix = record_attach
        b_prompt = np.concatenate([shared[:48], tail])
        with pytest.raises(OutOfPagesError):
            engine.generate(b_prompt, 4, seq_id="b")
        assert attached == [48]  # the failed call attached three prefix pages
        assert not engine.cache.has_sequence("b")
        # Evicting the index for room could not help; with "b" gone, the
        # attached pages went back to the pool.
        for pool, pages in zip(engine.cache.pools, hogs):
            assert pool.allocator.num_allocated == len(pages)
            pool.allocator.free_many(pages)

        got = engine.generate(b_prompt, 4, seq_id="b")
        assert got == make_engine(model).generate(b_prompt, 4)

        engine.release("b")
        engine.prefix_cache.clear()
        for pool in engine.cache.pools:
            assert pool.allocator.num_allocated == 0


def spec_params(k: int) -> SamplingParams:
    return SamplingParams(seed=7, speculation_k=k)


def mixed_trace(model, ks, n=48, max_new_tokens=12):
    return [
        Request.from_prompt(
            f"r{i}",
            prompt(model, i, n),
            max_new_tokens=max_new_tokens,
            sampling=spec_params(k),
            arrival_time_s=0.001 * i,
        )
        for i, k in enumerate(ks)
    ]


class CountingDraft(PrerecordedDraft):
    """A prerecorded draft that counts ``propose`` calls."""

    def __init__(self, scripts):
        super().__init__(scripts)
        self.proposals = 0

    def propose(self, *args):
        self.proposals += 1
        return super().propose(*args)


def fail_decode_once(backend, seq_ids: list[str], nth: int = 1, named=None) -> list[int]:
    """Make the ``nth`` ``decode_batch`` call over exactly ``seq_ids`` run out of
    pages, naming ``named`` (default: all of them) as the members that did not fit."""
    real = backend.decode_batch
    seen = [0]
    fired = [0]

    def decode_batch(ids, token_ids):
        if list(ids) == seq_ids:
            seen[0] += 1
            if seen[0] == nth:
                fired[0] += 1
                raise DecodeOutOfPagesError(named or seq_ids, 0)
        return real(ids, token_ids)

    backend.decode_batch = decode_batch
    return fired


class TestDecodeExhaustion:
    def test_plain_oom_beside_a_speculating_member(self, model):
        """The plain member is evicted; the speculating one verifies in the
        same step and its draft source is asked once for it."""
        requests = mixed_trace(model, (0, 4))
        reference = solo_outputs(model, requests)
        backend = LServeBackend(make_engine(model))
        draft = CountingDraft(reference)
        serving = ServingEngine(backend, SchedulerConfig(max_batch_size=4), draft_source=draft)
        fired = fail_decode_once(backend, ["r0"], nth=2)
        for r in requests:
            serving.submit(r)
        oom_step = None
        while True:
            before = draft.proposals
            outcome = serving.step()
            if outcome is None:
                break
            if outcome.preempted_ids:
                oom_step = (outcome, draft.proposals - before)
        assert fired[0] == 1
        outcome, proposals = oom_step
        assert outcome.preempted_ids == ("r0",)
        assert outcome.request_ids == ("r1",)
        assert outcome.draft_proposed > 0
        assert proposals == 1
        assert outputs_of(serving, requests) == reference
        audit(backend)

    def test_plain_oom_evicts_the_first_named_and_retries(self, model):
        """r0 and r1 do not fit; evicting r0 frees the pages r1 needs (a pool
        at a page boundary on both), so only r0 is evicted and r1 decodes."""
        requests = mixed_trace(model, (0, 0, 0))
        reference = solo_outputs(model, requests)
        backend = LServeBackend(make_engine(model))
        fired = fail_decode_once(backend, ["r0", "r1", "r2"], nth=2, named=["r0", "r1"])
        serving = ServingEngine(backend, SchedulerConfig(max_batch_size=4))
        outcomes = step_outcomes(serving, requests)
        assert fired[0] == 1
        (oom,) = [o for o in outcomes if o.preempted_ids]
        assert oom.preempted_ids == ("r0",)
        assert oom.request_ids == ("r1", "r2")
        assert outputs_of(serving, requests) == reference
        audit(backend)

    def test_plain_oom_with_no_survivor_raises(self, model):
        requests = mixed_trace(model, (0,))
        backend = LServeBackend(make_engine(model))
        serving = ServingEngine(backend, SchedulerConfig(max_batch_size=4))
        fail_decode_once(backend, ["r0"])
        serving.submit(requests[0])
        assert serving.step().kind == "prefill"
        with pytest.raises(DecodeOutOfPagesError):
            serving.step()

    def test_verify_oom_whose_fallback_runs_out_of_pages_too(self, model):
        """r1's verify and its plain fallback both fail: r1 is evicted while
        r0 and r2 commit their chunks in the same step."""
        requests = mixed_trace(model, (4, 4, 4))
        reference = solo_outputs(model, requests)
        backend = LServeBackend(make_engine(model))
        real_spec = backend.decode_speculative_batch
        spec_calls = [0]

        def spec_batch(members):
            spec_calls[0] += 1
            if spec_calls[0] == 2:
                raise DecodeOutOfPagesError(["r1"], 0)
            return real_spec(members)

        backend.decode_speculative_batch = spec_batch
        # r1 never decodes plainly before its fallback.
        fired = fail_decode_once(backend, ["r1"])
        serving = ServingEngine(
            backend, SchedulerConfig(max_batch_size=4), draft_source=PrerecordedDraft(reference)
        )
        outcomes = step_outcomes(serving, requests)
        assert fired[0] == 1
        (oom,) = [o for o in outcomes if o.preempted_ids]
        assert oom.preempted_ids == ("r1",)
        assert oom.request_ids == ("r0", "r2")
        assert oom.draft_proposed > 0
        assert outputs_of(serving, requests) == reference
        audit(backend)

    def test_verify_oom_falls_back_in_one_call(self, model):
        """r0's and r1's verifies fail: both fall back in one plain call.  That
        call runs out of pages for both, r0 is evicted, and r1 then decodes in
        the pages r0 freed, as it would have stepping alone after r0."""
        requests = mixed_trace(model, (4, 4, 4))
        reference = solo_outputs(model, requests)
        backend = LServeBackend(make_engine(model))
        real_spec = backend.decode_speculative_batch
        spec_calls = [0]

        def spec_batch(members):
            spec_calls[0] += 1
            if spec_calls[0] == 2:
                raise DecodeOutOfPagesError(["r0", "r1"], 0)
            return real_spec(members)

        backend.decode_speculative_batch = spec_batch
        fired = fail_decode_once(backend, ["r0", "r1"])
        plain_calls = []
        decode_batch = backend.decode_batch

        def record(ids, token_ids):
            plain_calls.append(list(ids))
            return decode_batch(ids, token_ids)

        backend.decode_batch = record
        serving = ServingEngine(
            backend, SchedulerConfig(max_batch_size=4), draft_source=PrerecordedDraft(reference)
        )
        outcomes = step_outcomes(serving, requests)
        assert fired[0] == 1
        (oom,) = [o for o in outcomes if o.preempted_ids]
        assert oom.preempted_ids == ("r0",)
        assert oom.request_ids == ("r1", "r2")
        assert plain_calls[:2] == [["r0", "r1"], ["r1"]]
        assert outputs_of(serving, requests) == reference
        audit(backend)


@pytest.mark.slow
def test_page_pressure_mixed_traffic_matches_solo(model):
    """Mixed plain and speculating traffic on a pool so small that prefill,
    plain decode and verify each run out of pages: every output is
    byte-equal to a solo ``generate`` and the drain leaves no page allocated."""
    ks = (0, 4, 2, 0, 3, 0, 4, 1)
    requests = [
        Request.from_prompt(
            f"r{i}",
            prompt(model, i, 40 + 8 * i),
            max_new_tokens=24,
            sampling=spec_params(k),
            arrival_time_s=0.0005 * i,
        )
        for i, k in enumerate(ks)
    ]
    reference = solo_outputs(model, requests)
    # Every fourth drafted token is wrong, so acceptance stays below 1.
    scripts = {
        rid: [t if j % 4 != 3 else (t + 1) % model.config.vocab_size for j, t in enumerate(out)]
        for rid, out in reference.items()
    }
    backend = LServeBackend(make_engine(model, num_pages=16))
    prefill_ooms = count_raises(backend, "prefill", OutOfPagesError)
    decode_ooms = count_raises(backend, "decode_batch", DecodeOutOfPagesError)
    verify_ooms = count_raises(backend, "decode_speculative_batch", DecodeOutOfPagesError)
    serving = ServingEngine(
        backend,
        SchedulerConfig(max_batch_size=8, kv_token_capacity=2048),
        draft_source=PrerecordedDraft(scripts),
    )
    serving.run(requests)
    assert prefill_ooms[0] > 0
    assert decode_ooms[0] > 0
    assert verify_ooms[0] > 0
    assert serving.draft_tokens_accepted > 0
    assert outputs_of(serving, requests) == reference
    audit(backend)
