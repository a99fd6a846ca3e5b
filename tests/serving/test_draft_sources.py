"""Draft-source contract tests: what each drafter proposes, and how the engine asks.

The three drafters the serving engine ships (:class:`NGramDraft`,
:class:`ModeledDraft`, :class:`PrerecordedDraft`) are pinned here by their
stated properties rather than by examples alone: an n-gram proposal always
continues an earlier occurrence of a history suffix, a modeled draw depends
only on ``(seed, request, position)``, a script is sliced at the output
position.  The engine side of the protocol is pinned too: it asks for at most
the request's ``speculation_k`` and never past the token budget, cuts an
over-long proposal to ``k``, decodes plainly on an empty one, and calls
:meth:`DraftSource.release` exactly once per request, whether it finishes or
is aborted.  A last matrix runs arbitrary (mostly wrong) drafts through the
real backend: a draft can only be slow, never wrong.
"""

import collections
import math

import numpy as np
import pytest

from repro.baselines.systems import lserve_policy
from repro.gpu.device import A100_80G
from repro.gpu.simulator import LatencySimulator
from repro.model.configs import LLAMA_3_8B
from repro.serving import (
    ModeledDraft,
    NGramDraft,
    PrerecordedDraft,
    Request,
    SamplingParams,
    SchedulerConfig,
    ServingEngine,
    SimulatedBackend,
)
from repro.serving.speculative import MAX_NGRAM
from tests.conftest import assert_no_leaked_pages
from tests.serving.test_speculative import model  # noqa: F401
from tests.serving.test_speculative import (
    make_backend,
    reference_outputs,
    run_serving,
    trace,
    with_speculation,
)


def random_history(seed: int) -> list[int]:
    """A short history over a four-token vocabulary, so suffixes re-occur."""
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, 4, size=int(rng.integers(2, 40)))]


class TestNGramDraft:
    @pytest.mark.parametrize("seed", range(8))
    def test_proposal_continues_an_earlier_occurrence_of_a_suffix(self, seed):
        draft = NGramDraft()
        history = random_history(seed)
        n_hist = len(history)
        for k in range(1, 7):
            proposal = draft.propose("r", history, [], k)
            assert len(proposal) <= k
            # A one-token suffix always matches when the last token re-occurs.
            assert bool(proposal) == (history[-1] in history[:-1])
            if not proposal:
                continue
            assert any(
                history[start : start + n] == history[-n:]
                and history[start + n : start + n + len(proposal)] == proposal
                and len(proposal) == min(k, n_hist - start - n)
                for n in range(1, min(MAX_NGRAM, n_hist - 1) + 1)
                for start in range(n_hist - n)
            )
            # When the longest matched suffix re-occurs, its most recent
            # earlier occurrence is the one continued.
            if n_hist > MAX_NGRAM:
                suffix = history[-MAX_NGRAM:]
                starts = [
                    s for s in range(n_hist - MAX_NGRAM) if history[s : s + MAX_NGRAM] == suffix
                ]
                if starts:
                    at = starts[-1] + MAX_NGRAM
                    assert proposal == history[at : at + k]

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_proposal_is_k_long_when_the_history_allows(self, k):
        prompt = list(range(20)) + list(range(5))
        assert NGramDraft().propose("r", prompt, [], k) == list(range(5, 5 + k))

    def test_split_between_prompt_and_outputs_does_not_matter(self):
        draft = NGramDraft()
        history = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 1, 4]
        expected = draft.propose("r", history, [], 4)
        assert expected == [1, 5, 9, 2]
        assert draft.propose("r", None, history, 4) == expected
        for cut in range(len(history) + 1):
            assert draft.propose("r", history[:cut], history[cut:], 4) == expected

    def test_stateless_across_requests_and_release(self):
        draft = NGramDraft()
        history = [5, 6, 7, 8, 5, 6]
        first = draft.propose("a", history, [], 3)
        draft.release("a")
        draft.release("never-seen")
        assert draft.propose("a", history, [], 3) == first == [7, 8, 5]
        assert draft.propose("b", history, [], 3) == first

    def test_history_without_a_repeat_proposes_nothing(self):
        draft = NGramDraft()
        assert draft.propose("r", list(range(50)), [], 4) == []
        assert draft.propose("r", [7], [], 4) == []
        assert draft.propose("r", None, [7], 4) == []


class TestModeledDraft:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_proposes_exactly_k_hit_or_miss_tokens(self, k):
        draft = ModeledDraft(acceptance=0.6, seed=5)
        for n_out in range(30):
            proposal = draft.propose("r", None, [0] * n_out, k)
            assert len(proposal) == k
            assert set(proposal) <= {0, 1}

    def test_draws_are_keyed_by_position_not_by_content(self):
        draft = ModeledDraft(acceptance=0.5, seed=7)
        for base in range(40):
            window = draft.propose("r", [9, 9, 9], [2] * base, 6)
            # The draw for position base + j does not depend on where the
            # proposal starts, on k, or on the token content.
            for j, token in enumerate(window):
                assert draft.propose("r", None, [4] * (base + j), 1) == [token]
            assert draft.propose("r", None, list(range(base)), 3) == window[:3]

    @pytest.mark.parametrize("acceptance, token", [(0.0, 1), (1.0, 0)])
    def test_edge_rates_always_miss_or_always_hit(self, acceptance, token):
        draft = ModeledDraft(acceptance=acceptance, seed=3)
        for n_out in range(50):
            assert draft.propose(f"r{n_out % 3}", None, [0] * n_out, 4) == [token] * 4

    @pytest.mark.parametrize("acceptance", [0.2, 0.5, 0.9])
    def test_hit_rate_tracks_acceptance(self, acceptance):
        draft = ModeledDraft(acceptance=acceptance, seed=11)
        drafts = [draft.propose(f"r{i % 7}", None, [0] * i, 8) for i in range(400)]
        hits = sum(d.count(0) for d in drafts)
        assert abs(hits / (8 * len(drafts)) - acceptance) < 0.05

    @pytest.mark.parametrize("acceptance", [-0.01, 1.01, math.nan])
    def test_rates_outside_the_unit_interval_are_refused(self, acceptance):
        with pytest.raises(ValueError, match="acceptance"):
            ModeledDraft(acceptance=acceptance)

    def test_streams_are_reproducible_and_differ_by_seed(self):
        def stream(draft, rid):
            return [t for i in range(0, 64, 8) for t in draft.propose(rid, None, [0] * i, 8)]

        base = stream(ModeledDraft(acceptance=0.5, seed=0), "a")
        assert stream(ModeledDraft(acceptance=0.5, seed=0), "a") == base
        assert stream(ModeledDraft(acceptance=0.5, seed=1), "a") != base


class TestPrerecordedDraft:
    def test_scripts_are_copied_at_construction(self):
        script = [10, 11, 12]
        scripts = {"r": script}
        draft = PrerecordedDraft(scripts)
        script[0] = 99
        scripts["other"] = [1, 2]
        assert draft.propose("r", None, [], 3) == [10, 11, 12]
        assert draft.propose("other", None, [], 3) == []

    def test_proposals_are_python_ints(self):
        draft = PrerecordedDraft({"r": np.array([3, 4, 5], dtype=np.int64)})
        proposal = draft.propose("r", None, [], 3)
        assert proposal == [3, 4, 5]
        assert all(type(t) is int for t in proposal)

    def test_past_the_end_of_the_script_proposes_nothing(self):
        draft = PrerecordedDraft({"r": [1, 2, 3]})
        assert draft.propose("r", None, [1, 2], 4) == [3]
        assert draft.propose("r", None, [1, 2, 3], 4) == []
        assert draft.propose("r", None, [1, 2, 3, 4, 5], 4) == []

    def test_only_the_output_position_matters(self):
        draft = PrerecordedDraft({"r": [7, 8, 9, 10]})
        assert draft.propose("r", [1, 2, 3], [0], 2) == [8, 9]
        assert draft.propose("r", None, [5], 2) == [8, 9]
        draft.release("r")
        assert draft.propose("r", None, [5, 5], 2) == [9, 10]


class RecordingDraft:
    """Wraps a draft source and records every ``propose`` and ``release``."""

    def __init__(self, inner, stretch: int = 1) -> None:
        self.inner = inner
        self.stretch = stretch
        self.calls: list[tuple[str, tuple[int, ...] | None, tuple[int, ...], int]] = []
        self.releases: collections.Counter = collections.Counter()

    def propose(self, request_id, prompt_tokens, output_tokens, k):
        prompt = None if prompt_tokens is None else tuple(prompt_tokens)
        self.calls.append((request_id, prompt, tuple(output_tokens), k))
        # ``stretch`` > 1 asks the inner draft for more than the engine did.
        return self.inner.propose(request_id, prompt_tokens, output_tokens, k * self.stretch)

    def release(self, request_id):
        self.releases[request_id] += 1


MAX_NEW = {"r0": 5, "r1": 9, "r2": 17, "r3": 30}


def simulated_engine(draft) -> ServingEngine:
    latency = LatencySimulator(LLAMA_3_8B, A100_80G, lserve_policy())
    return ServingEngine(
        SimulatedBackend(latency), SchedulerConfig(max_batch_size=4), draft_source=draft
    )


def simulated_requests(ks) -> list[Request]:
    return [
        Request(
            rid,
            prompt_tokens=64,
            max_new_tokens=max_new,
            sampling=SamplingParams(speculation_k=k),
            arrival_time_s=0.001 * i,
        )
        for i, ((rid, max_new), k) in enumerate(zip(MAX_NEW.items(), ks))
    ]


class TestEngineAsksWithinBounds:
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 16])
    def test_k_never_exceeds_the_knob_or_the_remaining_budget(self, k):
        draft = RecordingDraft(ModeledDraft(acceptance=0.7, seed=2))
        engine = simulated_engine(draft)
        metrics = engine.run(simulated_requests([k] * len(MAX_NEW)))
        assert draft.calls
        for rid, _, outputs, asked in draft.calls:
            # The first token comes from prefill; then at least one position
            # is kept for the verified token itself.
            assert outputs
            assert 1 <= asked <= k
            assert asked <= MAX_NEW[rid] - len(outputs) - 1
        assert {r.request_id: r.generated_tokens for r in metrics.records} == MAX_NEW

    def test_requests_without_speculation_k_are_never_asked(self):
        draft = RecordingDraft(ModeledDraft(acceptance=0.7, seed=2))
        engine = simulated_engine(draft)
        engine.run(simulated_requests([0, 3, 0, 3]))
        assert {rid for rid, *_ in draft.calls} == {"r1", "r3"}
        assert engine.handle("r0").spec_decode_steps == 0
        assert engine.handle("r3").spec_decode_steps > 0

    def test_speculation_k_without_a_draft_source_decodes_plainly(self):
        plain = simulated_engine(None)
        plain_metrics = plain.run(simulated_requests([0] * len(MAX_NEW)))
        knob_only = simulated_engine(None)
        knob_metrics = knob_only.run(simulated_requests([4] * len(MAX_NEW)))
        assert knob_only.spec_decode_steps == knob_only.draft_tokens_proposed == 0
        assert knob_metrics.makespan_s() == plain_metrics.makespan_s()

    def test_an_over_long_proposal_is_cut_to_k(self):
        draft = RecordingDraft(ModeledDraft(acceptance=1.0, seed=0), stretch=3)
        engine = simulated_engine(draft)
        engine.run(simulated_requests([2] * len(MAX_NEW)))
        assert engine.draft_tokens_proposed == sum(asked for *_, asked in draft.calls)
        # Every cut chunk of placeholder hits is accepted whole.
        assert engine.draft_tokens_accepted == engine.draft_tokens_proposed

    def test_an_empty_proposal_decodes_plainly(self):
        plain = simulated_engine(None)
        plain_metrics = plain.run(simulated_requests([0] * len(MAX_NEW)))
        draft = RecordingDraft(PrerecordedDraft({}))
        engine = simulated_engine(draft)
        metrics = engine.run(simulated_requests([4] * len(MAX_NEW)))
        assert draft.calls
        assert engine.spec_decode_steps == engine.draft_tokens_proposed == 0
        assert metrics.makespan_s() == plain_metrics.makespan_s()
        assert metrics.total_generated_tokens() == plain_metrics.total_generated_tokens()


class TestEngineReleasesDraftState:
    def test_each_finished_request_is_released_once(self):
        draft = RecordingDraft(ModeledDraft(acceptance=0.5, seed=4))
        engine = simulated_engine(draft)
        engine.run(simulated_requests([3, 0, 3, 0]))
        # Released whether or not the request speculated.
        assert draft.releases == collections.Counter(list(MAX_NEW))

    def test_abort_mid_decode_releases_once_and_stops_proposals(self):
        draft = RecordingDraft(ModeledDraft(acceptance=0.5, seed=4))
        engine = simulated_engine(draft)
        for request in simulated_requests([3] * len(MAX_NEW)):
            engine.submit(request)
        while not any(rid == "r3" for rid, *_ in draft.calls):
            assert engine.step() is not None
        assert engine.abort("r3")
        asked_before = sum(rid == "r3" for rid, *_ in draft.calls)
        while engine.step() is not None:
            pass
        assert sum(rid == "r3" for rid, *_ in draft.calls) == asked_before
        assert draft.releases == collections.Counter(list(MAX_NEW))
        assert not engine.abort("r3")
        assert draft.releases["r3"] == 1

    def test_abort_before_admission_releases_once(self):
        draft = RecordingDraft(ModeledDraft(acceptance=0.5, seed=4))
        engine = simulated_engine(draft)
        for request in simulated_requests([3] * len(MAX_NEW)):
            engine.submit(request)
        assert engine.abort("r2")
        while engine.step() is not None:
            pass
        assert not any(rid == "r2" for rid, *_ in draft.calls)
        assert draft.releases == collections.Counter(list(MAX_NEW))


class TestRealBackendDraftContract:
    def test_propose_sees_the_prompt_and_the_emitted_stream(self, model):
        reference = reference_outputs(model, SamplingParams())
        draft = RecordingDraft(NGramDraft())
        requests = trace(model, with_speculation(SamplingParams(), 3))
        prompts = {r.request_id: tuple(r.prompt_token_ids) for r in requests}
        _, _, outputs = run_serving(make_backend(model), requests, draft=draft)
        assert outputs == reference
        assert draft.calls
        for rid, prompt, emitted, _ in draft.calls:
            assert prompt == prompts[rid]
            assert list(emitted) == reference[rid][: len(emitted)]

    @pytest.mark.parametrize(
        "sampling",
        [
            pytest.param(SamplingParams(), id="greedy"),
            pytest.param(SamplingParams(temperature=0.8, seed=3), id="temperature"),
        ],
    )
    @pytest.mark.parametrize("acceptance", [0.0, 0.5, 1.0])
    def test_modeled_draft_is_byte_identical_on_a_real_backend(self, model, sampling, acceptance):
        # On a real model a modeled "hit" is merely token 0: the drafts are
        # mostly wrong, so this pins that a wrong draft is only slow.
        reference = reference_outputs(model, sampling)
        backend = make_backend(model)
        engine, _, outputs = run_serving(
            backend,
            trace(model, with_speculation(sampling, 4)),
            draft=ModeledDraft(acceptance=acceptance, seed=6),
        )
        assert outputs == reference
        assert engine.draft_tokens_proposed > 0
        assert_no_leaked_pages(backend.engine.cache.dense_cache.allocator, backend=backend)
