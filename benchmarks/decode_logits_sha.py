"""SHA-256 over every logits row of a raw ``decode_batch`` run.

The byte-level check behind "this change does not move a single bit of the
decode path": run it on two checkouts (``PYTHONPATH=<checkout>/src``) with
the same arguments and compare the digests.  The engine geometry is the one
``bench_hotpath.py`` and ``benchmarks/e2e`` use.  With ``--solo N`` the first
``N`` steps are also decoded one sequence at a time on a second engine and
every row compared byte for byte (the batched == solo contract).

With ``--spec K`` the run goes through the speculative path instead: each step
verifies ``K + 1`` seeded tokens per sequence with ``decode_speculative_batch``
and commits ``1 + step % (K + 1)`` of them.  The digest covers the committed
logits rows and, at the end, every KV read of every sequence; ``--solo N``
compares rows, KV reads and cached page selections (pages and reuse phase)
after each of the first ``N`` steps with one-at-a-time ``decode``.  KV state is
compared through reads, never raw page images: a recycled page keeps stale
slots past its token count.

With ``--churn N`` the batch changes under the run: every ``N`` steps one
sequence (round robin) is released and a fresh seeded prompt prefilled under
the same id — alternately at a survivor's current length, so it lands in that
survivor's shape group, and at a seeded length — and every ``2N`` steps only a
reversed half of the batch decodes.  ``--solo N`` mirrors every event on a
second engine that decodes one sequence at a time and compares each row.

With ``--keep K`` every prefill the tool issues (the initial ones and the
``--churn`` re-prefills, on the ``--solo`` engine too) passes
``logits_to_keep=K``; a cut prefill leaves the KV an all-rows prefill leaves,
so the digest must equal the one without the flag on the same checkout.

With ``--handoff N`` every ``N`` steps one sequence (round robin) is migrated
within the engine before the step: ``handoff_out`` then ``handoff_in``.  The
export carries the cached page selections with the pages, so nothing is
carried by hand (checkouts whose selector still keeps them get them carried
across, as their cold-tier demotion does).  The sequence comes back on
freshly allocated pages of both pools, so the digest must equal the one
without the flag on the same checkout.

BLAS runs on one thread (``OMP/OPENBLAS/MKL_NUM_THREADS=1``, set before numpy
loads, as ``benchmarks/e2e/run.py`` does): a multi-threaded GEMM may split its
sums differently, so on a 2-CPU machine the ``--stagger 3``, ``--spec 4
--stagger 3`` and ``--churn 7`` digests read otherwise at the default thread
count.  Pinned, a digest depends on the code and the BLAS build only, and two
checkouts compare across shells and machines.  The batched == solo checks pass
either way.

    PYTHONPATH=src python benchmarks/decode_logits_sha.py                 # past token_budget
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --stagger 3     # singleton groups
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --prompt 40 --steps 150   # full-read path
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --spec 4 [--stagger 3]    # verify + commit
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --churn 7 [--stagger 3]   # membership change
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --keep 1 [any of the above]   # cut prefills
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --handoff 5 [any of the above]  # export + import
"""

from __future__ import annotations

import os

# One BLAS thread, so the digest does not depend on the machine's core count.
# Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402
from bench_hotpath import build_engine  # noqa: E402


def prefill_form(args: argparse.Namespace) -> dict:
    """``prefill`` keywords of ``--keep`` (none without it, so older checkouts still run)."""
    return {} if args.keep is None else {"logits_to_keep": args.keep}


def prefilled(args: argparse.Namespace):
    """An engine with ``batch`` sequences of ``prompt + i * stagger`` seeded tokens."""
    engine = build_engine(batch=0, context=0, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    seq_ids = [f"s{i}" for i in range(args.batch)]
    for i, seq_id in enumerate(seq_ids):
        engine.prefill(seq_id, rng.integers(0, 512, size=args.prompt + i * args.stagger), **prefill_form(args))
    return engine, seq_ids


def hand_off(args: argparse.Namespace, engine, seq_ids: list[str], t: int) -> None:
    """Every ``--handoff`` steps, migrate the next sequence (round robin) out of the engine and back in."""
    if not args.handoff or not t or t % args.handoff:
        return
    seq_id = seq_ids[(t // args.handoff - 1) % len(seq_ids)]
    # Older checkouts keep the selections in the selector: carry them by hand.
    by_hand = hasattr(engine.selector, "export_sequence")
    selections = engine.selector.export_sequence(seq_id) if by_hand else None
    engine.handoff_in(seq_id, engine.handoff_out(seq_id))
    if by_hand:
        engine.selector.import_sequence(selections)


def kv_reads(engine, seq_id: str) -> bytes:
    """Everything the engine can read back of one sequence's KV, layer by layer."""
    cache = engine.cache
    return b"".join(
        np.ascontiguousarray(array).tobytes()
        for layer in range(engine.model.config.n_layers)
        for read in (cache.get_dense, cache.dense_key_stats, cache.get_streaming)
        for array in read(seq_id, layer)
    )


def cached_selections(engine, seq_id: str) -> list[tuple]:
    """``(key, pages, queries_served)`` of every page selection cached for one sequence."""
    if hasattr(engine.selector, "export_sequence"):
        entries = engine.selector.export_sequence(seq_id)
    else:
        entries = {key: entry for key, entry in engine.cache.pools[0].page_selections.items() if key[0] == seq_id}
    out = []
    for key, entry in sorted(entries.items()):
        # (selection, queries_served) pairs; checkouts older than
        # ReusablePageSelector.snapshot export objects with those attributes.
        selection, served = entry if isinstance(entry, tuple) else (entry.selection, entry.queries_served)
        out.append((key, selection.pages.tobytes(), served))
    return out


def run_speculative(args: argparse.Namespace, digest) -> None:
    """Verify ``spec + 1`` tokens per sequence and step, commit a cycling prefix of them."""
    width = args.spec + 1
    engine, seq_ids = prefilled(args)
    solo = prefilled(args)[0] if args.solo else None
    tokens = np.random.default_rng(args.seed + 1).integers(0, 512, size=(args.steps, args.batch, width))
    for t in range(args.steps):
        hand_off(args, engine, seq_ids, t)
        n_commit = 1 + t % width
        results = engine.decode_speculative_batch(list(zip(seq_ids, tokens[t])))
        for i, (seq_id, (logits, chunk)) in enumerate(zip(seq_ids, results)):
            engine.commit_speculative(seq_id, chunk, n_commit)
            digest.update(np.ascontiguousarray(logits[:n_commit]).tobytes())
            if t < args.solo:
                for j in range(n_commit):
                    assert solo.decode(seq_id, int(tokens[t, i, j])).tobytes() == logits[j].tobytes(), (t, seq_id, j)
                assert kv_reads(engine, seq_id) == kv_reads(solo, seq_id), (t, seq_id)
                assert cached_selections(engine, seq_id) == cached_selections(solo, seq_id), (t, seq_id)
    if args.solo:
        print(f"verify + commit == solo decode over {args.solo} steps (rows, KV reads, cached selections)")
    for seq_id in seq_ids:
        digest.update(kv_reads(engine, seq_id))


def run_churn(args: argparse.Namespace, digest) -> None:
    """Decode while sequences are replaced under their ids and sub-batches decode out of order."""
    engine, seq_ids = prefilled(args)
    engines = [engine, prefilled(args)[0]] if args.solo else [engine]
    rng = np.random.default_rng(args.seed + 2)
    tokens = np.random.default_rng(args.seed + 1).integers(0, 512, size=(args.steps, args.batch))
    for t in range(args.steps):
        event, due = divmod(t, args.churn)
        if t and not due:
            victim, survivor = seq_ids[event % args.batch], seq_ids[(event + 1) % args.batch]
            if event % 2:
                length = engine.context_length(survivor)
            else:
                length = int(rng.integers(args.prompt // 2, args.prompt + args.steps))
            prompt = rng.integers(0, 512, size=length)
            for each in engines:
                each.release(victim)
                each.prefill(victim, prompt, **prefill_form(args))
        hand_off(args, engine, seq_ids, t)
        members = list(range(args.batch))
        if t and t % (2 * args.churn) == 0:
            members = members[::-1][: max(1, args.batch // 2)]
        logits = engine.decode_batch([seq_ids[i] for i in members], tokens[t, members])
        digest.update(np.ascontiguousarray(logits).tobytes())
        if t < args.solo:
            for row, i in zip(logits, members):
                assert engines[1].decode(seq_ids[i], int(tokens[t, i])).tobytes() == row.tobytes(), (t, seq_ids[i])
    if args.solo:
        print(f"decode_batch under churn == solo decode over {min(args.solo, args.steps)} steps")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--steps", type=int, default=340)
    parser.add_argument("--prompt", type=int, default=552, help="prompt length (token_budget is 256)")
    parser.add_argument("--stagger", type=int, default=0, help="extra prompt tokens per sequence index")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--solo", type=int, default=0, help="also check this many steps against solo decode")
    parser.add_argument("--spec", type=int, default=0, help="draft tokens per step: digest the verify + commit path")
    parser.add_argument("--churn", type=int, default=0, help="replace one sequence under its id every this many steps")
    parser.add_argument("--keep", type=int, default=None, help="logits_to_keep of every prefill (default: all rows)")
    parser.add_argument("--handoff", type=int, default=0, help="export + re-import one sequence every this many steps")
    args = parser.parse_args()

    digest = hashlib.sha256()
    if args.spec or args.churn:
        (run_speculative if args.spec else run_churn)(args, digest)
        print(f"sha256 {digest.hexdigest()}  ({vars(args)})")
        return
    engine, seq_ids = prefilled(args)
    tokens = np.random.default_rng(args.seed + 1).integers(0, 512, size=(args.steps, args.batch))
    rows = []
    for t in range(args.steps):
        hand_off(args, engine, seq_ids, t)
        logits = engine.decode_batch(seq_ids, tokens[t])
        digest.update(np.ascontiguousarray(logits).tobytes())
        if t < args.solo:
            rows.append(logits)
    if args.solo:
        solo, _ = prefilled(args)
        for t, batched in enumerate(rows):
            for i, seq_id in enumerate(seq_ids):
                assert solo.decode(seq_id, int(tokens[t, i])).tobytes() == batched[i].tobytes(), (t, seq_id)
        print(f"decode_batch == solo decode over {args.solo} steps")
    print(f"sha256 {digest.hexdigest()}  ({vars(args)})")


if __name__ == "__main__":
    main()
