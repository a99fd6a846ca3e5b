"""SHA-256 over every logits row of a raw ``decode_batch`` run.

The byte-level check behind "this change does not move a single bit of the
decode path": run it on two checkouts (``PYTHONPATH=<checkout>/src``) with
the same arguments and compare the digests.  The engine geometry is the one
``bench_hotpath.py`` and ``benchmarks/e2e`` use.  With ``--solo N`` the first
``N`` steps are also decoded one sequence at a time on a second engine and
every row compared byte for byte (the batched == solo contract).

    PYTHONPATH=src python benchmarks/decode_logits_sha.py                 # past token_budget
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --stagger 3     # singleton groups
    PYTHONPATH=src python benchmarks/decode_logits_sha.py --prompt 40 --steps 150   # full-read path
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np
from bench_hotpath import build_engine


def prefilled(args: argparse.Namespace):
    """An engine with ``batch`` sequences of ``prompt + i * stagger`` seeded tokens."""
    engine = build_engine(batch=0, context=0, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    seq_ids = [f"s{i}" for i in range(args.batch)]
    for i, seq_id in enumerate(seq_ids):
        engine.prefill(seq_id, rng.integers(0, 512, size=args.prompt + i * args.stagger))
    return engine, seq_ids


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--steps", type=int, default=340)
    parser.add_argument("--prompt", type=int, default=552, help="prompt length (token_budget is 256)")
    parser.add_argument("--stagger", type=int, default=0, help="extra prompt tokens per sequence index")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--solo", type=int, default=0, help="also check this many steps against solo decode")
    args = parser.parse_args()

    engine, seq_ids = prefilled(args)
    tokens = np.random.default_rng(args.seed + 1).integers(0, 512, size=(args.steps, args.batch))
    digest = hashlib.sha256()
    rows = []
    for t in range(args.steps):
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
