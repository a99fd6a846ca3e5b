"""Seeded invariant fuzzing of the paged KV cache, prefix index, and cold tier.

Each seed drives a few hundred random operations — sequence creation,
appends, copy-on-write forks, removals, export/import migrations, cold-tier
demote/restore round trips, prefix registration/attachment, prefix-index
demotions and evictions, batched decode steps whose selected-page gathers
reuse their selections (so operand blocks are live while everything else
happens to their members), the in-place speculative lifecycle (a verify
writes a chunk's rows past a sequence's count — a decode step at a time,
with its selected-page and window gathers, or in bulk — and rewinds it; a
commit advances the count by a prefix of those rows, also across a page
boundary and after a fork shares the tail page), and draft forks as fork
coverage (draft-append onto a fork, accept committing a prefix back to the
parent, reject dropping the fork, and a fused resolve of a random subset of
live drafts) — against a small two-way cache — two dense heads and one
streaming head, each kind on its own page pool — and re-checks the global
bookkeeping invariants after *every* operation:

* page conservation in both pools: ``num_free + num_allocated == capacity``;
* every allocated page of either pool has refcount >= 1, and the refcount
  equals exactly the number of owners (sequence tables + prefix-index nodes)
  we can see;
* pinned pages are precisely the prefix index's hot pages
  (``allocator.num_pinned == index.held_pages``, in both pools), and every
  one is allocated;
* the streaming pool cannot run dry first: a sequence's streaming table
  holds at most its sink + local pages plus one, and no more pages than its
  dense table, and the streaming pool has no more pages allocated than the
  dense pool;
* streaming reads: every live (sequence, layer)'s sink + local window equals
  the retained positions of the raw keys the driver appended, read alone
  and — after a decode step — grouped;
* per-sequence consistency: all layers agree on the token count and the page
  table covers it;
* page-resident key statistics: every live (sequence, layer)'s ``key_stats``
  equals ``compute_page_key_stats`` over the raw keys the driver appended —
  through forks (copy-on-write of the stat rows), migrations, demote/restore,
  prefix demote/restore/attach (page images carry the rows), rewinds (the
  rows a verify folded into are restored) and commits;
* operand blocks: every selected-page gather equals a plain read of the
  same pages whether a block served it or not; blocks name live sequences
  only, their memory is bounded by the live sequences, and a block whose
  members have not appended since it was served equals a fresh gather;
* selection entries travel with their sequence: every live (sequence,
  layer) holds exactly the ``(selection, queries_served)`` entry the
  fuzzer's decode steps last installed — through forks, migrations,
  demote/restore, draft forks and rewinds, and onto a sequence a commit
  advances — and no removed sequence or streaming table holds one;
* the cold tier's entries match the driver's view of what was demoted;
* every live draft scratch is a real sequence extending its recorded base —
  speculative forks obey the same conservation rules as everything else;
* every pending verify belongs to a live sequence, and while the sequence
  stands at the verify's base its pages still cover the rows.

At the end of each run everything is torn down and the shared zero-leak
audit must pass — no page may survive in either tier, no rejected (or
accepted) draft scratch may leave a page behind, and no operand block may
outlive the sequences it named.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvcache.allocator import OutOfPagesError
from repro.kvcache.dual_cache import DualPagedKVCache
from repro.kvcache.kv_stats import compute_page_key_stats
from repro.kvcache.paged_cache import PagedCacheConfig
from repro.kvcache.prefix_index import PrefixIndex
from repro.kvcache.tiering import ColdTierStore
from tests.conftest import assert_no_leaked_pages, streaming_retained

N_LAYERS = 2
N_KV_HEADS = 2  # dense heads
N_HEADS = N_KV_HEADS + 1  # ... and one streaming head, the last
SINK, LOCAL = 4, 8
HEAD_DIM = 4
PAGE_SIZE = 4
LOGICAL_PAGE_SIZE = 2  # two stat rows per physical page
NUM_PAGES = 32
VOCAB = 6  # tiny vocabulary so random prompts collide and share prefixes

MAX_SELECTED_PAGES = 3  # pages a decode step's selection keeps per head
#: K and V bytes one sequence can hold in operand blocks, per layer.
BLOCK_BYTES_PER_SEQUENCE = 2 * N_KV_HEADS * MAX_SELECTED_PAGES * PAGE_SIZE * HEAD_DIM * 8

N_SEEDS = 24
N_OPS = 250


def make_cache() -> DualPagedKVCache:
    return DualPagedKVCache(
        PagedCacheConfig(
            n_layers=N_LAYERS,
            n_kv_heads=N_HEADS,
            head_dim=HEAD_DIM,
            page_size=PAGE_SIZE,
            num_pages=NUM_PAGES,
            kv_bits=16,
            logical_page_size=LOGICAL_PAGE_SIZE,
        ),
        np.arange(N_HEADS) >= N_KV_HEADS,
        SINK,
        LOCAL,
    )


def reference_stats(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(kmin, kmax)`` of the dense heads' raw keys ``(n, N_HEADS, dim)``, per logical page."""
    pages = compute_page_key_stats(keys[:, :N_KV_HEADS], LOGICAL_PAGE_SIZE)
    if not pages:
        empty = np.zeros((0, N_KV_HEADS, HEAD_DIM))
        return empty, empty
    return np.stack([p.kmin for p in pages]), np.stack([p.kmax for p in pages])


class FuzzDriver:
    """Random-op driver holding the ground-truth view the invariants check."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.dual = make_cache()
        #: The dense pool: what the selection, key-statistic and access-clock checks read.
        self.cache = self.dual.dense_cache
        self.stream = self.dual.streaming_cache
        self.index = PrefixIndex(page_size=PAGE_SIZE, allocators=tuple(p.allocator for p in self.dual.pools))
        self.cold = ColdTierStore()
        #: live sequence id -> token ids written so far (ground truth).
        self.tokens: dict[str, list[int]] = {}
        #: live sequence id -> per-layer raw keys of every head appended so
        #: far, ``(n, N_HEADS, dim)``.
        self.keys: dict[str, list[np.ndarray]] = {}
        #: live sequence id -> per-layer ``(kmin, kmax)`` recomputed from ``keys``.
        self.expected_stats: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        #: sequence ids currently parked in the cold tier.
        self.demoted: list[str] = []
        #: draft scratch id -> (parent id, parent token count at fork time).
        self.drafts: dict[str, tuple[str, int]] = {}
        #: sequence id -> (token count, per-layer raw keys of the rows past it)
        #: of its latest verify, until a commit takes a prefix of them in.
        self.verified: dict[str, tuple[int, list[np.ndarray]]] = {}
        #: live sequence id -> the ``(selection, queries_served)`` entry its
        #: decode steps reuse, as the reusable selector would hand the same
        #: selection out again; every layer of the dense pool holds it.
        self.entries: dict[str, tuple[np.ndarray, int]] = {}
        self._next_id = 0

    # -- helpers ---------------------------------------------------------------
    def new_id(self) -> str:
        self._next_id += 1
        return f"seq{self._next_id}"

    def pick_live(self) -> str | None:
        if not self.tokens:
            return None
        return str(self.rng.choice(sorted(self.tokens)))

    def random_tokens(self, n: int) -> list[int]:
        return [int(t) for t in self.rng.integers(0, VOCAB, size=n)]

    def append_tokens(self, seq_id: str, toks: list[int], register: bool = False) -> bool:
        """Reserve + write ``toks`` into every layer, then slide; False when out of pages.

        The engine's bulk-append shape (a prefill, a speculative commit):
        with ``register`` the prompt is filed in the prefix index before the
        slide, while the streaming table still holds every page written.
        """
        n = len(toks)
        try:
            self.dual.prepare_append(seq_id, n)
        except OutOfPagesError:
            return False
        for layer in range(N_LAYERS):
            k = self.rng.normal(size=(n, N_HEADS, HEAD_DIM))
            v = self.rng.normal(size=(n, N_HEADS, HEAD_DIM))
            self.dual.append(seq_id, layer, k, v)
            self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k])
        self.tokens[seq_id].extend(toks)
        self.recompute_stats(seq_id)
        if register:
            self.register_prefix(seq_id)
        self.dual.slide(seq_id)
        return True

    def recompute_stats(self, seq_id: str) -> None:
        """Reference key statistics of a sequence, from all its raw keys."""
        self.expected_stats[seq_id] = [reference_stats(keys) for keys in self.keys[seq_id]]

    def track(self, seq_id: str, toks: list[int], keys: list[np.ndarray], entry: tuple | None = None) -> None:
        """Start tracking a sequence that holds ``toks`` written with ``keys`` (and selection ``entry``)."""
        self.tokens[seq_id] = list(toks)
        self.keys[seq_id] = list(keys)
        if entry is not None:
            self.entries[seq_id] = entry
        self.recompute_stats(seq_id)

    def untrack(self, seq_id: str) -> tuple[list[int], list[np.ndarray], tuple | None]:
        self.drafts.pop(seq_id, None)
        self.verified.pop(seq_id, None)
        del self.expected_stats[seq_id]
        return self.tokens.pop(seq_id), self.keys.pop(seq_id), self.entries.pop(seq_id, None)

    def install(self, seq_id: str, entry: tuple) -> None:
        """Make ``entry`` the sequence's selection entry in every layer (a selector refresh or a commit)."""
        self.entries[seq_id] = entry
        for layer in range(N_LAYERS):
            self.cache.page_selections[(seq_id, layer)] = entry

    def commit(self, scratch: str, n_commit: int) -> None:
        """Append a draft's accepted prefix to its parent, then install the draft's entry there.

        The parent re-appends the accepted tokens itself (so the commit is
        charged to the parent's page tables; out of pages commits nothing)
        and takes the selection entry the scratch holds.
        """
        parent, base_len = self.drafts[scratch]
        accepted = self.tokens[scratch][base_len : base_len + n_commit]
        if self.append_tokens(parent, accepted) and scratch in self.entries:
            self.install(parent, self.entries[scratch])

    # -- operations ------------------------------------------------------------
    def op_add(self) -> None:
        if len(self.tokens) >= 10:
            return
        seq_id = self.new_id()
        self.dual.add_sequence(seq_id)
        self.track(seq_id, [], [np.zeros((0, N_HEADS, HEAD_DIM))] * N_LAYERS)
        prompt = self.random_tokens(int(self.rng.integers(1, 25)))
        self.append_tokens(seq_id, prompt, register=bool(self.rng.integers(0, 2)))

    def op_append(self) -> None:
        seq_id = self.pick_live()
        if seq_id is not None:
            self.append_tokens(seq_id, self.random_tokens(int(self.rng.integers(1, 7))))

    def op_fork(self) -> None:
        parent = self.pick_live()
        if parent is None or len(self.tokens) >= 10:
            return
        child = self.new_id()
        self.dual.fork_sequence(parent, child)
        self.track(child, self.tokens[parent], self.keys[parent], self.entries.get(parent))

    def op_remove(self) -> None:
        seq_id = self.pick_live()
        if seq_id is not None:
            self.dual.remove_sequence(seq_id)
            self.untrack(seq_id)

    def op_read(self) -> None:
        """Touch a sequence's pages through the access clock the LRU policy uses."""
        seq_id = self.pick_live()
        if seq_id is not None:
            layer = int(self.rng.integers(0, N_LAYERS))
            self.cache.get(seq_id, layer)

    def op_decode_step(self) -> None:
        """One batched decode step: a token per member, then the selected-page gathers.

        A member keeps its selection object while its page count stands
        (replaced at random, as a selector refresh would), counting the
        queries it served in its entry, so consecutive steps of one batch
        are served from operand blocks; whatever else the fuzzer did to the
        members in between must turn into a fresh gather.
        Every gathered row is compared with a plain read of its pages, and
        every member's streaming window, read grouped, with its raw keys.
        """
        live = sorted(self.tokens)
        if not live:
            return
        size = int(self.rng.integers(1, len(live) + 1))
        batch = []
        for seq_id in (str(s) for s in self.rng.choice(live, size=size, replace=False)):
            try:
                self.dual.prepare_append(seq_id, 1)
                batch.append(seq_id)
            except OutOfPagesError:
                pass  # this member sits the step out
        if not batch:
            return
        for layer in range(N_LAYERS):
            k, v = self.rng.normal(size=(2, len(batch), N_HEADS, HEAD_DIM))
            self.dual.append_batch(batch, layer, k, v)
            for i, seq_id in enumerate(batch):
                self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], k[i : i + 1]])
            for rows, k_g, _ in self.dual.get_streaming_groups(batch, layer):
                for row, i in zip(k_g, rows):
                    keys = self.keys[batch[i]][layer]
                    kept = streaming_retained(len(keys), SINK, LOCAL, PAGE_SIZE)
                    assert np.array_equal(row[0], keys[kept, N_KV_HEADS])
        groups: dict[tuple[int, int], list[str]] = {}
        for seq_id, token in zip(batch, self.random_tokens(len(batch))):
            self.tokens[seq_id].append(token)
            self.recompute_stats(seq_id)
            tail = (len(self.tokens[seq_id]) - 1) // PAGE_SIZE
            selection, served = self.entries.get(seq_id, (None, 0))
            if selection is None or selection[0, -1] != tail or self.rng.random() < 0.2:
                # Per head: random earlier pages, then the tail page.
                rows = [
                    sorted(self.rng.permutation(tail)[: MAX_SELECTED_PAGES - 1].tolist()) + [tail]
                    for _ in range(N_KV_HEADS)
                ]
                selection, served = np.asarray(rows, dtype=np.int64), 0
            self.install(seq_id, (selection, served + 1))
            groups.setdefault(self.cache.selected_token_count(seq_id, 0, selection), []).append(seq_id)
        for members in groups.values():
            for layer in range(N_LAYERS):
                gathered = self.cache.gather_selected_batch(
                    members, layer, [self.entries[seq_id][0] for seq_id in members]
                )
                for i, seq_id in enumerate(members):
                    plain = self.cache.read_batch([seq_id], layer)
                    for head, pages in enumerate(self.entries[seq_id][0]):
                        positions = (pages[:, None] * PAGE_SIZE + np.arange(PAGE_SIZE)).ravel()
                        positions = positions[positions < len(self.tokens[seq_id])]
                        for got, want in zip(gathered, plain):
                            assert np.array_equal(got[i, head], want[0, head, positions])

    def op_migrate(self) -> None:
        """Export -> remove -> re-import (the disaggregation hand-off shape)."""
        seq_id = self.pick_live()
        if seq_id is None:
            return
        export = self.dual.export_sequence(seq_id)
        self.dual.remove_sequence(seq_id)
        # Only the dense pool is asked: the streaming pool cannot run dry first.
        if self.cache.allocator.can_allocate(export.n_pages):
            self.dual.import_sequence(seq_id, export)
        else:
            self.untrack(seq_id)  # pool too full to take it back: drop it

    def op_demote(self) -> None:
        """Park a sequence's KV snapshot in the cold tier (serving demotion)."""
        seq_id = self.pick_live()
        if seq_id is None:
            return
        export = self.dual.export_sequence(seq_id)
        if seq_id in self.cold or not self.cold.can_accept(export.n_pages):
            return
        self.dual.remove_sequence(seq_id)
        self.cold.put(seq_id, (export, *self.untrack(seq_id)), export.n_pages, export.n_tokens)
        self.demoted.append(seq_id)

    def op_restore(self) -> None:
        """Re-admit a demoted sequence: ``get``, import, then ``pop``; a full pool leaves the entry parked."""
        if not self.demoted:
            return
        seq_id = str(self.rng.choice(sorted(self.demoted)))
        export, toks, keys, entry = self.cold.get(seq_id).payload
        restores = self.cold.total_restores
        if self.cache.allocator.can_allocate(export.n_pages):
            self.dual.import_sequence(seq_id, export)
            self.cold.pop(seq_id)
            self.track(seq_id, toks, keys, entry)
            self.demoted.remove(seq_id)
        assert self.cold.total_restores == restores + (seq_id not in self.cold)

    def register_prefix(self, seq_id: str) -> None:
        """File a sequence's full pages in the prefix index (pins them in both pools).

        Registration stops at the first page the streaming table no longer
        holds.  Each new node carries the raw keys of its page, so an attach
        (possibly after a demote/restore of the node) knows what the page's
        stat rows and streaming rows must equal.
        """
        n_full = self.dual.seq_len(seq_id) // PAGE_SIZE
        if n_full == 0:
            return
        toks = self.tokens[seq_id][: n_full * PAGE_SIZE]
        self.index.register(np.asarray(toks), self.dual.prefix_pages(seq_id, n_full))
        node = self.index._root
        for i in range(n_full):
            node = node.children.get(tuple(toks[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]))
            if node is None:
                return
            if not hasattr(node, "fuzz_keys"):
                node.fuzz_keys = [k[i * PAGE_SIZE : (i + 1) * PAGE_SIZE] for k in self.keys[seq_id]]

    def op_register_prefix(self) -> None:
        """Register a live sequence's held full pages in the prefix index."""
        seq_id = self.pick_live()
        if seq_id is not None:
            self.register_prefix(seq_id)

    def op_attach_prefix(self) -> None:
        """Attach the longest hot registered prefix of a live prompt as a new sequence."""
        probe = self.pick_live()
        if probe is None or len(self.tokens) >= 10:
            return
        toks = self.tokens[probe]
        chain = self.index.match(np.asarray(toks))
        hot = []
        for node in chain:
            if node.is_cold:
                break  # a cold node interrupts the attachable page chain
            hot.append(node)
        if not hot:
            return
        seq_id = self.new_id()
        self.dual.attach_prefix(seq_id, len(hot) * PAGE_SIZE, [node.pages for node in hot])
        keys = [np.concatenate([node.fuzz_keys[layer] for node in hot]) for layer in range(N_LAYERS)]
        self.track(seq_id, toks[: len(hot) * PAGE_SIZE], keys)

    def op_prefix_demote(self) -> None:
        """Demote LRU prefix nodes to the cold tier to free one more page."""
        if self.index.held_pages:
            self.index.evict_until(
                self.cache.allocator.num_free + 1, page_image=self.dual.page_image
            )

    def op_prefix_restore(self) -> None:
        """Bring one demoted prefix node back onto a fresh physical page."""
        cold_nodes = [n for n in self.index._nodes() if n.is_cold]
        if not cold_nodes or not self.cache.allocator.can_allocate(1):
            return
        node = cold_nodes[int(self.rng.integers(0, len(cold_nodes)))]
        self.index.adopt_restored(node, self.dual.install_page_image(node.cold_image))

    def op_verify_in_place(self) -> None:
        """Write a chunk's rows past a sequence's count, then rewind it: a verify.

        At random the rows go in the way a run of decode steps writes them —
        one ``append_batch`` per position, each followed by the window read
        and, while the sequence's selection still ends in the page being
        written, its selected-page gather and a fresh entry — or in one bulk
        ``append`` (the engine's own lockstep is
        :meth:`op_write_then_advance`).  The rewind must put back
        the counts, the stat rows the rows folded into, the entries and the
        operand blocks; the rows are remembered for :meth:`op_commit_in_place`.
        """
        seq_id = self.pick_live()
        if seq_id is None:
            return
        m = int(self.rng.integers(1, PAGE_SIZE + 1))
        try:
            self.dual.prepare_append(seq_id, m)
        except OutOfPagesError:
            return
        points = self.dual.mark([seq_id])
        base = len(self.tokens[seq_id])
        rows = self.rng.normal(size=(2, N_LAYERS, m, N_HEADS, HEAD_DIM))
        if self.rng.integers(0, 2):
            for layer in range(N_LAYERS):
                self.dual.append(seq_id, layer, rows[0, layer], rows[1, layer])
        else:
            selection, served = self.entries.get(seq_id, (None, 0))
            for j in range(m):
                for layer in range(N_LAYERS):
                    self.dual.append_batch([seq_id], layer, rows[0, layer, j : j + 1], rows[1, layer, j : j + 1])
                    keys = np.concatenate([self.keys[seq_id][layer], rows[0, layer, : j + 1]])
                    (_, k_g, _), = self.dual.get_streaming_groups([seq_id], layer)
                    kept = streaming_retained(len(keys), SINK, LOCAL, PAGE_SIZE)
                    assert np.array_equal(k_g[0, 0], keys[kept, N_KV_HEADS])
                    if selection is not None and selection[0, -1] == (base + j) // PAGE_SIZE:
                        self.cache.gather_selected_batch([seq_id], layer, [selection])
                        self.cache.page_selections[(seq_id, layer)] = (selection, served + j + 1)
        self.dual.rewind([seq_id], points)
        self.verified[seq_id] = (base, list(rows[0]))

    def op_write_then_advance(self) -> None:
        """The engine's verify lockstep on a random subset: write every chunk once, advance per position, rewind.

        Each member reserves its chunk (one that cannot sits out); per layer
        one ``write_past_count`` puts all members' rows past their counts.
        Sometimes a member is forked before any row is taken in, so its tail
        page is shared when the advances fold keys into it.  Then at each
        chunk position — all of them, or only a prefix — the members with a
        row there take it in with one ``advance_token_batch`` per layer, and
        their grouped windows and key statistics must equal the raw keys up
        to that row.  The rewind must put everything back; the rows are
        remembered for :meth:`op_commit_in_place`.
        """
        live = sorted(self.tokens)
        if not live:
            return
        members, chunks = [], []
        for seq_id in (str(s) for s in self.rng.choice(live, size=int(self.rng.integers(1, len(live) + 1)), replace=False)):
            m = int(self.rng.integers(1, PAGE_SIZE + 1))
            try:
                self.dual.prepare_append(seq_id, m)
            except OutOfPagesError:
                continue  # this member sits the verify out
            members.append(seq_id)
            chunks.append(self.rng.normal(size=(2, N_LAYERS, m, N_HEADS, HEAD_DIM)))
        if not members:
            return
        ms = [chunk.shape[2] for chunk in chunks]
        points = self.dual.mark(members)
        for layer in range(N_LAYERS):
            k, v = (np.concatenate([chunk[part, layer] for chunk in chunks]) for part in (0, 1))
            self.dual.write_past_count(members, layer, k, v, ms)
        # The first advance copies the shared dense tail page on write: one free page covers it.
        forks = []
        if len(self.tokens) < 10 and self.cache.allocator.can_allocate(1) and self.rng.random() < 0.3:
            parent, child = members[0], self.new_id()
            self.dual.fork_sequence(parent, child)
            self.track(child, self.tokens[parent], self.keys[parent], self.entries.get(parent))
            forks.append(child)
        positions = max(ms) if self.rng.integers(0, 2) else int(self.rng.integers(0, max(ms) + 1))
        for j in range(positions):
            active = [i for i, m in enumerate(ms) if m > j]
            ids = [members[i] for i in active]
            for layer in range(N_LAYERS):
                self.dual.advance_token_batch(ids, layer, np.stack([chunks[i][0, layer, j] for i in active]))
                seen = {i: np.concatenate([self.keys[members[i]][layer], chunks[i][0, layer, : j + 1]]) for i in active}
                for rows, k_g, _ in self.dual.get_streaming_groups(ids, layer):
                    for row, r in zip(k_g, rows):
                        keys = seen[active[r]]
                        kept = streaming_retained(len(keys), SINK, LOCAL, PAGE_SIZE)
                        assert np.array_equal(row[0], keys[kept, N_KV_HEADS])
                for i in active:
                    for got, want in zip(self.cache.key_stats(members[i], layer), reference_stats(seen[i])):
                        assert np.array_equal(got, want)
                # Before the rewind could put a shared row back: the fork's statistics stand.
                for child in forks:
                    for got, want in zip(self.cache.key_stats(child, layer), self.expected_stats[child][layer]):
                        assert np.array_equal(got, want)
        self.dual.rewind(members, points)
        for seq_id, chunk in zip(members, chunks):
            self.verified[seq_id] = (len(self.tokens[seq_id]), list(chunk[0]))

    def op_commit_in_place(self) -> None:
        """Advance a sequence by a prefix of the rows its latest verify left past the count.

        Half the time a fork is taken first, so the tail page is shared: the
        reservation copies it on write before the statistics fold, and the
        fork reads what it read before.  A sequence that moved since the
        verify can only be refused.
        """
        if not self.verified:
            return
        seq_id = str(self.rng.choice(sorted(self.verified)))
        base, keys = self.verified.pop(seq_id)
        if len(self.tokens[seq_id]) != base:
            return
        if len(self.tokens) < 10 and self.rng.integers(0, 2):
            child = self.new_id()
            self.dual.fork_sequence(seq_id, child)
            self.track(child, self.tokens[seq_id], self.keys[seq_id], self.entries.get(seq_id))
        n = int(self.rng.integers(1, len(keys[0]) + 1))
        try:
            self.dual.prepare_append(seq_id, n)
        except OutOfPagesError:
            return
        for layer in range(N_LAYERS):
            self.dual.advance(seq_id, layer, keys[layer][:n])
            self.keys[seq_id][layer] = np.concatenate([self.keys[seq_id][layer], keys[layer][:n]])
        self.tokens[seq_id].extend(self.random_tokens(n))
        self.recompute_stats(seq_id)
        self.dual.slide(seq_id)

    def op_draft_append(self) -> None:
        """Fork a scratch off a live sequence and append draft tokens to it.

        Fork coverage: the drafts land on a copy-on-write fork, never on the
        parent.
        """
        parent = self.pick_live()
        if parent is None or parent in self.drafts or len(self.tokens) >= 10:
            return
        scratch = self.new_id() + "-draft"
        self.dual.fork_sequence(parent, scratch)
        self.track(scratch, self.tokens[parent], self.keys[parent], self.entries.get(parent))
        self.drafts[scratch] = (parent, len(self.tokens[parent]))
        if not self.append_tokens(scratch, self.random_tokens(int(self.rng.integers(1, 5)))):
            # No pages for any draft token: the chunk rolls back immediately.
            self.dual.remove_sequence(scratch)
            self.untrack(scratch)

    def pick_draft(self) -> str | None:
        if not self.drafts:
            return None
        return str(self.rng.choice(sorted(self.drafts)))

    def op_verify_accept(self) -> None:
        """Commit an accepted draft prefix to the parent, then drop the fork whole."""
        scratch = self.pick_draft()
        if scratch is None:
            return
        parent, base_len = self.drafts[scratch]
        drafted = len(self.tokens[scratch]) - base_len
        stale = (
            parent not in self.tokens
            or len(self.tokens[parent]) != base_len
            or drafted < 1
        )
        if not stale:
            # Parent gone or advanced since the fork would make the chunk
            # stale — it could only be rejected (the engine re-proposes).
            self.commit(scratch, int(self.rng.integers(1, drafted + 1)))
        self.dual.remove_sequence(scratch)
        self.untrack(scratch)

    def op_verify_reject(self) -> None:
        """Roll a draft fork back without committing anything."""
        scratch = self.pick_draft()
        if scratch is None:
            return
        self.dual.remove_sequence(scratch)
        self.untrack(scratch)

    def op_fused_verify(self) -> None:
        """Resolve a random subset of live drafts in one fused verification.

        The cache-level shape of ``decode_speculative_batch`` plus its
        per-member commits: several scratch forks resolve together, each
        committing a random accepted prefix back to its parent, and every
        scratch is released whatever its batchmates did.  The stale-chunk
        guard applies per member — a parent that vanished or advanced since
        the fork (including because an earlier member of the *same* fused
        batch committed to it) can only be rejected.
        """
        if not self.drafts:
            return
        pool = sorted(self.drafts)
        size = int(self.rng.integers(1, len(pool) + 1))
        subset = [str(s) for s in self.rng.choice(pool, size=size, replace=False)]
        for scratch in subset:
            parent, base_len = self.drafts[scratch]
            drafted = len(self.tokens.get(scratch, ())) - base_len
            stale = (
                parent not in self.tokens
                or len(self.tokens[parent]) != base_len
                or drafted < 1
            )
            if not stale and bool(self.rng.integers(0, 2)):
                self.commit(scratch, int(self.rng.integers(1, drafted + 1)))
            self.dual.remove_sequence(scratch)
            self.untrack(scratch)

    def op_prefix_evict(self) -> None:
        """Hard-drop LRU prefix leaves (no cold tier) to free one more page."""
        if self.index.num_nodes:
            self.index.evict_until(self.cache.allocator.num_free + 1)

    OPS = (
        ("op_add", 4),
        ("op_append", 5),
        ("op_fork", 3),
        ("op_remove", 2),
        ("op_read", 3),
        ("op_decode_step", 6),
        ("op_migrate", 2),
        ("op_demote", 3),
        ("op_restore", 3),
        ("op_register_prefix", 3),
        ("op_attach_prefix", 3),
        ("op_prefix_demote", 2),
        ("op_prefix_restore", 2),
        ("op_prefix_evict", 1),
        ("op_verify_in_place", 5),
        ("op_write_then_advance", 5),
        ("op_commit_in_place", 4),
        ("op_draft_append", 4),
        ("op_verify_accept", 3),
        ("op_verify_reject", 2),
        ("op_fused_verify", 3),
    )

    def step(self) -> str:
        names = [name for name, _ in self.OPS]
        weights = np.asarray([w for _, w in self.OPS], dtype=float)
        name = str(self.rng.choice(names, p=weights / weights.sum()))
        getattr(self, name)()
        return name

    # -- invariants ------------------------------------------------------------
    def check_invariants(self) -> None:
        cache = self.cache
        for pool, slot in ((self.cache, 0), (self.stream, 1)):
            self.check_pool(pool, slot)

        # The streaming pool cannot run dry before the dense pool: a table
        # holds its sink and local pages (plus the one a reservation or the
        # newest token opened), never more than its dense pages.
        window = SINK // PAGE_SIZE + -(-LOCAL // PAGE_SIZE)
        assert self.stream.allocator.num_allocated <= cache.allocator.num_allocated
        for seq_id in cache.sequences():
            held = len(self.stream.sequence_pages(seq_id))
            assert held <= window + 1, f"{seq_id} holds {held} streaming pages"
            assert held <= len(cache.sequence_pages(seq_id))
            assert self.dual.seq_len(seq_id) == len(self.tokens[seq_id])
            # The window holds exactly the retained positions of the raw keys.
            for layer, keys in enumerate(self.keys[seq_id]):
                k, _, positions = self.dual.get_streaming(seq_id, layer)
                kept = streaming_retained(len(keys), SINK, LOCAL, PAGE_SIZE)
                assert positions.tolist() == kept
                assert np.array_equal(k[:, 0], keys[kept, N_KV_HEADS])

        # Per-sequence consistency: layers agree, the table covers the tokens,
        # and the driver's ground-truth token count matches the cache's.
        for seq_id in cache.sequences():
            n_tokens = cache.seq_len(seq_id)
            for layer in range(N_LAYERS):
                assert cache.seq_len(seq_id, layer) == n_tokens
            assert len(cache.sequence_pages(seq_id)) * PAGE_SIZE >= n_tokens
            assert n_tokens == len(self.tokens[seq_id])
            # The page-resident key statistics equal a recomputation over the
            # raw keys, whatever pages the sequence came to hold them through.
            for layer, expected in enumerate(self.expected_stats[seq_id]):
                for got, want in zip(cache.key_stats(seq_id, layer), expected):
                    assert np.array_equal(got, want), f"key stats of {seq_id} layer {layer}"

        # Operand blocks name live sequences only and are bounded by them; one
        # whose members have not appended since it was served (tables as they
        # were) equals a fresh gather through the recorded selections.
        assert cache.operand_block_bytes <= len(self.tokens) * N_LAYERS * BLOCK_BYTES_PER_SEQUENCE
        for layer, block in cache._operands.blocks():
            assert set(block.members) <= set(self.tokens)
            if block.tokens == [cache.seq_len(seq_id, layer) for seq_id in block.members]:
                page_ids = np.stack(
                    [
                        np.asarray(cache.sequence_pages(seq_id))[selection]
                        for seq_id, selection in zip(block.members, block.selections)
                    ]
                )
                assert np.array_equal(block.page_ids, page_ids)
                filled = slice(0, block.n_tokens)
                for kept, fresh in zip((block.k, block.v), cache._read_blocks(layer, page_ids)):
                    assert np.array_equal(kept[:, :, filled], fresh[:, :, filled])

        # Selection entries travel with their sequence, by reference, and
        # leave with it.
        assert not self.stream.page_selections
        assert {seq_id for seq_id, _ in cache.page_selections} <= set(self.tokens)
        for seq_id in self.tokens:
            for layer in range(N_LAYERS):
                assert cache.page_selections.get((seq_id, layer)) is self.entries.get(seq_id), (
                    f"selection entry of {seq_id} layer {layer}"
                )

        # Cold tier matches the driver's view of what was demoted.
        assert self.cold.num_entries == len(self.demoted)
        for seq_id in self.demoted:
            assert seq_id in self.cold

        # Live sequences and the driver's ground truth are the same set.
        assert set(cache.sequences()) == set(self.stream.sequences()) == set(self.tokens)

        # Every draft scratch is live and actually extends its recorded base;
        # a scratch that escaped its record (or vice versa) is a leak-to-be.
        for scratch, (parent, base_len) in self.drafts.items():
            assert scratch in self.tokens, f"draft record for dead scratch {scratch}"
            assert len(self.tokens[scratch]) >= base_len

        # A pending verify's rows are still in its sequence's pages.
        for seq_id, (base, keys) in self.verified.items():
            assert seq_id in self.tokens, f"verify record for dead sequence {seq_id}"
            if len(self.tokens[seq_id]) == base:
                for pool in (cache, self.stream):
                    stored = pool.seq_len(seq_id)
                    assert len(pool.sequence_pages(seq_id)) * PAGE_SIZE >= stored + len(keys[0])

    def check_pool(self, pool, slot: int) -> None:
        """Conservation, owner-exact refcounts and pins of one pool (``slot`` in a node's pages)."""
        alloc = pool.allocator
        # Page conservation: every page is exactly free or allocated.
        assert alloc.num_free + alloc.num_allocated == alloc.capacity

        # Expected refcount per page = visible owners: one per sequence table
        # containing it plus one per hot prefix node holding it.
        expected: dict[int, int] = {}
        for seq_id in pool.sequences():
            for page in pool.sequence_pages(seq_id):
                expected[page] = expected.get(page, 0) + 1
        pinned: set[int] = set()
        for node in self.index._nodes():
            if node.pages:
                page = node.pages[slot]
                expected[page] = expected.get(page, 0) + 1
                pinned.add(page)
            if node.is_cold:
                assert node.cold_image is not None

        assert alloc.num_allocated == len(expected), "allocated pages nobody owns"
        assert alloc.total_refs == sum(expected.values())
        for page, refs in expected.items():
            assert refs >= 1
            assert alloc.refcount(page) == refs, f"refcount mismatch on page {page}"
        # Pins are exactly the index's hot pages.
        assert self.index.held_pages == len(pinned)
        assert alloc.num_pinned == len(pinned)
        for page in pinned:
            assert alloc.is_pinned(page)

        # Operand blocks name live sequences only.
        for _, block in pool._operands.blocks():
            assert set(block.members) <= set(self.tokens)

    def teardown(self) -> None:
        """Drain both tiers completely; nothing may survive."""
        for seq_id in list(self.tokens):
            self.dual.remove_sequence(seq_id)
        self.tokens.clear()
        self.keys.clear()
        self.expected_stats.clear()
        self.drafts.clear()
        self.verified.clear()
        self.entries.clear()
        self.index.clear()
        for seq_id in list(self.demoted):
            self.cold.discard(seq_id)
        self.demoted.clear()


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fuzz_invariants(seed):
    driver = FuzzDriver(seed)
    for step in range(N_OPS):
        name = driver.step()
        try:
            driver.check_invariants()
        except AssertionError as exc:  # pragma: no cover - failure path
            raise AssertionError(
                f"invariant violated after op {step} ({name}) with seed {seed}: {exc}"
            ) from exc
    driver.teardown()
    assert_no_leaked_pages(driver.cache.allocator, cold_store=driver.cold)
    assert driver.stream.allocator.num_allocated == 0
    assert driver.cache.allocator.num_pinned == driver.stream.allocator.num_pinned == 0
    assert driver.dual.operand_block_bytes == 0


def test_fuzz_exercises_every_op():
    """Sanity: across a few seeds the driver actually hits every operation."""
    hit: set[str] = set()
    for seed in range(6):
        driver = FuzzDriver(seed)
        for _ in range(N_OPS):
            hit.add(driver.step())
        driver.teardown()
    assert hit == {name for name, _ in FuzzDriver.OPS}
