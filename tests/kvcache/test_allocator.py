"""Tests for the physical page allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.allocator import OutOfPagesError, PageAllocator


class TestPageAllocator:
    def test_initial_state(self):
        alloc = PageAllocator(8)
        assert alloc.capacity == 8
        assert alloc.num_free == 8
        assert alloc.num_allocated == 0

    def test_allocate_unique_ids(self):
        alloc = PageAllocator(16)
        pages = [alloc.allocate() for _ in range(16)]
        assert sorted(pages) == list(range(16))

    def test_exhaustion_raises(self):
        alloc = PageAllocator(2)
        alloc.allocate_many(2)
        with pytest.raises(OutOfPagesError):
            alloc.allocate()

    def test_allocate_many_atomic(self):
        alloc = PageAllocator(3)
        with pytest.raises(OutOfPagesError):
            alloc.allocate_many(4)
        # Nothing was consumed by the failed request.
        assert alloc.num_free == 3

    def test_allocate_many_negative(self):
        with pytest.raises(ValueError):
            PageAllocator(3).allocate_many(-1)

    def test_free_and_reuse(self):
        alloc = PageAllocator(2)
        a = alloc.allocate()
        b = alloc.allocate()
        alloc.free(a)
        c = alloc.allocate()
        assert c == a
        assert alloc.num_allocated == 2
        alloc.free_many([b, c])
        assert alloc.num_free == 2

    def test_double_free_rejected(self):
        alloc = PageAllocator(2)
        a = alloc.allocate()
        alloc.free(a)
        with pytest.raises(ValueError):
            alloc.free(a)

    def test_free_unallocated_rejected(self):
        with pytest.raises(ValueError):
            PageAllocator(4).free(0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PageAllocator(0)

    def test_can_allocate(self):
        alloc = PageAllocator(2)
        assert alloc.can_allocate(2)
        alloc.allocate()
        assert not alloc.can_allocate(2)
        assert alloc.can_allocate(1)

    def test_incref_keeps_page_alive(self):
        alloc = PageAllocator(2)
        a = alloc.allocate()
        assert alloc.refcount(a) == 1
        assert alloc.incref(a) == 2
        assert alloc.refcount(a) == 2 and alloc.total_refs == 2
        assert alloc.decref(a) == 1
        assert alloc.num_free == 1  # still held by one owner
        assert alloc.decref(a) == 0
        assert alloc.num_free == 2
        assert alloc.refcount(a) == 0

    def test_double_decref_raises(self):
        alloc = PageAllocator(2)
        a = alloc.allocate()
        alloc.decref(a)
        with pytest.raises(ValueError):
            alloc.decref(a)

    def test_incref_free_page_rejected(self):
        alloc = PageAllocator(2)
        with pytest.raises(ValueError):
            alloc.incref(0)
        a = alloc.allocate()
        alloc.free(a)
        with pytest.raises(ValueError):
            alloc.incref(a)

    def test_free_is_one_decref(self):
        """``free`` drops exactly one reference — a shared page survives it."""
        alloc = PageAllocator(1)
        a = alloc.allocate()
        alloc.incref(a)
        alloc.free(a)
        assert alloc.refcount(a) == 1
        assert alloc.num_free == 0
        alloc.free(a)
        assert alloc.num_free == 1

    def test_total_refs(self):
        alloc = PageAllocator(4)
        a = alloc.allocate()
        b = alloc.allocate()
        alloc.incref(a)
        alloc.incref(a)
        assert alloc.total_refs == 4
        assert alloc.num_allocated == 2
        alloc.decref(a)
        alloc.decref(b)
        assert alloc.total_refs == 2

    @given(st.lists(st.sampled_from(["alloc", "incref", "decref"]), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_refcount_conservation(self, ops):
        """Refcounts stay consistent under random alloc/incref/decref churn."""
        alloc = PageAllocator(8)
        refs: list[int] = []  # one entry per outstanding reference
        for i, op in enumerate(ops):
            if op == "alloc":
                if alloc.can_allocate():
                    refs.append(alloc.allocate())
            elif not refs:
                continue
            elif op == "incref":
                page = refs[i % len(refs)]
                alloc.incref(page)
                refs.append(page)
            else:
                alloc.decref(refs.pop(i % len(refs)))
            assert alloc.total_refs == len(refs)
            assert alloc.num_allocated == len(set(refs))
            assert alloc.num_free + alloc.num_allocated == alloc.capacity
            for page in set(refs):
                assert alloc.refcount(page) == refs.count(page)
        for page in list(refs):
            alloc.decref(page)
        assert alloc.num_free == alloc.capacity

    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_property_conservation(self, ops):
        """free + allocated == capacity after any sequence of operations."""
        alloc = PageAllocator(10)
        held = []
        for op in ops:
            if op == "alloc":
                if alloc.can_allocate():
                    held.append(alloc.allocate())
            elif held:
                alloc.free(held.pop())
            assert alloc.num_free + alloc.num_allocated == alloc.capacity
            assert len(set(held)) == len(held)
            assert alloc.num_allocated == len(held)
