"""Tests for the per-sequence page table."""

import pytest

from repro.kvcache.page_table import PageTable


class TestPageTable:
    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageTable(page_size=0)

    def test_pages_needed(self):
        table = PageTable(page_size=16)
        assert table.pages_needed_for(0) == 0
        assert table.pages_needed_for(1) == 1
        assert table.pages_needed_for(16) == 1
        assert table.pages_needed_for(17) == 2
        table.append_pages([3])
        table.record_tokens(10)
        assert table.pages_needed_for(6) == 0
        assert table.pages_needed_for(7) == 1

    def test_pages_needed_negative(self):
        with pytest.raises(ValueError):
            PageTable(page_size=4).pages_needed_for(-1)

    def test_record_tokens_requires_capacity(self):
        table = PageTable(page_size=4)
        with pytest.raises(ValueError):
            table.record_tokens(1)
        table.append_pages([0])
        table.record_tokens(4)
        with pytest.raises(ValueError):
            table.record_tokens(1)

    def test_last_page_fill(self):
        table = PageTable(page_size=4)
        assert table.last_page_fill == 0
        table.append_pages([0, 1])
        table.record_tokens(5)
        assert table.last_page_fill == 1
        table.record_tokens(3)
        assert table.last_page_fill == 4

    def test_slot_mapping(self):
        table = PageTable(page_size=4)
        table.append_pages([7, 2])
        table.record_tokens(6)
        assert table.slot(0) == (7, 0)
        assert table.slot(3) == (7, 3)
        assert table.slot(4) == (2, 0)
        with pytest.raises(IndexError):
            table.slot(6)

    def test_tokens_in_page(self):
        table = PageTable(page_size=4)
        table.append_pages([0, 1])
        table.record_tokens(6)
        assert table.tokens_in_page(0) == 4
        assert table.tokens_in_page(1) == 2
        with pytest.raises(IndexError):
            table.tokens_in_page(2)

    def test_truncate_pages(self):
        table = PageTable(page_size=4)
        table.append_pages([10, 11, 12, 13])
        table.record_tokens(16)
        released = table.truncate_pages([0, 3])
        assert released == [11, 12]
        assert table.pages == [10, 13]
        assert table.num_tokens == 8

    def test_truncate_pages_with_a_partial_tail(self):
        # The dropped page's tokens leave the count; the partial tail's stay.
        table = PageTable(page_size=32)
        table.append_pages([10, 11, 12])
        table.record_tokens(70)
        assert table.truncate_pages([0, 2]) == [11]
        assert table.pages == [10, 12]
        assert table.num_tokens == 38
        assert table.last_page_fill == 6

    def test_truncate_pages_out_of_range(self):
        table = PageTable(page_size=4)
        table.append_pages([1])
        with pytest.raises(IndexError):
            table.truncate_pages([2])
