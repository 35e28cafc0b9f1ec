"""Tests for the binary cache (§4.3)."""

import datetime
import random

import numpy as np
import pytest

from repro.core.cache import BinaryCache, CacheBlock
from repro.errors import StorageError
from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel


def make_cache(budget=None):
    model = CostModel()
    return BinaryCache(model, budget), model


class TestBasics:
    def test_miss_then_hit(self):
        cache, _ = make_cache()
        assert cache.get(1, 0) is None
        cache.put(1, 0, 4, [(0, 10), (2, 30)], "int")
        block = cache.get(1, 0)
        assert block.get(0) == (True, 10)
        assert block.get(1) == (False, None)
        assert block.get(2) == (True, 30)
        assert cache.hits == 1 and cache.misses == 1

    def test_partial_blocks_merge(self):
        # "a previously accessed attribute or even parts of an attribute"
        cache, _ = make_cache()
        cache.put(1, 0, 4, [(0, 10)], "int")
        cache.put(1, 0, 4, [(1, 20), (3, 40)], "int")
        block = cache.get(1, 0)
        assert block.filled == 3
        assert not block.complete
        cache.put(1, 0, 4, [(2, 30)], "int")
        assert cache.get(1, 0).complete

    def test_merge_does_not_overwrite(self):
        cache, _ = make_cache()
        cache.put(1, 0, 2, [(0, 10)], "int")
        cache.put(1, 0, 2, [(0, 99)], "int")
        assert cache.get(1, 0).get(0) == (True, 10)

    def test_block_growth_on_append(self):
        cache, _ = make_cache()
        cache.put(1, 0, 2, [(0, 10), (1, 20)], "int")
        cache.put(1, 0, 4, [(3, 40)], "int")   # file grew (§4.5)
        block = cache.get(1, 0)
        assert len(block.mask) == 4
        assert block.get(0) == (True, 10)
        assert block.get(3) == (True, 40)

    def test_row_out_of_range_rejected(self):
        cache, _ = make_cache()
        with pytest.raises(StorageError):
            cache.put(1, 0, 2, [(5, 50)], "int")

    def test_empty_entries_noop(self):
        cache, model = make_cache()
        cache.put(1, 0, 4, [], "int")
        assert cache.get(1, 0) is None
        assert model.count(CostEvent.CACHE_WRITE) == 0

    def test_write_charges(self):
        cache, model = make_cache()
        cache.put(1, 0, 4, [(0, 1), (1, 2)], "int")
        assert model.count(CostEvent.CACHE_WRITE) == 2


class TestBudgetAndPriority:
    def test_budget_enforced(self):
        cache, _ = make_cache(budget=100)
        for block in range(10):
            cache.put(1, block, 4, [(i, i) for i in range(4)], "int")
        assert cache.bytes_used <= 100
        assert cache.evictions > 0

    def test_string_bytes_measured_per_value(self):
        cache, _ = make_cache()
        cache.put(1, 0, 2, [(0, "abc")], "str")
        assert cache.bytes_used == 4  # len + 1
        cache.put(1, 0, 2, [(1, "defghi")], "str")
        assert cache.bytes_used == 4 + 7

    def test_cheap_conversions_evicted_first(self):
        # §4.3: "priority to attributes more costly to convert" — the
        # string block goes before the int block even though the int
        # block is older.
        cache, _ = make_cache(budget=100)
        cache.put(1, 0, 8, [(i, i) for i in range(8)], "int")        # 64 B
        cache.put(2, 0, 8, [(i, "abcd") for i in range(8)], "str")   # 40 B
        # 104 B > 100: the (newer!) string block is evicted, not the int.
        assert cache.get(2, 0) is None
        assert cache.get(1, 0) is not None
        # Typed blocks cost their full array allocation (honest
        # nbytes), so a 4-row float block is 32 B regardless of fill.
        cache.put(3, 0, 4, [(i, 1.5) for i in range(4)], "float")    # 32 B
        assert cache.bytes_used == 96
        assert cache.get(1, 0) is not None
        assert cache.get(3, 0) is not None

    def test_lru_within_same_family(self):
        cache, _ = make_cache(budget=64)
        cache.put(1, 0, 4, [(i, i) for i in range(4)], "int")   # 32 B
        cache.put(1, 1, 4, [(i, i) for i in range(4)], "int")   # 32 B
        cache.get(1, 0)                                          # refresh
        cache.put(1, 2, 4, [(i, i) for i in range(4)], "int")   # evict
        assert cache.get(1, 1) is None
        assert cache.get(1, 0) is not None
        assert cache.get(1, 2) is not None

    def test_utilization(self):
        cache, _ = make_cache(budget=64)
        assert cache.utilization() == 0.0
        cache.put(1, 0, 4, [(i, i) for i in range(4)], "int")
        assert cache.utilization() == pytest.approx(0.5)

    def test_utilization_unbounded(self):
        cache, _ = make_cache()
        assert cache.utilization() == 0.0
        cache.put(1, 0, 1, [(0, 1)], "int")
        assert cache.utilization() == 1.0


class TestInvalidation:
    def test_invalidate_attr(self):
        cache, _ = make_cache()
        cache.put(1, 0, 2, [(0, 1)], "int")
        cache.put(2, 0, 2, [(0, 2)], "int")
        cache.invalidate_attr(1)
        assert cache.get(1, 0) is None
        assert cache.get(2, 0) is not None
        # One 2-row int block remains: 16 B of array allocation.
        assert cache.bytes_used == 16

    def test_clear(self):
        cache, _ = make_cache()
        cache.put(1, 0, 2, [(0, 1)], "int")
        cache.clear()
        assert cache.bytes_used == 0
        assert cache.get(1, 0) is None


class TestCacheBlock:
    def test_get_out_of_range_is_miss(self):
        block = CacheBlock("int", [1], bytearray([1]))
        assert block.get(5) == (False, None)

    def test_empty_block_not_complete(self):
        assert CacheBlock("int").complete is False


# ---------------------------------------------------------------------------
# Column inserts vs per-entry inserts; eviction vs a brute-force oracle
# ---------------------------------------------------------------------------
FAMILIES = ["int", "float", "str", "date", "bool"]   # attr i -> FAMILIES[i]


def random_value(rng, family):
    if family == "int":
        return rng.randrange(-10**6, 10**6)
    if family == "float":
        return rng.choice([rng.uniform(-1e3, 1e3), float("inf"), 0.0])
    if family == "str":
        return "".join(rng.choice("abcde") for _ in range(rng.randint(0, 9)))
    if family == "date":
        return datetime.date.fromordinal(rng.randrange(700_000, 740_000))
    return rng.random() < 0.5


def block_state(block):
    return (type(block._data).__name__, block.values, block.mask.tolist(),
            None if block._nulls is None else block._nulls.tolist(),
            block.bytes_used)


def cache_state(cache, model):
    """Content, footprint, LRU order and the priced writes."""
    return ([(key, block_state(block))
             for key, block in cache._blocks.items()],
            cache.bytes_used, cache.evictions,
            model.count(CostEvent.CACHE_WRITE), model.now())


class TestColumnInsertEqualsEntryInsert:
    """``put_column`` — typed array or value list — must leave exactly
    what per-entry ``put`` (the scalar oracle's interface, one ``_set``
    per new value) leaves: block content and storage form, byte
    accounting, ``cache_write`` units, LRU order, evictions."""

    @pytest.mark.parametrize("budget", [None, 700])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_inserts_agree(self, seed, budget):
        rng = random.Random(8800 + seed)
        by_entry, by_values, by_typed = (make_cache(budget)
                                         for _ in range(3))
        rows_in_block = {}          # (attr, block) -> rows so far
        typed_inserts = 0
        seen = set()                # interesting block shapes met
        for _step in range(150):
            attr = rng.randrange(len(FAMILIES))
            family = FAMILIES[attr]
            if rng.random() < 0.05:
                for cache, _model in (by_entry, by_values, by_typed):
                    cache.invalidate_attr(attr)
                continue
            key = (attr, rng.randrange(4))
            # a block sometimes grows between inserts (§4.5 append)
            nrows = rows_in_block.get(key, rng.choice([4, 9, 16]))
            if rng.random() < 0.2:
                nrows += rng.randint(1, 6)
            rows_in_block[key] = nrows
            # ascending rows, overlapping earlier inserts more often
            # than not: partially pre-cached blocks
            rows = sorted(rng.sample(range(nrows),
                                     rng.randint(1, nrows // 2 + 1)))
            nullable = rng.random() < 0.4
            values = [None if nullable and rng.random() < 0.3
                      else random_value(rng, family) for _ in rows]
            if family == "int" and rng.random() < 0.2:
                # beyond int64, mid-column: the typed block demotes
                values[len(values) // 2] = 2**70 + rng.randrange(9)
            by_entry[0].put(*key, nrows, list(zip(rows, values)), family)
            by_values[0].put_column(*key, nrows, np.array(rows), values,
                                    family)
            typed = None
            if family in ("int", "float") and None not in values \
                    and all(abs(v) < 2**63 for v in values):
                # what the scan hands over: the array, and no list
                typed = np.array(values, dtype=np.int64 if family == "int"
                                 else np.float64)
                typed_inserts += 1
            by_typed[0].put_column(*key, nrows, np.array(rows),
                                   None if typed is not None else values,
                                   family, typed_values=typed)
            expected = cache_state(*by_entry)
            assert cache_state(*by_values) == expected
            assert cache_state(*by_typed) == expected
            block = by_entry[0]._blocks.get(key)
            if block is not None:
                if family == "int" and isinstance(block._data, list):
                    seen.add("demoted int block")
                if block._nulls is not None and block._nulls.any():
                    seen.add("typed block holding NULLs")
                if 0 < block.filled < block.nrows:
                    seen.add("partial block")
                if block.nrows > 16:
                    seen.add("grown block")
        assert typed_inserts > 10
        assert seen == {"demoted int block", "typed block holding NULLs",
                        "partial block", "grown block"}
        if budget is not None:
            assert by_entry[0].evictions > 0

    def test_overflow_demotes_at_the_same_value(self):
        """Values before the oversized int land in the typed array,
        the block demotes at it, the rest land in the list — and the
        block keeps its allocation-based footprint."""
        column = [1, 2, 2**70, None, 5]
        by_entry, by_values = make_cache(), make_cache()
        by_entry[0].put(0, 0, 6, list(enumerate(column)), "int")
        by_values[0].put_column(0, 0, 6, np.arange(5), column, "int")
        assert cache_state(*by_values) == cache_state(*by_entry)
        block = by_values[0].get(0, 0)
        assert block.values == [1, 2, 2**70, None, 5, None]
        assert isinstance(block._data, list) and block.bytes_used == 48
        # a later typed insert into the demoted block still merges
        for cache, _model in (by_entry, by_values):
            cache.put_column(0, 0, 6, np.array([3, 5]), None, "int",
                             typed_values=np.array([40, 60]))
        assert cache_state(*by_values) == cache_state(*by_entry)
        assert by_values[0].get(0, 0).values == [1, 2, 2**70, None, 5, 60]

    def test_row_count_construction(self):
        block = CacheBlock("float", nrows=5)
        assert block.nrows == 5 and block.filled == 0
        assert block.bytes_used == 40
        assert block.values == [None] * 5
        assert CacheBlock("str", nrows=3).values == [None] * 3

    def test_values_at_gathers_present_rows_only(self):
        cache, _ = make_cache()
        day = datetime.date(2001, 5, 20)
        cache.put(3, 0, 5, [(0, day), (2, None), (4, day)], "date")
        rows = np.array([4, 1, 2, 0])
        assert cache.get(3, 0).values_at(rows) == [day, None, None, day]
        cache.put(0, 0, 4, [(1, 7), (2, None)], "int")
        assert cache.get(0, 0).values_at([0, 1, 2]) == [None, 7, None]
        assert cache.get(0, 0).values_at(np.array([1])) == [7]


class TestEvictionVictims:
    def test_every_victim_is_min_rate_then_lru(self):
        """A few hundred random steps on a mixed-family cache; every
        eviction must pick what a walk over all blocks picks — the
        cheapest conversion rate, least recently used first."""
        rng = random.Random(31)
        victims = []

        class Checked(BinaryCache):
            def _evict_one(self):
                profile = self.model.profile
                rate = {"str": profile.convert_str,
                        "bool": profile.convert_int,
                        "int": profile.convert_int,
                        "float": profile.convert_float,
                        "date": profile.convert_date}
                before = list(self._blocks)     # LRU -> MRU
                # min() keeps the first of equals: the LRU-most
                expected = min(before, key=lambda key: rate[
                    self._blocks[key].family])
                super()._evict_one()
                assert [key for key in before
                        if key not in self._blocks] == [expected]
                victims.append((expected, before.index(expected)))

        cache = Checked(CostModel(), budget_bytes=400)
        for _step in range(600):
            roll = rng.random()
            attr = rng.randrange(len(FAMILIES))
            block = rng.randrange(6)
            family = FAMILIES[attr]
            if roll < 0.55:
                rows = sorted(rng.sample(range(8), rng.randint(1, 8)))
                values = [random_value(rng, family) for _ in rows]
                if rng.random() < 0.5:
                    cache.put(attr, block, 8, list(zip(rows, values)),
                              family)
                else:
                    cache.put_column(attr, block, 8, np.array(rows),
                                     values, family)
            elif roll < 0.9:
                cache.get(attr, block)          # refresh (or miss)
            elif roll < 0.93:
                cache.invalidate_attr(attr)
            elif roll < 0.99 and (attr, block) in cache._blocks:
                # corrupt in place: the next get quarantines it
                cache._blocks[(attr, block)]._mask = np.zeros(3, bool)
                assert cache.get(attr, block) is None
            elif roll >= 0.995:
                cache.clear()
            assert cache.bytes_used <= 400
            assert cache.bytes_used == sum(
                b.bytes_used for b in cache._blocks.values())
            # the per-family count eviction reads never drifts
            live = {}
            for cached in cache._blocks.values():
                live[cached.family] = live.get(cached.family, 0) + 1
            assert dict(cache._family_blocks) == live
        assert len(victims) > 100
        assert len({FAMILIES[key[0]] for key, _ in victims}) >= 4
        # priority really overrode recency: some victims were not the
        # LRU head
        assert any(position > 0 for _, position in victims)
