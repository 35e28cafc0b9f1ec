"""Tests for the virtual clock, cost profiles, and cost model."""

import numpy as np
import pytest

from repro.simcost.clock import CostEvent, VirtualClock
from repro.simcost.model import CostModel, RecordingModel
from repro.simcost.profiles import (
    ALL_PROFILES,
    CFITSIO_PROFILE,
    CSV_ENGINE_PROFILE,
    DBMS_X_PROFILE,
    MYSQL_PROFILE,
    POSTGRESQL_PROFILE,
    POSTGRES_RAW_PROFILE,
    CostProfile,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        assert clock.count(CostEvent.TOKENIZE) == 0

    def test_charge_advances_time(self):
        clock = VirtualClock()
        clock.charge(CostEvent.TOKENIZE, 1000, 2e-9)
        assert clock.now() == pytest.approx(2e-6)
        assert clock.count(CostEvent.TOKENIZE) == 1000

    def test_charges_accumulate(self):
        clock = VirtualClock()
        clock.charge(CostEvent.DISK_READ_COLD, 100, 1e-9)
        clock.charge(CostEvent.DISK_READ_COLD, 200, 1e-9)
        assert clock.count(CostEvent.DISK_READ_COLD) == 300
        assert clock.now() == pytest.approx(300e-9)

    def test_negative_units_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.charge(CostEvent.TOKENIZE, -1, 1e-9)

    def test_advance_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.5)

    def test_checkpoint_elapsed(self):
        clock = VirtualClock()
        clock.advance(1.5)
        mark = clock.checkpoint()
        clock.advance(2.5)
        assert clock.elapsed_since(mark) == pytest.approx(2.5)

    def test_snapshot_is_plain_dict(self):
        clock = VirtualClock()
        clock.charge(CostEvent.PREDICATE_EVAL, 5, 1e-9)
        snap = clock.snapshot()
        assert snap == {"predicate_eval": 5}
        snap["predicate_eval"] = 99  # mutating the copy is harmless
        assert clock.count(CostEvent.PREDICATE_EVAL) == 5

    def test_reset(self):
        clock = VirtualClock()
        clock.charge(CostEvent.TOKENIZE, 10, 1e-9)
        clock.reset()
        assert clock.now() == 0.0
        assert clock.count(CostEvent.TOKENIZE) == 0

    def test_monotonic_time(self):
        clock = VirtualClock()
        last = 0.0
        for units in (5, 0, 100, 3):
            clock.charge(CostEvent.TUPLE_FORM, units, 1e-9)
            assert clock.now() >= last
            last = clock.now()


class TestProfiles:
    def test_every_event_is_priced_on_every_profile(self):
        for profile in ALL_PROFILES.values():
            for event in CostEvent:
                assert profile.rate(event) >= 0.0

    def test_profiles_are_frozen(self):
        with pytest.raises(AttributeError):
            POSTGRESQL_PROFILE.tokenize = 1.0  # type: ignore[misc]

    def test_postgresraw_shares_postgres_executor_rates(self):
        # Same engine (§5): identical per-tuple machinery prices.
        assert (POSTGRES_RAW_PROFILE.tuple_overhead
                == POSTGRESQL_PROFILE.tuple_overhead)
        assert (POSTGRES_RAW_PROFILE.aggregate_step
                == POSTGRESQL_PROFILE.aggregate_step)

    def test_dbmsx_executor_faster_than_postgres(self):
        # Paper: "PostgreSQL is 53% slower than DBMS X" on queries.
        assert DBMS_X_PROFILE.tuple_overhead < POSTGRESQL_PROFILE.tuple_overhead
        assert DBMS_X_PROFILE.aggregate_step < POSTGRESQL_PROFILE.aggregate_step

    def test_mysql_slower_than_postgres(self):
        assert MYSQL_PROFILE.tuple_overhead > POSTGRESQL_PROFILE.tuple_overhead

    def test_csv_engine_is_the_slowest_per_tuple(self):
        assert (CSV_ENGINE_PROFILE.tuple_overhead
                >= MYSQL_PROFILE.tuple_overhead)

    def test_cfitsio_library_per_row_costs(self):
        # §5.3: the CFITSIO library's per-row path (buffer management,
        # byte swapping) is comparable to a DBMS executor's — the paper
        # measures ~1.6 us/row — so its rates are NOT near-zero.
        assert CFITSIO_PROFILE.tuple_overhead >= 500e-9
        assert CFITSIO_PROFILE.deserialize > POSTGRESQL_PROFILE.deserialize

    def test_conversion_cost_ordering(self):
        # ASCII->binary conversion dominates; strings are cheap (§6).
        profile = POSTGRES_RAW_PROFILE
        assert profile.convert_str < profile.convert_int
        assert profile.convert_int <= profile.convert_float
        assert profile.convert_float <= profile.convert_date

    def test_newline_scan_cheaper_than_tokenize(self):
        assert POSTGRES_RAW_PROFILE.newline_scan < POSTGRES_RAW_PROFILE.tokenize

    def test_warm_reads_cheaper_than_cold(self):
        assert (POSTGRES_RAW_PROFILE.disk_read_warm
                < POSTGRES_RAW_PROFILE.disk_read_cold)


class TestCostModel:
    def test_default_profile(self):
        model = CostModel()
        assert model.profile is POSTGRES_RAW_PROFILE

    def test_disk_read_warm_vs_cold(self):
        model = CostModel()
        model.disk_read(1000, warm=False)
        model.disk_read(1000, warm=True)
        assert model.count(CostEvent.DISK_READ_COLD) == 1000
        assert model.count(CostEvent.DISK_READ_WARM) == 1000

    def test_convert_routes_by_family(self):
        model = CostModel()
        model.convert("int", 2)
        model.convert("float", 3)
        model.convert("date", 4)
        model.convert("str", 5)
        model.convert("bool", 6)
        assert model.count(CostEvent.CONVERT_INT) == 8  # int + bool
        assert model.count(CostEvent.CONVERT_FLOAT) == 3
        assert model.count(CostEvent.CONVERT_DATE) == 4
        assert model.count(CostEvent.CONVERT_STR) == 5

    def test_unknown_family_raises(self):
        model = CostModel()
        with pytest.raises(KeyError):
            model.convert("uuid", 1)

    def test_custom_profile_prices(self):
        profile = CostProfile(name="custom", tokenize=1.0)
        model = CostModel(profile=profile)
        model.tokenize(3)
        assert model.now() == pytest.approx(3.0)

    def test_helpers_charge_expected_events(self):
        model = CostModel()
        model.disk_seek()
        model.disk_write(10)
        model.newline_scan(7)
        model.map_access(2)
        model.map_insert(3)
        model.cache_read(4)
        model.cache_write(5)
        model.predicate(6)
        model.aggregate(7)
        model.hash_probe(8)
        model.sort_compare(9)
        model.tuple_overhead(10)
        model.deserialize(11)
        model.serialize(12)
        model.stats_sample(13)
        model.tuple_form(14)
        model.query_overhead()
        expected = {
            CostEvent.DISK_SEEK: 1, CostEvent.DISK_WRITE: 10,
            CostEvent.NEWLINE_SCAN: 7, CostEvent.MAP_ACCESS: 2,
            CostEvent.MAP_INSERT: 3, CostEvent.CACHE_READ: 4,
            CostEvent.CACHE_WRITE: 5, CostEvent.PREDICATE_EVAL: 6,
            CostEvent.AGGREGATE_STEP: 7, CostEvent.HASH_PROBE: 8,
            CostEvent.SORT_COMPARE: 9, CostEvent.TUPLE_OVERHEAD: 10,
            CostEvent.DESERIALIZE: 11, CostEvent.SERIALIZE: 12,
            CostEvent.STATS_SAMPLE: 13, CostEvent.TUPLE_FORM: 14,
            CostEvent.QUERY_OVERHEAD: 1,
        }
        for event, units in expected.items():
            assert model.count(event) == units, event

    def test_charge_repeat_is_that_many_unit_charges(self):
        """N one-unit charges in one call: same ledger, and the same N
        float additions on the clock — not one ``N * rate``, which
        lands on a different float."""
        one_by_one, repeated = CostModel(), CostModel()
        for model in (one_by_one, repeated):
            model.tokenize(1234)        # a clock that is not at zero
        for _ in range(1000):
            one_by_one.stats_sample(1)
        repeated.charge_repeat(CostEvent.STATS_SAMPLE, 1000)
        assert repeated.now() == one_by_one.now()       # exact
        assert dict(repeated.clock.counters) == \
            dict(one_by_one.clock.counters)
        multiplied = CostModel()
        multiplied.tokenize(1234)
        multiplied.stats_sample(1000)
        assert multiplied.now() != one_by_one.now()
        idle = CostModel()              # nothing sampled: no entry
        idle.charge_repeat(CostEvent.STATS_SAMPLE, 0)
        assert CostEvent.STATS_SAMPLE not in idle.clock.counters
        with pytest.raises(ValueError):
            idle.charge_repeat(CostEvent.STATS_SAMPLE, -1)

    def test_charge_each_is_a_left_fold_of_single_charges(self):
        """Per-line units in one call (JSONL full tokenizations): same
        ledger and the same clock float as one ``charge`` per unit."""
        rng = np.random.default_rng(7)
        units = rng.integers(1, 400, size=2000).tolist()
        one_by_one, folded = CostModel(), CostModel()
        for model in (one_by_one, folded):
            model.newline_scan(977)
        for unit in units:
            one_by_one.tokenize(unit)
        folded.charge_each(CostEvent.TOKENIZE, np.array(units))
        assert folded.now() == one_by_one.now()         # exact
        assert dict(folded.clock.counters) == dict(one_by_one.clock.counters)
        assert type(folded.count(CostEvent.TOKENIZE)) is int
        folded.charge_each(CostEvent.STATS_SAMPLE, [])
        assert CostEvent.STATS_SAMPLE not in folded.clock.counters
        with pytest.raises(ValueError):
            folded.charge_each(CostEvent.TOKENIZE, [3, -1])
        recorder = RecordingModel()
        recorder.charge_each(CostEvent.TOKENIZE, np.array([4, 9]))
        assert recorder.ops == [("c", CostEvent.TOKENIZE, 4),
                                ("c", CostEvent.TOKENIZE, 9)]

    def test_recorded_charge_repeat_replays_as_unit_charges(self):
        recorder = RecordingModel()
        recorder.tokenize(5)
        recorder.charge_repeat(CostEvent.STATS_SAMPLE, 3)
        assert recorder.ops == [("c", CostEvent.TOKENIZE, 5)] + \
            [("c", CostEvent.STATS_SAMPLE, 1)] * 3
        assert recorder.now() == 0.0    # a recorder never advances
