"""Tests for the FITS binary-table format, the in-situ FITS scan, and
the CFITSIO comparator (§5.3)."""

import random
import struct

import pytest

import repro
from repro import CFitsioProgram, PostgresRaw, PostgresRawConfig, VirtualFS
from repro.api.exceptions import OperationalError
from repro.errors import FITSFormatError
from repro.formats.fits import (
    BLOCK,
    FitsColumn,
    parse_fits,
    parse_fits_from_vfs,
    write_bintable,
)
from repro.simcost.clock import CostEvent
from tests.conftest import create_table
from tests.oracle.digest import (
    AXIS,
    Append,
    Query,
    Scenario,
    Table,
    Truncate,
    check,
)


def sample_table(nrows=100, seed=0):
    rng = random.Random(seed)
    names = ["obj_id", "ra", "dec", "mag", "label"]
    tforms = ["K", "D", "D", "E", "8A"]
    rows = [
        (i, rng.uniform(0, 360), rng.uniform(-90, 90),
         rng.uniform(10, 25), f"obj{i:04d}")
        for i in range(nrows)
    ]
    return names, tforms, rows


def fits_vfs(nrows=100, seed=0):
    names, tforms, rows = sample_table(nrows, seed)
    vfs = VirtualFS()
    vfs.create("sky.fits", write_bintable(names, tforms, rows))
    return vfs, rows


class TestFormat:
    def test_file_is_block_aligned(self):
        names, tforms, rows = sample_table(10)
        data = write_bintable(names, tforms, rows)
        assert len(data) % BLOCK == 0

    def test_roundtrip_geometry(self):
        names, tforms, rows = sample_table(50)
        info = parse_fits(write_bintable(names, tforms, rows))
        assert info.nrows == 50
        assert [c.name for c in info.columns] == names
        assert info.row_bytes == 8 + 8 + 8 + 4 + 8

    def test_roundtrip_values(self):
        names, tforms, rows = sample_table(20)
        data = write_bintable(names, tforms, rows)
        info = parse_fits(data)
        for i, row in enumerate(rows):
            start = info.data_offset + i * info.row_bytes
            raw = data[start:start + info.row_bytes]
            decoded = tuple(c.decode(raw) for c in info.columns)
            assert decoded[0] == row[0]
            assert decoded[1] == pytest.approx(row[1])
            assert decoded[3] == pytest.approx(row[3], rel=1e-6)  # float32
            assert decoded[4] == row[4]

    def test_schema_derived_from_header(self):
        names, tforms, rows = sample_table(5)
        info = parse_fits(write_bintable(names, tforms, rows))
        schema = info.schema
        assert schema.names == names
        assert schema.column("obj_id").dtype.family == "int"
        assert schema.column("ra").dtype.family == "float"
        assert schema.column("label").dtype.family == "str"

    def test_int32_column(self):
        info = parse_fits(write_bintable(["v"], ["J"], [(123,)]))
        raw = bytes(info.columns[0].encode(123))
        assert struct.unpack(">i", raw)[0] == 123

    def test_string_column_padded_and_stripped(self):
        column = FitsColumn("s", "A", 6, 0)
        assert column.encode("ab") == b"ab    "
        assert column.decode(b"ab    ") == "ab"

    def test_bad_tform_rejected(self):
        with pytest.raises(FITSFormatError):
            write_bintable(["x"], ["Q"], [(1,)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(FITSFormatError):
            write_bintable(["x", "y"], ["J", "J"], [(1,)])

    def test_not_fits_rejected(self):
        with pytest.raises(FITSFormatError):
            parse_fits(b"\x00" * BLOCK * 2)

    def test_truncated_header_rejected(self):
        with pytest.raises(FITSFormatError):
            parse_fits(b"SIMPLE  =                    T")


class TestRawFitsScan:
    def engine(self, nrows=200, **config_kwargs):
        vfs, rows = fits_vfs(nrows)
        config = PostgresRawConfig(row_block_size=64, **config_kwargs)
        db = PostgresRaw(config=config, vfs=vfs)
        create_table(db, "sky", "sky.fits", fmt="fits")
        return db, rows

    def test_projection_matches_written_rows(self):
        db, rows = self.engine(100)
        result = db.query("SELECT obj_id, label FROM sky")
        assert result.rows == [(r[0], r[4]) for r in rows]

    def test_aggregates(self):
        db, rows = self.engine(150)
        result = db.query("SELECT min(dec), max(dec), avg(dec) FROM sky")
        decs = [r[2] for r in rows]
        assert result.rows[0][0] == pytest.approx(min(decs))
        assert result.rows[0][1] == pytest.approx(max(decs))
        assert result.rows[0][2] == pytest.approx(sum(decs) / len(decs))

    def test_predicate(self):
        db, rows = self.engine(100)
        result = db.query("SELECT obj_id FROM sky WHERE ra < 180.0")
        expected = [(r[0],) for r in rows if r[1] < 180.0]
        assert result.rows == expected

    def test_no_tokenize_cost_for_binary(self):
        db, _ = self.engine(50)
        db.query("SELECT ra FROM sky")
        assert db.model.count(CostEvent.TOKENIZE) == 0
        assert db.model.count(CostEvent.CONVERT_FLOAT) == 0
        assert db.model.count(CostEvent.DESERIALIZE) > 0

    def test_cache_eliminates_io(self):
        db, _ = self.engine(100)
        db.query("SELECT mag FROM sky")
        io_before = (db.model.count(CostEvent.DISK_READ_COLD)
                     + db.model.count(CostEvent.DISK_READ_WARM))
        db.query("SELECT mag FROM sky")
        io_after = (db.model.count(CostEvent.DISK_READ_COLD)
                    + db.model.count(CostEvent.DISK_READ_WARM))
        assert io_after == io_before

    def test_cache_disabled_rereads(self):
        db, _ = self.engine(100, enable_cache=False)
        db.query("SELECT mag FROM sky")
        io_before = (db.model.count(CostEvent.DISK_READ_COLD)
                     + db.model.count(CostEvent.DISK_READ_WARM))
        db.query("SELECT mag FROM sky")
        io_after = (db.model.count(CostEvent.DISK_READ_COLD)
                    + db.model.count(CostEvent.DISK_READ_WARM))
        assert io_after > io_before

    def test_stats_collected(self):
        db, _ = self.engine(100)
        db.query("SELECT mag FROM sky")
        stats = db.catalog.get("sky").stats
        assert stats is not None and stats.has_column("mag")

    def test_schema_comes_from_file(self):
        db, _ = self.engine(10)
        info = db.catalog.get("sky")
        assert info.schema.names == ["obj_id", "ra", "dec", "mag", "label"]

    def test_explain_shows_no_kernel_row(self):
        """Fixed-stride rows have no positional map for the cached-block
        fast path to serve from: EXPLAIN names no kernel, and a warm
        scan counts no kernel event."""
        db, _ = self.engine(100)
        sql = "SELECT obj_id FROM sky WHERE ra < 180.0"
        db.query(sql)
        db.query(sql)
        assert not [row for (row,) in db.query("EXPLAIN " + sql).rows
                    if row.startswith("kernel:")]
        assert not [name for name in db.counters()
                    if name.startswith("kernel_")]


def short_file(nrows=400, data_bytes=1000):
    """A one-column FITS file and the same file with its data section
    cut to ``data_bytes`` bytes."""
    data = write_bintable(["a"], ["J"], [(i,) for i in range(nrows)])
    return data, data[:parse_fits(data).data_offset + data_bytes]


class TestTruncatedData:
    def test_parse_rejects_short_data(self):
        with pytest.raises(FITSFormatError, match="truncated FITS data"):
            parse_fits(short_file()[1])

    def test_create_rejects_short_data(self):
        vfs = VirtualFS()
        vfs.create("t.fits", short_file()[1])
        db = PostgresRaw(vfs=vfs)
        with pytest.raises(FITSFormatError, match="truncated FITS data"):
            db.query("CREATE TABLE t USING fits OPTIONS (path 't.fits')")

    def test_live_table_rejects_short_data(self):
        full, short = short_file()
        vfs = VirtualFS()
        vfs.create("t.fits", full)
        db = PostgresRaw(vfs=vfs)
        db.query("CREATE TABLE t USING fits OPTIONS (path 't.fits')")
        assert db.query("SELECT sum(a) FROM t").scalar() == 79800
        vfs.write_bytes("t.fits", short)
        with pytest.raises(FITSFormatError, match="truncated FITS data"):
            db.query("SELECT sum(a) FROM t")
        vfs.write_bytes("t.fits", full)
        assert db.query("SELECT sum(a) FROM t").scalar() == 79800


class TestFileChanges:
    """§4.5 for FITS: after its file changes, a live table answers as
    an engine built over the changed file does (the harness's ``fresh``
    axis). The 34-row table's file keeps its size under a 3-row
    rewrite: FITS pads to 2880-byte records."""

    @pytest.mark.parametrize("change, cache", [
        ((Truncate(3),), True), ((Truncate(3),), False),
        ((Append(136, 5),), True), ((Append(136, 5),), False),
        # uncached, the same geometry reads the new values correctly
        ((Truncate(30), Append(4, 9)), True)],
        ids=["fewer_rows", "fewer_rows_uncached", "more_rows",
             "more_rows_uncached", "same_size_new_values"])
    def test_live_table_matches_a_fresh_engine(self, change, cache):
        check(Scenario((Table("t", "fits", 1),),
                       (Query("SELECT * FROM t"), *change,
                        Query("SELECT * FROM t"),
                        Query("SELECT count(*) FROM t"),
                        Query("SELECT k, tag FROM t WHERE x < 0")),
                       (("row_block_size", 16), ("enable_cache", cache)),
                       "fits"), [AXIS["fresh"]])

    def test_change_before_the_first_query(self):
        check(Scenario((Table("t", "fits", 1),),
                       (Truncate(3), Query("SELECT k, y, m, x FROM t")),
                       (("row_block_size", 16),), "fits"), [AXIS["fresh"]])

    @pytest.mark.parametrize("fetched, nrows, other_session", [
        (5, 10, False), (5, 10, True), (97, 200, True)],
        ids=["fewer_rows", "fewer_rows_other_session",
             "more_rows_after_the_last_block"])
    def test_open_cursor_across_a_rewrite_fails_cleanly(
            self, fetched, nrows, other_session):
        """A scan reads under the header it started with: once its file
        is rewritten — whether or not another session's query has taken
        the new header — the open cursor fails instead of returning rows
        the new file's padding decodes to."""
        names, tforms, rows = sample_table(200)
        vfs = VirtualFS()
        vfs.create("sky.fits", write_bintable(names, tforms, rows[:100]))
        db = PostgresRaw(vfs=vfs,
                         config=PostgresRawConfig(row_block_size=16))
        create_table(db, "sky", "sky.fits", fmt="fits")
        cur = repro.connect(db).cursor()
        cur.execute("SELECT obj_id, label FROM sky")
        assert cur.fetchmany(fetched) == [(r[0], r[4])
                                          for r in rows[:fetched]]
        vfs.write_bytes("sky.fits",
                        write_bintable(names, tforms, rows[:nrows]))
        if other_session:
            assert db.query("SELECT count(*) FROM sky").scalar() == nrows
        with pytest.raises(OperationalError, match="changed under"):
            cur.fetchall()
        cur.execute("SELECT obj_id, label FROM sky")
        assert cur.fetchall() == [(r[0], r[4]) for r in rows[:nrows]]

    def test_columns_that_no_longer_match_are_an_error(self):
        vfs, _ = fits_vfs(20)
        db = PostgresRaw(vfs=vfs)
        create_table(db, "sky", "sky.fits", fmt="fits")
        db.query("SELECT mag FROM sky")
        vfs.write_bytes("sky.fits", write_bintable(["x"], ["J"], [(1,)]))
        with pytest.raises(FITSFormatError, match="no longer matches"):
            db.query("SELECT mag FROM sky")


class TestCFitsioComparator:
    def test_aggregates_match_sql_engine(self):
        vfs, rows = fits_vfs(120)
        program = CFitsioProgram(vfs, "sky.fits")
        db = PostgresRaw(vfs=vfs)
        create_table(db, "sky", "sky.fits", fmt="fits")
        for func in ("min", "max", "avg"):
            answer = program.aggregate(func, "mag")
            sql = db.query(f"SELECT {func}(mag) FROM sky").scalar()
            assert answer.value == pytest.approx(sql)

    def test_constant_time_per_query(self):
        # "the CFITSIO approach leads to nearly constant query times
        # since the entire file must be scanned for every query"
        vfs, _ = fits_vfs(200)
        program = CFitsioProgram(vfs, "sky.fits")
        first = program.aggregate("avg", "mag").elapsed     # cold
        second = program.aggregate("avg", "mag").elapsed    # fs-cache warm
        third = program.aggregate("min", "dec").elapsed
        assert second <= first
        assert third == pytest.approx(second, rel=0.2)

    def test_unsupported_mode_rejected(self):
        vfs, _ = fits_vfs(10)
        program = CFitsioProgram(vfs, "sky.fits")
        with pytest.raises(Exception):
            program.aggregate("median", "mag")
