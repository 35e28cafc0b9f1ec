"""Tests for TOAST out-of-line storage (§6 wide-tuple pathology)."""

import pytest

from repro import LoadedDBMS, PostgresRaw, Schema, VirtualFS, varchar
from repro.errors import StorageError
from repro.simcost.clock import CostEvent
from repro.simcost.model import CostModel
from repro.sql.datatypes import INTEGER
from repro.storage.loader import BulkLoader
from repro.storage.toast import (
    TOAST_TUPLE_THRESHOLD,
    ToastReader,
    ToastWriter,
    is_pointer,
    make_pointer,
    parse_pointer,
    toast_values,
)

from conftest import create_table


class TestPointers:
    def test_roundtrip(self):
        pointer = make_pointer(1234, 56)
        assert is_pointer(pointer)
        assert parse_pointer(pointer) == (1234, 56)

    def test_ordinary_strings_are_not_pointers(self):
        assert not is_pointer("hello")
        assert not is_pointer("")
        assert not is_pointer(42)

    def test_malformed_pointer_rejected(self):
        with pytest.raises(StorageError):
            parse_pointer("\x00Tgarbage")


class TestWriterReader:
    def test_store_and_fetch(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        p1 = writer.store("x" * 100)
        p2 = writer.store("y" * 200)
        reader = ToastReader(vfs, "t.toast", model)
        assert reader.fetch(p1) == "x" * 100
        assert reader.fetch(p2) == "y" * 200
        assert writer.values_written == 2

    def test_fetch_charges_toast_event(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        pointer = writer.store("v" * 80)
        ToastReader(vfs, "t.toast", model).fetch(pointer)
        assert model.count(CostEvent.TOAST_FETCH) == 1

    def test_resolve_passthrough(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        pointer = writer.store("long" * 30)
        reader = ToastReader(vfs, "t.toast", model)
        assert reader.resolve("inline") == "inline"
        assert reader.resolve(pointer) == "long" * 30

    def test_unicode_values(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        value = "naïve-δ" * 20
        pointer = writer.store(value)
        assert ToastReader(vfs, "t.toast", model).fetch(pointer) == value


class TestToastValues:
    def test_narrow_tuple_untouched(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        values = [1, "short"]
        out = toast_values(values, ["int", "str"], writer,
                           lambda v: 50)
        assert out == [1, "short"]
        assert writer.values_written == 0

    def test_wide_tuple_toasts_largest_first(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        values = ["a" * 500, "b" * 2000, "c" * 100]
        families = ["str", "str", "str"]

        def width(vals):
            return sum(len(v) for v in vals)

        out = toast_values(values, families, writer, width,
                           threshold=1000)
        # The 2000-byte value goes first; that alone is enough.
        assert is_pointer(out[1])
        assert not is_pointer(out[0])
        assert not is_pointer(out[2])

    def test_stops_when_under_threshold(self, vfs):
        model = CostModel()
        writer = ToastWriter(vfs, "t.toast", model)
        values = ["a" * 900, "b" * 900, "c" * 900]

        def width(vals):
            return sum(len(v) for v in vals)

        toast_values(values, ["str"] * 3, writer, width, threshold=1500)
        assert writer.values_written == 2  # third value stays inline


class TestEndToEnd:
    def wide_schema(self):
        return Schema([("id", INTEGER)]
                      + [(f"s{i}", varchar()) for i in range(8)])

    def wide_csv(self, vfs, width=400, rows=20):
        lines = []
        for r in range(rows):
            fields = [str(r)] + [f"{chr(97 + i)}" * width
                                 for i in range(8)]
            lines.append(",".join(fields))
        vfs.create("wide.csv", ("\n".join(lines) + "\n").encode())

    def test_load_creates_toast_file(self, vfs):
        self.wide_csv(vfs)  # rows ~3.2 KB > threshold
        db = LoadedDBMS(vfs=vfs)
        db.load_csv("wide", "wide.csv", self.wide_schema())
        toast_files = [p for p in db.vfs.listdir() if p.endswith(".toast")]
        assert toast_files, "wide rows must produce a toast file"

    def test_loaded_results_match_raw(self, vfs):
        self.wide_csv(vfs)
        loaded = LoadedDBMS(vfs=vfs)
        loaded.load_csv("wide", "wide.csv", self.wide_schema())
        raw = PostgresRaw(vfs=vfs)
        create_table(raw, "wide", "wide.csv", self.wide_schema())
        for sql in ("SELECT id, s3 FROM wide WHERE id < 5",
                    "SELECT count(*) FROM wide WHERE s0 LIKE 'aaa%'",
                    "SELECT max(s7) FROM wide"):
            assert sorted(loaded.query(sql).rows) == sorted(
                raw.query(sql).rows), sql

    def test_toast_fetch_charged_only_for_touched_attrs(self, vfs):
        self.wide_csv(vfs, rows=10)
        db = LoadedDBMS(vfs=vfs)
        db.load_csv("wide", "wide.csv", self.wide_schema())
        db.query("SELECT id FROM wide")  # id is inline
        assert db.model.count(CostEvent.TOAST_FETCH) == 0
        # Equal-length candidates toast in index order until the tuple
        # fits: s0 is out of line, the last string stays inline.
        db.query("SELECT s0 FROM wide")
        assert db.model.count(CostEvent.TOAST_FETCH) >= 10
        fetches = db.model.count(CostEvent.TOAST_FETCH)
        db.query("SELECT s7 FROM wide")  # inline survivor
        assert db.model.count(CostEvent.TOAST_FETCH) == fetches

    def test_narrow_rows_never_toast(self, vfs):
        vfs.create("narrow.csv", b"1,a\n2,b\n")
        db = LoadedDBMS(vfs=vfs)
        db.load_csv("narrow", "narrow.csv",
                    Schema([("id", INTEGER), ("s", varchar())]))
        db.query("SELECT s FROM narrow")
        assert db.model.count(CostEvent.TOAST_FETCH) == 0

    def test_threshold_matches_postgres_ballpark(self):
        assert 1500 <= TOAST_TUPLE_THRESHOLD <= 2200
