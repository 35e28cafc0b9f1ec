"""ALTER TABLE ... RENAME TO: catalog renames with positioned errors.

A rename changes only the catalog key: the ``TableInfo`` object (and
therefore every auxiliary structure and rollup holding it by identity)
survives. The stats epoch bumps so prepared statements re-plan — ones
naming the old table then fail cleanly instead of serving stale plans.
"""

from __future__ import annotations

import pytest

import repro
from repro import LoadedDBMS, PostgresRaw, VirtualFS
from repro.errors import CatalogError, ParseError

from conftest import PEOPLE_CSV, create_table, people_schema


@pytest.fixture
def raw() -> PostgresRaw:
    fs = VirtualFS()
    fs.create("people.csv", PEOPLE_CSV)
    db = PostgresRaw(vfs=fs)
    create_table(db, "people", "people.csv", people_schema())
    return db


class TestRename:
    def test_rename_moves_the_catalog_entry(self, raw):
        result = raw.query("ALTER TABLE people RENAME TO folks")
        assert result.rows == [("ALTER TABLE people RENAME TO folks",)]
        assert raw.query("SELECT count(*) FROM folks").scalar() == 5
        with pytest.raises(CatalogError, match="unknown table"):
            raw.query("SELECT count(*) FROM people")

    def test_info_identity_and_name_updated(self, raw):
        info = raw.catalog.get("people")
        raw.query("ALTER TABLE people RENAME TO folks")
        assert raw.catalog.get("folks") is info
        assert info.name == "folks"

    def test_warm_structures_survive(self, raw):
        warm = raw.query("SELECT name FROM people WHERE age > 26")
        raw.query("ALTER TABLE people RENAME TO folks")
        again = raw.query("SELECT name FROM folks WHERE age > 26")
        assert again.rows == warm.rows
        # the positional map built pre-rename still serves: the second
        # run is cheaper than the cold one
        assert again.elapsed < warm.elapsed

    def test_rename_to_existing_name_rejected(self, raw):
        raw.query("CREATE TABLE other (a INTEGER) USING csv "
                  "OPTIONS (path 'people.csv')")
        with pytest.raises(CatalogError, match="already registered"):
            raw.query("ALTER TABLE people RENAME TO other")
        assert raw.catalog.has("people")  # unchanged on failure

    def test_missing_table_rejected_unless_if_exists(self, raw):
        with pytest.raises(CatalogError, match="unknown table"):
            raw.query("ALTER TABLE nope RENAME TO whatever")
        result = raw.query("ALTER TABLE IF EXISTS nope RENAME TO whatever")
        assert "skipped" in result.rows[0][0]

    def test_case_insensitive_lookup(self, raw):
        raw.query("ALTER TABLE People RENAME TO Folks")
        assert raw.query("SELECT count(*) FROM FOLKS").scalar() == 5

    def test_parse_errors_are_positioned(self, raw):
        for bad, fragment in (
                ("ALTER TABLE people RENAME folks", "TO"),
                ("ALTER TABLE people", "RENAME"),
                ("ALTER people RENAME TO folks", "TABLE"),
                ("ALTER TABLE people RENAME TO", "table name"),
        ):
            with pytest.raises(ParseError, match=fragment):
                raw.query(bad)

    def test_loaded_engine_rename(self):
        fs = VirtualFS()
        fs.create("people.csv", PEOPLE_CSV)
        db = LoadedDBMS(vfs=fs)
        db.load_csv("people", "people.csv", people_schema())
        db.query("ALTER TABLE people RENAME TO folks")
        assert db.query(
            "SELECT name FROM folks WHERE id = 1").rows == [("alice",)]


class TestRenameAndPreparedStatements:
    def test_prepared_on_old_name_fails_cleanly(self, raw):
        session = repro.connect(engine=raw)
        stmt = session.prepare("SELECT count(*) FROM people")
        assert stmt.execute().fetchone() == (5,)
        session.execute("ALTER TABLE people RENAME TO folks")
        with pytest.raises(Exception, match="unknown table"):
            stmt.execute()
        session.close()

    def test_rename_bumps_epoch_and_replans(self, raw):
        session = repro.connect(engine=raw)
        stmt = session.prepare("SELECT count(*) FROM people")
        stmt.execute()
        replans = session.stats["replans"]
        session.execute("ALTER TABLE people RENAME TO folks")
        session.execute("ALTER TABLE folks RENAME TO people")
        assert stmt.execute().fetchone() == (5,)
        assert session.stats["replans"] == replans + 1
        session.close()
