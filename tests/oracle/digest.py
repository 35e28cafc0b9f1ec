"""One lockstep-twin harness: scenarios, a per-step state digest, axes.

The paper's adaptive structures (§4.2–§4.5: positional map, cache,
statistics, file updates) are trustworthy in this reproduction because
of one contract: what a query answers and what it leaves behind — rows
or a typed failure, PM and cache contents with their LRU orders, column
statistics, reject and zone sidecars, every priced counter and the
virtual clock — do not depend on how the engine computed it. This
module states that contract once:

* a :class:`Scenario` is seeded tables, a config point, a file layout
  and an op script;
* :func:`build_engine` is the one engine builder, :func:`run` plays a
  scenario on one :class:`Variant` (engine class, layout, config,
  transport) and takes a :func:`digest` after every step;
* an :class:`Axis` is two variants plus a projection naming what may
  differ between them; :func:`check` plays a scenario on every axis
  that applies and fails naming the axis, the step and the digest
  field;
* :func:`scenarios` is the hypothesis strategy that draws them.

The random table and query generators of the differential suites live
here too, so no test module imports another.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass

from hypothesis import strategies as st

import repro
from repro import (
    DATE,
    FLOAT,
    INTEGER,
    ExternalFilesDBMS,
    LoadedDBMS,
    PostgresRaw,
    PostgresRawConfig,
    Schema,
    VirtualFS,
    varchar,
)
from repro.errors import CSVFormatError, FormatError, ReproError
from repro.formats.csvfmt import write_csv
from repro.formats.fits import write_bintable
from repro.storage.faults import FaultInjectingVFS
from repro.workloads.micro import VALUE_RANGE, micro_schema

from . import OracleRaw

_LETTERS = "abcdefghij'\" _-"


# ---------------------------------------------------------------------------
# Random schema / data / query generation
# ---------------------------------------------------------------------------
def random_schema(rng: random.Random) -> Schema:
    kinds = [INTEGER, FLOAT, varchar(), DATE]
    ncols = rng.randint(3, 7)
    return Schema([
        (f"c{i}", rng.choice(kinds)) for i in range(ncols)
    ])


def random_text_value(rng: random.Random, dtype, nullable: bool) -> str:
    if nullable and dtype.family != "str" and rng.random() < 0.15:
        return ""  # NULL
    family = dtype.family
    if family == "int":
        return str(rng.randrange(-10_000, 10_000))
    if family == "float":
        return f"{rng.uniform(-1000, 1000):.{rng.randint(0, 6)}f}"
    if family == "date":
        return (f"{rng.randint(1990, 2030):04d}-"
                f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
    # Ragged widths, quote characters, leading/trailing spaces.
    width = rng.randint(0, 12)
    return "".join(rng.choice(_LETTERS) for _ in range(width))


def random_table(rng: random.Random, schema: Schema) -> list[list[str]]:
    nrows = rng.randint(0, 120)
    return [[random_text_value(rng, col.dtype, nullable=True)
             for col in schema.columns]
            for _ in range(nrows)]


def random_query(rng: random.Random, schema: Schema) -> str:
    columns = schema.columns
    projected = rng.sample([c.name for c in columns],
                           rng.randint(1, len(columns)))
    if rng.random() < 0.15:
        select = "count(*)"
    else:
        select = ", ".join(projected)
    sql = f"SELECT {select} FROM t"
    if rng.random() < 0.7:
        numeric = [c for c in columns if c.dtype.family in ("int", "float")]
        terms = []
        for _ in range(rng.randint(1, 2)):
            form = rng.random()
            if numeric and form < 0.75:
                col = rng.choice(numeric)
                if rng.random() < 0.3:
                    lo, hi = sorted((rng.randint(-8000, 8000),
                                     rng.randint(-8000, 8000)))
                    terms.append(f"{col.name} BETWEEN {lo} AND {hi}")
                else:
                    op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
                    terms.append(
                        f"{col.name} {op} {rng.randint(-8000, 8000)}")
            else:
                strings = [c for c in columns if c.dtype.family == "str"]
                if not strings:
                    continue
                col = rng.choice(strings)
                literal = random_text_value(rng, col.dtype, nullable=False)
                literal = literal.replace("'", "''")
                terms.append(f"{col.name} <> '{literal}'")
        if terms:
            sql += " WHERE " + " AND ".join(terms)
    return sql


def random_agg_query(rng: random.Random, schema: Schema) -> str:
    columns = schema.columns
    numeric = [c.name for c in columns
               if c.dtype.family in ("int", "float")]
    group_col = rng.choice([c.name for c in columns])
    aggs = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2 or not numeric:
            aggs.append("count(*)")
        else:
            func = rng.choice(["sum", "avg", "min", "max", "count"])
            arg = rng.choice(numeric)
            if rng.random() < 0.3:
                arg = f"{arg} * 2" if rng.random() < 0.5 else f"{arg} + 1"
            aggs.append(f"{func}({arg})")
    sql = f"SELECT {group_col}, {', '.join(aggs)} FROM t"
    if numeric and rng.random() < 0.5:
        sql += f" WHERE {rng.choice(numeric)} < {rng.randint(-2000, 8000)}"
    sql += f" GROUP BY {group_col}"
    if rng.random() < 0.4:
        sql += f" ORDER BY {group_col}"
    return sql


def random_order_query(rng: random.Random, schema: Schema) -> str:
    columns = [c.name for c in schema.columns]
    keys = rng.sample(columns, rng.randint(1, min(3, len(columns))))
    order = ", ".join(
        f"{k} {'DESC' if rng.random() < 0.5 else 'ASC'}" for k in keys)
    sql = f"SELECT {', '.join(columns)} FROM t ORDER BY {order}"
    if rng.random() < 0.4:
        sql += f" LIMIT {rng.randint(0, 40)}"
    return sql


def numeric_table(rng: random.Random):
    """A NULL-free INTEGER/FLOAT schema and its rows: under a cache
    budget its blocks commit, so the fast path runs while evicting."""
    schema = Schema([(f"c{i}", rng.choice([INTEGER, FLOAT]))
                     for i in range(rng.randint(3, 6))])
    rows = [[random_text_value(rng, col.dtype, nullable=False)
             for col in schema.columns]
            for _ in range(rng.randint(40, 160))]
    return schema, rows


def micro(rows: int, nattrs: int, seed: int = 0,
          value_range: int = VALUE_RANGE):
    """The §5.1 micro-benchmark table ``a1..a<nattrs>`` of uniform
    integers: its schema and text rows."""
    rng = random.Random(seed)
    return micro_schema(nattrs), [[str(rng.randrange(value_range))
                                   for _ in range(nattrs)]
                                  for _ in range(rows)]


def _int_or_null(rng: random.Random, hi: int, null_rate: float) -> str:
    return "" if rng.random() < null_rate else str(rng.randint(0, hi))


def keyed_table(rng: random.Random, prefix: str, key_family: str):
    """One side of a join or semi-join: a key (``<p>k``, small ints or
    letters), a second small key, and int / float / date / string
    payloads, with the NULL rate drawn per table (typed vs object key
    arrays)."""
    nulls = rng.choice([0.0, 0.15])
    if key_family == "int":
        key_type, key = INTEGER, lambda: _int_or_null(rng, 9, nulls)
    else:
        key_type, key = varchar(), lambda: rng.choice("abcdefg")
    schema = Schema([(f"{prefix}k", key_type), (f"{prefix}k2", INTEGER),
                     (f"{prefix}v", INTEGER), (f"{prefix}f", FLOAT),
                     (f"{prefix}d", DATE), (f"{prefix}s", varchar())])
    rows = [[key(), _int_or_null(rng, 3, nulls),
             str(rng.randint(-100, 100)),
             "" if rng.random() < 0.1 else f"{rng.uniform(-10, 10):.3f}",
             "" if rng.random() < 0.1
             else f"1995-0{rng.randint(1, 9)}-11",
             rng.choice(["p", "q", "pq", "x"])]
            for _ in range(rng.choice([0, 5, 40, rng.randint(0, 90)]))]
    return schema, rows


#: two keyed tables ``l`` and ``r``: hash joins, EXISTS / NOT EXISTS
#: semi-joins, residual column-vs-column filters and HAVING
JOIN_QUERIES = [
    "SELECT lv, rv FROM l, r WHERE lk = rk",
    "SELECT lv, rf FROM l, r WHERE lk = rk AND lv > 0",
    "SELECT ls, count(*), sum(rf) FROM l, r WHERE lk = rk GROUP BY ls",
    "SELECT lv, rf FROM l, r WHERE lk = rk ORDER BY lv, rf LIMIT 25",
    "SELECT lk, count(*) FROM l, r WHERE lk = rk GROUP BY lk ORDER BY lk",
    "SELECT lk, lv FROM l WHERE EXISTS (SELECT * FROM r WHERE rk = lk)",
    "SELECT lk, lv FROM l WHERE NOT EXISTS "
    "(SELECT * FROM r WHERE rk = lk)",
    "SELECT lv FROM l WHERE lv > -60 AND EXISTS "
    "(SELECT * FROM r WHERE rk = lk AND rk2 = lk2 AND rv > -20)",
    "SELECT lv FROM l WHERE NOT EXISTS "
    "(SELECT * FROM r WHERE rk2 = lk2 AND rk = lk)",
    "SELECT lv FROM l WHERE EXISTS "
    "(SELECT * FROM r WHERE rk = lk AND rv > 100000)",
    "SELECT count(*) FROM l WHERE NOT EXISTS "
    "(SELECT * FROM r WHERE rk = lk AND rv > 100000)",
    "SELECT lk2, count(*), sum(lv) FROM l WHERE EXISTS "
    "(SELECT * FROM r WHERE rk = lk AND rv < rk2 * 50) "
    "GROUP BY lk2 ORDER BY lk2",
    "SELECT lv, rv FROM l, r WHERE lk = rk AND lv < rv",
    "SELECT lv, rf FROM l, r WHERE lk = rk AND lf <> rf AND ld <= rd",
    "SELECT ls, rs FROM l, r WHERE lk = rk AND ls <> rs",
    "SELECT ls, rs FROM l, r WHERE lk = rk AND (ls < rs OR lv >= rf)",
    "SELECT lk, sum(lv), count(*) FROM l GROUP BY lk "
    "HAVING sum(lv) > count(*) ORDER BY lk",
]

CASE_SCHEMA = Schema([("g", INTEGER), ("a", INTEGER), ("f", FLOAT),
                      ("s", varchar()), ("d", DATE)])


def case_table(rng: random.Random) -> list[list[str]]:
    return [[_int_or_null(rng, 4, 0.1),
             "" if rng.random() < 0.15 else str(rng.randint(-50, 50)),
             "" if rng.random() < 0.15 else f"{rng.uniform(-9, 9):.3f}",
             rng.choice(["apple", "avocado", "banana", "cherry", ""]),
             f"19{rng.randint(90, 99)}-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"]
            for _ in range(rng.randint(0, 120))]


def case_aggregates(rng: random.Random) -> list[str]:
    x, y = sorted((rng.randint(-40, 40), rng.randint(-40, 40)))
    group = rng.randint(0, 4)
    return [
        f"sum(CASE WHEN a > {x} THEN a END)",                   # no ELSE
        f"count(CASE WHEN a > {x} THEN 1 END)",
        f"sum(CASE WHEN a > {x} THEN f ELSE 0 END)",            # int/float
        f"sum(CASE WHEN g = {group} THEN f ELSE 0 END)",        # all-ELSE
        "sum(CASE WHEN g = 99 THEN f ELSE 0 END)",              # groups
        f"avg(CASE WHEN s LIKE 'a%' THEN a * 2 + 1 ELSE a - {y} END)",
        f"min(CASE WHEN a < {x} THEN f WHEN a < {y} THEN f * 2 "
        "ELSE -f END)",
        f"max(CASE WHEN s NOT LIKE '%an%' AND a >= {x} THEN a + g "
        "ELSE g END)",
        f"sum(2 * CASE WHEN a <= {y} OR f > 0 THEN 1 ELSE 0 END)",
        "sum(CASE WHEN a <> 0 THEN f / a ELSE 0.0 END)",        # guarded
        "count(CASE WHEN d < DATE '1995-01-01' THEN s END)",
        "max(CASE WHEN s = 'apple' THEN s WHEN s = 'cherry' THEN 'c' END)",
        f"sum(CASE WHEN a > {x} THEN NULL ELSE a END)",         # NULL arm
    ]


def case_query(rng: random.Random) -> str:
    """Up to three CASE aggregates, grouped or under a WHERE."""
    picked = ", ".join(rng.sample(case_aggregates(rng), rng.randint(1, 3)))
    if rng.random() < 0.5:
        return f"SELECT g, {picked} FROM t GROUP BY g ORDER BY g"
    return f"SELECT {picked} FROM t WHERE a < {rng.randint(-20, 60)}"


PAIR_SCHEMA = Schema([("i1", INTEGER), ("i2", INTEGER), ("f1", FLOAT),
                      ("f2", FLOAT), ("d1", DATE), ("d2", DATE),
                      ("s1", varchar()), ("s2", varchar()), ("x", INTEGER)])

#: column-vs-column WHERE clauses over int/float/date/str pairs
PAIR_PREDICATES = [
    "i1 < i2",
    "i1 = i2",
    "i1 <> f1",
    "f1 >= f2",
    "i2 <= f2 AND x > 10",
    "d1 < d2",
    "d1 = d2 OR d1 > d2",
    "s1 < s2",
    "s1 = s2",
    "s1 <> s2 AND s1 LIKE '%a%'",
    "s2 NOT LIKE 'b%' AND i1 >= i2",
    "i1 = s1",            # mismatched types: never equal, as in Python
    "i1 <> s1",
    "d1 <= d2 AND (i1 < i2 OR f1 > f2) AND d1 > DATE '1994-06-01'",
]


def pair_table(rng: random.Random, nrows: int | None = None,
               ) -> list[list[str]]:
    def date():
        if rng.random() < 0.12:
            return ""
        return f"199{rng.randint(3, 6)}-0{rng.randint(1, 9)}-1{rng.randint(0, 5)}"

    def number(fmt):
        return "" if rng.random() < 0.12 else fmt(rng.randint(-6, 6))

    if nrows is None:
        nrows = rng.randint(0, 120)
    return [[number(str), number(str),
             number(lambda v: f"{v}.0" if rng.random() < 0.5
                    else f"{v}.25"),
             number(lambda v: f"{v}.0"), date(), date(),
             rng.choice(["a", "ab", "b", "ba", ""]),
             rng.choice(["a", "ab", "b", "ba", ""]),
             str(rng.randint(0, 99))] for _ in range(nrows)]


#: the FITS binary-table column set: int64, two doubles, a float32 and
#: an 8-byte string
FITS_COLUMNS = [("k", "K"), ("x", "D"), ("y", "D"), ("m", "E"),
                ("tag", "8A")]
FITS_SCHEMA = Schema([("k", INTEGER), ("x", FLOAT), ("y", FLOAT),
                      ("m", FLOAT), ("tag", varchar())])


def fits_table(rng: random.Random) -> list[list[str]]:
    return [[str(rng.randrange(-500, 500)), repr(rng.uniform(-9, 9)),
             repr(rng.uniform(0, 1)), repr(rng.uniform(10, 25)),
             f"t{rng.randrange(13):02d}"]
            for _ in range(rng.randint(0, 150))]


#: twelve columns, two per type slot: tables far larger than a small
#: §4.4 sample target, so its samples reach replacement
RESERVOIR_SCHEMA = Schema([(f"c{i}", [INTEGER, FLOAT, varchar(), DATE,
                                      INTEGER, FLOAT][i % 6])
                           for i in range(12)])


def reservoir_rows(rng: random.Random, nrows: int) -> list[list[str]]:
    """Only the FLOAT columns carry NULLs (~15 %)."""
    return [[random_text_value(rng, c.dtype,
                               nullable=c.dtype.family == "float")
             for c in RESERVOIR_SCHEMA.columns] for _ in range(nrows)]


def abcd_table(numeric: bool):
    """``a``, ``b``, ``c``, ``d`` counting rows: ``c`` a string over 400
    rows or, ``numeric``, a small int over 128 rows — every column then
    servable from the cache."""
    schema = Schema([("a", INTEGER), ("b", INTEGER),
                     ("c", INTEGER if numeric else varchar()), ("d", FLOAT)])
    return schema, [[str(i), str(i % 23),
                     str(i % 7) if numeric else f"s{i % 7}", repr(i * 0.25)]
                    for i in range(128 if numeric else 400)]


#: table kind -> rng -> (schema, text rows); ``l``/``r`` name the two
#: sides of the keyed kinds, which only appear together
KINDS = {
    "random": lambda rng: (lambda s: (s, random_table(rng, s)))(
        random_schema(rng)),
    "numeric": numeric_table,
    "micro": lambda rng: micro(96, 12, rng.randrange(10**6)),
    "case": lambda rng: (CASE_SCHEMA, case_table(rng)),
    "pair": lambda rng: (PAIR_SCHEMA, pair_table(rng)),
    "fits": lambda rng: (FITS_SCHEMA, fits_table(rng)),
    "reservoir": lambda rng: (RESERVOIR_SCHEMA, reservoir_rows(rng, 150)),
    "abcd": lambda rng: abcd_table(False),
    "abcd_numeric": lambda rng: abcd_table(True),
    "l_int": lambda rng: keyed_table(rng, "l", "int"),
    "r_int": lambda rng: keyed_table(rng, "r", "int"),
    "l_str": lambda rng: keyed_table(rng, "l", "str"),
    "r_str": lambda rng: keyed_table(rng, "r", "str"),
}


# ---------------------------------------------------------------------------
# Scenarios: seeded tables, a config point, a layout and an op script
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Table:
    """Schema and rows follow from ``KINDS[kind]`` and ``seed``;
    ``dirty`` turns ~5 % of the non-string cells into text no converter
    accepts (the ``on_error`` policies' input); ``narrow`` declares the
    schema without its last ``narrow`` columns, whose fields the file's
    lines still carry."""
    name: str = "t"
    kind: str = "random"
    seed: int = 0
    dirty: bool = False
    narrow: int = 0

    def generate(self):
        """The schema and a fresh list of the (shared, never mutated)
        rows: every variant of a scenario plays the same table."""
        schema, rows = _generated(self)
        return schema, list(rows)

    def more_rows(self, schema, seed: int, count: int):
        rng = random.Random(seed)
        if self.kind == "reservoir":
            rows = reservoir_rows(rng, count)
        elif self.kind in ("random", "numeric", "micro"):
            rows = [[random_text_value(rng, column.dtype,
                                       nullable=self.kind == "random")
                     for column in schema.columns] for _ in range(count)]
        else:
            rows = (KINDS[self.kind](rng)[1] * count)[:count]
        return self._dirty(schema, rows, rng)

    def _dirty(self, schema, rows, rng):
        for row in rows if self.dirty else ():
            for i, column in enumerate(schema.columns):
                if column.dtype.family != "str" and rng.random() < 0.05:
                    row[i] = "oops"
        return rows


@functools.lru_cache(maxsize=64)
def _generated(table: Table):
    rng = random.Random(table.seed)
    schema, rows = KINDS[table.kind](rng)
    schema = Schema(schema.columns[:schema.arity - table.narrow])
    return schema, table._dirty(schema, rows, rng)


def first_malformed(table: Table):
    """``(row_number, column)`` of the first line of ``table``'s initial
    file with a field its declared column cannot parse, or None."""
    schema, rows = table.generate()
    for row_number, row in enumerate(rows):
        for column, text in zip(schema.columns, row):
            if text == "" and column.dtype.family != "str":
                continue
            try:
                column.dtype.parse(text)
            except Exception:
                return row_number, column.name
    return None


def seeded(seed: int, kind: str = "random", name: str = "t"):
    """``Table(name, kind, seed)``, its schema, and the seed's generator
    after the table was drawn: a pinned scenario draws its block size
    and its statements from it, so one seed fixes the whole script."""
    rng = random.Random(seed)
    schema = KINDS[kind](rng)[0]
    return Table(name, kind, seed), schema, rng


def seeded_scenario(seed: int, count: int, block_size, statement=None,
                    kind: str = "random", layout: str = "csv",
                    files: int = 1, entry: str = "query", repeat: int = 1,
                    **config) -> Scenario:
    """One seed's pinned scenario: ``seeded(seed, kind)``'s table, a
    block size (``block_size``, or drawn from it when a list) and
    ``count`` statements drawn by ``statement(rng, schema)`` (default
    :func:`random_query`), each run ``repeat`` times through ``entry``,
    under ``config``."""
    table, schema, rng = seeded(seed, kind)
    if isinstance(block_size, list):
        block_size = rng.choice(block_size)
    statements = [(statement or random_query)(rng, schema)
                  for _ in range(count)]
    return Scenario((table,), tuple(Query(sql, entry) for sql in statements
                                    for _ in range(repeat)),
                    (("row_block_size", block_size), *config.items()),
                    layout, files)


# The ops of a script; a digest is taken after each.
@dataclass(frozen=True)
class Query:            # engine.query(sql), or a session cursor's fetchall
    sql: str
    entry: str = "query"


@dataclass(frozen=True)
class Prepared:         # prepare once, execute once per bind tuple
    sql: str
    binds: tuple = ()


@dataclass(frozen=True)
class Abandon:          # a cursor, fetchmany(5) k times, close
    sql: str
    k: int = 1


@dataclass(frozen=True)
class Interleave:       # a session per statement, fetched round-robin
    sqls: tuple
    chunk: int = 7


@dataclass(frozen=True)
class Append:           # count seeded rows onto the (last) file
    count: int = 20
    seed: int = 0
    table: str = "t"


@dataclass(frozen=True)
class Rewrite:          # the rows rotated by ``by``: same size, new file
    by: int = 1
    table: str = "t"


@dataclass(frozen=True)
class Truncate:         # a new file of the first ``keep`` rows
    keep: int = 10
    table: str = "t"


@dataclass(frozen=True)
class Close:            # engine.close()
    pass


#: the ops that change a table's files
CHANGES = (Append, Rewrite, Truncate)


@dataclass(frozen=True)
class Scenario:
    """Tables, the op script, the config point (``PostgresRawConfig``
    fields; ``on_error`` becomes a table option) and the layout —
    ``csv``, its ``jsonl`` twin or ``fits`` — in ``files`` files."""
    tables: tuple = (Table(),)
    ops: tuple = ()
    config: tuple = ()
    layout: str = "csv"
    files: int = 1

    @property
    def options(self) -> dict:
        return dict(self.config)


# ---------------------------------------------------------------------------
# Files and the engine builder
# ---------------------------------------------------------------------------
def render_jsonl(schema: Schema, rows, style: int = 0) -> bytes:
    """The JSONL twin of CSV text rows (empty non-string cells are
    NULL, numbers numbers, the rest strings). ``style`` varies each
    line's layout — member order, key case, whitespace, missing NULL
    members, nested extras — so the block index meets lines unlike the
    group's first."""
    lines = []
    for k, row in enumerate(rows, style):
        members = []
        for column, text in zip(schema.columns, row):
            family = column.dtype.family
            value = json.dumps(text, ensure_ascii=False)
            if text == "" and family != "str":
                if k % 3 == 2:
                    continue                            # missing member
                value = "null"
            elif family in ("int", "float"):
                try:
                    value = json.dumps((int if family == "int"
                                        else float)(text))
                except ValueError:
                    pass                                # "oops" stays text
            key = column.name.upper() if k % 10 == 6 else column.name
            members.append(f'"{key}": {value}')
        if k % 4 == 1:
            members.reverse()
        if k % 5 == 3:
            members.append('"extra": [1, {"k": "}"}]')
        line = "{" + ", ".join(members) + "}"
        lines.append("\t" + line.replace(": ", " :\t") + " \r"
                     if k % 9 == 5 else line)
    return "".join(line + "\n" for line in lines).encode("utf-8")


def render(fmt: str, schema: Schema, rows, style: int = 0) -> bytes:
    if fmt == "csv":
        return write_csv(rows)
    if fmt == "jsonl":
        return render_jsonl(schema, rows, style)
    casts = {"int": int, "float": float}
    return write_bintable(
        [name for name, _ in FITS_COLUMNS], [tform for _, tform in FITS_COLUMNS],
        [tuple(casts.get(c.dtype.family, str)(v)
               for c, v in zip(schema.columns, row)) for row in rows])


#: the comparators, which take no ``PostgresRawConfig``
CONFIGLESS = (LoadedDBMS, ExternalFilesDBMS)


def build_engine(tables: dict, fmt: str = "csv", engine=PostgresRaw,
                 vfs=None, options: str = "", files: dict | None = None,
                 **config) -> PostgresRaw:
    """The one engine builder: ``tables`` maps a name to ``(schema,
    rows)`` (text rows, rendered as ``fmt``) or ``(schema, bytes)``,
    declared by ``CREATE TABLE ... USING fmt OPTIONS (path ...
    <options>)``; a file already in ``vfs`` is taken as it is, and
    ``files`` maps a name to the glob of files already written. The
    loaded DBMS loads the CSV instead; it and the external-files
    straw-man take no config."""
    vfs = VirtualFS() if vfs is None else vfs
    loaded = engine is LoadedDBMS
    db = (engine(vfs=vfs) if engine in CONFIGLESS else
          engine(config=PostgresRawConfig(**config), vfs=vfs))
    for name, (schema, data) in tables.items():
        path = (files or {}).get(name) or f"{name}.{fmt}"
        if "*" not in path and not vfs.exists(path):
            vfs.create(path, data if isinstance(data, bytes)
                       else render(fmt, schema, data))
        if loaded:
            db.load_csv(name, path, schema)
            continue
        columns = ", ".join(f"{c.name} {c.dtype.name}"
                            for c in schema.columns)
        db.query(f"CREATE TABLE {name} ({columns}) USING {fmt} "
                 f"OPTIONS (path '{path}'{options})")
    return db


# ---------------------------------------------------------------------------
# Malformed input the generators do not draw: NUL-padded numbers
# ---------------------------------------------------------------------------
#: row -> the column whose numeric value ends in a NUL byte, which a
#: fixed-width ``astype`` view cannot tell from its own padding
NUL_ROWS = {5: "a", 10: "b"}
NUL_QUERIES = ("SELECT a, b FROM t WHERE c >= 0",
               "SELECT b FROM t WHERE b > 0",
               "SELECT c FROM t WHERE a < 9")
NUL_SCHEMA = Schema([("a", INTEGER), ("b", FLOAT), ("c", INTEGER)])


def nul_payload(fmt: str) -> bytes:
    template = (b"%s,%s,%d" if fmt == "csv"
                else b'{"a": %s, "b": %s, "c": %d}')
    lines = []
    for i in range(14):
        fields = {"a": b"%d" % i, "b": b"%d.5" % i}
        if i in NUL_ROWS:
            fields[NUL_ROWS[i]] += b"\x00"
        lines.append(template % (fields["a"], fields["b"], i))
    return b"\n".join(lines) + b"\n"


def nul_outcome(fmt: str, on_error: str, region: str, engine=PostgresRaw,
                **config):
    """What a table with NUL-padded numeric values does under an error
    policy, cold (``streaming``) or after a line index (``indexed``):
    per query its rows or its failure (message, row number), the
    ``rows_rejected`` counter, and the quarantine sidecar's (row,
    reason) records."""
    vfs = VirtualFS()
    engine = build_engine({"t": (NUL_SCHEMA, nul_payload(fmt))}, fmt,
                          engine, vfs, options=f", on_error '{on_error}'",
                          row_block_size=4, **config)
    if region == "indexed":
        engine.query("SELECT c FROM t")  # line index; a, b unconverted
    outcome = []
    for sql in NUL_QUERIES:
        try:
            outcome.append(engine.query(sql).rows)
        except FormatError as exc:
            outcome.append((str(exc), exc.context["row_number"]))
    rejects = []
    if vfs.exists("__rejects__/t"):
        rejects = [record.split(b"\t")[:2] for record in
                   vfs.read_bytes("__rejects__/t").split(b"\n")[:-1]]
    return outcome, engine.counters().get("rows_rejected"), rejects


# ---------------------------------------------------------------------------
# The digest
# ---------------------------------------------------------------------------
def pm_dump(pm):
    """Everything observable about a positional map's contents."""
    if pm is None:
        return None
    return {
        "line_starts": list(pm._line_starts),
        "file_length": pm._file_length,
        "chunks": {key: matrix.tolist()
                   for key, matrix in pm._chunks.items()},
        "directory": {block: dict(entries)
                      for block, entries in pm._directory.items()},
        "spilled": dict(pm._spilled),
    }


def cache_dump(cache):
    """Every cache block's mask and values (bytes too)."""
    if cache is None:
        return None
    return {key: (block.mask.tolist(), block.values, block.bytes_used)
            for key, block in cache._blocks.items()}


def pm_content(dump):
    """A PM dump's queryable content without its chunk grouping, which
    records whose flush first grouped the attributes — a layout artifact
    of workload order, not of what the map knows (§4.2)."""
    if dump is None:
        return None
    positions = {}
    for block, entries in dump["directory"].items():
        for attr, (chunk_key, col) in entries.items():
            matrix = dump["chunks"].get(chunk_key)
            if matrix is not None:
                positions[(block, attr)] = [line[col] for line in matrix]
    return {"line_starts": dump["line_starts"],
            "file_length": dump["file_length"],
            "spilled": dump["spilled"], "positions": positions}


def rows_key(rows) -> list[str]:
    """Rows compared type-strictly (int ``0`` is not ``0.0``, NaN is
    NaN); ``-0.0`` is ``0.0`` (a scalar accumulator can keep the sign
    bit where an array sentinel folds it)."""
    return [repr(tuple(0.0 if isinstance(v, float) and v == 0.0 else v
                       for v in row)) for row in rows]


def plan_nodes(plan: dict):
    """Every node of a result's plan dict."""
    yield plan
    for key in ("input", "left", "right", "outer", "inner"):
        child = plan.get(key)
        if isinstance(child, dict):
            yield from plan_nodes(child)


def digest(engine, tables, outcome=None, ledger=None) -> dict:
    """The state after one step, as flat ``field -> value``: the step's
    ``outcome`` and per-cursor ``ledger``, the engine's non-zero
    counters and its clock, each table's (each partition file's,
    ``t#k.``) PM and cache dumps with their LRU orders and its column
    statistics, and the reject and zone sidecars' bytes."""
    out = {"outcome": outcome, "ledger": ledger,
           "counters": {k: v for k, v in engine.counters().items() if v},
           "clock": float.hex(engine.clock.now())}
    for name in tables:
        info = engine.catalog.get(name)
        parts = getattr(info.access, "parts", None)
        units = [(name, info.access, info)] if parts is None else [
            *((f"{name}#{k}", part.access, part.info)
              for k, part in enumerate(parts)), (name, None, info)]
        for label, access, unit in units:
            pm, cache = (getattr(access, "pm", None),
                         getattr(access, "cache", None))
            stats = unit.stats
            out.update({
                f"{label}.pm": pm_dump(pm),
                f"{label}.pm_lru": pm and list(pm._chunks),
                f"{label}.cache": cache_dump(cache),
                f"{label}.cache_lru": cache and list(cache._blocks),
                f"{label}.stats": stats and {
                    c.name: dict(vars(stats.column(c.name)))
                    for c in unit.schema.columns if stats.has_column(c.name)},
            })
    for prefix in ("__rejects__/", "__zones__/"):
        out[prefix.strip("_/")] = {path: engine.vfs.read_bytes(path)
                                   for path in engine.vfs.listdir(prefix)}
    return out


def structures(engine, *tables) -> dict:
    """The digest's per-table part."""
    return {k: v for k, v in digest(engine, tables).items() if "." in k}


# ---------------------------------------------------------------------------
# Playing a scenario
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Variant:
    """One side of an axis: the engine class, a layout / file-count
    override, config overrides, the transport — ``mixed`` (each
    query's own entry), ``session`` (every op through an in-process
    session) or ``wire`` (through a QueryServer) — and whether the
    engine is rebuilt over the current files after each file change
    (``fresh``)."""
    engine: type = PostgresRaw
    layout: str | None = None
    files: int | None = None
    config: tuple = ()
    transport: str = "mixed"
    fresh: bool = False


class _Player:
    """One engine (its sessions, its server) playing a script."""

    def __init__(self, scenario: Scenario, variant: Variant):
        self.scenario, self.variant = scenario, variant
        self.layout = variant.layout or scenario.layout
        self.files = variant.files or scenario.files
        config = {**scenario.options, **dict(variant.config)}
        on_error = config.pop("on_error", None)
        vfs = (FaultInjectingVFS.from_config(PostgresRawConfig(**config))
               if config.get("fault_seed") is not None else VirtualFS())
        self.data = {t.name: t.generate() for t in scenario.tables}
        globs = {}
        if self.files > 1:
            for name in self.data:
                globs[name] = f"{name}-*.{self.layout}"
                self._write(vfs, name, vfs.create)
        self.build = functools.partial(
            build_engine, self.data, self.layout, variant.engine, vfs,
            "" if on_error is None else f", on_error '{on_error}'", globs,
            **({} if variant.engine in CONFIGLESS else config))
        self.engine = self.build()
        self.server, self.sessions = None, []
        if variant.transport == "wire":
            from repro.server import QueryServer, wire_connect
            self.server = QueryServer(self.engine).__enter__()
            self.connect = lambda: wire_connect("127.0.0.1",
                                                self.server.port)
        else:
            self.connect = lambda: repro.connect(engine=self.engine)

    def close(self):
        for session in self.sessions:
            session.close()
        if self.server is not None:
            self.server.__exit__(None, None, None)
        getattr(self.engine, "close", lambda: None)()

    def cursor(self, sql, params=None, own=False):
        """A cursor (a prepared statement, given ``params``) of the
        player's one session — of a session of its own when ``own`` —
        and that session."""
        if own or not self.sessions:
            self.sessions.append(self.connect())
        session = self.sessions[-1] if own else self.sessions[0]
        if params is None:
            return session.execute(sql), session
        return session.prepare(sql), session

    # -- files: a glob is equal runs of whole row blocks, the rest in the
    #    last file, so every file's blocks are the single file's — also
    #    after an append to the last
    def _path(self, name: str, f: int) -> str:
        return (f"{name}-{f:03d}.{self.layout}" if self.files > 1
                else f"{name}.{self.layout}")

    def _write(self, vfs, name, write):
        schema, rows = self.data[name]
        per = len(rows) // self.files // self.scenario.options.get(
            "row_block_size", 1024) * self.scenario.options.get(
            "row_block_size", 1024)
        for f in range(self.files):
            chunk = rows[f * per:(f + 1) * per if f < self.files - 1
                         else None]
            write(self._path(name, f),
                  render(self.layout, schema, chunk, f * per))

    def play(self, op):
        """Run one op; returns ``(outcome, ledger)``."""
        if isinstance(op, Query):
            if op.entry == "query" and self.variant.transport == "mixed":
                return rows_key(self.engine.query(op.sql).rows), None
            cursor, session = self.cursor(op.sql)
            return rows_key(cursor.fetchall()), _ledger([(cursor, session)])
        if isinstance(op, Prepared):
            # A re-bind waits for the last result: one still streaming
            # refuses it (OperationalError), and stays live on.
            statement, session = self.cursor(op.sql, op.binds)
            cursors, rows = [], []
            for bind in op.binds:
                cursors.append((statement.execute(bind), session))
                rows.append(rows_key(cursors[-1][0].fetchall()))
            return rows, _ledger(cursors)
        if isinstance(op, Abandon):
            cursor, _ = self.cursor(op.sql)
            fetched = sum((cursor.fetchmany(5) for _ in range(op.k)), [])
            cursor.close()
            return rows_key(fetched), None
        if isinstance(op, Interleave):
            cursors = [self.cursor(sql, own=True) for sql in op.sqls]
            got = [[] for _ in cursors]
            live = set(range(len(cursors)))
            while live:
                for k in sorted(live):
                    chunk = cursors[k][0].fetchmany(op.chunk)
                    got[k].extend(chunk)
                    if not chunk:
                        live.discard(k)
            return [rows_key(rows) for rows in got], _ledger(cursors)
        vfs = self.engine.vfs
        if isinstance(op, Append):
            schema, rows = self.data[op.table]
            table = next(t for t in self.scenario.tables
                         if t.name == op.table)
            extra = table.more_rows(schema, op.seed, op.count)
            rows.extend(extra)
            if self.layout == "fits":   # a FITS file cannot grow in place
                vfs.write_bytes(self._path(op.table, 0),
                                render("fits", schema, rows))
            else:
                vfs.append_bytes(self._path(op.table, self.files - 1),
                                 render(self.layout, schema, extra,
                                        len(rows) - len(extra)))
        elif isinstance(op, Rewrite):
            rows = self.data[op.table][1]
            by = op.by % len(rows) if rows else 0
            rows[:] = rows[by:] + rows[:by]
            self._write(vfs, op.table, vfs.write_bytes)
        elif isinstance(op, Truncate):
            del self.data[op.table][1][op.keep:]
            self._write(vfs, op.table, vfs.write_bytes)
        elif isinstance(op, Close):
            getattr(self.engine, "close", lambda: None)()
        if self.variant.fresh and isinstance(op, CHANGES):
            self.close()
            self.sessions = []
            self.engine = self.build()
        return None, None


def _ledger(cursors):
    return [(cursor.counters(), float.hex(session.elapsed()))
            for cursor, session in cursors]


def run(scenario: Scenario, variant: Variant = Variant()) -> list[dict]:
    """Play ``scenario`` on ``variant``: one digest per op. A typed
    failure is an outcome — error class, code, row number and column;
    an engine crash (a typed error caused by an untyped one) fails the
    run."""
    player = _Player(scenario, variant)
    names = [table.name for table in scenario.tables]
    digests = []
    try:
        for op in scenario.ops:
            try:
                outcome, ledger = player.play(op)
            except ReproError as exc:
                if exc.__cause__ is not None and \
                        not isinstance(exc.__cause__, ReproError):
                    raise
                outcome, ledger = ("error", type(exc).__name__, exc.code,
                                   exc.context.get("row_number"),
                                   exc.context.get("column")), None
            digests.append(digest(player.engine, names, outcome, ledger))
    finally:
        player.close()
    return digests


# ---------------------------------------------------------------------------
# Axes: two variants and what may differ between them
# ---------------------------------------------------------------------------
_ENV = PostgresRawConfig()
#: the side of each switch the environment's default engine is not on,
#: so every CI leg still crosses it
OTHER_WORKERS = 4 if _ENV.scan_workers == 1 else 1
OTHER_KERNELS = not _ENV.scan_kernels

#: priced work that depends on byte geometry — how many bytes a line
#: holds and where a value sits in it — and so on the file format
GEOMETRY = ("tokenize", "newline_scan", "disk_read_cold", "disk_read_warm",
            "disk_seek", "map_access", "map_insert", "io_retries",
            "io_stall")


def _counters(d: dict, drop) -> dict:
    """``d`` without the engine's and every cursor's ``drop(name)``
    counters."""
    d = dict(d)
    d["counters"] = {k: v for k, v in d["counters"].items() if not drop(k)}
    if d["ledger"] is not None:
        d["ledger"] = [({k: v for k, v in counters.items() if not drop(k)},
                        elapsed) for counters, elapsed in d["ledger"]]
    return d


def _kernel(name: str) -> bool:
    return name.startswith("kernel_")


def same(d, *_):
    """Nothing may differ."""
    return d


def kernels_free(d, *_):
    """Only ``kernel_*``, the fast path's own zero-priced observability,
    may differ."""
    return _counters(d, _kernel)


def _partial(scenario, step, stops=(Abandon, Interleave),
             limit=False) -> bool:
    """Whether a scan so far stopped early — an abandoned cursor, a
    malformed row, a LIMIT (``limit``: the row engine stops at its row,
    the batch engine at the end of that row's batch) — or scans
    interleaved: how much work that leaves done, and in which order,
    depends on a scan's granularity."""
    return any(t.dirty for t in scenario.tables) or any(
        isinstance(op, stops)
        or limit and " LIMIT " in getattr(op, "sql", "")
        for op in scenario.ops[:step + 1])


def _as_multiset(outcome):
    if outcome and isinstance(outcome[0], list):
        return [sorted(rows) for rows in outcome]
    return outcome and sorted(outcome)


def _rows_only(d, scenario, step):
    """Rows as a multiset (statistics a partial scan sampled may turn
    the planner to another grouping strategy); of interleaved cursors
    any one may fail first; a failure's column is the first one a
    block's column-major compute met, not always its row's first."""
    op, outcome = scenario.ops[step], d["outcome"]
    if isinstance(op, Abandon):
        return {}
    if isinstance(outcome, tuple):
        return {"outcome": outcome[:3] if isinstance(op, Interleave)
                else outcome[:4]}
    return {"outcome": _as_multiset(outcome)}


def oracle_view(d, scenario, step, pair):
    """The row-at-a-time oracle charges no kernel events, tokenizes an
    indexed row differently (after the first step the tokenize count
    parts ways), sums the clock in another order, and stops a partial
    scan mid-block — after interleaved scans ran to the end, the caches
    and the statistics still agree, unless a budget evicted in the
    interleaving's order. The map's free positions may not: which scan
    reached a block first — a block at a time or a row at a time —
    decides which of them it recorded there (a full-coverage scan
    converges them again, see
    ``test_api_concurrent.test_random_workloads_interleaved_match_scalar_oracle``)."""
    if _partial(scenario, step, (Abandon,), limit=True):
        return _rows_only(d, scenario, step)
    if _partial(scenario, step):
        if {"cache_budget_bytes", "pm_budget_bytes"} & set(scenario.options):
            return _rows_only(d, scenario, step)   # evicts in that order
        # after interleaved scans ran to the end: the same contents
        return {**_rows_only(d, scenario, step), **{
            k: v for k, v in d.items() if k.endswith((".cache", ".stats"))}}
    d = _counters(d, lambda k: _kernel(k) or (step > 0 and k == "tokenize"))
    d["ledger"] = None
    del d["clock"]
    return d


def fresh_view(d, scenario, step, pair):
    """A live engine after its files changed vs one built over the
    current files: from the first change on, the rows (a multiset —
    their statistics differ, so may the plan) or the error class."""
    if not any(isinstance(op, CHANGES) for op in scenario.ops[:step + 1]):
        return {}
    outcome = d["outcome"]
    if isinstance(outcome, tuple):
        return {"outcome": outcome[:2]}
    return _rows_only(d, scenario, step)


def twin_view(d, scenario, step, pair):
    """CSV vs its JSONL twin: byte geometry differs (tokenize, newline,
    read and map traffic, every PM byte offset, the clock), and so do
    kernel decisions, error classes and codes and reject reason text;
    rows, row numbers, cache contents and statistics do not."""
    if isinstance(d["outcome"], tuple):
        d = {**d, "outcome": ("error", d["outcome"][3])}
    if _partial(scenario, step):
        return _rows_only(d, scenario, step)
    d = _counters(d, lambda k: k in GEOMETRY or _kernel(k))
    d["ledger"] = d["ledger"] and [counters for counters, _ in d["ledger"]]
    d["rejects"] = {path: [record.split(b"\t")[0]
                           for record in payload.split(b"\n")[:-1]]
                    for path, payload in d["rejects"].items()}
    return {k: v for k, v in d.items()
            if k != "clock" and not k.endswith((".pm", ".pm_lru"))}


def glob_view(d, scenario, step, pair):
    """A glob of files vs one file: the same rows (a multiset: the
    planner reads per-file statistics, so it may group by another
    strategy; row numbers count per file), conversions, cache traffic
    and predicate work. The rest is per file — byte geometry, §4.4
    sampling, budgeted structures — and once zone maps prune a file,
    only rows remain."""
    outcome = d["outcome"]
    d = {**d, "outcome": outcome[:3] if isinstance(outcome, tuple)
         else _as_multiset(outcome)}
    if _partial(scenario, step) or {"cache_budget_bytes", "pm_budget_bytes"} \
            & set(scenario.options) or any(
                x["counters"].get("files_pruned") for x in pair):
        return _rows_only(d, scenario, step)
    return {"outcome": d["outcome"], "counters": {
        k: v for k, v in d["counters"].items()
        if k.startswith(("convert_", "cache_"))
        or k in ("predicate_eval", "rows_rejected")}}


_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _rounded(cursors):
    """Each cursor's rows as a multiset, floats to 12 digits."""
    return [[_FLOAT.sub(lambda m: f"{float(m.group()):.12g}", row)
             for row in sorted(cursor)] for cursor in cursors]


def loaded_view(d, scenario, step, pair):
    """The loaded DBMS, an independent engine: the multiset of rows of
    every query and interleaved cursor, floats to 12 digits (it may sum
    in another order)."""
    op, outcome = scenario.ops[step], d["outcome"]
    if not isinstance(op, (Query, Interleave)):
        return {}
    if isinstance(outcome, tuple):
        return {"outcome": "error"}
    return {"outcome": _rounded([outcome] if isinstance(op, Query)
                                else outcome)}


def external_view(d, scenario, step, pair):
    """The external-files straw-man, which plans without statistics
    (§2) — it may group by sorting where the reference hashes, and
    build a join on the other side — and parses every field of every
    line. Rows are compared as the loaded DBMS's are, a failure by
    class, code and row number, and the ``__rejects__/`` sidecar byte
    for byte until an abandoned or interleaved scan stopped the two
    engines' reading at different lines. Under ``on_error 'fail'`` a
    dirty table fails each query over it at its first malformed line,
    row number and column, whatever the query touches — the one answer
    the engines do not share. Until the files change, that error (its
    code, row number and column) stands in for the reference's answer —
    of a join, either table's: the plan picks the side it reads
    first."""
    op, outcome = scenario.ops[step], d["outcome"]
    done = scenario.ops[:step + 1]
    if "on_error" not in scenario.options and any(
            t.dirty for t in scenario.tables):
        if not isinstance(op, Query) or any(
                isinstance(o, CHANGES) for o in done):
            return {}
        firsts = [(CSVFormatError.code, *first) for first in
                  map(first_malformed, scenario.tables) if first is not None]
        if firsts:
            got = pair[1]["outcome"]
            got = got[2:] if isinstance(got, tuple) else got
            return {"outcome": got if d is pair[1] or got in firsts
                    else firsts[0]}
    view = {} if any(isinstance(o, (Abandon, Interleave)) for o in done) \
        else {"rejects": d["rejects"]}
    if isinstance(op, Abandon) or outcome is None:
        return view
    if isinstance(outcome, tuple):
        return {**view, "outcome": outcome[:3] if isinstance(op, Interleave)
                else outcome[:4]}
    return {**view, "outcome": _rounded(
        [outcome] if isinstance(op, Query) else outcome)}


@dataclass(frozen=True)
class Axis:
    name: str
    left: Variant
    right: Variant
    project: object
    applies: object = lambda scenario: True


def _single_csv(s: Scenario) -> bool:
    return s.layout == "csv" and s.files == 1


def _faulted(s: Scenario) -> bool:
    return s.options.get("fault_seed") is not None


REFERENCE = Variant()
_FLIPPED = Variant(config=(("scan_workers", OTHER_WORKERS),))
AXES = [
    Axis("oracle", REFERENCE, Variant(engine=OracleRaw), oracle_view,
         lambda s: s.layout in ("csv", "fits") and s.files == 1
         and not _faulted(s)),
    Axis("workers", REFERENCE, _FLIPPED, same, lambda s: not _faulted(s)),
    Axis("faults", REFERENCE, _FLIPPED, same, _faulted),
    Axis("kernels", REFERENCE,
         Variant(config=(("scan_kernels", OTHER_KERNELS),)), kernels_free),
    Axis("twin", REFERENCE, Variant(layout="jsonl"), twin_view, _single_csv),
    Axis("glob", Variant(files=1), REFERENCE, glob_view,
         lambda s: s.files > 1),
    Axis("fresh", REFERENCE, Variant(fresh=True), fresh_view,
         lambda s: not _faulted(s)
         and any(isinstance(op, CHANGES) for op in s.ops)),
    Axis("loaded", REFERENCE, Variant(engine=LoadedDBMS), loaded_view,
         lambda s: _single_csv(s) and not _faulted(s)
         and not any(t.dirty for t in s.tables)
         and not any(isinstance(op, CHANGES) for op in s.ops)),
    Axis("external", REFERENCE, Variant(engine=ExternalFilesDBMS),
         external_view, lambda s: _single_csv(s) and not _faulted(s)),
]
WIRE = Axis("wire", Variant(transport="session"), Variant(transport="wire"),
            same)
#: every axis by name
AXIS = {axis.name: axis for axis in (*AXES, WIRE)}


def worker_axes(*counts: int) -> list[Axis]:
    """``scan_workers`` ``counts[0]`` against each other count: nothing
    may differ."""
    return [Axis(f"workers {counts[0]}<->{w}",
                 Variant(config=(("scan_workers", counts[0]),)),
                 Variant(config=(("scan_workers", w),)), same)
            for w in counts[1:]]


def check(scenario: Scenario, axes=AXES) -> dict[Variant, list[dict]]:
    """Play ``scenario`` on every axis that applies (each variant once)
    and fail at the first step whose projected digests differ, naming
    the axis, the step and the digest fields. Returns each variant's
    digests."""
    runs: dict[Variant, list[dict]] = {}
    for axis in axes:
        if not axis.applies(scenario):
            continue
        for variant in (axis.left, axis.right):
            if variant not in runs:
                runs[variant] = run(scenario, variant)
        for step, (op, a, b) in enumerate(zip(
                scenario.ops, runs[axis.left], runs[axis.right])):
            a, b = (axis.project(x, scenario, step, (a, b)) for x in (a, b))
            fields = [k for k in dict.fromkeys([*a, *b])
                      if a.get(k) != b.get(k)]
            if fields:
                first = fields[0]
                raise AssertionError(
                    f"axis {axis.name!r}, step {step} ({op}): digest "
                    f"field(s) {fields} differ; {first}: "
                    f"{repr(a.get(first))[:300]} != "
                    f"{repr(b.get(first))[:300]}")
    return runs


# ---------------------------------------------------------------------------
# The hypothesis strategy
# ---------------------------------------------------------------------------
#: table families; the keyed ones are a pair ``l`` / ``r``
FAMILIES = ("random", "numeric", "micro", "case", "pair", "keyed_int",
            "keyed_str", "fits")
#: the families whose statements follow the schema, so a schema
#: narrower than the file's lines (``Table.narrow``) may be drawn
NARROWABLE = ("random", "numeric", "micro")

#: a config point is a block size plus up to three of these
CONFIG_CHOICES = [
    ("enable_cache", (False,)),
    ("enable_positional_map", (False,)),
    ("enable_statistics", (False,)),
    ("eager_prefix_indexing", (True,)),
    ("stats_sample_target", (3, 7)),
    ("cache_budget_bytes", (600, 1500, 4000)),
    ("pm_budget_bytes", (400, 800, 3000)),
    ("on_error", ("skip", "null")),
    ("fault_seed", (11,)),
]


def _statement(rng: random.Random, family: str, schema: Schema) -> str:
    if family.startswith("keyed"):
        return rng.choice(JOIN_QUERIES)
    if family == "case":
        return case_query(rng)
    if family == "pair":
        return f"SELECT x, i1, d2 FROM t WHERE {rng.choice(PAIR_PREDICATES)}"
    return rng.choice([random_query, random_query, random_agg_query,
                       random_order_query][:1 if family == "fits" else 4])(
        rng, schema)


@st.composite
def scenarios(draw, families=FAMILIES, layouts=("csv", "jsonl"),
              max_files=3, max_ops=6, changes=True):
    """One table family (its schema perhaps narrower than its file's
    lines), a layout, a config point and a script: queries
    from one grammar (select / aggregate / order shapes, joins and
    EXISTS, CASE aggregates, column pairs) through ``Database.query`` or
    a session, prepared re-binds, abandoned and interleaved cursors,
    appends, same-size rewrites, truncations and ``engine.close()``."""
    family = draw(st.sampled_from(families))
    seed = draw(st.integers(0, 10**6))
    dirty = family != "fits" and draw(st.booleans()) and draw(st.booleans())
    if family.startswith("keyed"):
        key = family.split("_")[1]
        tables = (Table("l", f"l_{key}", seed, dirty),
                  Table("r", f"r_{key}", seed + 1, dirty))
    else:
        narrow = draw(st.integers(0, 2)) if family in NARROWABLE else 0
        tables = (Table("t", family, seed, dirty, narrow),)
    layout = "fits" if family == "fits" else draw(st.sampled_from(layouts))
    files = 1 if len(tables) > 1 or layout == "fits" else \
        draw(st.integers(1, max_files))
    config = [("row_block_size", draw(st.sampled_from([1, 3, 8, 17, 64])))]
    for name, values in draw(st.lists(st.sampled_from(CONFIG_CHOICES),
                                      max_size=3, unique=True)):
        if name == "on_error" and layout == "fits":
            continue    # FITS has no per-value conversion to fail
        config.append((name, draw(st.sampled_from(values))))
        if name == "fault_seed":
            config.append(("fault_rate", 0.6))
    schema, target = tables[0].generate()[0], tables[0].name
    numeric = [c.name for c in schema.columns
               if c.dtype.family in ("int", "float")]
    kinds = ["query"] * 6 + ["session", "prepared", "abandon", "interleave",
                             "close"]
    if changes:
        kinds += ["append", "append", "rewrite", "truncate"]
    ops = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=max_ops)):
        rng = random.Random(draw(st.integers(0, 10**6)))
        sql = _statement(rng, family, schema)
        column = rng.choice(numeric) if numeric else None
        ops.append({
            "query": lambda: Query(sql),
            "session": lambda: Query(sql, "session"),
            "prepared": lambda: Prepared(
                f"SELECT {column} FROM {target} WHERE {column} < ?",
                tuple((rng.randint(-100, 100),)
                      for _ in range(rng.randint(1, 3))))
            if column else Prepared(f"SELECT count(*) FROM {target}", ((),)),
            "abandon": lambda: Abandon(sql, rng.randint(1, 3)),
            "interleave": lambda: Interleave(
                (sql, _statement(rng, family, schema))),
            "append": lambda: Append(rng.randint(1, 40),
                                     rng.randrange(10**6), target),
            "rewrite": lambda: Rewrite(rng.randint(1, 9), target),
            "truncate": lambda: Truncate(rng.randint(0, 60), target),
            "close": Close,
        }[kind]())
    return Scenario(tables, tuple(ops), tuple(config), layout, files)
