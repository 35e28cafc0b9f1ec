"""The seven workloads: inputs, rounds and answer oracles.

A *round* is a workload's fixed, ordered list of operations. Every
workload generates its inputs from the seed alone, names the SQL the
engine will see, and carries the expected answer of every operation —
computed with NumPy straight from the generated arrays (TPC-H: from a
``LoadedDBMS`` over the same files), never from the engine under test.

Round counts are the ones a ``--seconds 10`` run uses (``harness.py``
scales them with ``--seconds``); data sizes never scale except under
``--quick``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import datagen as dg

R = dg.VALUE_RANGE


@dataclass
class Op:
    """One operation of a round: a query with its expected answer, or
    (``append`` set) a §4.5 external append to a raw file."""

    name: str
    sql: str = ""
    params: tuple = ()
    #: int ndarray (rows x columns) for wide results, list of tuples
    #: (compared with a float tolerance) for small ones
    expected: Any = None
    append: tuple[str, bytes] | None = None


@dataclass
class Inputs:
    seed: int
    files: dict[str, bytes]
    ddl: list[str]
    data: Any = None
    #: precomputed answers (constant queries, TPC-H oracle)
    answers: dict = field(default_factory=dict)


def _scaled(rows: int, scale: float, floor: int = 50) -> int:
    return max(floor, int(rows * scale))


def _isclose(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (a is not None and b is not None
                and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))
    return a == b


def rows_match(got: list, want: list) -> bool:
    return (len(got) == len(want)
            and all(len(g) == len(w) and all(map(_isclose, g, w))
                    for g, w in zip(got, want)))


def verify(rows: list, expected, full: bool) -> bool:
    """Compare an answer with its oracle. Wide integer results are
    compared in full on cold, warm-up and every tenth timed round and
    by row count plus first and last row otherwise, so checking stays a
    small share of the run."""
    if not isinstance(expected, np.ndarray):
        return rows_match(rows, expected)
    if len(rows) != len(expected):
        return False
    if not len(rows):
        return True
    if not full:
        return (rows[0] == tuple(expected[0].tolist())
                and rows[-1] == tuple(expected[-1].tolist()))
    return np.array_equal(np.array(rows, dtype=np.int64), expected)


def _micro_ddl(cols: int) -> str:
    return (f"CREATE TABLE m ({dg.micro_columns_ddl(cols)}) "
            "USING csv OPTIONS (path 'm.csv')")


class Workload:
    name = ""
    why = ""
    #: PostgresRawConfig overrides (everything else stays default)
    config: dict = {}
    #: explicit prepared statements; otherwise string SQL through the
    #: session's LRU statement cache
    prepared = False
    #: served by a QueryServer subprocess through wire_connect
    wire = False
    clients = 1
    #: set-ups per run (about 1.5 s worth, nine at most)
    setups = 9
    cold_rounds = 4
    warmup_rounds = 20
    warm_rounds = 100
    #: the raw file the storage/format probes read
    main_file = "m.csv"

    def generate(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def prepare_oracle(self, inputs: Inputs) -> None:
        """Expensive oracles computed once, outside ``setup_s``."""

    def round(self, inputs: Inputs, index: int) -> list[Op]:
        raise NotImplementedError

    def cold_round(self, inputs: Inputs) -> list[Op]:
        return self.round(inputs, 0)


# ---------------------------------------------------------------------------
class CsvCold(Workload):
    name = "csv_cold"
    why = ("First touch of a 12 MB CSV: vfs read, newline/delimiter "
           "discovery, convert and PM/cache population do nearly all the "
           "work; sql operators, kernels and server do almost none.")
    setups = 6
    cold_rounds = 8
    warm_rounds = 250
    SQL = "SELECT a1, a5, a9, a13, a20 FROM m WHERE a2 < 500000000"

    def generate(self, seed, scale):
        values, data = dg.micro_table(dg.stream(seed, self.name),
                                      _scaled(40_000, scale), 30)
        expected = values[values[:, 1] < 500_000_000][:, [0, 4, 8, 12, 19]]
        return Inputs(seed, {"m.csv": data}, [_micro_ddl(30)], values,
                      {"q": expected})

    def round(self, inputs, index):
        return [Op("q", self.SQL, (), inputs.answers["q"])]


# ---------------------------------------------------------------------------
class CsvAdaptive(Workload):
    name = "csv_adaptive"
    why = ("Fig-6 script with a cache 2.4x smaller than the working set: "
           "partial PM coverage, eviction, map-assisted tokenizing, "
           "append detection - the scan layer used unlike fully cold or "
           "warm.")
    config = {"cache_budget_bytes": 2_000_000, "pm_budget_bytes": 1_000_000}
    cold_rounds = 3
    warmup_rounds = 1
    warm_rounds = 8
    COLS = 60
    REGIONS = [(1, 20), (21, 40), (1, 40), (30, 50), (41, 60)]
    QUERIES = 12
    ATTRS = 4
    APPEND_ROWS = 200

    @classmethod
    def _deal(cls, rng, lo: int, hi: int) -> list[list[int]]:
        """12 projections of 4 attributes dealt from seeded
        permutations of the region, so every seed touches the whole
        region and only the order varies."""
        cols = np.arange(lo, hi + 1)
        need = cls.QUERIES * cls.ATTRS
        deck = np.concatenate([rng.permutation(cols)
                               for _ in range(-(-need // len(cols)))])
        return [deck[i * cls.ATTRS:(i + 1) * cls.ATTRS].tolist()
                for i in range(cls.QUERIES)]

    def generate(self, seed, scale):
        rng = dg.stream(seed, self.name)
        values, data = dg.micro_table(rng, _scaled(10_000, scale), self.COLS)
        appends = [dg.micro_table(rng, _scaled(self.APPEND_ROWS, scale, 5),
                                  self.COLS) for _ in self.REGIONS]
        epochs = [self._deal(rng, lo, hi) for lo, hi in self.REGIONS]
        return Inputs(seed, {"m.csv": data}, [_micro_ddl(self.COLS)],
                      {"values": values, "appends": appends,
                       "epochs": epochs})

    @staticmethod
    def _select(attrs: list[int], values: np.ndarray) -> Op:
        sql = "SELECT " + ", ".join(f"a{a}" for a in attrs) + " FROM m"
        return Op("proj", sql, (), values[:, [a - 1 for a in attrs]])

    def cold_round(self, inputs):
        """The whole 60-query script, a 200-row append after each
        epoch."""
        data = inputs.data
        current = data["values"]
        ops = []
        for epoch, (extra, payload) in zip(data["epochs"], data["appends"]):
            ops += [self._select(attrs, current) for attrs in epoch]
            ops.append(Op("append", append=("m.csv", payload)))
            current = np.concatenate([current, extra])
        return ops

    def round(self, inputs, index):
        """Steady state after the script: epoch 3's projections
        (columns 1-40, 1.6x the cache) with no further appends, so
        every round evicts and re-parses."""
        data = inputs.data
        if "final" not in inputs.answers:
            final = np.concatenate(
                [data["values"], *[extra for extra, _ in data["appends"]]])
            inputs.answers["final"] = [self._select(attrs, final)
                                       for attrs in data["epochs"][2]]
        return inputs.answers["final"]


# ---------------------------------------------------------------------------
class CsvWarm(Workload):
    name = "csv_warm"
    why = ("Steady state in memory: kernels, cache reads, sql operators, "
           "result assembly and the rollup router dominate; raw bytes "
           "are read only for newly qualifying rows - a tokenizer change "
           "must not show.")
    prepared = True
    cold_rounds = 4
    warm_rounds = 300
    ROWS = 20_000
    GROUPS = 16
    SQL = {
        "agg": "SELECT count(*), sum(a3) FROM m WHERE a2 >= ? AND a2 < ?",
        "sel1": "SELECT a1, a4, a7 FROM m WHERE a2 >= ? AND a2 < ?",
        "sel25": "SELECT a1, a4, a7 FROM m WHERE a5 >= ? AND a5 < ?",
        "group": ("SELECT a10, count(*), sum(a6) FROM m "
                  "WHERE a2 >= ? AND a2 < ? GROUP BY a10 ORDER BY a10"),
        "routed": ("SELECT a10, count(*), sum(a6) FROM m "
                   "GROUP BY a10 ORDER BY a10"),
    }
    #: (filter column, selectivity) per parameterized shape
    WINDOWS = {"agg": (1, 0.50), "sel1": (1, 0.01), "sel25": (4, 0.25),
               "group": (1, 0.50)}
    ROLLUP = "CREATE ROLLUP r ON m (a10) AGG (count(*), sum(a6))"

    def generate(self, seed, scale):
        values, data = dg.micro_table(
            dg.stream(seed, "csv_warm"), _scaled(self.ROWS, scale), 10,
            small={9: self.GROUPS})
        return Inputs(seed, {"m.csv": data}, [_micro_ddl(10), self.ROLLUP],
                      values)

    def _grouped(self, values: np.ndarray) -> list[tuple]:
        keys = values[:, 9]
        counts = np.bincount(keys, minlength=self.GROUPS)
        # float64 weights are exact here: every partial sum is an
        # integer below 2**53
        sums = np.bincount(keys, weights=values[:, 5],
                           minlength=self.GROUPS)
        return [(k, int(counts[k]), int(sums[k]))
                for k in range(self.GROUPS) if counts[k]]

    def round(self, inputs, index):
        values = inputs.data
        rng = dg.stream(inputs.seed, f"csv_warm/round/{index}")
        ops = []
        for name, sql in self.SQL.items():
            if name == "routed":
                ops.append(Op(name, sql, (), self._grouped(values)))
                continue
            col, share = self.WINDOWS[name]
            width = int(share * R)
            lo = int(rng.integers(0, R - width))
            hit = values[(values[:, col] >= lo)
                         & (values[:, col] < lo + width)]
            if name == "agg":
                expected = [(len(hit), int(hit[:, 2].sum()))]
            elif name == "group":
                expected = self._grouped(hit)
            else:
                expected = hit[:, [0, 3, 6]]
            ops.append(Op(name, sql, (lo, lo + width), expected))
        return ops


# ---------------------------------------------------------------------------
class TpchOps(Workload):
    name = "tpch_ops"
    why = ("Operator-heavy: hash join, group-by, sort, string/date "
           "columns; warm, the Q4/Q12/Q14 row-at-a-time scan fallback is "
           "the largest share (~45%), operators ~35%, batch scans the "
           "minority (~20%).")
    setups = 4
    cold_rounds = 4
    warmup_rounds = 2
    warm_rounds = 12
    main_file = "tpch/lineitem.csv"
    SCALE_FACTOR = 0.005

    def generate(self, seed, scale):
        from repro import VirtualFS
        from repro.workloads.tpch.dbgen import generate_tpch
        from repro.workloads.tpch.schema import TPCH_SCHEMAS

        vfs = VirtualFS()
        data = generate_tpch(vfs, scale_factor=self.SCALE_FACTOR * scale,
                             seed=seed)
        files = {path: vfs.read_bytes(path) for path in vfs.listdir()}
        columns = {
            table: ", ".join(f"{c.name} {c.dtype.name}"
                             for c in TPCH_SCHEMAS[table])
            for table in data.paths}
        ddl = [f"CREATE TABLE {table} ({columns[table]}) USING csv "
               f"OPTIONS (path '{data.path(table)}')"
               for table in data.paths]
        return Inputs(seed, files, ddl, {"paths": dict(data.paths),
                                         "columns": columns})

    def prepare_oracle(self, inputs):
        from repro import LoadedDBMS, VirtualFS
        from repro.workloads.tpch.queries import PAPER_QUERIES, tpch_query

        vfs = VirtualFS()
        for path, payload in inputs.files.items():
            vfs.create(path, payload)
        loaded = LoadedDBMS(vfs=vfs)
        for table, path in inputs.data["paths"].items():
            loaded.query(
                f"CREATE TABLE {table} ({inputs.data['columns'][table]}) "
                f"USING heap OPTIONS (path '{path}')")
        for q in PAPER_QUERIES:
            inputs.answers[q] = loaded.query(tpch_query(q)).rows

    def round(self, inputs, index):
        from repro.workloads.tpch.queries import PAPER_QUERIES, tpch_query

        return [Op(q, tpch_query(q), (), inputs.answers[q])
                for q in PAPER_QUERIES]


# ---------------------------------------------------------------------------
class JsonlScan(Workload):
    name = "jsonl_scan"
    why = ("The second scan pipeline (formats/jsonl.py, own "
           "indexed/stream/parallel variants), several times slower per "
           "byte cold than CSV; CSV-only work must not move it, a scan "
           "collapse must not slow it.")
    cold_rounds = 4
    warm_rounds = 120
    main_file = "r.jsonl"
    GROUP_SQL = ("SELECT station, count(*), avg(temp) FROM r "
                 "WHERE temp > 20 AND ok = true "
                 "GROUP BY station ORDER BY station")
    FILTER_SQL = "SELECT id, a FROM r WHERE b < ?"

    def generate(self, seed, scale):
        data = dg.readings(dg.stream(seed, self.name),
                           _scaled(20_000, scale))
        hot = (data["temp"] > 20) & data["ok"]
        groups = []
        for station in range(8):
            member = hot & (data["station"] == station)
            if member.any():
                groups.append((f"st-{station}", int(member.sum()),
                               float(data["temp"][member].mean())))
        ddl = [f"CREATE TABLE r ({dg.READINGS_DDL}) USING jsonl "
               "OPTIONS (path 'r.jsonl')"]
        return Inputs(seed, {"r.jsonl": dg.readings_jsonl(data)}, ddl, data,
                      {"group": groups})

    def round(self, inputs, index):
        data = inputs.data
        rng = dg.stream(inputs.seed, f"jsonl_scan/round/{index}")
        # ~10 % selectivity, the cut re-bound each round
        cut = R // 10 + int(rng.integers(-R // 1000, R // 1000))
        hit = data["b"] < cut
        expected = np.column_stack([data["id"][hit], data["a"][hit]])
        return [Op("stations", self.GROUP_SQL, (), inputs.answers["group"]),
                Op("filter", self.FILTER_SQL, (cut,), expected)]


# ---------------------------------------------------------------------------
class PartitionedRange(Workload):
    name = "partitioned_range"
    why = ("30 daily files behind zone-map pruning: formats.partitioned "
           "and plan-time pruning decide the time; narrow windows scan "
           "almost nothing, so per-file overhead shows here and nowhere "
           "else.")
    cold_rounds = 4
    warmup_rounds = 10
    warm_rounds = 80
    DAYS = 30
    WINDOWS = (1, 3, 7, 15, 30)
    main_file = f"ev-{dg.day_stamp(0)}.csv"

    def generate(self, seed, scale):
        v, files = dg.daily_events(dg.stream(seed, self.name), self.DAYS,
                                   _scaled(4_000, scale))
        ddl = [f"CREATE TABLE ev ({dg.EVENTS_DDL}) USING csv OPTIONS "
               "(path 'ev-*.csv', partition_by 'd from filename')"]
        return Inputs(seed, files, ddl, v)

    @staticmethod
    def window_sql(lo: int, width: int) -> str:
        return ("SELECT count(*), sum(v) FROM ev WHERE d BETWEEN "
                f"DATE '{dg.day_stamp(lo)}' AND "
                f"DATE '{dg.day_stamp(lo + width - 1)}'")

    def round(self, inputs, index):
        v = inputs.data
        rng = dg.stream(inputs.seed, f"partitioned_range/round/{index}")
        ops = []
        for width in self.WINDOWS:
            lo = int(rng.integers(0, self.DAYS - width + 1))
            window = v[lo:lo + width]
            ops.append(Op(f"w{width}", self.window_sql(lo, width), (),
                          [(window.size, float(window.sum()))]))
        return ops


# ---------------------------------------------------------------------------
class WireClosed(CsvWarm):
    name = "wire_closed"
    why = ("csv_warm's table and round through wire_connect to a "
           "QueryServer subprocess, 2 closed-loop clients: same engine "
           "work, so the difference is server - JSON framing, asyncio "
           "loop, executor hop.")
    wire = True
    clients = 2
    setups = 3
    cold_rounds = 3
    warm_rounds = 100       # per client


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CsvCold(), CsvAdaptive(), CsvWarm(), TpchOps(),
                        JsonlScan(), PartitionedRange(), WireClosed())}
