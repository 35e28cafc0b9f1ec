"""Seeded NumPy input generators for the end-to-end benchmark.

``--seed`` is the only source of randomness: every generator takes a
``numpy.random.Generator`` derived from it, and the bytes it returns
are identical for identical seeds. The arrays the bytes were rendered
from are returned alongside, so the answer oracles (``workloads.py``)
are computed from the arrays and never from the engine under test.

The micro CSV is rendered without a per-value Python call (a digit
matrix with the leading pad masked out): the ``random``-based
``repro.workloads.micro.generate_micro_csv`` needs ~3.8 s for the
12 MB ``csv_cold`` file, which would have dominated ``setup_s``.
"""

from __future__ import annotations

import datetime

import numpy as np

VALUE_RANGE = 10 ** 9


def stream(seed: int, name: str) -> np.random.Generator:
    """An independent, reproducible generator per (seed, purpose), so
    adding a consumer never shifts the values another one draws."""
    return np.random.default_rng([seed, *name.encode()])


def ints_to_csv(values: np.ndarray) -> bytes:
    """Render a (rows, cols) array of non-negative ints as CSV bytes,
    no padding, ``\\n``-terminated rows."""
    rows, cols = values.shape
    flat = values.ravel()
    width = len(str(int(flat.max()))) if flat.size else 1
    cells = np.empty((flat.size, width + 1), dtype=np.uint8)
    rest = flat.copy()
    for k in range(width - 1, -1, -1):
        cells[:, k] = rest % 10 + ord("0")
        rest //= 10
    ndigits = 1 + np.searchsorted(10 ** np.arange(1, width), flat,
                                  side="right")
    keep = np.ones(cells.shape, dtype=bool)
    keep[:, :width] = np.arange(width) >= (width - ndigits)[:, None]
    cells[:, width] = ord(",")
    cells[cols - 1::cols, width] = ord("\n")
    return cells[keep].tobytes()


def micro_table(rng: np.random.Generator, rows: int, cols: int,
                small: dict[int, int] | None = None,
                ) -> tuple[np.ndarray, bytes]:
    """The paper's §5.1 micro file: uniform ints in [0, 1e9).
    ``small`` maps a 0-based column to a reduced value range (the
    low-cardinality group-by key of ``csv_warm``)."""
    values = rng.integers(0, VALUE_RANGE, size=(rows, cols), dtype=np.int64)
    for col, hi in (small or {}).items():
        values[:, col] = rng.integers(0, hi, size=rows, dtype=np.int64)
    return values, ints_to_csv(values)


def micro_columns_ddl(cols: int) -> str:
    return ", ".join(f"a{i + 1} INTEGER" for i in range(cols))


# ---------------------------------------------------------------------------
# JSONL readings (and their CSV twin, for formats.jsonl.vs_csv_ratio)
# ---------------------------------------------------------------------------
READINGS_DDL = ("id INTEGER, station VARCHAR, temp FLOAT, ok BOOLEAN, "
                "a INTEGER, b INTEGER")


def readings(rng: np.random.Generator, rows: int) -> dict[str, np.ndarray]:
    """Six members per object: int, str, float, bool, int, int."""
    return {
        "id": np.arange(rows, dtype=np.int64),
        "station": rng.integers(0, 8, size=rows),
        # hundredths, so text -> float parsing is exact on both sides
        "temp": rng.integers(-1000, 3500, size=rows) / 100.0,
        "ok": rng.random(rows) > 0.1,
        "a": rng.integers(0, VALUE_RANGE, size=rows, dtype=np.int64),
        "b": rng.integers(0, VALUE_RANGE, size=rows, dtype=np.int64),
    }


def _reading_fields(data: dict[str, np.ndarray]):
    return zip(data["id"].tolist(), data["station"].tolist(),
               data["temp"].tolist(), data["ok"].tolist(),
               data["a"].tolist(), data["b"].tolist())


def readings_jsonl(data: dict[str, np.ndarray]) -> bytes:
    return "".join(
        f'{{"id": {i}, "station": "st-{s}", "temp": {t!r}, '
        f'"ok": {"true" if ok else "false"}, "a": {a}, "b": {b}}}\n'
        for i, s, t, ok, a, b in _reading_fields(data)).encode("ascii")


def readings_csv(data: dict[str, np.ndarray]) -> bytes:
    return "".join(
        f"{i},st-{s},{t!r},{'true' if ok else 'false'},{a},{b}\n"
        for i, s, t, ok, a, b in _reading_fields(data)).encode("ascii")


# ---------------------------------------------------------------------------
# Daily partitions
# ---------------------------------------------------------------------------
EVENTS_DDL = "d DATE, uid INTEGER, v FLOAT"
FIRST_DAY = datetime.date(2024, 6, 1)


def day_stamp(day: int) -> str:
    """ISO date of 0-based ``day``."""
    return (FIRST_DAY + datetime.timedelta(days=day)).isoformat()


def daily_events(rng: np.random.Generator, days: int, rows_per_day: int,
                 ) -> tuple[np.ndarray, dict[str, bytes]]:
    """``days`` CSV files ``ev-<date>.csv`` of (d, uid, v); returns the
    (days, rows) matrix of ``v`` and the files by VFS path."""
    uid = rng.integers(0, 100_000, size=(days, rows_per_day))
    v = rng.integers(0, 100_000, size=(days, rows_per_day)) / 1000.0
    files = {}
    for day in range(days):
        stamp = day_stamp(day)
        files[f"ev-{stamp}.csv"] = "".join(
            f"{stamp},{u},{x!r}\n"
            for u, x in zip(uid[day].tolist(), v[day].tolist())
        ).encode("ascii")
    return v, files
