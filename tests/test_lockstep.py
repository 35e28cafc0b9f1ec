"""The lockstep-twin harness (``tests/oracle/digest.py``) under
hypothesis.

Every drawn scenario is played on each axis that applies to it — the
row-at-a-time oracle, ``scan_workers`` 1↔4, kernels on↔off, a fixed
fault seed at 1↔4 workers, CSV↔its JSONL twin, a glob↔one file, the
loaded DBMS, the external-files straw-man, a live engine after a file
change↔one built over the changed files — and the per-step digests must agree up to each axis's
declared projection. Tier 1 runs a fixed, derandomized budget — next
to the seeded scenarios the differential suites pin on the same
harness; ``--hypothesis-profile=soak`` (registered in
``tests/conftest.py``) runs a long one from ``--hypothesis-seed``.

The ``@example`` scenarios are pinned regressions: the engine bug the
``close`` op found, and the shrunk counterexamples of three mutations
the harness must keep catching.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import PostgresRaw
from tests.oracle.digest import (
    AXIS,
    REFERENCE,
    WIRE,
    Abandon,
    Append,
    Axis,
    Close,
    Interleave,
    Query,
    Scenario,
    Table,
    check,
    same,
    scenarios,
)

SOAK = settings.default is settings.get_profile("soak")


def budget(examples: int):
    """Tier 1: ``examples`` derandomized examples; the soak profile
    keeps its own budget and seed."""
    if SOAK:
        return settings(deadline=None)
    return settings(max_examples=examples, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


#: a 40-row table inside one 64-row block, indexed, closed, then scanned
#: by an abandoned cursor: every later scan used to fail with "line spans
#: vanished" (the row count outlived the map close() dropped)
CLOSE_THEN_ABANDON = [
    Scenario((Table("t", "numeric", 3),),
             (Query("SELECT count(*) FROM t"), Close(),
              Abandon("SELECT c0, c1 FROM t", 1),
              Query("SELECT c0 FROM t"), Query("SELECT c0 FROM t")),
             (("row_block_size", 64),), layout)
    for layout in ("csv", "jsonl")
]


#: shrunk counterexamples of three mutations of the block scan and the
#: JSONL index, each failing the harness on the named axis:
#: ``_derive_backward`` looping ``union_attrs`` (oracle, step 2: an
#: eager map a budget evicted), no ``_coverage_s`` free start (oracle,
#: step 0), no key-byte compare in ``block_member_spans`` (twin, step
#: 0: same-width keys reordered)
MUTATION_PINS = [
    Scenario((Table("t", "micro", 11),),
             (Query("SELECT a7 FROM t"), Query("SELECT a12 FROM t"),
              Query("SELECT a6 FROM t")),
             (("row_block_size", 32), ("eager_prefix_indexing", True),
              ("pm_budget_bytes", 4000), ("enable_cache", False))),
    Scenario((Table("l", "l_int", 2), Table("r", "r_int", 3)),
             (Query("SELECT lv, rv FROM l, r WHERE lk = rk AND lv < rv"),),
             (("row_block_size", 1), ("eager_prefix_indexing", True))),
    Scenario((Table("t", "random", 0),),
             (Query("SELECT c0, c1, c2, c3, c4, c5 FROM t "
                    "ORDER BY c0 ASC, c2 DESC"),),
             (("row_block_size", 3),)),
]


@budget(30)
@given(scenarios())
@example(CLOSE_THEN_ABANDON[0])
@example(CLOSE_THEN_ABANDON[1])
@example(MUTATION_PINS[0])
@example(MUTATION_PINS[1])
@example(MUTATION_PINS[2])
def test_lockstep(scenario):
    check(scenario)


@budget(15)
@given(scenarios(max_ops=4))
@example(Scenario(
    (Table("t", "numeric", 11),),
    (Interleave(("SELECT c0, c1 FROM t WHERE c0 > 100 ORDER BY c0",
                 "SELECT c1, c2 FROM t WHERE c1 > 150 ORDER BY c1",
                 "SELECT c2, count(*) FROM t GROUP BY c2 ORDER BY c2",
                 "SELECT c0, c2 FROM t WHERE c2 < 400 ORDER BY c0"), 50),),
    (("row_block_size", 64), ("scan_workers", 4))))
def test_wire_equals_in_process(scenario):
    """N wire clients fetched round-robin leave every cursor's ledger,
    every session's clock, the engine's counters and clock and its
    structures as N in-process sessions do."""
    check(scenario, [WIRE])


#: two interleaved cursors that both need statistics of x, i1 and d2:
#: each used to collect them and the last to finish won, so the block
#: scan kept the second cursor's and the row oracle the first's; the
#: first scan to start now owns them (a 53- and a 264-seeded table)
CONCURRENT_COLLECTORS = [
    Scenario((Table("t", "pair", seed),),
             (Interleave(("SELECT x, i1, d2 FROM t WHERE s1 = s2",
                          "SELECT x, i1, d2 FROM t WHERE d1 < d2"), 7),),
             (("row_block_size", block_size),))
    for seed, block_size in ((53, 17), (264, 64))
]


@pytest.mark.parametrize("scenario", CONCURRENT_COLLECTORS)
def test_concurrent_collectors_match_the_oracle(scenario):
    check(scenario, [AXIS["oracle"]])


#: eager indexing, then a warm query whose indexed blocks are tokenized
#: forward from the map's known starts: the block scan used to keep a
#: start after a span the row walk already held, which the oracle never
#: learns — and under a PM budget the larger chunks evicted other blocks
#: first
EAGER_DIVERGENCES = [
    Scenario((Table("l", "l_int", 2913), Table("r", "r_int", 2914)),
             (Query("SELECT lk, lv FROM l WHERE EXISTS "
                    "(SELECT * FROM r WHERE rk = lk)"),
              Query("SELECT lv, rf FROM l, r WHERE lk = rk AND lf <> rf "
                    "AND ld <= rd")),
             (("row_block_size", 8), ("eager_prefix_indexing", True))),
    Scenario((Table("t", "pair", 0),),
             (Query("SELECT x, i1, d2 FROM t WHERE d1 <= d2 AND "
                    "(i1 < i2 OR f1 > f2) AND d1 > DATE '1994-06-01'"),
              Query("SELECT x, i1, d2 FROM t WHERE i1 = i2")),
             (("row_block_size", 1), ("eager_prefix_indexing", True),
              ("pm_budget_bytes", 400), ("enable_cache", False))),
]


@pytest.mark.parametrize("scenario", EAGER_DIVERGENCES)
def test_eager_indexed_blocks_match_the_oracle(scenario):
    check(scenario, [AXIS["oracle"]])


#: the FITS block scan's three rules, warm: two-phase reads (the WHERE
#: rows, then qualifying rows missing a SELECT column), a filtered and
#: projected column's cached values read again, and two-pass sampling
FITS_RULES = ("SELECT k, x FROM t WHERE x < 0.5",
              "SELECT k, x FROM t WHERE x < 0.5",
              "SELECT y FROM t WHERE k < 0",
              "SELECT k, y FROM t WHERE k < 0",
              "SELECT m FROM t WHERE x > 0.2")


@pytest.mark.parametrize("block_size", [8, 64])
def test_fits_block_scan_matches_the_oracle(block_size):
    check(Scenario((Table("t", "fits", 6),),
                   tuple(Query(sql) for sql in FITS_RULES),
                   (("row_block_size", block_size),), "fits"),
          [AXIS["oracle"]])


# ---------------------------------------------------------------------------
# Self-test: a planted divergence must fail, naming axis, step and field
# ---------------------------------------------------------------------------
class Planted(PostgresRaw):
    """Runs ``plant()`` after every SELECT it answers."""

    def query(self, sql):
        result = super().query(sql)
        if sql.startswith("SELECT"):
            self.plant()
        return result


class ExtraUnit(Planted):
    """Charges one tuple more per query."""

    def plant(self):
        self.model.tuple_form(1)


class SwappedCache(Planted):
    """Swaps two different cached values of one block."""

    def plant(self):
        for block in self.cache_of("t")._blocks.values():
            data = block._data
            other = [i for i in range(1, len(data)) if data[i] != data[0]]
            if other and block.mask[0] and block.mask[other[0]]:
                data[0], data[other[0]] = data[other[0]], data[0]
                return


class DroppedReject(Planted):
    """Drops the last record of the reject sidecar."""

    def plant(self):
        records = self.vfs.read_bytes("__rejects__/t").split(b"\n")
        self.vfs.write_bytes("__rejects__/t", b"\n".join(records[:-2] + [b""]))


PLANTED = Scenario((Table("t", "numeric", 5, dirty=True),),
                   (Append(10, 1), Query("SELECT c0, c1 FROM t"),
                    Query("SELECT c0, c1 FROM t")),
                   (("row_block_size", 8), ("on_error", "skip")))


@pytest.mark.parametrize("engine, field", [
    (ExtraUnit, "counters"), (SwappedCache, "t.cache"),
    (DroppedReject, "rejects")])
def test_planted_divergence_names_axis_step_and_field(engine, field):
    check(PLANTED, [Axis("workers", REFERENCE, REFERENCE, same)])
    planted = Axis("planted", REFERENCE,
                   dataclasses.replace(REFERENCE, engine=engine), same)
    with pytest.raises(AssertionError) as failure:
        check(PLANTED, [planted])
    message = str(failure.value)
    assert message.startswith("axis 'planted', step 1 (Query(")
    assert f"{field!r}" in message.split(" differ")[0]
