"""Scientific data exploration: FITS sky survey + CSV observation log.

The paper's motivating user (§1): "a scientist needs to quickly examine
a few Terabytes of new data in search of certain properties. Even
though only few attributes might be relevant for the task, the entire
data must first be loaded inside the database."

This example plays that scenario out: a (scaled) sky-survey binary
table in FITS — the format of the Sloan Digital Sky Survey — plus a
plain-text observation log, queried together with SQL and zero loading,
and compared against the procedural CFITSIO-style program the paper
benchmarks in §5.3.

Run:  python examples/scientific_exploration.py
"""

import random

from repro import CFitsioProgram, PostgresRaw, VirtualFS
from repro.formats.fits import write_bintable


N_EXTRA_BANDS = 25  # survey catalogs are wide (SDSS photoObj: 500+ cols)


def make_sky_survey(vfs: VirtualFS, nrows: int = 4300) -> None:
    """A miniature SDSS-like catalog: positions, magnitudes, redshift,
    plus per-band flux columns (queries touch only a few of them —
    exactly the situation where in-situ caching shines)."""
    rng = random.Random(2012)
    rows = [
        (i,
         rng.uniform(0.0, 360.0),          # right ascension
         rng.uniform(-90.0, 90.0),         # declination
         rng.uniform(12.0, 24.0),          # magnitude
         rng.uniform(0.0, 3.5),            # redshift
         *(rng.uniform(0.0, 100.0) for _ in range(N_EXTRA_BANDS)))
        for i in range(nrows)
    ]
    names = (["obj_id", "ra", "dec", "mag", "z"]
             + [f"flux_{band}" for band in range(N_EXTRA_BANDS)])
    tforms = ["K", "D", "D", "E", "E"] + ["D"] * N_EXTRA_BANDS
    vfs.create("survey.fits", write_bintable(names, tforms, rows))


def make_observation_log(vfs: VirtualFS, nrows: int = 500) -> None:
    rng = random.Random(7)
    lines = []
    for night in range(nrows):
        lines.append(
            f"{night},{1992 + night % 8}-{1 + night % 12:02d}-15,"
            f"{rng.uniform(0.5, 3.0):.2f},{rng.randrange(4300)}")
    vfs.create("obslog.csv", ("\n".join(lines) + "\n").encode())


def main() -> None:
    vfs = VirtualFS()
    make_sky_survey(vfs)
    make_observation_log(vfs)

    db = PostgresRaw(vfs=vfs)
    # The FITS header carries the schema; the CSV log declares its own.
    db.query("CREATE TABLE survey USING fits OPTIONS (path 'survey.fits')")
    db.query("CREATE TABLE obslog (night INTEGER, obs_date DATE, "
             "seeing FLOAT, target INTEGER) "
             "USING csv OPTIONS (path 'obslog.csv')")
    print("survey schema (from FITS header):",
          db.catalog.get("survey").schema.names)

    # Declarative exploration, straight away.
    bright = db.query(
        "SELECT count(*) FROM survey WHERE mag < 14.0")
    print(f"\nbright objects (mag < 14): {bright.scalar()}")

    deep = db.query(
        "SELECT avg(z) AS mean_z, max(z) AS max_z FROM survey "
        "WHERE dec > 0 AND mag < 20.0")
    print("northern-sky redshift:", deep.as_dicts()[0])

    # Join the binary catalog with the plain-text log — two formats,
    # one query (§7 "Information Integration").
    joined = db.query(
        "SELECT night, seeing, mag FROM obslog, survey "
        "WHERE target = obj_id AND seeing < 0.7 AND mag < 16 "
        "ORDER BY mag LIMIT 5")
    print("\nbest-seeing nights pointing at bright objects:")
    for row in joined.rows:
        print(f"  night {row[0]}: seeing {row[1]:.2f}, mag {row[2]:.2f}")

    # The §5.3 comparison: procedural CFITSIO program vs PostgresRaw.
    program = CFitsioProgram(vfs, "survey.fits")
    print("\nquery sequence over the FITS file "
          "(virtual seconds per query):")
    print(f"{'query':<12}{'CFITSIO':>12}{'PostgresRaw':>14}")
    for i, (func, column) in enumerate(
            [("min", "mag"), ("max", "mag"), ("avg", "mag"),
             ("avg", "z"), ("min", "z")]):
        answer = program.aggregate(func, column)
        sql = db.query(f"SELECT {func}({column}) FROM survey")
        assert abs(answer.value - sql.scalar()) < 1e-6 * abs(answer.value)
        print(f"{func}({column}):".ljust(12)
              + f"{answer.elapsed:>11.4f}s{sql.elapsed:>13.4f}s")
    print("\nCFITSIO rescans the file every time; PostgresRaw's cache "
          "answers later queries without touching it.")


if __name__ == "__main__":
    main()
