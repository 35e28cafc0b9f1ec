"""The data-to-query race: NoDB vs load-first vs external files.

Reproduces Figure 1's story with real engines on the same machine: a
fresh data file arrives, and three database philosophies race to answer
a stream of queries:

* PostgresRaw       — query immediately, learn as you go (NoDB)
* PostgreSQL/MySQL  — load everything first, then query fast
* MySQL CSV engine  — query immediately, learn nothing

Run:  python examples/data_to_query_race.py
"""

from repro import (
    CSV_ENGINE_PROFILE,
    MYSQL_PROFILE,
    ExternalFilesDBMS,
    LoadedDBMS,
    PostgresRaw,
    VirtualFS,
)
from repro.workloads.micro import generate_micro_csv
from repro.workloads.queries import selectivity_query

ROWS = 3000
ATTRS = 30
N_QUERIES = 8


def main() -> None:
    vfs = VirtualFS()
    schema = generate_micro_csv(vfs, "data.csv", ROWS, ATTRS, seed=1)

    create_data = ("CREATE TABLE data ("
                   + ", ".join(f"a{i} INTEGER" for i in range(1, ATTRS + 1))
                   + ") USING csv OPTIONS (path 'data.csv')")
    postgres_raw = PostgresRaw(vfs=vfs)
    postgres_raw.query(create_data)

    postgresql = LoadedDBMS(vfs=vfs)
    load_time = postgresql.load_csv("data", "data.csv", schema)

    mysql = LoadedDBMS(profile=MYSQL_PROFILE, vfs=vfs)
    mysql_load = mysql.load_csv("data", "data.csv", schema)

    csv_engine = ExternalFilesDBMS(profile=CSV_ENGINE_PROFILE, vfs=vfs)
    csv_engine.query(create_data)

    queries = [selectivity_query("data", ATTRS, sel, proj)
               for sel, proj in [(1.0, 1.0), (0.8, 0.8), (0.6, 0.6),
                                 (0.4, 0.5), (0.2, 0.4), (0.1, 0.3),
                                 (0.05, 0.2), (0.01, 0.1)]]

    print(f"load time: PostgreSQL {load_time:.2f}s, MySQL "
          f"{mysql_load:.2f}s, PostgresRaw/CSV-engine 0.00s\n")
    header = (f"{'query':<6}{'PostgresRaw':>13}{'PostgreSQL':>13}"
              f"{'MySQL':>13}{'CSV engine':>13}")
    print(header)
    print("-" * len(header))

    cumulative = {"PostgresRaw": 0.0, "PostgreSQL": load_time,
                  "MySQL": mysql_load, "CSV engine": 0.0}
    for i, q in enumerate(queries, 1):
        times = {
            "PostgresRaw": postgres_raw.query(q).elapsed,
            "PostgreSQL": postgresql.query(q).elapsed,
            "MySQL": mysql.query(q).elapsed,
            "CSV engine": csv_engine.query(q).elapsed,
        }
        for name, t in times.items():
            cumulative[name] += t
        print(f"Q{i:<5}" + "".join(
            f"{times[name]:>12.3f}s" for name in
            ("PostgresRaw", "PostgreSQL", "MySQL", "CSV engine")))

    print("-" * len(header))
    print("total ", "".join(
        f"{cumulative[name]:>12.3f}s" for name in
        ("PostgresRaw", "PostgreSQL", "MySQL", "CSV engine")),
        " (including load)")

    winner = min(cumulative, key=cumulative.get)
    print(f"\nfirst to finish all {N_QUERIES} queries: {winner}")
    print("PostgresRaw answered its first query while the loaded "
          "engines were still loading — the Figure 1 story.")


if __name__ == "__main__":
    main()
