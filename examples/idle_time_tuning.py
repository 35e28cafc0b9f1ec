"""Idle-time tuning and file-system prewarming (§7 opportunities).

The paper's §7 sketches two ways a NoDB engine can get ahead of its
queries without ever doing a full load:

* **Auto Tuning Tools** — "given a budget of idle time and workload
  knowledge ... load and index as much of the relevant data as
  possible";
* **File System Interface** — "as soon as a user opens a CSV file in a
  text editor, NoDB can be notified through the file system layer and
  ... start tokenizing the parts of the text file currently being read".

Both are implemented as library features; this example shows them
paying off.

Run:  python examples/idle_time_tuning.py
"""

from repro import CostModel, IdleTuner, PostgresRaw, VirtualFS
from repro.workloads.micro import generate_micro_csv

ROWS = 2000
ATTRS = 30


def fresh_engine():
    vfs = VirtualFS()
    generate_micro_csv(vfs, "metrics.csv", ROWS, ATTRS, seed=12)
    engine = PostgresRaw(vfs=vfs)
    columns = ", ".join(f"a{i} INTEGER" for i in range(1, ATTRS + 1))
    engine.query(f"CREATE TABLE metrics ({columns}) "
                 "USING csv OPTIONS (path 'metrics.csv')")
    return engine


def main() -> None:
    # ----- idle-time auto-tuning ------------------------------------------
    cold = fresh_engine()
    tuned = fresh_engine()

    tuner = IdleTuner(tuned)
    tuner.hint("metrics", ["a3", "a4", "a5"])   # tonight's dashboard
    report = tuner.exploit_idle_time(budget_seconds=5.0)
    print("overnight idle window:", report)

    dashboard = ("SELECT avg(a3), min(a4), max(a5) FROM metrics "
                 "WHERE a3 < 800000000")
    cold_time = cold.query(dashboard).elapsed
    tuned_time = tuned.query(dashboard).elapsed
    print(f"morning dashboard query: cold {cold_time * 1000:.2f} ms, "
          f"tuned {tuned_time * 1000:.2f} ms "
          f"({cold_time / tuned_time:.1f}x faster)\n")

    # ----- file-system interface prewarming -------------------------------
    watching = fresh_engine()
    watching.enable_fs_interface("metrics")

    # A colleague pages through the file in their editor: the engine
    # rides along, building its line index from the warm bytes.
    editor = CostModel()
    handle = watching.vfs.open("metrics.csv", editor)
    size = watching.vfs.size("metrics.csv")
    for offset in range(0, size, 64 * 1024):
        handle.read_at(offset, min(64 * 1024, size - offset))

    pm = watching.positional_map_of("metrics")
    print(f"after the editor session the engine already knows "
          f"{pm.known_line_count} of {ROWS} line positions")

    first = watching.query("SELECT a7 FROM metrics WHERE a1 < 100000000")
    plain = fresh_engine()
    plain_first = plain.query(
        "SELECT a7 FROM metrics WHERE a1 < 100000000")
    print(f"first query: watched engine {first.elapsed * 1000:.2f} ms "
          f"(newline scanning already done), "
          f"fresh engine {plain_first.elapsed * 1000:.2f} ms")


if __name__ == "__main__":
    main()
