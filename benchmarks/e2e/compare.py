"""Compare two result files of ``run.py`` (the whole-benchmark mode).

    python3 benchmarks/e2e/compare.py A.json B.json

One row per end-to-end metric x workload: both medians, the ratio B/A
(base A), the bound from ``BENCHMARK.json`` and a verdict:

    ok          B is within the bound of A
    worse       B is worse than A by more than the bound
    better      B is better than A by more than the bound
    unresolved  either side's own min-max spread is wider than the
                bound, so the difference cannot be told from noise

plus, per workload, whether the virtual clock and the priced cost
counters are identical and whether ``failed_share`` rose. Exits
non-zero on any ``worse`` or any ``failed_share`` increase.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    for side in (a, b):
        if (side["max"] - side["min"]) / side["median"] > bound:
            return "unresolved"
    change = b["median"] / a["median"] - 1.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "ok"


def compare(a: dict, b: dict, declared: list[dict]) -> tuple[list[str], bool]:
    lines = [f"{'workload':18} {'metric':14} {'A median':>12} "
             f"{'B median':>12} {'B/A (base A)':>13} {'bound':>6} verdict"]
    bad = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name:18} missing from B")
            bad = True
            continue
        for metric in declared:
            side_a = entry_a["end_to_end"][metric["name"]]
            side_b = entry_b["end_to_end"][metric["name"]]
            result = verdict(side_a, side_b, metric["better"],
                             metric["bound"])
            bad |= result == "worse"
            lines.append(
                f"{name:18} {metric['name']:14} {side_a['median']:>12.5g} "
                f"{side_b['median']:>12.5g} "
                f"{side_b['median'] / side_a['median']:>13.4f} "
                f"{metric['bound']:>6.2f} {result}")
        same = (entry_a["virtual_s"] == entry_b["virtual_s"]
                and entry_a["simcost"] == entry_b["simcost"])
        lines.append(
            f"{name:18} {'virtual_s':14} {entry_a['virtual_s']:>12.6g} "
            f"{entry_b['virtual_s']:>12.6g} {'':>13} {'0':>6} "
            f"{'identical' if same else 'changed'} (clock + simcost.*)")
        rose = entry_b["failed_share"] > entry_a["failed_share"]
        bad |= rose
        lines.append(
            f"{name:18} {'failed_share':14} {entry_a['failed_share']:>12.5g} "
            f"{entry_b['failed_share']:>12.5g} {'':>13} {'0':>6} "
            f"{'worse' if rose else 'ok'}")
    return lines, bad


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    declared = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, bad = compare(a, b, declared)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
