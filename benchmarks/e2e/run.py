"""One command, seven workloads: end-to-end + per-layer wall clock.

Two ways in, one measurement underneath:

* **one run of one workload** (what ``BENCHMARK.json`` declares and the
  driver invokes)::

      python3 benchmarks/e2e/run.py --workload csv_warm --seed 1 \\
          --seconds 10 --trace 0

  prints each metric by name with its unit and, as the last line, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics with ``--trace 0``, the per-layer ones with
  ``--trace 1``. Exits non-zero on any wrong answer.

* **the whole benchmark** (no ``--workload``)::

      python3 benchmarks/e2e/run.py [--seed N] [--sets 3] [--trace]
                                    [--quick] [--out FILE]

  runs every workload ``--sets`` times, each run in its own
  subprocess, reports per metric x workload the median of the per-set
  values with min/max and the sample count, and writes the record to
  ``benchmarks/e2e/out/``. ``--trace`` adds one traced set (per-layer
  table, ``spans.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no engine source at {ROOT / 'src' / 'repro'}; the "
             "benchmark builds nothing and needs the repository around it")
sys.path.insert(0, str(ROOT / "src"))

from harness import Run, end_to_end, scrub_environment  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END_NAMES,
    PER_LAYER_NAMES,
    SIMCOST_EVENTS,
    UNITS,
)
from workloads import WORKLOADS  # noqa: E402

QUICK_SCALE = 0.1
QUICK_SECONDS = 0.5


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------
def run_workload(args) -> int:
    scrub_environment()
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, scale=args.scale,
              trace=bool(args.trace), plant_failure=args.plant_failure)
    built: list = []
    try:
        measured = run.measure(built)
        per_layer = {}
        if run.trace:
            from layers import per_layer as compute_per_layer

            per_layer = compute_per_layer(run, measured, built[0][0])
    finally:
        for env, clients in built:
            run.retire(env, clients)

    correct = (run.tally.failed == 0 and measured.default_config
               and measured.deterministic)
    counters = measured.snapshot["counters"]
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale, "trace": run.trace,
        "correct": correct, "attempted": run.tally.attempted,
        "failed": run.tally.failed, "errors": run.tally.errors,
        "default_config": measured.default_config,
        "deterministic": measured.deterministic,
        "end_to_end": end_to_end(measured), "per_layer": per_layer,
        "virtual_s": measured.snapshot["virtual_s"],
        "simcost": {e: counters.get(e, 0) for e in SIMCOST_EVENTS},
        "samples": {"setup": len(measured.setup_s),
                    "cold": len(measured.cold_s),
                    "warm": sum(map(len, measured.warm_s))},
    }
    if args.detail:
        Path(args.detail).write_text(json.dumps(record))
    if args.spans:
        with open(args.spans, "w") as handle:
            for span in run.tracer.dicts() + run.server_spans:
                handle.write(json.dumps({**span, "workload": workload.name})
                             + "\n")

    shown = record["per_layer"] if run.trace else record["end_to_end"]
    for error in run.tally.errors:
        print(f"FAILED {error}")
    if not measured.default_config:
        print("FAILED engine did not report the default configuration")
    if not measured.deterministic:
        print("FAILED inputs or the cold virtual clock did not repeat")
    for name, value in shown.items():
        print(f"{workload.name:18} {name:34} {value:>16.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": correct, "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in shown.items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The whole benchmark
# ---------------------------------------------------------------------------
def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(workload: str, args, trace: int, tag: str) -> dict:
    """One workload, once, in its own process; returns its record."""
    detail = OUT / f"detail-{workload}-{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace),
               "--detail", str(detail)]
    if trace:
        command += ["--spans", str(OUT / f"spans-{workload}.jsonl")]
    done = subprocess.run(command, capture_output=True, text=True)
    if not detail.exists():
        sys.exit(f"{workload} ({tag}) crashed:\n{done.stdout}{done.stderr}")
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def run_all(args) -> int:
    import numpy

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS)
    sets = [{name: _child(name, args, 0, f"set{k}") for name in names}
            for k in range(args.sets)]
    traced = ({name: _child(name, args, 1, "traced") for name in names}
              if args.trace else {})
    if traced:
        with open(OUT / "spans.jsonl", "w") as merged:
            for name in names:
                part = OUT / f"spans-{name}.jsonl"
                merged.write(part.read_text())
                part.unlink()

    result = {
        "meta": {"python": platform.python_version(),
                 "numpy": numpy.__version__, "nproc": os.cpu_count(),
                 "git_sha": _git_sha(), "seed": args.seed,
                 "sets": args.sets, "seconds": args.seconds,
                 "scale": args.scale, "traced": bool(traced)},
        "workloads": {}}
    failed = 0
    for name in names:
        records = [one_set[name] for one_set in sets]
        everything = records + ([traced[name]] if traced else [])
        failed += sum(not r["correct"] for r in everything)
        attempted = sum(r["attempted"] for r in everything)
        virtual = {r["virtual_s"] for r in everything}
        simcost = {json.dumps(r["simcost"], sort_keys=True)
                   for r in everything}
        result["workloads"][name] = {
            "end_to_end": {
                metric: {**_summary([r["end_to_end"][metric]
                                     for r in records]),
                         "unit": UNITS[metric]}
                for metric in END_TO_END_NAMES},
            "per_layer": {
                metric: {"value": traced[name]["per_layer"][metric],
                         "unit": UNITS[metric]}
                for metric in (PER_LAYER_NAMES if traced else [])},
            "virtual_s": records[0]["virtual_s"],
            "simcost": records[0]["simcost"],
            "repeats_exactly": len(virtual) == 1 and len(simcost) == 1,
            "failed_share": (sum(r["failed"] for r in everything)
                             / max(1, attempted)),
            "errors": [e for r in everything for e in r["errors"]],
            "samples": records[0]["samples"],
        }
        # Two concurrent clients reach the server in an order that
        # thread timing decides, and the adaptive structures (and so
        # the priced counters) follow that order: only single-client
        # workloads are held to exact repetition.
        if (WORKLOADS[name].clients == 1
                and not result["workloads"][name]["repeats_exactly"]):
            failed += 1

    _print_tables(result)
    out = Path(args.out) if args.out else OUT / f"e2e-seed{args.seed}.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {out}")
    return 1 if failed else 0


def _print_tables(result: dict) -> None:
    print(f"{'workload':18} {'metric':34} {'median':>12} {'min':>12} "
          f"{'max':>12} {'n':>3} unit")
    for name, entry in result["workloads"].items():
        for metric, s in entry["end_to_end"].items():
            print(f"{name:18} {metric:34} {s['median']:>12.5g} "
                  f"{s['min']:>12.5g} {s['max']:>12.5g} {s['n']:>3} "
                  f"{s['unit']}")
        print(f"{name:18} {'virtual_s':34} {entry['virtual_s']:>12.6g} "
              f"{'exact' if entry['repeats_exactly'] else 'DIFFERS':>12} "
              f"{'':>12} {'':>3} virt_s")
        print(f"{name:18} {'failed_share':34} "
              f"{entry['failed_share']:>12.5g} {'':>12} {'':>12} {'':>3} "
              "ratio")
        for error in entry["errors"]:
            print(f"{name:18} FAILED {error}")
    if not result["meta"]["traced"]:
        return
    names = list(result["workloads"])
    print(f"\n{'per-layer metric':34} unit     "
          + " ".join(f"{n[:11]:>11}" for n in names))
    for metric in PER_LAYER_NAMES:
        row = [result["workloads"][n]["per_layer"][metric] for n in names]
        print(f"{metric:34} {UNITS[metric]:8} "
              + " ".join(f"{v['value']:>11.5g}" for v in row))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this workload once, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="smoke: 1 set, tenth-size inputs, few rounds")
    parser.add_argument("--out", help="result file of the whole benchmark")
    parser.add_argument("--scale", type=float, default=None,
                        help="input size factor (only --quick shrinks it)")
    parser.add_argument("--detail", help="write this run's full record here")
    parser.add_argument("--spans", help="write this run's spans here")
    parser.add_argument("--plant-failure", action="store_true",
                        help="self-test: plant one wrong expected answer")
    args = parser.parse_args()
    if args.quick:
        args.sets = 1
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else 10.0
    if args.scale is None:
        args.scale = QUICK_SCALE if args.quick else 1.0
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
