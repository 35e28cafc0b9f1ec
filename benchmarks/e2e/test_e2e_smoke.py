"""Smoke test of the end-to-end benchmark (tier 2: collected by
``pytest benchmarks -k smoke``, never by the tier-1 suite).

Runs the whole benchmark in ``--quick`` mode (one set, tenth-size
inputs, a handful of rounds) and checks the contract rather than the
numbers: the output holds exactly the metric x workload pairs that
``BENCHMARK.json`` declares, every answer was right, the virtual clock
and the priced counters repeat exactly for a seed, and a planted wrong
answer is counted.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT)


def test_smoke_declarations_in_lockstep():
    """BENCHMARK.json says what metrics.py / workloads.py say."""
    from workloads import WORKLOADS

    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert DECLARED["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert DECLARED["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS.values()]
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARED["workloads"])


def test_smoke_quick_run_matches_contract(tmp_path):
    from workloads import WORKLOADS

    first, second = tmp_path / "a.json", tmp_path / "b.json"
    done = run("--quick", "--trace", "--seed", "5", "--out", str(first))
    assert done.returncode == 0, done.stdout + done.stderr
    done = run("--quick", "--seed", "5", "--out", str(second))
    assert done.returncode == 0, done.stdout + done.stderr
    a, b = json.loads(first.read_text()), json.loads(second.read_text())

    workloads = [w["name"] for w in DECLARED["workloads"]]
    assert list(a["workloads"]) == workloads
    for name in workloads:
        entry = a["workloads"][name]
        assert list(entry["end_to_end"]) == [
            m["name"] for m in DECLARED["end_to_end"]]
        assert list(entry["per_layer"]) == [
            m["name"] for m in DECLARED["per_layer"]]
        for metric in DECLARED["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["median"] > 0
        assert entry["failed_share"] == 0
        other = b["workloads"][name]
        assert other["failed_share"] == 0
        if WORKLOADS[name].clients > 1:
            continue    # concurrent clients: arrival order varies
        # same seed, separate runs (one traced): the deterministic side
        # is identical
        assert entry["repeats_exactly"]
        assert other["virtual_s"] == entry["virtual_s"]
        assert other["simcost"] == entry["simcost"]
    assert a["meta"]["seed"] == 5 and a["meta"]["sets"] == 1

    compared = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(first), str(second)],
        capture_output=True, text=True)
    assert compared.stdout.count("identical") >= len(workloads) - 1


def test_smoke_planted_wrong_answer_is_counted():
    done = run("--workload", "csv_warm", "--quick", "--seed", "5",
               "--plant-failure")
    assert done.returncode == 1
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["failed"] == 1 and last["correct"] is False
    assert last["attempted"] > 1
