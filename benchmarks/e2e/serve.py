"""Server subprocess for the ``wire_closed`` workload.

Generates the workload's inputs from the seed (the same bytes the
client's oracle sees), builds a default engine, starts a
``QueryServer(max_in_flight=16)`` and announces ``{"port": n}`` on
stdout. It then answers one-line commands on stdin with one JSON line
each — everything the benchmark needs that is not a query:

    stats      engine/server counters, virtual clock, peak RSS
    trace 0|1  uninstall/install the span wrappers in this process
    spans      hand over (and forget) the spans recorded so far
    quit       graceful shutdown (also on EOF)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from harness import LocalEnv, scrub_environment  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    from repro.server import QueryServer

    scrub_environment()
    workload = WORKLOADS[args.workload]
    env = LocalEnv(workload, workload.generate(args.seed, args.scale))
    server = QueryServer(env.engine, max_in_flight=16).start_in_background()
    tracer = Tracer()
    uninstall = None

    def reply(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    try:
        reply({"port": server.port})
        for line in sys.stdin:
            command = line.split()
            if command == ["stats"]:
                reply({**env.snapshot(),
                       "rejected_busy": server.stats["rejected_busy"],
                       "default_config": env.default_config(workload)})
            elif command[:1] == ["trace"]:
                if uninstall is not None:
                    uninstall()
                    uninstall = None
                if command[1] == "1":
                    uninstall = install(tracer, server=True)
                reply({"ok": True})
            elif command == ["spans"]:
                reply({"spans": tracer.dicts()})
                tracer.spans.clear()
            elif command == ["quit"]:
                break
            else:
                reply({"error": f"unknown command {line!r}"})
    finally:
        server.stop()
        env.close()
    reply({"ok": True})


if __name__ == "__main__":
    main()
