"""Run one workload once: set-up, cold rounds, warm rounds, checks.

Everything here drives the engine through its public surface
(``repro.connect`` / ``wire_connect`` cursors). Timed regions hold
only ``prepare`` / ``execute`` / ``fetchall``; answer checking and
parameter generation happen between them (a closed loop's think time)
and are excluded from every latency and from the throughput window.

A run's schedule is fixed by ``(workload, --seconds)`` alone — round
counts, not a stopwatch, end each phase — so the engine's virtual clock
and every cost counter repeat exactly for a given seed, traced or not.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import Tracer, install, now
from workloads import Inputs, Op, Workload, verify

HERE = Path(__file__).resolve().parent

#: CI legs steer engine defaults through these; a benchmark run must
#: measure the default configuration whatever shell it starts from.
SCRUBBED_ENV = ("REPRO_SCAN_WORKERS", "REPRO_SCAN_KERNELS",
                "REPRO_FAULT_SEED")
#: wide answers are compared in full every this many timed rounds
FULL_CHECK_EVERY = 10
SEGMENTS = 5
#: a host several times slower than the reference must still end
#: within the driver's 180 s: timed loops stop early past this
WALL_CAP_S = 100.0


def scrub_environment() -> None:
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_snapshot(engine) -> dict:
    """Public counters of one engine, JSON-ready."""
    cache = {"hits": 0, "misses": 0, "evictions": 0, "bytes": 0}
    pm = {"bytes": 0, "evictions": 0, "pointers": 0}
    for info in engine.catalog.tables():
        access = info.access
        parts = getattr(access, "parts", None)
        for child in ([p.access for p in parts] if parts else [access]):
            block_cache = getattr(child, "cache", None)
            if block_cache is not None:
                cache["hits"] += block_cache.hits
                cache["misses"] += block_cache.misses
                cache["evictions"] += block_cache.evictions
                cache["bytes"] += block_cache.bytes_used
            positions = getattr(child, "pm", None)
            if positions is not None:
                pm["bytes"] += positions.bytes_used
                pm["evictions"] += positions.evictions
                pm["pointers"] += positions.pointer_count
    sessions = {"statement_cache_hits": 0, "replans": 0}
    for session in engine.sessions:
        for key in sessions:
            sessions[key] += session.stats[key]
    return {"virtual_s": engine.clock.now(),
            "counters": engine.counters(),
            "rows_materialized": engine.rows_materialized,
            "cache": cache, "pm": pm, "sessions": sessions,
            "rejected_busy": 0,
            "rss_mb": peak_rss_mb()}


class LocalEnv:
    """A fresh in-process engine over the generated files."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 overrides: dict | None = None, ddl: list[str] | None = None):
        from repro import PostgresRawConfig, VirtualFS, connect

        self.vfs = VirtualFS()
        for path, payload in inputs.files.items():
            self.vfs.create(path, payload)
        self.config = PostgresRawConfig(
            **{**workload.config, **(overrides or {})})
        self.session = connect(vfs=self.vfs, config=self.config)
        self.engine = self.session.engine
        for statement in (inputs.ddl if ddl is None else ddl):
            self.session.execute(statement)

    def connect(self):
        return self.session

    def append(self, path: str, payload: bytes) -> None:
        self.vfs.append_bytes(path, payload)

    def snapshot(self) -> dict:
        return engine_snapshot(self.engine)

    def default_config(self, workload: Workload) -> bool:
        from repro import PostgresRawConfig

        return self.config == PostgresRawConfig(**workload.config)

    def trace(self, on: bool) -> None:
        """In-process spans land in the caller's own tracer."""

    def spans(self) -> list[dict]:
        return []

    def close(self) -> None:
        self.session.close()
        self.engine.close()


class WireEnv:
    """A ``serve.py`` subprocess hosting engine + QueryServer, driven
    over its stdin/stdout for everything that is not a query."""

    def __init__(self, workload: Workload, seed: int, scale: float):
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--workload",
             workload.name, "--seed", str(seed), "--scale", str(scale)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.sessions: list = []
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.close()
            raise

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve.py exited early (code {self.proc.poll()})")
        return json.loads(line)

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def connect(self):
        from repro.server import wire_connect

        session = wire_connect("127.0.0.1", self.port, timeout=60)
        self.sessions.append(session)
        return session

    def append(self, path: str, payload: bytes) -> None:
        raise NotImplementedError("wire workloads do not append")

    def snapshot(self) -> dict:
        return self.command("stats")

    def default_config(self, workload: Workload) -> bool:
        return self.snapshot()["default_config"]

    def trace(self, on: bool) -> None:
        self.command(f"trace {int(on)}")

    def spans(self) -> list[dict]:
        return self.command("spans")["spans"]

    def close(self) -> None:
        for session in self.sessions:
            try:
                session.close()
            except Exception:   # a dead server must not mask the cause
                pass
        self.sessions.clear()
        if self.proc.poll() is None:
            try:
                self.command("quit")
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]


class Client:
    """One closed-loop client: a session, one cursor, its statements."""

    def __init__(self, env, workload: Workload, tracer: Tracer):
        self.env = env
        self.session = env.connect()
        self.cursor = self.session.cursor()
        self.prepared = workload.prepared
        self.statements: dict[str, object] = {}
        self.tracer = tracer
        self.tally = Tally()
        #: {round_id, start, end, latency} per round; the windows place
        #: spans recorded by the server process into client rounds
        self.rounds: list[dict] = []

    def run_round(self, ops: list[Op], round_id: int,
                  full_check: bool) -> list[float]:
        """Execute a round; returns the seconds each of its queries
        took (the round's latency is their sum)."""
        from repro.api.exceptions import Error

        tracer, tally, cursor = self.tracer, self.tally, self.cursor
        tracer.set_round(round_id)
        seconds: list[float] = []
        first = now()
        for op in ops:
            if op.append is not None:
                self.env.append(*op.append)
                continue
            tally.attempted += 1
            rows = None
            start = now()
            try:
                target = op.sql
                if self.prepared:
                    target = self.statements.get(op.sql)
                    if target is None:
                        with tracer.span("api.prepare"):
                            target = self.session.prepare(op.sql)
                        self.statements[op.sql] = target
                with tracer.span("api.execute"):
                    cursor.execute(target, op.params)
                with tracer.span("api.fetch"):
                    rows = cursor.fetchall()
            except Error as exc:
                tally.fail(f"{op.name}: {type(exc).__name__} "
                           f"[{getattr(exc, 'code', '?')}] {exc}")
            seconds.append(now() - start)
            if rows is not None and not verify(rows, op.expected,
                                               full_check):
                tally.fail(f"{op.name}: rows differ from the oracle "
                           f"({len(rows)} rows, params {op.params})")
        self.rounds.append({"round_id": round_id, "start": first,
                            "end": now(), "latency": sum(seconds)})
        tracer.set_round(None)
        return seconds


def _in_threads(targets) -> None:
    """Run one callable per client thread (inline when there is only
    one) and re-raise the first crash."""
    if len(targets) == 1:
        targets[0]()
        return
    crashes: list[BaseException] = []

    def guard(target):
        try:
            target()
        except BaseException as exc:
            crashes.append(exc)
    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]


#: one round's per-query seconds; the samples of a phase are a list of
#: rounds, and of a multi-client phase a list of those per client
Round = list


def low(samples) -> float:
    """The 5th percentile (the fastest, below twenty samples). On a
    shared host interference only ever adds time, in bursts mostly
    shorter than a query, so the low end of a set of timings repeats
    from run to run where its median does not (README.md, "Spread
    behind each bound", has the measurements)."""
    ordered = sorted(samples)
    return ordered[len(ordered) // 20]


def undisturbed(rounds: list[Round]) -> float:
    """Seconds one round takes when nothing disturbs it: the sum over
    the round's queries of each query's :func:`low` time."""
    return sum(low(column) for column in zip(*rounds))


def latencies(rounds: list[Round]) -> list[float]:
    return [sum(seconds) for seconds in rounds]


def pooled(per_client: list[list[Round]]) -> list[Round]:
    return [one for rounds in per_client for one in rounds]


def throughput(per_client: list[list[Round]]) -> float:
    """Rounds per busy second, all clients together: the median over
    the window's segments."""
    per_client = [latencies(rounds) for rounds in per_client]
    rounds = min(map(len, per_client))
    segments = min(SEGMENTS, rounds)
    rates = []
    for s in range(segments):
        lo, hi = s * rounds // segments, (s + 1) * rounds // segments
        rates.append(sum((hi - lo) / sum(seconds[lo:hi])
                         for seconds in per_client))
    return statistics.median(rates)


def p95(seconds: list[float]) -> float:
    """95th percentile, only where ten samples lie beyond it."""
    if len(seconds) < 200:
        return 0.0
    return sorted(seconds)[int(0.95 * len(seconds))]


def calib_spin_ms() -> float:
    """A fixed pure-Python + NumPy spin; a noisy host shows here."""
    import numpy as np

    start = now()
    total = 0
    for i in range(100_000):
        total += i * i
    block = np.arange(200_000, dtype=np.int64)
    for _ in range(20):
        total += int((block * block % 7).sum())
    return (now() - start) * 1e3


@dataclass
class Plan:
    """Round counts of one run, scaled from the workload's
    ``--seconds 10`` counts."""

    setups: int
    cold: int
    warmup: int
    warm: int

    @classmethod
    def of(cls, workload: Workload, seconds: float) -> "Plan":
        factor = seconds / 10.0
        return cls(setups=max(2, round(workload.setups * min(1.0, factor))),
                   cold=max(2, round(workload.cold_rounds * factor)),
                   warmup=max(1, round(workload.warmup_rounds
                                       * min(1.0, factor))),
                   warm=max(6, round(workload.warm_rounds * factor)))


@dataclass
class Measured:
    """What one run observed, before it is reduced to metrics."""

    setup_s: list[float]
    cold_s: list[Round]                 # untraced cold rounds
    warm_s: list[list[Round]]           # untraced warm rounds, per client
    traced_warm_s: list[list[Round]]    # traced warm rounds (trace runs)
    snapshot: dict                      # engine counters after the rounds
    first_cold: dict                    # ... and after the first cold round
    spin_ms: list[float]
    default_config: bool
    deterministic: bool


class Run:
    """One measured run of one workload, in this process."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 scale: float = 1.0, trace: bool = False,
                 plant_failure: bool = False):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.plan = Plan.of(workload, seconds)
        self.tracer = Tracer()
        self.tally = Tally()
        self.deadline = now() + WALL_CAP_S
        self.inputs: Inputs | None = None
        #: spans recorded inside server subprocesses, and every client
        #: round's time window (to place those spans into rounds)
        self.server_spans: list[dict] = []
        self.rounds: list[dict] = []
        self.next_round = 1
        self.round_ops = workload.round
        if plant_failure:
            self.round_ops = self._planted(workload.round)

    # -- environments ------------------------------------------------------
    def build(self):
        """A fresh engine (+ server) and its first client."""
        if self.workload.wire:
            env = WireEnv(self.workload, self.seed, self.scale)
        else:
            env = LocalEnv(self.workload, self.inputs)
        try:
            return env, [Client(env, self.workload, self.tracer)]
        except BaseException:
            env.close()
            raise

    def collect(self, env, clients: list[Client]) -> None:
        """Fold the clients' records (and the spans their server
        process recorded) into the run."""
        for client in clients:
            self.tally.merge(client.tally)
            self.rounds += client.rounds
            client.tally, client.rounds = Tally(), []
        if self.trace:
            self.server_spans += env.spans()

    def retire(self, env, clients: list[Client]) -> None:
        """Collect, then stop the engine (and its server process)."""
        try:
            self.collect(env, clients)
        finally:
            env.close()

    def _set_up(self, built: list) -> tuple[list[float], bool]:
        """Set the system up ``plan.setups`` times; the first
        ``min(3, cold rounds)`` engines each serve one cold round, the
        rest are thrown away (they only firm up the metric). A sample
        is data generation + engine construction + DDL (+ server spawn
        and connect)."""
        workload = self.workload
        samples, same_bytes = [], True
        for i in range(self.plan.setups):
            start = now()
            if not workload.wire:
                fresh = workload.generate(self.seed, self.scale)
                if self.inputs is None:
                    self.inputs = fresh
                same_bytes &= fresh.files == self.inputs.files
            built.append(self.build())
            samples.append(now() - start)
            if i >= min(3, self.plan.cold):
                built.pop()[0].close()
        if workload.wire:
            # the oracle's copy of the inputs; each server generated its
            # own from the same seed inside the timed set-up
            self.inputs = workload.generate(self.seed, self.scale)
        workload.prepare_oracle(self.inputs)
        return samples, same_bytes

    # -- phases ------------------------------------------------------------
    def _cold_phase(self, built: list):
        """One cold round per fresh engine; the last engine is kept for
        the warm phase. In a traced run every second engine runs with
        the wrappers installed (its sample is not an end-to-end one)."""
        samples, clocks, first_cold = [], [], None
        ops = self.workload.cold_round(self.inputs)
        for i in range(self.plan.cold):
            if not built:
                built.append(self.build())
            env, clients = built[0]
            tracing = self.trace and i % 2 == 1
            took = self.traced(env, tracing, clients[0].run_round, ops,
                               -(i + 1), full_check=True)
            if not tracing:
                samples.append(took)
            snapshot = env.snapshot()
            clocks.append(snapshot["virtual_s"])
            first_cold = first_cold or snapshot
            if i < self.plan.cold - 1:
                self.retire(*built.pop(0))
        return samples, len(set(clocks)) == 1, first_cold

    def traced(self, env, tracing: bool, fn, *args, **kwargs):
        """Call ``fn`` with the span wrappers installed (here and in
        the server process) when ``tracing``; plainly otherwise."""
        if not tracing:
            return fn(*args, **kwargs)
        env.trace(True)
        undo = install(self.tracer)
        try:
            return fn(*args, **kwargs)
        finally:
            undo()
            env.trace(False)

    def warm(self, clients: list[Client], count: int, timed: bool = True,
             ) -> list[list[Round]]:
        """``count`` rounds per client, each with its own round index
        (so no two rounds bind the same parameters). Returns the
        rounds' samples per client."""
        stride = len(clients)
        first = self.next_round
        self.next_round += count * stride
        out: list[list[Round]] = [[] for _ in clients]

        def drive(c: int) -> None:
            for k in range(count):
                if now() > self.deadline:
                    break
                index = first + k * stride + c
                ops = self.round_ops(self.inputs, index)
                full = not timed or k % FULL_CHECK_EVERY == 0
                out[c].append(clients[c].run_round(ops, index, full))
        _in_threads([lambda c=c: drive(c) for c in range(stride)])
        return out

    def measure(self, built: list) -> Measured:
        """The whole schedule. ``built`` is the caller's list of live
        ``(env, clients)`` pairs: whatever is still in it when this
        returns or raises is the caller's to retire."""
        workload, plan = self.workload, self.plan
        spin = [calib_spin_ms()]
        setup_s, same_bytes = self._set_up(built)
        default_config = built[0][0].default_config(workload)
        spin.append(calib_spin_ms())
        cold_s, same_clock, first_cold = self._cold_phase(built)
        spin.append(calib_spin_ms())
        env, clients = built[0]
        while len(clients) < workload.clients:
            clients.append(Client(env, workload, self.tracer))
        self.warm(clients, plan.warmup, timed=False)
        if self.trace:
            warm_s = self.warm(clients, plan.warm // 2)
            traced_warm_s = self.traced(env, True, self.warm, clients,
                                        plan.warm - plan.warm // 2)
        else:
            warm_s, traced_warm_s = self.warm(clients, plan.warm), []
        snapshot = env.snapshot()
        self.collect(env, clients)
        spin.append(calib_spin_ms())
        return Measured(setup_s, cold_s, warm_s, traced_warm_s, snapshot,
                        first_cold, spin, default_config,
                        same_bytes and same_clock)

    @staticmethod
    def _planted(round_ops):
        """Self-test hook: corrupt one expected answer so the run must
        report exactly one failed operation."""
        def planted(inputs, index):
            ops = list(round_ops(inputs, index))
            if index == 1:
                ops[0] = replace(ops[0], expected=[("planted",)])
            return ops
        return planted


def end_to_end(measured: Measured) -> dict[str, float]:
    """The end-to-end metrics, from untraced samples only."""
    return {
        "setup_s": low(measured.setup_s),
        "cold_s": undisturbed(measured.cold_s),
        "warm_ms": undisturbed(pooled(measured.warm_s)) * 1e3,
        "peak_rss_mb": measured.snapshot["rss_mb"],
    }
