"""Host-time benchmark of the SHAROES client, end to end and per layer.

Usage (from the repository root)::

    python3 hostbench/run.py --workload postmark|bigfile|publish \\
        --seed N --seconds S --trace 0|1

A run repeats rounds of one workload until ``--seconds`` of measured
operations have passed, cycling through its :data:`INSTANCES` workload
instances seeded from ``--seed``.  Every round sets up a fresh volume
(timed: ``setup_s`` is the median) and replays its instance's seeded
operation sequence one operation at a time, checking every read; the
first round of each instance then audits the volume.  Host times are
scaled to a nominal host speed measured between operations
(``reference.py``); the raw times are printed beside them.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the run alternates untraced and traced
rounds of the same sequence and reports the per-layer metrics of the
traced rounds (see ``layers.py``), the tracing overhead, and the layer
accounting cross-check; the spans of the last traced round are written
to ``.hostbench/spans-<workload>.tsv``.

Any wrong read, unclean audit, round that does not reproduce the
simulated metrics of the first, or failed cross-check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: per-workload parameters of one round.
PARAMS = {
    # Figure 10 shape: cache = 10% of the initial pool's data.
    "postmark": dict(files=100, transactions=400, subdirs=10,
                     cache_fraction=0.10),
    # six files of four 64 KiB blocks (one size, so read and write
    # latencies are one mode, not a mix of file sizes); cache = 25%.
    "bigfile": dict(blocks=(4,) * 6, block_size=65536,
                    cache_fraction=0.25, ops=80),
    # the BENCH_10 throughput harness's client configuration.
    "sharing": dict(users=8, key_bits=512, block_size=8192, file_blocks=6,
                    shared_files=8, lease_duration_s=5.0,
                    lease_wait_attempts=8, concurrency=8, ops=300),
}
PARAMS["publish"] = PARAMS["sharing"]

#: workload instances a run averages over.  Round ``r`` replays
#: instance ``r % INSTANCES[name]`` (seeded by :func:`instance_seed`),
#: so a run's simulated metrics are the mean over a fixed set of
#: instances however many rounds the host has time for, and every
#: repeat of an instance must reproduce it exactly.  The more instances,
#: the less a run's medians depend on its seed's file sizes and op order;
#: ``publish`` keeps 4 because each instance's audit costs seconds.
INSTANCES = {"postmark": 8, "bigfile": 8, "sharing": 4, "publish": 4}

#: fewest set-ups a run times, and fewest host seconds of set-up it
#: times (``setup_s`` is their median; a set-up draws random primes, so
#: single set-ups vary widely).
SETUP_SAMPLES = 12
SETUP_SECONDS = 2.0

#: reference-kernel samples on each side of a set-up that measure the
#: host's speed at it.
SETUP_SPEED_SAMPLES = 16

#: a run starts no new round after this many host seconds.
MAX_RUN_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "cpu_ms_per_op": "ms",
    "op_p50_ms": "ms", "op_p95_ms": "ms", "create_p50_ms": "ms",
    "read_p50_ms": "ms", "write_p50_ms": "ms", "meta_p50_ms": "ms",
    "peak_rss_mb": "MB", "sim_s": "s", "wire_requests": "count",
    "stored_bytes_per_user_byte": "ratio",
    "written_bytes_per_user_byte": "ratio", "completed_op_frac": "ratio",
}


def _import_program():
    """Import the program from ``src/``; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def _pin_to_one_cpu() -> None:
    """Run the benchmark, and every thread it starts, on one CPU.

    The driver is a closed loop, so at most one of its threads has work
    at a time.  On one CPU, ``bigfile``'s hand-offs between the client
    thread and the loopback server thread are plain context switches;
    across CPUs each one wakes an idle CPU, whose latency moves with
    the host's load and no reference kernel measures.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Round:
    """The measurements of one round."""

    def __init__(self, workload, meter, setup_s: float, setup_scale: float,
                 audit_s: float | None, objects: int | None):
        self.meter = meter
        self.setup_s = setup_s
        #: factor from this round's set-up host seconds to the nominal
        #: host's.
        self.setup_scale = setup_scale
        #: ``meter.ops`` with host seconds scaled to the nominal host's.
        self.scaled_ops = [
            (cls, wall * wall_scale, cpu * cpu_scale)
            for (cls, wall, cpu), wall_scale, cpu_scale in zip(
                meter.ops, meter.speed.local_scales(),
                meter.speed.local_scales(cpu=True))]
        self.audit_s = audit_s
        self.objects = objects
        self.setup_creates = workload.setup_creates
        self.stale_reads = workload.stale_reads
        self.deterministic = {
            "sim_s": workload.sim_s,
            "wire_requests": workload.requests(),
            "stored_bytes_per_user_byte":
                workload.stored_bytes / workload.live_user_bytes,
            "written_bytes_per_user_byte":
                workload.written_bytes / meter.user_bytes_written,
            "completed_op_frac": meter.completed / meter.attempted,
        }


def run_round(name: str, seed: int, tracer=None, probe=None,
              params: dict | None = None, audit: bool = True) -> Round:
    """Set up, measure and (if ``audit``) audit one round of ``name``.

    ``tracer`` (a :class:`layers.LayerTracer`, installed) records the
    set-up and window phases; ``probe(workload, when)`` is called with
    ``when`` = "before"/"after" around the window; ``params`` replaces
    the workload's :data:`PARAMS`.
    """
    from hostbench.layers import SETUP, WINDOW
    from hostbench.reference import HostSpeed
    from hostbench.workloads import WORKLOADS, Meter

    workload = WORKLOADS[name](seed, **(params or PARAMS[name]))
    on_op = None
    if tracer is not None:
        tracer.reset()
        tracer.phase = SETUP

        def on_op(op_id: int) -> None:
            tracer.op_id = op_id
    try:
        speed = HostSpeed().samples(SETUP_SPEED_SAMPLES)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        setup_scale = speed.samples(SETUP_SPEED_SAMPLES).scale
        meter = Meter(on_op)
        if probe is not None:
            probe(workload, "before")
        if tracer is not None:
            tracer.phase = WINDOW
        workload.measure(meter)
        if tracer is not None:
            tracer.phase = 0
        if probe is not None:
            probe(workload, "after")
        audit_s, objects = workload.finish() if audit else (None, None)
    finally:
        if tracer is not None:
            tracer.phase = 0
        workload.close()
        # Collect the round's garbage outside any timed region, so each
        # round starts from the same heap and peak RSS does not depend
        # on when the collector last ran.
        gc.collect()
    return Round(workload, meter, setup_s, setup_scale, audit_s, objects)


def instance_seed(seed: int, instance: int) -> int:
    """The generator seed of one workload instance of a run."""
    return seed * 1000 + instance


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 \
        else _median(values)


def _check_repeat(first: Round, other: Round) -> None:
    """Rounds of one seed replay one sequence: simulated metrics match."""
    from hostbench.workloads import CorrectnessError

    if other.deterministic != first.deterministic:
        raise CorrectnessError(
            f"round did not reproduce the first round's simulated "
            f"metrics: {other.deterministic} != {first.deterministic}")


def end_to_end(name: str, rounds: list[Round], setups: list[tuple],
               scaled: bool = True) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, and their sample counts.

    ``setups`` are (seconds, scale, create latencies) of every timed
    set-up (bigfile's creates are set-up creates).  With ``scaled`` (the
    reported metrics) host times are scaled to the nominal host
    (``reference.py``); without, the raw host times are used.
    """
    lat: dict[str, list[float]] = {"all": [], "create": [], "read": [],
                                   "write": [], "meta": []}
    wall = cpu = 0.0
    for r in rounds:
        for cls, op_wall, op_cpu in (r.scaled_ops if scaled
                                     else r.meter.ops):
            lat[cls].append(op_wall)
            lat["all"].append(op_wall)
            wall += op_wall
            cpu += op_cpu
    for _, scale, creates in setups:
        lat["create"].extend(v * (scale if scaled else 1.0) for v in creates)
    completed = sum(r.meter.completed for r in rounds)
    metrics = {
        "setup_s": _median([s * (k if scaled else 1.0)
                            for s, k, _ in setups]),
        "ops_per_s": completed / wall,
        "cpu_ms_per_op": 1e3 * cpu / completed,
        "op_p50_ms": 1e3 * _median(lat["all"]),
        "op_p95_ms": 1e3 * _p95(lat["all"]),
        "create_p50_ms": 1e3 * _median(lat["create"]),
        "read_p50_ms": 1e3 * _median(lat["read"]),
        "write_p50_ms": 1e3 * _median(lat["write"]),
        "meta_p50_ms": 1e3 * _median(lat["meta"]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in rounds[0].deterministic:
        metrics[key] = statistics.fmean(
            r.deterministic[key] for r in rounds[:INSTANCES[name]])
    samples = {
        "setup_s": len(setups), "ops_per_s": completed,
        "cpu_ms_per_op": completed, "op_p50_ms": len(lat["all"]),
        "op_p95_ms": len(lat["all"]), "create_p50_ms": len(lat["create"]),
        "read_p50_ms": len(lat["read"]), "write_p50_ms": len(lat["write"]),
        "meta_p50_ms": len(lat["meta"]),
    }
    return metrics, samples


def _rounds(name: str, seed: int, seconds: float, one_round) -> list:
    """Call ``one_round(instance_seed, audit)`` until every instance ran
    and ``seconds`` of operations were measured (or time ran out).

    Only the first round of each instance is audited: a repeat replays
    the same operations, checks every read again and must reproduce the
    instance's simulated metrics exactly, and the audit (which reads
    every file as every user) would otherwise cost more host time than
    the window on ``publish``.
    """
    started = time.perf_counter()
    instances = INSTANCES[name]
    results: list = []
    measured = 0.0
    while len(results) < instances or (
            measured < seconds
            and time.perf_counter() - started < MAX_RUN_S):
        instance = len(results) % instances
        result = one_round(instance_seed(seed, instance),
                           len(results) < instances)
        if len(results) >= instances:
            _check_repeat(results[instance], result)
        results.append(result)
        measured += result.meter.wall_s
    return results


def time_setup(name: str, seed: int) -> tuple[float, float, list]:
    """Host seconds of one set-up alone (format, enrol, populate, mount),
    the factor from them to the nominal host's seconds, and the create
    latencies timed in it."""
    from hostbench.reference import HostSpeed
    from hostbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, **PARAMS[name])
    try:
        speed = HostSpeed().samples(SETUP_SPEED_SAMPLES)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        return (setup_s, speed.samples(SETUP_SPEED_SAMPLES).scale,
                workload.setup_creates)
    finally:
        workload.close()


def measure(name: str, seed: int, seconds: float):
    """Untraced rounds, plus set-up-only samples up to
    :data:`SETUP_SAMPLES`; the end-to-end metrics come from these.

    A first, unmeasured round of instance 0 warms the interpreter and
    the host (imports, allocator, CPU clock) before timing starts; it
    must reproduce instance 0 like any other repeat.
    """
    warm = run_round(name, instance_seed(seed, 0), audit=False)
    rounds = _rounds(name, seed, seconds,
                     lambda s, audit: run_round(name, s, audit=audit))
    _check_repeat(rounds[0], warm)
    setups = [(r.setup_s, r.setup_scale, r.setup_creates) for r in rounds]
    while (len(setups) < SETUP_SAMPLES
           or sum(s for s, _, _ in setups) < SETUP_SECONDS):
        setups.append(time_setup(
            name, instance_seed(seed, len(setups) % INSTANCES[name])))
    return rounds, setups


class _Pair:
    """An untraced round and a traced round of one instance."""

    def __init__(self, plain: Round, traced: Round, layers: dict):
        _check_repeat(plain, traced)
        self.plain, self.traced, self.layers = plain, traced, layers
        self.deterministic = plain.deterministic
        self.meter = plain.meter


def measure_traced(name: str, seed: int, seconds: float):
    """Untraced/traced round pairs; returns per-layer metrics and pairs.

    The traced round must reproduce the untraced round's simulated
    metrics exactly (the wrappers do not perturb the program), and its
    layer accounting must match the program's counters.
    """
    from hostbench.layers import LayerTracer
    from hostbench.pertrace import per_layer, probe_counters

    with LayerTracer() as tracer:
        def pair(s: int, audit: bool) -> _Pair:
            plain = run_round(name, s, audit=False)
            counters: dict = {}
            traced = run_round(name, s, tracer=tracer,
                               probe=probe_counters(counters))
            return _Pair(plain, traced, per_layer(tracer, counters, traced))

        pairs = _rounds(name, seed, seconds / 2, pair)
        out_dir = ROOT / ".hostbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}.tsv")
    metrics = {key: statistics.fmean(p.layers[key] for p in pairs)
               for key in pairs[0].layers}
    metrics["trace.overhead_frac"] = _median(
        [p.traced.meter.wall_s / p.plain.meter.wall_s - 1 for p in pairs])
    return metrics, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    _pin_to_one_cpu()
    from repro.errors import SharoesError

    from hostbench.pertrace import PER_LAYER_UNITS
    from hostbench.workloads import CorrectnessError

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    try:
        if args.trace:
            metrics, pairs = measure_traced(args.workload, args.seed,
                                            args.seconds)
            rounds = [r for p in pairs for r in (p.plain, p.traced)]
        else:
            rounds, setups = measure(args.workload, args.seed, args.seconds)
            metrics, samples = end_to_end(args.workload, rounds, setups)
            raw, _ = end_to_end(args.workload, rounds, setups, scaled=False)
            for key, n in samples.items():
                print(f"{key:28s} {metrics[key]:12.4f} "
                      f"{END_TO_END_UNITS[key]:6s} n={n:<6d} "
                      f"raw {raw[key]:12.4f}")
        correct = True
    except (CorrectnessError, SharoesError) as exc:
        # a wrong result, or an operation the program failed outright
        correct, rounds, metrics = False, [], {}
        print(f"hostbench: INCORRECT: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    attempted = sum(r.meter.attempted for r in rounds)
    failed = sum(r.meter.failed for r in rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units if key in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
