#!/usr/bin/env python3
"""The repo benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/e2e/run.py --workload dense_sim --seed 7 \
        --seconds 10 --trace 0          # the end-to-end metrics
    python3 benchmarks/e2e/run.py --workload dense_sim --seed 7 --trace 1
                                        # the per-layer metrics + a trace
    python3 benchmarks/e2e/run.py --workload all --seed 7 --out A.json
                                        # a full set, for compare.py

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names,
units and workload names are read from ``BENCHMARK.json``; emitting a name
it does not list, or missing one it lists, is an error.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time runs from here, imports included

import argparse
import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "_out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program under test is not here")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np

import probes
from harness import (
    SPIN_REFERENCE_S,
    Trace,
    calibration_spin,
    cpu_seconds,
    median,
    peak_rss_mib,
    quantile,
)
from repro import obs
from repro.runtime import observing_sections
from workloads import (
    SMALL,
    SPECS,
    RoundResult,
    Workload,
    WorkloadSpec,
)

IMPORT_S = time.perf_counter() - _T0

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

SETUPS = 3  # set-up is repeated and its median reported
WARMUP_ROUNDS = 5
MIN_ROUNDS = 100  # so that ten rounds lie beyond the 90th percentile
TRACED_ROUNDS = 20
OVERHEAD_ROUNDS = 10  # with obs.capture() on, and as many with it off

#: every app at its small size: inputs for the probes of layers the
#: workload's own round does not exercise
SIDE = WorkloadSpec("side", "", tuple(SMALL), SMALL)


class Tally:
    """Ops attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result: RoundResult) -> None:
        for op in result.ops:
            self.attempted += 1
            if op.error is not None:
                self.fail(f"{op.app}: {op.error}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {reason}", file=sys.stderr)


def set_up(spec: WorkloadSpec, seed: int, tally: Tally) -> Workload:
    """Generate inputs and references, start the server if any, and run
    the warm-up rounds (the first of which is checked against the
    references and, for ``dense_local``, against its ``sim`` twin)."""
    wl = Workload(spec, seed)
    off = Trace(False)
    for r in range(WARMUP_ROUNDS):
        result = wl.run_round(off)
        tally.add(result)
        if r == 0 and spec.twin_transport is not None:
            for problem in wl.check_twin(result):
                tally.fail(problem)
    return wl


# -- the untraced pass: end-to-end metrics ----------------------------------


def host_spin() -> float:
    """The host's speed right now: median of three calibration spins."""
    return median([calibration_spin() for _ in range(3)])


def measure(wl: Workload, tally: Tally, trace: Trace, seconds: float,
            rounds: int | None) -> tuple[dict, list[float], list[RoundResult]]:
    """The timed loop.  Each round is preceded by a calibration spin; the
    loop ends after ``rounds`` rounds if given, else once ``seconds`` have
    passed and at least ``MIN_ROUNDS`` rounds are in -- or, on a host too
    slow for that, after twice ``seconds``.  Returns the metrics, the spin
    walls and the round results."""
    spins, cpus, results = [], [], []
    peak_rss = None
    start = time.perf_counter()
    while True:
        trace.round_id = len(results)
        with trace.span("calibrate"):
            spins.append(calibration_spin())
        cpu0 = cpu_seconds()
        result = wl.run_round(trace)
        cpus.append(cpu_seconds() - cpu0)
        tally.add(result)
        results.append(result)
        if len(results) == MIN_ROUNDS:
            # read at a fixed round, not at the end: a resident server
            # grows with every job it has served, and how many rounds fit
            # in ``seconds`` is the host's business
            peak_rss = peak_rss_mib()
        if rounds is not None:
            if len(results) >= rounds:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(results) >= MIN_ROUNDS
                    or elapsed >= 2 * seconds):
                break
    trace.round_id = None
    walls = [r.wall for r in results]
    norms = [w / s for w, s in zip(walls, spins)]
    metrics = {
        "round_norm_p50": median(norms),
        "round_norm_p90": quantile(norms, 0.9),
        "virtual_s": median([r.virtual for r in results]),
        "peak_rss_mb": peak_rss if peak_rss is not None else peak_rss_mib(),
        "host.calib_s_p50": median(spins),
        "host.calib_spread": quantile(spins, 0.9) / quantile(spins, 0.1),
        "host.round_s_p50": median(walls),
        "host.round_s_p90": quantile(walls, 0.9),
        "host.cpu_s_p50": median(cpus),
        "host.rounds": len(walls),
        "host.failed_frac": tally.failed / max(1, tally.attempted),
    }
    return metrics, spins, results


def run_untraced(spec: WorkloadSpec, seed: int, seconds: float,
                 rounds: int | None, tally: Tally) -> dict:
    """Set up ``SETUPS`` times, measure on the last.  ``setup_s`` is
    imports + the median set-up, each divided by the calibration spin next
    to it and scaled by ``SPIN_REFERENCE_S``: seconds on a host on which
    the spin takes its reference time.  Raw set-up seconds followed the
    host's speed, which moved 25 % between two sweeps a quarter of an hour
    apart -- the whole of the metric's bound."""
    imports = IMPORT_S / host_spin()
    setups = []
    wl = None
    for _ in range(SETUPS):
        if wl is not None:
            wl.close()
        spin = host_spin()
        t0 = time.perf_counter()
        wl = set_up(spec, seed, tally)
        setups.append((time.perf_counter() - t0) / spin)
    metrics, _, _ = measure(wl, tally, Trace(False), seconds, rounds)
    wl.close()
    metrics["setup_s"] = (imports + median(setups)) * SPIN_REFERENCE_S
    return metrics


# -- the traced pass: per-layer metrics -------------------------------------


class SectionWatch:
    """What the program reports about each section of one round: the
    ``SectionRecord`` ledger entries handed to section observers, and the
    ``repro.obs`` recorders of the captures around the timed calls."""

    def __init__(self):
        self.payloads: list[dict] = []
        self.recorders: list = []

    @contextmanager
    def around_call(self):
        with observing_sections(self.payloads.append), \
                obs.capture() as recorder:
            self.recorders.append(recorder)
            yield

    def metrics(self) -> dict:
        records = [p["record"] for p in self.payloads]
        ranks = [r for rec in records if rec.metrics is not None
                 for r in rec.metrics.per_rank]
        spans = [s for rec in self.recorders for s in rec.spans]
        by_kind = {k: 0.0 for k in ("kernel", "ship", "collective", "plan")}
        for s in spans:
            if s.kind in by_kind:
                by_kind[s.kind] += s.duration
        out = {
            "cluster.bytes_sent": sum(r.bytes_shipped for r in records),
            "cluster.messages_sent": sum(r.messages for r in records),
            "cluster.comm_time_v": sum(r.comm_time for r in ranks),
            "cluster.idle_time_v": sum(r.idle_time for r in ranks),
            "cluster.compute_time_v": sum(r.compute_time for r in ranks),
            "runtime.sections": len(records),
            "runtime.attempts": sum(p["attempts"] for p in self.payloads),
            "obs.spans": len(spans),
        }
        out.update({f"obs.v.{k}": v for k, v in by_kind.items()})
        return out


def obs_overhead(wl: Workload, tally: Tally) -> float:
    """Round median with ``repro.obs.capture()`` around every timed call,
    over the median without, minus one (rounds interleaved)."""
    on, off = [], []
    quiet = Trace(False)
    for _ in range(OVERHEAD_ROUNDS):
        for walls, wrap in ((on, obs.capture), (off, nullcontext)):
            result = wl.run_round(quiet, wrap)
            tally.add(result)
            walls.append(result.wall)
    return median(on) / median(off) - 1.0


def run_traced(spec: WorkloadSpec, seed: int, rounds: int | None,
               tally: Tally) -> dict:
    trace = Trace(True)
    with trace.span("run", workload=spec.name, seed=seed):
        with trace.span("setup"):
            wl = set_up(spec, seed, tally)
            side = Workload(SIDE, seed)
        timed, spins, results = measure(
            wl, tally, trace, 0.0,
            rounds if rounds is not None else TRACED_ROUNDS)
        out = {k: v for k, v in timed.items() if k.startswith("host.")}
        calib = out["host.calib_s_p50"]

        # per-app op time, normalised by the spin next to its round
        per_app: dict[str, list[float]] = {}
        for spin, result in zip(spins, results):
            for op in result.ops:
                per_app.setdefault(op.app, []).append(op.wall / spin)

        # one more round under capture + section observers, for the counts
        watch = SectionWatch()
        trace.round_id = "captured"
        captured = wl.run_round(trace, watch.around_call)
        trace.round_id = None
        tally.add(captured)
        out.update(captured.counts())
        out.update(watch.metrics())
        out["obs.overhead_frac"] = obs_overhead(wl, tally)

        with trace.span("probes"):
            arrays = probes.input_arrays(wl)
            out.update(probes.fusion(
                trace, [p["iterator"] for p in watch.payloads]))
            out.update(probes.engine(trace, wl))
            out.update(probes.iterators(trace, side, spec.apps))
            out.update(probes.serial(trace, arrays))
            out.update(probes.partition(trace, arrays, spec.ranks))
            out.update(probes.cluster(trace, spec.ranks))
            out.update(probes.data(trace, wl, arrays))
            out.update(probes.runtime(trace, spec.ranks, seed))
            if spec.service:
                jobs = [op for r in results for op in r.ops]
                out.update(probes.service_metrics(
                    [op.step_wall for op in jobs],
                    [r.extra_wall / len(r.ops) for r in results],
                    [op.latency_v for op in jobs],
                    [op.counts for op in captured.ops]))
            else:
                out.update(probes.service(trace, side, spec.ranks))
            # apps outside the round: their small instance, one-shot on sim
            quiet = Trace(False)
            for app in SIDE.apps:
                if app not in per_app:
                    with trace.span("probe.side_app", app=app):
                        ops = [side.script_op(app, quiet, nullcontext)
                               for _ in range(probes.ROUND_CALLS)]
                    per_app[app] = [op.wall / calib for op in ops]
        for app, norms in per_app.items():
            out[f"apps.{app}.op_norm_p50"] = median(norms)

        # what the layer probes leave unexplained of the raw round
        tr = spec.transport
        serialized_mb = out["cluster.bytes_sent"] / (1 << 20)
        explained = (
            out["core.engine.kernel_s"]
            + out[f"cluster.spawn_s.{tr}"] * out["runtime.sections"]
            + serialized_mb / out["serial.serialize_mb_s"]
            + serialized_mb / out["serial.deserialize_mb_s"]
            + out["core.fusion.plan_cold_s"] * out["core.fusion.misses"]
            + out["data.distribute_s"]
        )
        out["runtime.unattributed_frac"] = (
            1.0 - explained / out["host.round_s_p50"])
        wl.close()

    OUT_DIR.mkdir(exist_ok=True)
    trace.write_chrome(str(OUT_DIR / f"{spec.name}.trace.json"))
    table = {
        "workload": spec.name, "seed": seed,
        "metrics": {k: out[k] for k in sorted(out)},
        "harness_self_time_s": trace.self_times(),
    }
    (OUT_DIR / f"{spec.name}.layers.json").write_text(
        json.dumps(table, indent=1) + "\n")
    return out


# -- output -----------------------------------------------------------------


def labelled(values: dict, spec: dict) -> dict:
    """``{name: {"value", "unit"}}``; the measured names must be exactly
    the names *spec* (a section of BENCHMARK.json) lists."""
    if set(values) != set(spec):
        raise KeyError(
            f"named in BENCHMARK.json but not measured: "
            f"{sorted(set(spec) - set(values))}; measured but not named: "
            f"{sorted(set(values) - set(spec))}")
    return {name: {"value": float(values[name]), "unit": spec[name]["unit"]}
            for name in spec}


def run_one(args) -> int:
    spec = SPECS[args.workload]
    tally = Tally()
    if args.trace:
        values = run_traced(spec, args.seed, args.rounds, tally)
        metrics = labelled(values, PER_LAYER)
    else:
        values = run_untraced(spec, args.seed, args.seconds, args.rounds,
                              tally)
        # the host.* readings of the untraced pass are diagnostics
        # (compare.py reads them from --out); they are gated nowhere
        metrics = labelled({k: v for k, v in values.items()
                            if not k.startswith("host.")}, E2E)
    for name, m in metrics.items():
        print(f"{spec.name:16s} {name:34s} {m['value']:.6g} {m['unit']}")
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        diagnostics = {k: v for k, v in values.items()
                       if k.startswith("host.")}
        Path(args.out).write_text(
            json.dumps({**line, "host": diagnostics}) + "\n")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """A full set: every workload in its own process (set-up time and peak
    RSS are per process), untraced, then traced if ``--trace 1``."""
    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "seed": args.seed, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "workloads": {},
    }
    for name in SPECS:
        entry = result["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            part = OUT_DIR / f"{name}.pass{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            if args.rounds is not None:
                cmd += ["--rounds", str(args.rounds)]
            subprocess.run(cmd, check=True)
            entry["per_layer" if trace else "end_to_end"] = json.loads(
                part.read_text())
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    if names != list(SPECS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {list(SPECS)}")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"],
                    help="measure for at least this long (and at least "
                         f"{MIN_ROUNDS} rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced pass, per-layer metrics and a trace")
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many timed rounds (smoke tests)")
    ap.add_argument("--out", default=None, help="also write the result here")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
