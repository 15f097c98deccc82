"""Repository benchmark for the paper's pipeline.

One run measures one workload in a closed loop with one client thread and
prints, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run it from the repository root::

    python3 perfbench/run.py --workload batch_diagnosis --seed 1 --trace 0
    python3 perfbench/run.py --workload retrain --seed 1 --trace 1
    python3 perfbench/run.py --workload served_lot --repeat 10

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time between an untraced phase and a traced phase with spans around each
layer's public callables, and reports the per-layer metrics.
``--repeat N`` runs the workload N times, each in a fresh process with its
own seed, and prints the spread of every end-to-end metric with the host's
provenance.  ``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Untimed warm-up before each timed phase: at least this many units ...
WARMUP_UNITS = 3
#: ... and at least this many seconds.
WARMUP_S = 1.0
#: Dict updates and array passes of the reference kernel (about 3 ms and
#: 2 ms on an unloaded host).
REFERENCE_LOOP = 20_000
REFERENCE_ARRAY_PASSES = 6
_REFERENCE_ARRAY = np.random.default_rng(0).random((256, 256))
#: The reference kernel's duration on the scale times are reported in.
REFERENCE_S = 5e-3
#: Seconds of units between two reference measurements.
SLICE_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cases_per_s": "1/s",
    "devices_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer self times in ms per unit: metric name -> span name.
SPAN_METRICS = {
    "circuits.simulate_ms": "circuits.simulate",
    "ate.generate_ms": "ate.generate",
    "ate.test_ms": "ate.test",
    "encoding.case_matrix_ms": "encoding.case_matrix",
    "learning.fit_ms": "learning.fit",
    "learning.build_ms": "learning.build",
    "compiled.compile_ms": "compiled.compile",
    "persist.publish_ms": "persist.publish",
    "evidence.wrap_ms": "evidence.wrap",
    "evidence.validate_ms": "evidence.validate",
    "compiled.encode_ms": "compiled.encode",
    "compiled.sweep_ms": "compiled.sweep",
    "diagnosis.assemble_ms": "diagnosis.assemble",
    "serving.submit_ms": "serving.submit",
}

#: Per-layer metrics each workload computes itself: name -> unit.
OWN_METRICS = {
    "ate.simulated_per_kept": "ratio",
    "persist.artifact_kb": "kB",
    "compiled.rows_per_case": "ratio",
    "diagnosis.result_kb": "kB",
    "serving.overhead_ms": "ms",
    "serving.case_us": "us",
    "serving.chunk_p50_ms": "ms",
    "serving.chunks_per_request": "count",
    "serving.retries": "count",
    "serving.respawns": "count",
    "serving.shed": "count",
    "robust.attempts_per_case": "count",
    "robust.degraded_ratio": "ratio",
}

#: Set-up spans, reported as their median over the run's set-ups in ms.
SETUP_METRICS = ("setup.prior", "setup.model", "setup.pool", "setup.compile",
                 "setup.service_start")


def _load_library():
    """Put the checkout's library and this package on the import path."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no library at {ROOT / 'src' / 'repro'}; "
                         "run from a full checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    count = len(walls)
    if count < 11:
        return f"none with 10 samples beyond it (n={count})"
    rank = math.floor(100.0 * (1.0 - 10.0 / count))
    return f"p{rank} = {np.percentile(walls, rank) * 1e3:.4f} ms (n={count})"


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reference_seconds() -> float:
    """Time a fixed reference kernel: the host's current speed.

    The shared hosts this benchmark runs on change speed by tens of percent
    within seconds.  The kernel does the two kinds of work the library's
    hot paths do, interpreter-bound dict updates and small numpy array
    passes, so a unit's wall time divided by the kernel's time measured
    around it is steady where the raw wall time is not.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for index in range(REFERENCE_LOOP):
        key = index & 1023
        table[key] = table.get(key, 0) + index
    for _ in range(REFERENCE_ARRAY_PASSES):
        values = np.exp(_REFERENCE_ARRAY) * _REFERENCE_ARRAY
        values.sum(axis=0)
        np.sort(values, axis=1)
    return time.perf_counter() - start


def _reference_helper(conn, parent_end) -> None:
    """Helper process: time the reference kernel whenever asked.

    It closes its copy of the parent's end of the pipe, so it sees EOF and
    ends if the parent dies without asking it to stop.
    """
    parent_end.close()
    with contextlib.suppress(EOFError, OSError):
        while conn.recv():
            conn.send(reference_seconds())


class HostSpeed:
    """Times the reference kernel on the CPUs a workload keeps busy.

    An in-process workload runs on one CPU, so the kernel runs in this
    process.  ``served_lot`` keeps both CPUs busy, and the two can run
    at different speeds, so there the kernel also runs in a helper process
    at the same time and the mean of the two is the reference time.
    """

    def __init__(self, cpus: int) -> None:
        self._process = self._conn = None
        self.pid = None
        if cpus > 1:
            # Forked before any thread starts.  A spawned helper would also
            # start multiprocessing's resource tracker, a process that
            # outlives the run.
            context = multiprocessing.get_context("fork")
            self._conn, child = context.Pipe()
            self._process = context.Process(target=_reference_helper,
                                            args=(child, self._conn),
                                            daemon=True)
            self._process.start()
            child.close()
            self.pid = self._process.pid

    def seconds(self) -> float:
        if self._process is None:
            return reference_seconds()
        self._conn.send(True)
        local = reference_seconds()
        return (local + self._conn.recv()) / 2.0

    def close(self) -> None:
        if self._process is None:
            return
        try:
            self._conn.send(False)
        except OSError:
            pass
        self._process.join(10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(10.0)
        self._conn.close()
        self._process = None


class Phase:
    """The outcome of one timed closed loop."""

    def __init__(self) -> None:
        self.outcomes = []
        self.slices: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    @property
    def walls(self) -> list[float]:
        """Raw wall time of every unit, seconds."""
        return [outcome.wall for outcome in self.outcomes]

    @property
    def scaled(self) -> list[float]:
        """Unit wall times rescaled to the reference speed, seconds."""
        return [outcome.scaled for outcome in self.outcomes]

    def rate(self, work, wall) -> float:
        """Median over slices of work done per second of unit time.

        ``work(outcome)`` counts what a unit did and ``wall(outcome)`` picks
        its time.  A median over slices keeps a rare stall of the shared host
        from moving the figure the way a total over the whole phase would.
        """
        return statistics.median(
            sum(work(outcome) for outcome in units)
            / sum(wall(outcome) for outcome in units)
            for units in self.slices if units)


def run_phase(workload, speed: HostSpeed, seconds: float,
              min_units: int = 1, tracer=None) -> Phase:
    """Send units one after another until ``seconds`` have passed.

    Units run back to back in slices of about ``SLICE_S``; their outputs
    are checked after the slice, so the client sends each request as soon
    as the previous one returned.  The reference kernel runs between
    slices, and each unit's wall time is rescaled by the mean of the two
    reference times around its slice.
    """
    phase = Phase()
    end = time.perf_counter() + seconds
    before = speed.seconds()
    while time.perf_counter() < end or len(phase.outcomes) < min_units:
        done = []
        slice_end = min(time.perf_counter() + SLICE_S, end)
        while not done or time.perf_counter() < slice_end:
            done.append(_call_unit(workload, tracer))
        after = speed.seconds()
        scale = REFERENCE_S / ((before + after) / 2.0)
        before = after
        current = []
        for unit_input, output, wall in done:
            size = workload.size(unit_input)
            phase.attempted += size
            if output is None:
                phase.failed += size
                continue
            outcome = workload.check(unit_input, output)
            outcome.wall, outcome.scaled = wall, wall * scale
            phase.failed += outcome.failed + len(outcome.wrong)
            phase.wrong.extend(outcome.wrong)
            current.append(outcome)
        phase.outcomes.extend(current)
        phase.slices.append(current)
    return phase


def _call_unit(workload, tracer):
    """Draw one unit's input and time the library call (None if it raised)."""
    unit_input = workload.next_input()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.call(unit_input)
        else:
            with tracer.span("unit"):
                output = workload.call(unit_input)
    except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
        traceback.print_exc()
        output = None
    return unit_input, output, time.perf_counter() - start


def _setups(workload, speed: HostSpeed
            ) -> tuple[list[float], list[float], dict[str, float]]:
    """Set the workload up ``SETUPS`` times.

    Returns the raw and reference-scaled set-up durations and, per set-up
    span, its median in ms.
    """
    from perfbench.tracer import Tracer

    raw, scaled = [], []
    spans: dict[str, list[float]] = {name: [] for name in SETUP_METRICS}
    before = speed.seconds()
    for _ in range(SETUPS):
        workload.close()
        recorder = Tracer()
        start = time.perf_counter()
        workload.setup(recorder)
        raw.append(time.perf_counter() - start)
        after = speed.seconds()
        scaled.append(raw[-1] * REFERENCE_S / ((before + after) / 2.0))
        before = after
        totals = recorder.totals()
        for name in SETUP_METRICS:
            spans[name].append(totals.get(name, {}).get("total_ns", 0) / 1e6)
    return raw, scaled, {f"{name}_ms": statistics.median(values)
                         for name, values in spans.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object to print."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=_work_root()))
    workload = WORKLOADS[workload_name](seed, work_dir)
    speed = HostSpeed(workload.cpus)
    problems: list[str] = []
    try:
        setup_raw, setup_scaled, setup_spans = _setups(workload, speed)
        problems += [f"paper gate: {problem}"
                     for problem in workload.paper.gate()]
        problems += run_phase(workload, speed, WARMUP_S, WARMUP_UNITS).wrong
        # A traced run splits its time between the untraced and the traced
        # phase, so every run of the benchmark takes about as long.
        measured = seconds / 2.0 if trace else seconds
        phase = run_phase(workload, speed, measured)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss += sum(_vm_hwm_mb(pid) for pid in workload.worker_pids()
                   if pid != speed.pid)
        attempted, failed = phase.attempted, phase.failed
        problems += phase.wrong
        if trace:
            with Tracer() as tracer:
                workload.install(tracer)
                traced = run_phase(workload, speed, measured, tracer=tracer)
                metrics = _layer_metrics(workload, tracer, traced, phase,
                                         setup_spans)
            attempted += traced.attempted
            failed += traced.failed
            problems += traced.wrong
        problems += workload.final_checks()
    finally:
        workload.close()
        speed.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    def correct_cases(outcome):
        return outcome.cases - outcome.failed - len(outcome.wrong)

    def devices(outcome):
        return outcome.devices

    units = len(phase.outcomes)
    end_to_end, raw = {}, {}
    for table, setups, wall in ((end_to_end, setup_scaled,
                                 lambda outcome: outcome.scaled),
                                (raw, setup_raw, lambda outcome: outcome.wall)):
        table.update({
            "setup_s": statistics.median(setups),
            "latency_p50_ms": statistics.median(
                wall(outcome) for outcome in phase.outcomes) * 1e3,
            "cases_per_s": phase.rate(correct_cases, wall),
            "devices_per_s": phase.rate(devices, wall),
            "peak_rss_mb": rss,
        })
    samples = {"setup_s": SETUPS, "latency_p50_ms": units,
               "cases_per_s": len(phase.slices),
               "devices_per_s": len(phase.slices), "peak_rss_mb": 1}
    print(f"workload {workload_name}  seed {seed}  {units} units in "
          f"{measured:g} s  ({workload.operation} attempted "
          f"{phase.attempted}, failed {phase.failed})")
    print(f"  {'metric':<16} {'reported':>14} {'unit':<5} {'raw wall':>14}")
    for name, value in end_to_end.items():
        print(f"  {name:<16} {value:14.4f} {END_TO_END[name]:<5} "
              f"{raw[name]:14.4f}  (n={samples[name]})")
    print(f"  tail latency     {_tail(phase.scaled)}  [raw wall: "
          f"{_tail(phase.walls)}]  [not gated]")
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    print(f"  verdict: {'correct' if not problems else 'INCORRECT'} "
          f"({len(problems)} mismatches)")
    if trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:14.4f} {unit}")
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _layer_metrics(workload, tracer, traced: Phase, untraced: Phase,
                   setup_spans: dict[str, float]) -> dict:
    units = max(len(traced.outcomes), 1)
    totals = tracer.totals()
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = (totals.get(span, {}).get("self_ns", 0) / 1e6 / units,
                         "ms")
    own = workload.layer_metrics(tracer, traced.outcomes)
    for name, unit in OWN_METRICS.items():
        metrics[name] = (float(own.get(name, 0.0)), unit)
    for name, value in setup_spans.items():
        metrics[name] = (value, "ms")
    root = totals.get("unit", {"self_ns": 0, "total_ns": 1})
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.scaled) / statistics.median(untraced.scaled),
        "ratio")
    metrics["trace.unattributed_ratio"] = (
        root["self_ns"] / max(root["total_ns"], 1), "ratio")
    return metrics


def _work_root() -> Path:
    """Scratch space inside the checkout (removed after each run)."""
    path = ROOT / ".perfbench-work"
    path.mkdir(exist_ok=True)
    return path


# ---------------------------------------------------------------- repeat mode
def _provenance() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "loadavg": os.getloadavg()}


def repeat(workload_name: str, first_seed: int, runs: int, seconds: float,
           trace: int) -> int:
    """Run the workload ``runs`` times in fresh processes; print spreads."""
    before = _provenance()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    verdicts = []
    for seed in range(first_seed, first_seed + runs):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload_name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=600)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stderr[-2000:]}")
            verdicts.append(False)
            continue
        result = json.loads(lines[-1])
        verdicts.append(result["correct"] and result["failed"] == 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  " + "  ".join(
                  f"{name}={metric['value']:.4f}"
                  for name, metric in result["metrics"].items()), flush=True)
    print(f"\n{workload_name}: {runs} runs of {seconds:g} s, "
          f"{sum(verdicts)} correct with 0 failed")
    print(f"{'metric':<28} {'unit':<6} {'median':>12} {'IQR':>10} "
          f"{'IQR/med':>8} {'max/min':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        low = min(series)
        print(f"{name:<28} {units[name]:<6} {median:12.4f} {q3 - q1:10.4f} "
              f"{(q3 - q1) / median if median else 0.0:8.2%} "
              f"{max(series) / low if low else float('nan'):8.3f}")
    after = _provenance()
    print(f"host: nproc={before['nproc']} usable_cpus={before['usable_cpus']} "
          f"python={before['python']} numpy={before['numpy']} "
          f"commit={before['commit']}")
    print(f"load average before: {before['loadavg']}  "
          f"after: {after['loadavg']}")
    return 0 if all(verdicts) else 1


def _make_terminate_handler(main_pid: int):
    """SIGTERM handler: the run unwinds like an error and stops its processes.

    Processes forked from the run inherit the handler; they die of the
    signal as they would without it.
    """

    def handler(signum, frame):
        if os.getpid() == main_pid:
            sys.exit(128 + signum)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    return handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("retrain", "batch_diagnosis", "served_lot"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N fresh processes and print the spread")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _make_terminate_handler(os.getpid()))
    _load_library()
    if args.repeat:
        return repeat(args.workload, args.seed, args.repeat, args.seconds,
                      args.trace)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
