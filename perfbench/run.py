#!/usr/bin/env python3
"""polyemit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload map --seed 1 --seconds 30 --trace 0

Runs the workload's ops through the public CLI entry point
(polyemit.cli.main) in this process, in a closed loop with one client:
each op starts when the previous one has finished. The program is the
source tree under src/ next to this directory. Every op's output is checked
against its oracle outside the timed interval; an op that raises, exits
non-zero or fails its oracle is counted as failed.

Ops run in whole cycles (one pass over the workload's distinct inputs).
Between cycles a fixed calibration kernel is timed, and every timed figure
is rescaled by how much slower than nominal the machine ran around it (see
calibration.py); the report line also carries the wall-time figures.

With --trace 0 the result carries the end-to-end metrics. With --trace 1
whole cycles of ops alternate between untraced and traced, and the result
carries the per-layer metrics of the traced ops plus trace.overhead_ratio.

Standard output ends with two JSON lines: a report (seed, sha256 of every
generated input, environment, op count, tail latency, set-up breakdown,
calibration samples, wall-time figures)
and the result object {"correct", "attempted", "failed", "metrics"}.
Inputs, outputs and the span dump go to .bench_work/<workload>/ in the
checkout. Exits 2 without a result when the program cannot be imported.
"""

import time

T_START = time.perf_counter()

import argparse   # noqa: E402
import hashlib    # noqa: E402
import json       # noqa: E402
import os         # noqa: E402
import platform   # noqa: E402
import resource   # noqa: E402
import shutil     # noqa: E402
import statistics  # noqa: E402
import sys        # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


class ProgramMissing(Exception):
    pass


def import_program():
    """Import polyemit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polyemit" / "__init__.py").is_file():
        raise ProgramMissing(f"no polyemit package under {src}")
    sys.path.insert(0, str(src))
    import polyemit
    if Path(polyemit.__file__).resolve().parent != src / "polyemit":
        raise ProgramMissing(f"imported polyemit from {polyemit.__file__}, "
                             f"not from {src}")
    return polyemit


# --- environment ------------------------------------------------------------

def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


# --- measurement helpers ----------------------------------------------------

def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far (Linux reports
    ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tail_percentile(latencies: list):
    """Highest of the usual percentiles with at least ten ops beyond it."""
    n = len(latencies)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            cut = statistics.quantiles(latencies, n=1000,
                                       method="inclusive")[int(q * 10) - 1]
            return {"percentile": q, "value_s": cut}
    return None


# --- the run ----------------------------------------------------------------

@dataclass
class Op:
    op: int
    label: str
    wall_s: float
    scaled_s: float
    ok: bool
    traced: bool


@dataclass
class Cycle:
    traced: bool
    wall_s: float
    ok_ops: int
    slowdown: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s / self.slowdown


def set_up(workload, cal) -> tuple:
    """Generate inputs and warm up SETUP_REPEATS times, with a calibration
    sample before and after each repetition; the inputs must come out
    byte-identical every time. Returns (median seconds, list of seconds,
    median per-layer set-up timings, input digests, slowdown)."""
    times, layers, digests = [], [], None
    samples = [cal.sample()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        layers.append(workload.setup())
        workload.warmup()
        times.append(time.perf_counter() - t0)
        samples.append(cal.sample())
        now = {name: sha256(workload.dir / name)
               for name in workload.input_files()}
        if digests is not None and now != digests:
            raise RuntimeError("set-up is not deterministic: inputs differ "
                               "between repetitions")
        digests = now
    layer_medians = {key: statistics.median(rep[key] for rep in layers)
                     for key in layers[0]}
    return (statistics.median(times), times, layer_medians, digests,
            cal.slowdown(*samples))


def run_op(workload, wl, i: int) -> tuple:
    """Run op i and check its output; returns (wall seconds, ok)."""
    ok = True
    t0 = time.perf_counter()
    try:
        for argv in workload.calls(i):
            wl.run_cli(argv)
    except wl.CliError as exc:
        ok = False
        print(f"op {i}: {exc}", file=sys.stderr)
    except Exception:   # any crash is a failed op, not a dead run
        ok = False
        traceback.print_exc()
    latency = time.perf_counter() - t0
    if ok:
        try:
            workload.check(i)
        except (wl.OracleError, OSError, KeyError, ValueError) as exc:
            ok = False
            print(f"op {i}: oracle failed: {exc!r}", file=sys.stderr)
    return latency, ok


def run_ops(workload, wl, seconds: float, tracer, cal) -> tuple:
    """Closed loop of whole cycles until `seconds` of op time have passed.
    A calibration sample is taken before the first cycle and after each
    one; with a tracer, odd cycles are traced."""
    ops, cycles = [], []
    spent = 0.0
    before = cal.sample()
    min_cycles = 2 if tracer is not None else 1
    while spent < seconds or len(cycles) < min_cycles:
        c = len(cycles)
        traced = tracer is not None and c % 2 == 1
        done = []
        for i in range(c * workload.cycle, (c + 1) * workload.cycle):
            if traced:
                tracer.begin_op(i)
            latency, ok = run_op(workload, wl, i)
            if traced:
                tracer.end_op()
            done.append((i, latency, ok))
        after = cal.sample()
        cycle = Cycle(traced, sum(lat for _, lat, _ in done),
                      sum(ok for _, _, ok in done),
                      cal.slowdown(before, after))
        before = after
        cycles.append(cycle)
        ops += [Op(i, workload.label(i), lat, lat / cycle.slowdown, ok, traced)
                for i, lat, ok in done]
        spent += cycle.wall_s
    return ops, cycles


def p50(ops: list, key: str) -> float:
    """Median latency of each kind of op, averaged over the kinds.

    Every run ends on a cycle boundary, so each kind ran equally often.
    With one kind this is the plain median; for a 50/50 mix of two kinds
    of unequal cost it avoids the median of a bimodal sample, which sits
    between the modes and jumps with the slowest op of the faster kind.
    A failed op counts with the time it took; the result's `failed` and
    `correct` flag it, and throughput counts only successful ops.
    """
    by_label = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(getattr(op, key))
    return statistics.mean(statistics.median(v) for v in by_label.values())


def throughput(cycles: list, key: str) -> float:
    """Median over cycles of successful ops per second."""
    return statistics.median(c.ok_ops / getattr(c, key) for c in cycles)


def end_to_end(ops: list, cycles: list, setup_s: float,
               peak_rss: int) -> dict:
    return {
        "throughput_ops_per_s": {"value": throughput(cycles, "scaled_s"),
                                 "unit": "1/s"},
        "op_latency_p50_s": {"value": p50(ops, "scaled_s"), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss / 1e6, "unit": "MB"},
    }


def overhead_ratio(cycles: list) -> float:
    """Median traced cycle time over median untraced cycle time."""
    def median(traced):
        return statistics.median(c.scaled_s for c in cycles
                                 if c.traced == traced)
    return median(True) / median(False)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("map", "couple", "dynamics"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import calibration
    import tracing
    import workloads as wl
    import_s = time.perf_counter() - T_START

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = wl.WORKLOADS[args.workload](args.seed, workdir)
    cal = calibration.Calibration(workload.kernel)
    setup_median, setup_reps, setup_layers, digests, setup_slowdown = set_up(
        workload, cal)
    setup_wall = import_s + setup_median

    tracer = tracing.Tracer() if args.trace else None
    ops, cycles = run_ops(workload, wl, args.seconds, tracer, cal)

    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": digests, "environment": environment(),
        "client": "closed loop, one client, one process",
        "ops": attempted, "cycles": len(cycles),
        "failed_ratio": failed / attempted,
        "calibration": {"kernel": cal.kind, "reference_s": cal.reference_s,
                        "samples_s": cal.samples,
                        "setup_slowdown": setup_slowdown,
                        "cycle_slowdowns": [c.slowdown for c in cycles]},
        "wall": {"throughput_ops_per_s": throughput(cycles, "wall_s"),
                 "op_latency_p50_s": p50(ops, "wall_s"),
                 "setup_s": setup_wall},
        "latencies_s": [[op.label, op.scaled_s, op.wall_s, op.ok]
                        for op in ops],
        "setup": {"import_s": import_s, "repeats_s": setup_reps},
    }
    if tracer is None:
        metrics = end_to_end(ops, cycles, setup_wall / setup_slowdown,
                             peak_rss_bytes())
        lats = [op.scaled_s for op in ops if op.ok]
        report["latency_tail"] = tail_percentile(lats)
    else:
        traced = [op for op in ops if op.traced]
        setup_scaled = {k: v / setup_slowdown for k, v in setup_layers.items()}
        layer = tracer.layer_metrics(
            {op.op: op.label for op in traced},
            {op.op: op.wall_s / op.scaled_s for op in traced}, setup_scaled,
            getattr(workload, "grid_bytes", 0),
            workload.rhs_flops() if hasattr(workload, "rhs_flops") else 0.0)
        metrics = dict(layer, **{"trace.overhead_ratio": {
            "value": overhead_ratio(cycles), "unit": "ratio"}})
        report["absent_targets"] = tracer.absent
        report["traced_ops"] = len(traced)
        trace_file = workdir / "trace.json"
        trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        report["trace_file"] = str(trace_file.relative_to(ROOT))

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
