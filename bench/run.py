#!/usr/bin/env python3
"""hardsum benchmark: runs one workload and prints its metrics.

Run from the repository root:

    python3 bench/run.py --workload svrc-synthetic --seed 1 --seconds 20 --trace 0

Workloads: ``svrc-synthetic``, ``adversary-cubic``, ``verify-battery`` (see
``bench/workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` every other op runs under the span tracer
(``bench/tracing.py``) and the run reports per-layer metrics and the tracing
overhead instead.  Every op's output goes through the workload's correctness
gate.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every op passed.

The package is imported from ``src/`` next to this directory, with the BLAS
thread count pinned before numpy loads.  The timed phase runs in this one
process with no thread pools; set-up time is also sampled in a few fresh
child processes, run one after another, because import cost only shows in a
fresh interpreter.  Outputs, spans and a result record go to ``.bench_out/``.

The host is shared and its speed drifts, so every reported time (op times,
``ops_per_s``, ``setup_s``) is scaled to the host's quiet speed by the
reference kernel in ``bench/hostspeed.py``, timed between ops, during
untraced ops on a timer and after each set-up.  The unscaled figures are
printed next to them.
"""
import os
import sys
import time

SETUP_START = time.perf_counter()
#: at most nproc; one thread keeps BLAS from competing with the interpreter
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
#: set-ups per run (this process plus fresh children); setup_s is the median
SETUP_SAMPLES = 3
#: kernel passes after a set-up that scale it
SETUP_KERNEL_PASSES = 5
#: wall seconds between the kernel passes taken during an untraced op
SAMPLE_INTERVAL_S = 0.5
#: op_s.p90 is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("svrc-synthetic", "adversary-cubic",
                                 "verify-battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="intended length of the timed phase; fixes "
                             "the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    parser.add_argument("--break-gate", action="store_true",
                        help="self-check: gate against an off-by-one "
                             "expectation, so every op must fail")
    return parser.parse_args(argv)


def import_package():
    """Import hardsum from this checkout's sources, never from elsewhere."""
    if not (SRC / "hardsum" / "__init__.py").is_file():
        raise SystemExit(f"error: no hardsum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardsum
    if Path(hardsum.__file__).resolve().parent != SRC / "hardsum":
        raise SystemExit(f"error: imported hardsum from {hardsum.__file__}, "
                         f"not from {SRC}")


def openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def cache_sizes() -> dict[str, str]:
    """Data and unified CPU cache sizes by level, as the kernel lists them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas,
        "cpu_caches": cache_sizes(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def timed_phase(workload, n_ops: int, tracer, sampler) -> dict:
    """Run the op list; with a tracer, every odd op runs traced.

    The reference kernel runs before the first op and after every op, and
    during untraced ops on the sampler's timer.  An op's time, less the
    timer's passes, is scaled by the mean factor of the passes from the
    one before it to the one after it.
    """
    plain, traced, problems = [], [], {}
    raw_plain = []
    sampler.sample()
    start = time.perf_counter()
    for i in range(n_ops):
        under_trace = tracer is not None and i % 2 == 1
        first = len(sampler.factors) - 1
        stolen = sampler.stolen_s
        try:
            if under_trace:
                # no timer here: its passes would land in the layer spans
                with tracer.active(i):
                    t0 = time.perf_counter()
                    result = workload.op(i)
                    dt = time.perf_counter() - t0
            else:
                with sampler.during():
                    t0 = time.perf_counter()
                    result = workload.op(i)
                    dt = time.perf_counter() - t0
            dt -= sampler.stolen_s - stolen
            found, counts = workload.check(i, result)
        except Exception:  # an op that raises is a failed op, never dropped
            found, counts = [traceback.format_exc(limit=4)], {}
        sampler.sample()
        if under_trace:
            for name, value in counts.items():
                tracer.count(name, value)
        if found:
            problems[i] = found
        elif under_trace:
            traced.append(dt * sampler.mean_factor(first))
        else:
            plain.append(dt * sampler.mean_factor(first))
            raw_plain.append(dt)
    wall = time.perf_counter() - start
    try:
        late = workload.finish()
    except Exception:
        late = {0: [traceback.format_exc(limit=4)]}
    for i, found in late.items():
        problems.setdefault(i, []).extend(found)
    return {"plain": plain, "raw_plain": raw_plain, "traced": traced,
            "problems": problems, "wall": wall, "attempted": n_ops}


def scaled_setup(raw_s: float, sampler) -> dict[str, float]:
    """Set-up seconds, raw and scaled by kernel passes right after."""
    for _ in range(SETUP_KERNEL_PASSES):
        sampler.sample()
    factor = sampler.mean_factor(-SETUP_KERNEL_PASSES)
    return {"setup_s": raw_s * factor, "raw_s": raw_s}


def setup_samples(args, first: dict) -> list[dict]:
    """This process's set-up time plus fresh child processes' ones."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def report(args, run, metrics, env, extra_lines) -> int:
    failed = len(run["problems"])
    attempted = run["attempted"]
    correct = failed == 0
    print(f"hardsum benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"  ops: {attempted} attempted, {failed} failed, failed_frac "
          f"{failed / attempted:.4g} ({failed}/{attempted})")
    for line in extra_lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    for i, found in sorted(run["problems"].items()):
        for problem in found:
            print(f"gate: op {i} (seed {args.seed + i}): {problem}",
                  file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracing
    from hostspeed import HostSampler, ReferenceKernel
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR,
                                        broken_gate=args.break_gate)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        workload.warm_up()
    else:
        with tracer.active(-1, root=tracing.SETUP_SPAN):
            workload.warm_up()
        tracer.reset_counters()
    setup_raw_s = time.perf_counter() - SETUP_START
    sampler = HostSampler(ReferenceKernel(), SAMPLE_INTERVAL_S)
    setup = scaled_setup(setup_raw_s, sampler)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = timed_phase(workload, workload.op_count(args.seconds), tracer,
                      sampler)
    plain, traced = run["plain"], run["traced"]
    env = environment(args)
    lines = []
    if tracer is None:
        setups = setup_samples(args, setup)
        metrics = {
            "op_s.p50": (median_or_zero(plain), "s"),
            "ops_per_s": (len(plain) / sum(plain) if plain else 0.0, "1/s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups),
                        "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        if len(plain) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(plain, n=10)[-1]
            lines.append(f"op_s.p90 {p90:.6g} s ({len(plain)} samples)")
        else:
            lines.append(f"op_s.p90 not reported: {len(plain)} samples, "
                         f"fewer than {P90_MIN_SAMPLES}")
        lines.append(f"op_s.p50 over {len(plain)} samples; setup_s is the "
                     "median of " + ", ".join(f"{s['setup_s']:.4f}"
                                              for s in setups))
        raw = run["raw_plain"]
        lines.append(
            "unscaled: op_s.p50 %.6g s, ops_per_s %.6g 1/s (passed ops over "
            "the timed phase's %.4g s), setup_s %.6g s" % (
                median_or_zero(raw), len(raw) / run["wall"], run["wall"],
                statistics.median(s["raw_s"] for s in setups)))
    else:
        n_traced = run["attempted"] // 2
        metrics = dict(sorted(tracer.layer_metrics(n_traced).items()))
        uncovered = tracer.uncovered_shares()
        metrics["trace.uncovered_share"] = (median_or_zero(uncovered),
                                            "ratio")
        metrics["trace.overhead_s"] = (
            median_or_zero(traced) - median_or_zero(plain), "s")
        tracer.save(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        lines.append(f"{len(traced)} traced and {len(plain)} untraced ops; "
                     "per-layer values are per traced op")
    record = {"env": env, "op_s": plain, "raw_op_s": run["raw_plain"],
              "traced_op_s": traced,
              "wall_s": run["wall"], "problems": run["problems"],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    if tracer is not None:
        record["uncovered_share_per_op"] = uncovered
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK_DIR / name).write_text(json.dumps(record, indent=1) + "\n",
                                 encoding="utf-8")
    return report(args, run, metrics, env, lines)


if __name__ == "__main__":
    sys.exit(main())
