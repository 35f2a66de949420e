"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dtsir-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``sirsupport`` from
``src/`` and nothing else.  ``--trace 0`` measures the end-to-end metrics
for ``--seconds`` seconds; ``--trace 1`` runs a fixed number of
operations untraced and then again with spans around every layer call,
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the environment.  Run outputs and traces go
to ``.perfbench-runs/``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported, here and (by
# inheritance) in every child: setup probes, pool workers, CLI commands.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench-runs"
SETUP_PROBES = 3
CLI_PROBES = 3

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import scipy.sparse, scipy.optimize\n"
    "t2 = time.perf_counter()\n"
    "import sirsupport.cli\n"
    "t3 = time.perf_counter()\n"
    "print(t3 - t0, t2 - t1)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path, here and in children."""
    src = ROOT / "src"
    if not (src / "sirsupport" / "__init__.py").is_file() or not (ROOT / "pyproject.toml").is_file():
        fail(f"no sirsupport source tree under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src)] + inherited)
    import sirsupport

    if Path(sirsupport.__file__).resolve().parent != (src / "sirsupport").resolve():
        fail(f"imported sirsupport from {sirsupport.__file__}, not from {src}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="set the workload up, print 'ready' and exit (used to time setup)")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        fail(f"setup probe exited {code} after printing {line!r}")
    return elapsed


def cli_probes(workloads) -> dict:
    """Import and start-up times of the CLI in fresh interpreters (medians)."""
    imports, scipy_parts, startups = [], [], []
    exe = workloads.write_entry_point(ROOT, OUT / "bin" / str(os.getpid()))
    for _ in range(CLI_PROBES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, cwd=ROOT, timeout=120, check=True)
        total, scipy_part = (float(v) for v in proc.stdout.split())
        imports.append(total)
        scipy_parts.append(scipy_part)
        start = time.perf_counter()
        subprocess.run([str(exe), "--version"], capture_output=True, cwd=ROOT, timeout=120,
                       check=True)
        startups.append(time.perf_counter() - start)
    exe.unlink()
    exe.parent.rmdir()
    return {
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy_parts),
        "cli.startup_s": statistics.median(startups),
    }


def environment(args, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_ops(workload, failures, count=None, seconds=None):
    """Run whole operations until ``count`` are done or ``seconds`` have passed.

    An operation that raises one of ``failures`` is counted as failed.
    """
    records, failed, attempted = [], 0, 0
    start = time.perf_counter()
    while True:
        try:
            records.append(workload.run_op(attempted))
        except failures as exc:
            failed += 1
            print(f"perfbench: operation {attempted} failed: {exc}", file=sys.stderr)
        attempted += 1
        if count is not None and attempted >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, attempted, failed


def measure(workload, args, setup_times, workloads) -> tuple[dict, int, int, dict]:
    records, attempted, failed = run_ops(workload, workloads.FAILURES, seconds=args.seconds)
    if not records:
        fail("every operation failed")
    workload.verify(records)
    ops = [r["op_s"] for r in records]
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, attempted, failed, {"op_s": ops, "setup_s": setup_times}


def trace(workload, args, workloads) -> tuple[dict, int, int, dict]:
    from tracing import Tracer, span_cost

    count = max(1, int(args.seconds * workload.trace_ops_per_s))
    records, attempted, failed = run_ops(workload, workloads.FAILURES, count=count)
    if failed:
        fail(f"{failed} of {attempted} operations failed; the traced replay needs all of them")
    workload.verify(records)
    tracer = Tracer()
    walls = []
    for i, record in enumerate(records):
        tracer.op = i
        try:
            walls.append(workload.traced_op(i, tracer, record))
        except workloads.FAILURES as exc:
            fail(f"traced operation {i} failed: {exc}")
    attempted += len(records)
    values = workloads.common_layer_metrics(tracer)
    values.update(workload.layer_metrics(tracer, records))
    values.update(cli_probes(workloads))
    values["trace.overhead"] = span_cost() * len(tracer.spans) / sum(walls)
    values["trace.wall_ratio"] = sum(walls) / sum(r["op_s"] for r in records)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    return values, attempted, failed, {"operations": count, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    if args.probe_setup:
        workload = cls(args.seed, ROOT)
        print("ready", flush=True)
        workload.close()
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup_times = [] if args.trace else [probe_setup(args.workload, args.seed)
                                         for _ in range(SETUP_PROBES)]
    workload = cls(args.seed, ROOT)
    env = environment(args, workload.workers)
    print(json.dumps({"environment": env}), flush=True)
    try:
        if args.trace:
            values, attempted, failed, detail = trace(workload, args, workloads)
        else:
            values, attempted, failed, detail = measure(workload, args, setup_times, workloads)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        workload.close()

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
