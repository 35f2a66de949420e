"""The benchmark's workloads.

Each workload is built from the run's ``--seed`` alone: the seed fixes a
list of per-operation seeds, and operation i always uses entry i.  The
program receives only the generated inputs (a ``CurveConfig`` or a CLI
argv), never the benchmark's seed.

A workload offers ``run_op(i)`` (one untraced operation and its time),
``verify(records)`` (checks on the untraced outputs), ``traced_op(i,
tracer, record)`` (the same operation in one process with spans around
every layer call, checks inside ``bench.check`` spans) and
``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np

from sirsupport import cli, curves, dataio, sdp
from sirsupport.curves import CurveConfig, run_curve
from sirsupport.errors import SirSupportError
from sirsupport.models import ModelSpec

import checks
from tracing import Tracer, median, patched

MODEL = ModelSpec(link="atan2", noise_sd=1.0)
SEED_LIST_LENGTH = 4096

# The module each public function belongs to, for span names.
LAYER_OF = {
    "generate_beta": "models",
    "sample_sim": "models",
    "slice_data": "sir",
    "sir_matrix": "sir",
    "sir_matrix_whitened": "sir",
    "dt_sir": "dt",
    "default_lambda": "sdp",
    "sdp_solve": "sdp",
    "sdp_sign_recover": "sdp",
    "ingest_csv": "dataio",
    "recover_real": "dataio",
    "emit_dataset_csv": "dataio",
    "emit_recovery_csv": "dataio",
    "write_manifest": "dataio",
}
# Modules whose calls into other layers are traced.
CALLERS = {"curves": curves, "cli": cli, "dataio": dataio}


class OperationFailed(Exception):
    """The program did not complete an operation (an error or a nonzero exit)."""


# what counts as a failed operation rather than a fault of the benchmark
FAILURES = (OperationFailed, SirSupportError)


def op_seeds(seed: int) -> list[int]:
    state = np.random.SeedSequence(int(seed)).generate_state(SEED_LIST_LENGTH, dtype=np.uint32)
    return [int(v) for v in state]


def _span_info(name: str):
    if name == "sample_sim":
        return lambda args, kwargs, data: {"draws": int(data.x.size + data.y.size)}
    if name == "sdp_solve":
        return lambda args, kwargs, sol: {"iterations": sol.iterations, "converged": sol.converged}
    if name == "ingest_csv":
        return lambda args, kwargs, table: {"bytes": os.path.getsize(args[0])}
    if name == "emit_dataset_csv":
        return lambda args, kwargs, path: {"bytes": os.path.getsize(path)}
    return None


def layer_patches(tracer: Tracer, hooks: dict) -> list:
    """Wrappers for every cross-layer call made by curves, cli and dataio.

    ``hooks`` maps a function name to a check run after each call.  Calls
    inside one module (sir_matrix_whitened -> slice_data) are not layer
    boundaries and are not traced, except ``sdp.project_spectraplex``,
    the per-iteration step of the SDP solver.
    """
    targets = []
    for caller, module in CALLERS.items():
        for name, layer in LAYER_OF.items():
            if layer != caller and name in vars(module):
                fn = tracer.wrap(getattr(module, name), f"{layer}.{name}",
                                 info=_span_info(name), check=hooks.get(name))
                targets.append((module, name, fn))
    targets.append((sdp, "project_spectraplex",
                    tracer.wrap(sdp.project_spectraplex, "sdp.project_spectraplex")))
    return targets


def _as_array(v) -> np.ndarray:
    return np.asarray(getattr(v, "v", v), dtype=float)


def sdp_check(beta: np.ndarray):
    def check(args, kwargs, sol):
        if sol.converged:
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            checks.check_sdp_solution(_as_array(args[0]), cfg.lam, sol.z, sol.objective, beta)
    return check


class ReplicateChecks:
    """Checks one replicate's centered matrix and DT-SIR signs against numpy.

    ``slice_data`` hands over the dataset; the next ``sir_matrix`` and
    ``dt_sir`` calls are compared with the recomputation from it.
    """

    def __init__(self):
        self.reference = None

    def hooks(self) -> dict:
        return {"slice_data": self.on_slice, "sir_matrix": self.on_matrix, "dt_sir": self.on_dt}

    def on_slice(self, args, kwargs, sliced):
        data, h = args[0], args[1]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        self.reference = checks.centered_sir(data.x, data.y, h, seed)

    def on_matrix(self, args, kwargs, v):
        checks.require(v.mode == "centered", f"unexpected estimator mode {v.mode!r}")
        checks.check_centered_matrix(v.v, self.reference)

    def on_dt(self, args, kwargs, signed):
        checks.check_dt_signs(signed.signs, self.reference, args[1])


def common_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics that come straight from the spans (0 when idle)."""
    def total(name):
        return sum(tracer.durations(name))

    def ms(name):
        return 1e3 * median(tracer.durations(name))

    sim = tracer.durations("models.sample_sim")
    draws = sum(i["draws"] for i in tracer.infos("models.sample_sim"))
    solves = tracer.durations("sdp.sdp_solve")
    solve_info = tracer.infos("sdp.sdp_solve")
    iterations = [i["iterations"] for i in solve_info]
    converged = sum(1 for i in solve_info if i["converged"])
    ingest = total("dataio.ingest_csv")
    emit = total("dataio.emit_dataset_csv")
    ingest_bytes = sum(i["bytes"] for i in tracer.infos("dataio.ingest_csv"))
    emit_bytes = sum(i["bytes"] for i in tracer.infos("dataio.emit_dataset_csv"))
    return {
        "models.sample_sim.calls": len(sim),
        "models.sample_sim.s": sum(sim),
        "models.sample_sim.ms": ms("models.sample_sim"),
        "models.sample_sim.mdraws_per_s": draws / sum(sim) / 1e6 if sim else 0.0,
        "models.generate_beta.s": total("models.generate_beta"),
        "sir.slice_data.s": total("sir.slice_data"),
        "sir.slice_data.ms": ms("sir.slice_data"),
        "sir.sir_matrix.s": total("sir.sir_matrix"),
        "sir.sir_matrix.ms": ms("sir.sir_matrix"),
        "sir.sir_matrix_whitened.s": total("sir.sir_matrix_whitened"),
        "dt.dt_sir.s": total("dt.dt_sir"),
        "dt.dt_sir.ms": ms("dt.dt_sir"),
        "sdp.sdp_solve.calls": len(solves),
        "sdp.sdp_solve.s": sum(solves),
        "sdp.sdp_solve.ms": 1e3 * median(solves),
        "sdp.sdp_solve.ms_max": 1e3 * max(solves, default=0.0),
        "sdp.iterations": sum(iterations),
        "sdp.iterations_median": median(iterations),
        "sdp.iterations_max": max(iterations, default=0),
        "sdp.ms_per_iteration": 1e3 * sum(solves) / sum(iterations) if iterations else 0.0,
        "sdp.project_spectraplex.ms": ms("sdp.project_spectraplex"),
        "sdp.converged_ratio": converged / len(solves) if solves else 0.0,
        "sdp.sdp_sign_recover.s": total("sdp.sdp_sign_recover"),
        "dataio.ingest_csv.s": ingest,
        "dataio.ingest_csv.mb_per_s": ingest_bytes / ingest / 1e6 if ingest else 0.0,
        "dataio.recover_real.s": tracer.self_time("dataio.recover_real"),
        "dataio.emit_dataset_csv.s": emit,
        "dataio.emit_dataset_csv.mb_per_s": emit_bytes / emit / 1e6 if emit else 0.0,
        "cli.main.self_s": tracer.self_time("cli.main"),
    }


# --- curve workloads ---------------------------------------------------------


class CurveWorkload:
    """One operation is one ``run_curve`` call with its own master seed."""

    name = ""
    method = ""
    grid: tuple[float, ...] = ()
    reps = 0
    p, s = 100, 10
    # operations per second of --seconds in a traced run, which runs a fixed
    # count so that its counts repeat exactly for a seed
    trace_ops_per_s = 0.25

    def __init__(self, seed: int, root: Path):
        self.seeds = op_seeds(seed)
        self.workers = self.worker_count()
        self.beta = checks.fixed_beta(self.p, self.s)
        # warm-up on a fixed input: one replicate per point
        run_curve(self.config(0, reps=1), workers=self.workers)

    def worker_count(self) -> int:
        return 1

    def close(self) -> None:
        pass

    def config(self, master_seed: int, reps: int | None = None) -> CurveConfig:
        return CurveConfig(model=MODEL, p=self.p, sparsity=self.s, gamma_grid=self.grid,
                           method=self.method, beta_scheme="fixed", h=10,
                           reps=self.reps if reps is None else reps,
                           master_seed=master_seed, estimator_mode="centered")

    def run_op(self, i: int) -> dict:
        cfg = self.config(self.seeds[i])
        start = time.perf_counter()
        curve = run_curve(cfg, workers=self.workers)
        return {"op_s": time.perf_counter() - start, "curve": curve}

    def trace_hooks(self) -> dict:
        return {}

    def traced_op(self, i: int, tracer: Tracer, record: dict) -> float:
        targets = layer_patches(tracer, self.trace_hooks())
        with patched(targets), tracer.span("curves.run_curve") as span:
            curve = run_curve(self.config(self.seeds[i]), workers=1)
        checks.require(
            checks.point_successes(curve) == checks.point_successes(record["curve"]),
            f"operation {i}: per-point successes {checks.point_successes(curve)} with one "
            f"process differ from {checks.point_successes(record['curve'])} "
            f"with {self.workers} workers",
        )
        return span[3] - span[2]

    def layer_metrics(self, tracer: Tracer, records: list[dict]) -> dict:
        busy = sum(tracer.durations("curves.run_curve")) - tracer.check_time("curves.run_curve")
        untraced = sum(r["op_s"] for r in records)
        walls = [w for r in records for w in r["curve"].wall_times]
        return {
            "curves.point_s": median(walls),
            "curves.self_s": tracer.self_time("curves.run_curve"),
            "curves.parallel_efficiency": busy / (self.workers * untraced),
        }


class DtsirGrid(CurveWorkload):
    """DT-SIR over a grid spanning the transition, two worker processes."""

    name = "dtsir-grid"
    method = "dt_sir"
    grid = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 22.0, 30.0)
    reps = 100

    def worker_count(self) -> int:
        # no more workers than cores, so the load is one process per core
        return min(2, len(os.sched_getaffinity(0)))

    def verify(self, records: list[dict]) -> None:
        curves_run = [r["curve"] for r in records]
        checks.check_rate_at_most(curves_run, 2.0, 0.10)
        checks.check_rate_at_least(curves_run, 30.0, 0.90)
        # run_curve promises results independent of the worker count
        single = run_curve(self.config(self.seeds[0]), workers=1)
        checks.require(
            checks.point_successes(single) == checks.point_successes(curves_run[0]),
            "per-point successes with one process differ from the pooled run",
        )

    def trace_hooks(self) -> dict:
        return ReplicateChecks().hooks()


class SdpCurve(CurveWorkload):
    """The penalized SDP at gamma = 40, one process."""

    name = "sdp-curve"
    method = "sdp"
    grid = (40.0,)
    reps = 10
    # few operations: a rare solve runs to max_iter (about 30 s) in both passes
    trace_ops_per_s = 0.2

    def run_op(self, i: int) -> dict:
        # record each solve's input and output, and check them once the
        # operation's time is taken; the recorder adds one list append per solve
        real, solves = curves.sdp_solve, []

        def recording(a, cfg):
            sol = real(a, cfg)
            solves.append((a, cfg, sol))
            return sol

        with patched([(curves, "sdp_solve", recording)]):
            record = super().run_op(i)
        check = sdp_check(self.beta)
        for a, cfg, sol in solves:
            check((a, cfg), {}, sol)
        return record

    def verify(self, records: list[dict]) -> None:
        checks.check_rate_at_least([r["curve"] for r in records], 40.0, 0.80)

    def trace_hooks(self) -> dict:
        return {"sdp_solve": sdp_check(self.beta)}


# --- the CLI round trip ------------------------------------------------------


def write_entry_point(root: Path, bin_dir: Path) -> Path:
    """The console script pip would install from ``[project.scripts]``."""
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sirsupport"]
    module, func = target.split(":")
    bin_dir.mkdir(parents=True, exist_ok=True)
    script = bin_dir / "sirsupport"
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\n"
        f"if __name__ == '__main__':\n    sys.exit({func}())\n"
    )
    script.chmod(0o755)
    return script


class CliRoundtrip:
    """simulate, then recover --method dt and --method sdp, as subprocesses."""

    name = "cli-roundtrip"
    p, s, n, h = 100, 5, 5000, 10
    workers = 1
    trace_ops_per_s = 0.15

    def __init__(self, seed: int, root: Path):
        self.seeds = op_seeds(seed)
        self.root = root
        self.work = root / ".perfbench-runs" / "cli" / str(os.getpid())
        self.exe = write_entry_point(root, self.work / "bin")
        self.beta = checks.fixed_beta(self.p, self.s)
        self.expected_signs = np.sign(self.beta).astype(int)
        proc = self._run(["--version"])
        checks.require(proc.returncode == 0 and proc.stdout.startswith("sirsupport "),
                       f"sirsupport --version printed {proc.stdout!r}")

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([str(self.exe)] + argv, capture_output=True, text=True,
                              cwd=self.root, timeout=170)

    def commands(self, i: int, out: Path) -> list[tuple[str, list[str]]]:
        seed = str(self.seeds[i])
        data = str(out / "sim" / "dataset.csv")
        common = ["--s", str(self.s), "--seed", seed]
        return [
            ("simulate_s", ["simulate", "--p", str(self.p), "--n", str(self.n), "--model", "atan2",
                            "--noise-sd", "1", "--beta-scheme", "fixed",
                            "--out", str(out / "sim")] + common),
            ("recover_dt_s", ["recover", "--data", data, "--H", str(self.h), "--method", "dt",
                              "--out", str(out / "dt")] + common),
            ("recover_sdp_s", ["recover", "--data", data, "--H", str(self.h), "--method", "sdp",
                               "--out", str(out / "sdp")] + common),
        ]

    def run_op(self, i: int) -> dict:
        out = self.work / f"op{i}"
        shutil.rmtree(out, ignore_errors=True)
        record = {}
        for stage, argv in self.commands(i, out):
            start = time.perf_counter()
            proc = self._run(argv)
            record[stage] = time.perf_counter() - start
            if proc.returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                raise OperationFailed(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        record["op_s"] = record["simulate_s"] + record["recover_dt_s"] + record["recover_sdp_s"]
        self.verify_outputs(i, out)
        return record

    def verify_outputs(self, i: int, out: Path) -> None:
        seed = self.seeds[i]
        x, y = checks.check_dataset_csv(out / "sim" / "dataset.csv", self.n, self.p, self.beta)
        dt_scores = checks.whitened_diagonal(x, y, self.h)
        checks.check_recovery_csv(out / "dt" / "recovery.csv", self.p, self.s,
                                  self.expected_signs, dt_scores)
        checks.check_recovery_csv(out / "sdp" / "recovery.csv", self.p, self.s,
                                  self.expected_signs)
        checks.check_manifest(out / "sim" / "manifest.json", "simulate", seed)
        checks.check_manifest(out / "dt" / "manifest.json", "recover", seed)
        checks.check_manifest(out / "sdp" / "manifest.json", "recover", seed)
        shutil.rmtree(out)

    def verify(self, records: list[dict]) -> None:
        """Every operation was checked as it finished."""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def traced_op(self, i: int, tracer: Tracer, record: dict) -> float:
        out = self.work / f"op{i}"
        shutil.rmtree(out, ignore_errors=True)
        targets = layer_patches(tracer, {"sdp_solve": sdp_check(self.beta)})
        main = tracer.wrap(cli.main, "cli.main")
        start = time.perf_counter()
        with patched(targets), contextlib.redirect_stdout(io.StringIO()):
            for stage, argv in self.commands(i, out):
                code = main(argv)
                if code != 0:
                    raise OperationFailed(f"{argv[0]} returned {code} in process")
        wall = time.perf_counter() - start
        with tracer.span("bench.check"):
            self.verify_outputs(i, out)
        return wall

    def layer_metrics(self, tracer: Tracer, records: list[dict]) -> dict:
        return {
            "cli.simulate_s": median(r["simulate_s"] for r in records),
            "cli.recover_dt_s": median(r["recover_dt_s"] for r in records),
            "cli.recover_sdp_s": median(r["recover_sdp_s"] for r in records),
        }


WORKLOADS = {w.name: w for w in (DtsirGrid, SdpCurve, CliRoundtrip)}
