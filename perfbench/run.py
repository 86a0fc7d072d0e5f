"""gssamp benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload {presets,pyramid,resample,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload runs in one process with one
caller: the next job starts when the previous one ends. Jobs come from
``--seed``; ``workloads.py`` says why each workload exists. Output checks run
between jobs with the clock stopped, and a job that raises or fails its check
counts as failed while the run goes on.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` first runs the
same untraced window, then a traced one, and reports per-layer metrics (per
job) plus ``trace_overhead_frac``. ``--workload all`` runs every workload in
its own child process, one after another.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give each metric with its
unit and sample count, and the environment record. Full results (and the
spans of a traced run) go to ``.perfbench_out/`` under the root.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("presets", "pyramid", "resample")
SETUP_REPEATS = 3
# A window ends at a cycle boundary once its busy time reaches --seconds or
# its wall time (which includes checks) reaches this multiple of it.
WALL_LIMIT_FACTOR = 3.0
P90_MIN_JOBS = 100
# End-to-end metrics in the final JSON line (BENCHMARK.json gates these).
# jobs_per_s, job_p50_ms, job_p90_ms and failed_frac are printed but not
# gated; the README says why.
GATED = ("setup_s", "job_best_ms", "peak_rss_mb")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)
BLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_", "scipy_openblas_get_config",
    "openblas_get_config64_", "openblas_get_config",
)


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def configure_blas() -> tuple[int, int]:
    """Pin BLAS threads before numpy loads; refuse more threads than nproc.

    The default is one thread: on a shared 2-core machine two OpenBLAS
    threads made a pyramid job about 1.7x slower and twice as noisy. The
    reference outputs exist per thread count (1 and 2), because eigenvectors
    of repeated eigenvalues, and results that depend on them, change with it.
    """
    nproc = len(os.sched_getaffinity(0))
    requested = [(var, os.environ[var]) for var in BLAS_ENV if os.environ.get(var)]
    for var, value in requested:
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            raise BenchError(f"{var}={value}: BLAS threads must be 1 to nproc={nproc}")
    threads = int(requested[0][1]) if requested else 1
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return nproc, threads


def import_library():
    """Import gssamp from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import networkx  # noqa: F401  (paid on first use inside gssamp)
        import gssamp
    except ImportError as exc:
        raise BenchError(f"cannot import gssamp from {src}: {exc}") from exc
    if Path(gssamp.__file__).resolve().parent != src / "gssamp":
        raise BenchError(f"gssamp imported from {gssamp.__file__}, not from {src}")


def blas_libraries(nproc: int) -> list[dict]:
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            threads = next((getattr(lib, s)() for s in BLAS_THREAD_SYMBOLS if hasattr(lib, s)), None)
            config = None
            for sym in BLAS_CONFIG_SYMBOLS:
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_char_p
                    config = fn().decode()
                    break
            if threads is not None and threads > nproc:
                raise BenchError(f"{path.name} runs {threads} BLAS threads, nproc={nproc}")
            found.append({"package": pkg.__name__, "library": path.name,
                          "threads": threads, "config": config})
    return found


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, nproc: int, threads: int) -> dict:
    import hashlib
    import platform

    import networkx
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gssamp").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_libraries": blas_libraries(nproc),
        "nproc": nproc,
        "machine": platform.machine(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def run_window(wl, seconds: float, tracer=None) -> dict:
    """Run whole cycles of jobs until the busy time reaches ``seconds``."""
    latencies, failures, first_errors, by_job = [], Counter(), {}, {}
    attempted = busy = files = nbytes = cycles = 0
    wall0 = time.perf_counter()
    j = 0
    while True:
        cycle_busy = 0.0
        for _ in range(wl.cycle):
            attempted += 1
            if tracer is not None:
                tracer.job, tracer.active = j, True
            failure = None
            t0 = time.perf_counter()
            try:
                out = wl.job(j)
            except Exception:  # a failed job is counted and the run goes on
                failure = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            cycle_busy += dt
            if failure is None:
                try:
                    wl.check(j, out)
                except Exception:
                    failure = traceback.format_exc()
                if tracer is not None:
                    f, b = wl.written(out)
                    files, nbytes = files + f, nbytes + b
            if failure is None:
                latencies.append(dt)
                by_job.setdefault(wl.job_key(j), []).append(dt)
            else:
                kind = failure.strip().splitlines()[-1].split(":")[0]
                failures[kind] += 1
                if kind not in first_errors:
                    first_errors[kind] = failure
                    print(f"job {j} failed:\n{failure}", file=sys.stderr)
            j += 1
        busy += cycle_busy
        cycles += 1
        if busy + cycle_busy > seconds or time.perf_counter() - wall0 > WALL_LIMIT_FACTOR * seconds:
            break
    return {
        "attempted": attempted, "failed": sum(failures.values()), "busy_s": busy,
        "cycles": cycles, "jobs_per_s": len(latencies) / busy,
        "wall_s": time.perf_counter() - wall0, "latencies": latencies,
        "failures": dict(failures), "first_errors": first_errors,
        "files_written": files, "bytes_written": nbytes,
        "median_latency_by_job": {k: statistics.median(v) for k, v in by_job.items()},
        "min_latency_by_job": {k: min(v) for k, v in by_job.items()},
    }


def end_to_end(window: dict, setup_s: float) -> dict:
    """``{name: (value, unit, samples)}``; job_p90_ms only with enough jobs."""
    lat = window["latencies"]
    n = len(lat)
    best = window["min_latency_by_job"]
    out = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} setups + imports"),
        "jobs_per_s": (window["jobs_per_s"], "1/s",
                       f"{n} jobs ({window['cycles']} cycles) in {window['busy_s']:.2f} s"),
        "job_best_ms": (statistics.fmean(best.values()) * 1e3 if best else 0.0, "ms",
                        f"fastest of {n} jobs per job kind, mean over {len(best)} kinds"),
        "job_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms", f"{n} jobs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "1 process"),
        "failed_frac": (window["failed"] / window["attempted"], "frac",
                        f"{window['failed']}/{window['attempted']} jobs"),
    }
    if n >= P90_MIN_JOBS:
        out["job_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms", f"{n} jobs")
    return out


def print_table(workload: str, metrics: dict) -> None:
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload:<9} {name:<44} {value:>14.6g} {unit:<10} {samples}")


def run_workload(args) -> int:
    nproc, threads = configure_blas()
    import_library()
    import_s = time.perf_counter() - T_START

    import tracing
    from workloads import WORKLOADS

    env = environment(args.seed, nproc, threads)
    print("env " + json.dumps(env, sort_keys=True))
    recorded = json.loads((HERE / "reference.json").read_text())["by_blas_threads"]
    if str(threads) not in recorded:
        raise BenchError(f"no reference outputs recorded for {threads} BLAS threads; "
                         f"set OPENBLAS_NUM_THREADS to one of {sorted(recorded)}")

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir, recorded[str(threads)])
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracing.assert_clean()
        plain = run_window(wl, args.seconds)
        tracing.assert_clean()
        windows = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_window(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            tracing.assert_clean()
            windows.append(traced)
            tracer.write_spans(OUT / f"spans-{tag}.jsonl")
        final_errors = wl.final_check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for msg in final_errors:
        print(f"reference check failed: {msg}", file=sys.stderr)

    e2e = end_to_end(plain, setup_s)
    print_table(args.workload, e2e)
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    if args.trace:
        jobs = traced["attempted"]
        layers = tracer.layer_metrics(jobs, traced["busy_s"])
        layers["cli.bytes_written"] = (traced["bytes_written"] / jobs, "bytes/job")
        layers["cli.files_written"] = (traced["files_written"] / jobs, "files/job")
        layers = {name: (value, unit, f"{jobs} traced jobs") for name, (value, unit) in layers.items()}
        jps_plain, jps_traced = plain["jobs_per_s"], traced["jobs_per_s"]
        layers["trace_overhead_frac"] = (
            1.0 - jps_traced / jps_plain if jps_plain else 0.0, "frac",
            f"traced {jps_traced:.6g} vs untraced {jps_plain:.6g} jobs/s")
        print_table(args.workload, layers)
        reported = layers
    else:
        reported = {k: e2e[k] for k in GATED}

    correct = failed == 0 and not final_errors
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_runs_s": setups, "import_s": import_s,
        "end_to_end": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in e2e.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
                      if args.trace else None),
        "windows": windows,
        "reference_errors": final_errors, "correct": correct,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
