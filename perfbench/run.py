"""spinlev benchmark: seeded `scan`, `verify` and `fock` workloads.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny, checks on

Each run starts fresh worker processes (worker.py) that import spinlev from
src/ in this checkout. Set-up time is measured from a worker's spawn to the
end of its checked warm-up request. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a separate traced run. A run record (environment,
seeds, counts, workload properties, bounds) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("scan", "verify", "fock")
SETUP_SAMPLES = {"scan": 5, "fock": 5, "verify": 1}  # verify's warm-up is a full 15 s request
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def _spawn(args):
    """Start a worker; return (process, seconds from spawn to its `ready` line,
    the speed factor it measured right after)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--out-dir", OUT]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RunError(f"worker did not get ready: {line.strip()[:200]!r}")
        tag, factor = proc.stdout.readline().split()
        return proc, setup, float(factor)
    except BaseException:
        _stop(proc)
        raise


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run time limit")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise RunError("worker printed no result") from None


def run_workload(workload, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_SAMPLES[workload] - 1):
            proc, setup, factor = _spawn(base + ["--setup-only"])
            setups.append((setup, factor))
            _finish_setup(proc, deadline)
    flags = ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc, setup, factor = _spawn(base + flags)
    setups.append((setup, factor))
    res = _finish(proc, deadline)
    res["setup_samples_s"] = [s for s, _ in setups]
    res["setup_speed_factors"] = [f for _, f in setups]
    return res


def _finish_setup(proc, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunError(f"set-up worker exited with {proc.returncode}")


def p95(samples):
    """Nearest-rank 95th percentile and the number of samples above it."""
    s = sorted(samples)
    rank = math.ceil(0.95 * len(s))
    return s[rank - 1], len(s) - rank


def end_to_end(res, at_reference_speed=True):
    """The end-to-end metrics; times in seconds at the reference speed (see
    speed.py), or as measured with at_reference_speed=False."""
    setup_f = res["setup_speed_factors"]
    pass_f = res["speed_factors"]
    if not at_reference_speed:
        setup_f = [1.0] * len(setup_f)
        pass_f = [1.0] * len(pass_f)
    lat_f = [f for f, n in zip(pass_f, res["pass_sizes"]) for _ in range(n)]
    lat_ms = [x * f * 1e3 for x, f in zip(res["latencies_s"], lat_f)]
    walls = [w * f for w, f in zip(res["pass_walls_s"], pass_f)]
    q95, above = p95(lat_ms)
    m = {
        "setup_s": (statistics.median(s * f for s, f in zip(res["setup_samples_s"], setup_f)), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "req_p50_ms": (statistics.median(lat_ms), "ms"),
        "req_p95_ms": (q95, "ms"),
        "rows_per_s": (res["rows"] / sum(walls), "rows/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, above


def environment():
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        env["blas"] = None
    return env


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "spinlev")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def record(workload, seed, seconds, trace, res, metrics, above):
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(),
        "bounds": _bounds(),
        "requests": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "rows": res["rows"], "passes": len(res["pass_walls_s"]),
        "samples": len(res["latencies_s"]), "samples_above_p95": above,
        "setup_samples_s": res["setup_samples_s"],
        "setup_speed_factors": res["setup_speed_factors"],
        "pass_speed_factors": res["speed_factors"],
        "metrics_as_measured": end_to_end(res, at_reference_speed=False)[0] if not trace else None,
        "properties": res["properties"],
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at a tiny size")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinlev", "__init__.py")):
        print(f"error: no spinlev sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required unless --smoke is given")
    os.makedirs(OUT, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    result = None
    for wl in workloads:
        try:
            res = run_workload(wl, args.seed, args.seconds, args.trace, args.smoke)
        except (RunError, ValueError) as exc:
            print(f"error: {wl}: {exc}", file=sys.stderr)
            return 1
        metrics, above = (res["per_layer"], None) if args.trace else end_to_end(res)
        path = record(wl, args.seed, args.seconds, args.trace, res, metrics, above)
        for f in res["failures"]:
            print(f"{wl}: failed: {f}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{wl}  {name:44s} {m['value']:>16.6g} {m['unit']}")
        print(f"{wl}  requests {res['attempted']}, failed {res['failed']}, rows {res['rows']}, "
              f"samples above p95 {above}; record {os.path.relpath(path, ROOT)}")
        ok = ok and res["failed"] == 0
        result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
                  "failed": res["failed"], "metrics": metrics}
    if len(workloads) == 1:
        print(json.dumps(result))
    return 1 if args.smoke and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
