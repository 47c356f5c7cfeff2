"""One workload process: import spinlev, warm up, run the timed phase.

Prints `ready` once the warm-up request has been checked; the parent times
set-up from its spawn to that line. Then it prints `speed <factor>`, the
workload's speed factor (speed.py) measured right after. With `--setup-only`
it exits there.
Otherwise it runs passes of requests until `--seconds` is spent, checks each
output after its pass, and prints one JSON line with the samples. With
`--trace 1` it runs `trace_passes` passes untraced, then the same passes
with every layer call wrapped, and reports the per-layer totals.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_spinlev():
    sys.path.insert(0, SRC)
    import spinlev
    import spinlev.cli  # noqa: F401  (not imported by the package __init__)

    if os.path.dirname(os.path.dirname(os.path.abspath(spinlev.__file__))) != SRC:
        raise SystemExit(f"spinlev imported from {spinlev.__file__}, not from {SRC}")
    return spinlev


class Phase:
    """Requests, latencies and pass wall times of one timed phase."""

    def __init__(self):
        self.latencies = []
        self.pass_walls = []
        self.pass_sizes = []
        self.speed_factors = []  # per pass: the smoothed speed factor (speed.py)
        self.rows = 0
        self.attempted = 0
        self.failures = []

    def run_pass(self, wl, k, tracer=None):
        reqs = wl.make_pass(k)
        results = []
        if tracer is not None:
            tracer.active = True
        t_pass = perf_counter()
        for req in reqs:
            if tracer is None:
                t0 = perf_counter()
                res = _execute(wl, req)
                t1 = perf_counter()
            else:
                with tracer.request(req["rid"], f"request.{wl.name}"):
                    t0 = perf_counter()
                    res = _execute(wl, req)
                    t1 = perf_counter()
            self.latencies.append(t1 - t0)
            results.append(res)
        self.pass_walls.append(perf_counter() - t_pass)
        self.pass_sizes.append(len(reqs))
        if tracer is not None:
            tracer.active = False
        rng = random.Random(f"check:{wl.seed}:{k}")
        for req, res in zip(reqs, results):
            self.attempted += 1
            try:
                if isinstance(res, Raised):
                    raise res.exc
                self.rows += wl.check(req, res, rng)
            except Exception as exc:  # the request raised, or its output check failed
                self.failures.append(f"{req['rid']}: {type(exc).__name__}: {exc}")


class Raised:
    """Result of a request that raised instead of returning."""

    def __init__(self, exc):
        self.exc = exc


def _execute(wl, req):
    try:
        return wl.execute(req)
    except Exception as exc:  # counted as a failed request, not a crash of the run
        return Raised(exc)


def _timed(wl, seconds, smoke, first_factor):
    """Passes until `seconds` are spent. The speed kernel runs before the
    first pass and after each one; a pass is scaled by the median factor of
    the six pass boundaries nearest it, which follows the machine's drift
    but not the kernel's own pass-to-pass jitter."""
    phase = Phase()
    boundaries = [first_factor]
    start = perf_counter()
    hard_cap = 3 * seconds
    k = 0
    while True:
        phase.run_pass(wl, k)
        boundaries.append(speed.factor(wl.kernel))
        k += 1
        if smoke:
            break
        elapsed = perf_counter() - start
        enough = len(phase.latencies) >= wl.min_requests or elapsed >= hard_cap
        if enough and elapsed + statistics.median(phase.pass_walls) > seconds:
            break
    phase.speed_factors = [statistics.median(boundaries[max(0, i - 2):i + 4]) for i in range(k)]
    return phase


def _traced(spinlev, wl, out_dir, smoke):
    from tracer import Tracer

    passes = 1 if smoke else wl.trace_passes
    plain = Phase()
    for k in range(passes):
        plain.run_pass(wl, k)
    props = json.loads(json.dumps(wl.properties()))
    tracer = Tracer()
    tracer.install(spinlev)
    traced = Phase()
    try:
        for k in range(passes):
            traced.run_pass(wl, k, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.write_spans(os.path.join(out_dir, f"spans-{wl.name}-{wl.seed}.json"))
    layers = per_layer(tracer, traced.rows, sum(traced.pass_walls) - sum(plain.pass_walls))
    return plain, traced, props, layers


PER_LAYER_CALLS = (
    "oracle.thermal_trajectories", "witness.thermal_wb", "witness.thermal_wen",
    "oracle.evolve", "dynamics.segment_step", "sensing.force_sensitivity",
    "pulses.spectral_response", "pulses.residual_displacement", "pulses.kernel_l2",
    "pulses.segments", "pulses.make_sequence", "witness.bath_witness", "units.to_natural",
    "cli.main",
)
PER_LAYER_SELF = (
    "oracle.thermal_trajectories", "oracle.witness_moments", "witness.max_nbar_for_violation",
    "oracle.evolve", "oracle.branch_fidelity", "dynamics.evolve_state", "dynamics.trajectory",
    "sensing.force_sensitivity", "witness.violation_scan",
)


def per_layer(tracer, rows, overhead_s):
    from tracer import LAYERS
    from workloads import CHECK_NAMES

    m = {}
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in PER_LAYER_SELF:
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    # cli.main together with the cli functions it calls: parse, config, format, write
    m["cli.main.self_s"] = (tracer.entry_self_s("cli.main"), "s")
    m["cli.main.errors"] = (tracer.errors("cli.main"), "count")
    m["cli.rows"] = (rows, "count")
    m["oracle.evolve.segments"] = (tracer.evolve_segments, "count")
    m["oracle.evolve.forced_s"] = (tracer.evolve_forced_s, "s")
    for check in CHECK_NAMES:
        m[f"verify.{check}.s"] = (tracer.check_s.get(check, 0.0), "s")
    m["trace_overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    spinlev = _import_spinlev()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=args.out_dir)
    try:
        wl = WORKLOADS[args.workload](spinlev, args.seed, workdir, smoke=args.smoke)
        rng = random.Random(f"warmup:{args.seed}")
        for req in wl.warmup():
            wl.check(req, wl.execute(req), rng)
        print("ready", flush=True)
        speed_factor = speed.factor(wl.kernel)
        print(f"speed {speed_factor!r}", flush=True)
        if args.setup_only:
            return 0
        out = {}
        if args.trace:
            plain, traced, props, layers = _traced(spinlev, wl, args.out_dir, args.smoke)
            phases = (plain, traced)
            out["per_layer"] = layers
        else:
            phases = (_timed(wl, args.seconds, args.smoke, speed_factor),)
            props = wl.properties()
        main_phase = phases[0]
        out.update({
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(len(p.failures) for p in phases),
            "failures": [f for p in phases for f in p.failures][:20],
            "latencies_s": main_phase.latencies,
            "pass_walls_s": main_phase.pass_walls,
            "pass_sizes": main_phase.pass_sizes,
            "speed_factors": main_phase.speed_factors,
            "rows": main_phase.rows,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "properties": props,
        })
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
