"""Tests of the benchmark itself: smoke runs with the output checks on, the
result-line format, the tracer's patching, and failure without sources."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_runs_every_workload_with_checks():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    for wl in ("scan", "verify", "fock"):
        assert f"{wl}  requests" in proc.stdout
    assert "failed:" not in proc.stderr


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_exactly_the_declared_metrics(trace, key):
    proc = _run("--smoke", "--workload", "verify", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        checks = [k for k in declared if k.startswith("verify.") and k.endswith(".s")]
        assert len(checks) == 14
        ran = [k for k in checks if result["metrics"][k]["value"] > 0]
        assert len(ran) == 10  # smoke mode leaves the four slow checks out


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), dest)
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_counts_reexports_and_checks():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spinlev
    import spinlev.cli
    from spinlev import sensing, units, verify

    originals = (units.to_natural, verify.ALL_CHECKS)
    tracer = Tracer()
    tracer.install(spinlev)
    try:
        assert sensing.to_natural is units.to_natural is spinlev.to_natural
        assert spinlev.cli.to_natural is units.to_natural
        assert units.to_natural is not originals[0]
        assert all(hasattr(fn, "__wrapped__") for fn in verify.ALL_CHECKS)
        tracer.active = True
        with tracer.request("r0", "request.test"):
            verify.ALL_CHECKS[10](0)  # check_si_anchors calls to_natural once
            spinlev.pulses.residual_displacement(spinlev.pulses.hahn_echo(1.0), 1.0, 1.0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert units.to_natural is originals[0] and verify.ALL_CHECKS is originals[1]
    assert tracer.calls("units.to_natural") == 1
    assert tracer.check_s["si_anchors"] > 0
    assert tracer.calls("pulses.residual_displacement") == 1
    assert tracer.self_s("pulses.residual_displacement") > 0
    names = {s[1] for s in tracer.spans}
    assert {"request.test", "verify.check_si_anchors", "units.to_natural"} <= names
    assert all(s[5] == "r0" for s in tracer.spans)
