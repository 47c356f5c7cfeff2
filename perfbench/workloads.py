"""Seeded request generators, request execution and output checks.

Each workload produces its requests in passes. Pass k is a pure function of
(seed, k), so a run can replay the same passes untraced and traced. A
request is one call into the program; its output is checked afterwards,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

import speed

SEQUENCES = ("ramsey", "hahn_echo", "carr_purcell2")
RTOL = 1e-9  # relative tolerance of every recomputed output value
FIDELITY_BOUND = 1 - 1e-8  # the oracle-agreement bound of tests/test_oracle.py
ROWS_CHECKED = 6  # rows recomputed per scan request

# Checks that fail at every seed on this code (acceptance criteria 07a and 08),
# and the two Monte Carlo checks whose 3-sigma test may miss at other seeds.
KNOWN_FAILING = frozenset({"witness_truncation_band", "sensitivity_min_band"})
MONTE_CARLO = frozenset({"witness_oracle_agreement", "bath_monte_carlo"})
CHECK_NAMES = (
    "oracle_branch_fidelity", "squeezing_closed_forms", "backaction_zeros",
    "witness_identity", "witness_oracle_agreement", "bath_monte_carlo",
    "witness_truncation_band", "witness_max_nbar_g_independence",
    "sensitivity_shape", "sensitivity_min_band", "si_anchors", "sql_structure",
    "squeezing_oracle", "mc_determinism",
)
# Checks that each take over 0.3 s, by function and by reported name; smoke
# mode leaves them out of `verify`.
SLOW_CHECKS = frozenset({"check_bath_monte_carlo", "check_witness_max_nbar",
                         "check_mc_determinism", "check_witness_oracle"})
SLOW_CHECK_NAMES = frozenset({"bath_monte_carlo", "witness_max_nbar_g_independence",
                              "mc_determinism", "witness_oracle_agreement"})


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, scale=0.0):
    """a == b to RTOL relative to max(|a|, |b|, scale); NaN matches NaN."""
    if math.isnan(a) and math.isnan(b):
        return True
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def _strata(rng, lo, hi, n, log=False):
    """n draws, one from each of n equal sub-intervals of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    vals = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# scan: closed-form CLI traffic


class Scan:
    """A seeded mix of sensitivity, witness, trajectory and table requests."""

    name = "scan"
    min_requests = 200  # p95 then leaves at least ten samples above it
    trace_passes = 8
    kernel = staticmethod(speed.python_kernel)

    def __init__(self, spinlev, seed, workdir, smoke=False):
        self.sl = spinlev
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.props = {"requests": {}, "rows": {}, "invalid": 0, "total": 0}

    # sizes: (sensitivity nu range, witness grid range, trajectory samples)
    def _sizes(self):
        if self.smoke:
            return (10, 30), (40, 120), (20, 40)
        return (100, 400), (500, 4000), (150, 250)

    def warmup(self):
        rng = random.Random(f"scan-warmup:{self.seed}")
        reqs = [self._sensitivity(rng, "w0", 20, "csv"),
                self._witness(rng, "w1", ("pulseless", "t"), False, 100, "json"),
                self._trajectory(rng, "w2", 20, "csv"),
                self._table(rng, "w3", "json")]
        return reqs

    def make_pass(self, k):
        rng = random.Random(f"scan:{self.seed}:{k}")
        (n_lo, n_hi), (g_lo, g_hi), (t_lo, t_hi) = self._sizes()
        # Sizes are stratified within each pass, so every pass costs about
        # the same and the seed moves parameters rather than the load.
        reqs = []
        fmts = _shuffled(rng, ["csv", "csv", "json", "json"])
        for i, n in enumerate(_strata(rng, n_lo, n_hi, 4)):
            reqs.append(self._sensitivity(rng, f"{k}.s{i}", int(n), fmts[i]))
        sweeps = (("pulseless", "t"), ("pulsed", "t"), ("pulseless", "nbar"))
        for q in (False, True):
            fmts = _shuffled(rng, ["csv", "json", rng.choice(["csv", "json"])])
            for i, (sweep, n) in enumerate(zip(sweeps, _strata(rng, g_lo, g_hi, 3))):
                reqs.append(self._witness(rng, f"{k}.w{i}{'q' if q else ''}", sweep, q, int(n),
                                          fmts[i]))
        fmts = _shuffled(rng, ["csv", "json"])
        for i, n in enumerate(_strata(rng, t_lo, t_hi, 2)):
            reqs.append(self._trajectory(rng, f"{k}.t{i}", int(n), fmts[i]))
        reqs.append(self._table(rng, f"{k}.b", rng.choice(["csv", "json"])))
        reqs.append(self._invalid(rng, f"{k}.x"))
        rng.shuffle(reqs)
        for r in reqs:
            self.props["total"] += 1
            if r["expect_rc"] == 2:
                self.props["invalid"] += 1
            key = f"{r['sub']}.{r['fmt']}" if r["expect_rc"] == 0 else f"invalid.{r['why']}"
            self.props["requests"][key] = self.props["requests"].get(key, 0) + 1
        return reqs

    def _request(self, rid, sub, cfg, fmt, expect_rc=0, **extra):
        path = os.path.join(self.workdir, f"{rid}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(self.workdir, f"{rid}.out.{fmt}")
        argv = [sub, "--config", path, "--out", out, "--format", fmt]
        return {"rid": rid, "sub": sub, "cfg": cfg, "fmt": fmt, "out": out, "argv": argv,
                "expect_rc": expect_rc, **extra}

    def _sensitivity(self, rng, rid, n_points, fmt):
        cfg = {
            "mass_kg": 1.5e-14, "freq_hz": 100.0, "gradient_t_per_m": 1.0,
            "nbar": rng.choice([1e5, 1e6, 1e7]), "q_factor": 1e6,
            "cooling_rate_hz": 1e3, "cooling_time_s": 1e-4,
            "tau_s": _strata(rng, 3e-5, 3e-4, 1, log=True)[0],
            "sequences": _shuffled(rng, SEQUENCES),
            "nu_min_hz": rng.choice([1.0, 10.0]),
            "nu_max_hz": rng.choice([3e4, 1e5]),
            "n_points": n_points,
        }
        return self._request(rid, "sensitivity", cfg, fmt)

    def _witness(self, rng, rid, mode_sweep, with_q, n, fmt):
        mode, sweep = mode_sweep
        freq = 100.0
        omega = 2 * math.pi * freq
        cfg = {"mode": mode, "sweep": sweep, "freq_hz": freq,
               "nbar": round(rng.uniform(0.0, 3.0), 3)}
        if mode == "pulsed":
            r = rng.uniform(0.3, 2.0)
            cfg["g_over_omega"] = r
            tau_max = math.sqrt(16.0 / (r * omega * omega))  # effective lam up to 4
            cfg["grid"] = {"min": tau_max / 200, "max": tau_max, "n": n}
        elif sweep == "t":
            cfg["lam"] = rng.uniform(0.2, 1.5)
            cfg["grid"] = {"min": 1e-4, "max": rng.uniform(1.0, 10.0) / freq, "n": n}
        else:
            cfg["lam"] = rng.uniform(0.2, 1.5)
            cfg["grid"] = {"min": 0.0, "max": rng.uniform(2.0, 10.0), "n": n}
        if rng.random() < 0.5:
            cfg["larmor_hz"] = rng.uniform(0.0, 20.0)
        if with_q:
            cfg["nbar_over_q"] = _strata(rng, 1e-4, 1e-2, 1, log=True)[0]
            cfg["initial"] = rng.choice(["ground", "thermal"])
        return self._request(rid, "witness", cfg, fmt)

    def _trajectory(self, rng, rid, n_samples, fmt):
        cfg = {"freq_hz": 100.0, "g_over_omega": rng.uniform(0.2, 2.0),
               "tau_s": rng.uniform(0.05, 1.5) / 100.0, "n_samples": n_samples,
               "sequences": _shuffled(rng, SEQUENCES)}
        return self._request(rid, "trajectory", cfg, fmt)

    def _table(self, rng, rid, fmt):
        return self._request(rid, "table", {"omega_tau": rng.uniform(0.05, 2.5)}, fmt)

    def _invalid(self, rng, rid):
        why = rng.choice(["unknown_sequence", "decreasing_grid", "negative_nbar", "one_sample"])
        if why == "unknown_sequence":
            sub, cfg = "sensitivity", {"mass_kg": 1.5e-14, "freq_hz": 100.0,
                                       "sequences": ["ramsey", "uhrig7"]}
        elif why == "decreasing_grid":
            sub, cfg = "witness", {"sweep": "t", "grid": {"min": 0.05, "max": 0.01, "n": 500}}
        elif why == "negative_nbar":
            sub, cfg = "witness", {"sweep": "t", "nbar": -rng.uniform(0.1, 5.0)}
        else:
            sub, cfg = "trajectory", {"n_samples": 1}
        return self._request(rid, sub, cfg, "csv", expect_rc=2, why=why)

    # -- execution and checks ------------------------------------------------

    def execute(self, req):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.sl.cli.main(req["argv"])
        return rc, err.getvalue()

    def check(self, req, result, rng):
        """Returns the number of output rows; raises CheckFailed."""
        rc, err = result
        _require(rc == req["expect_rc"], f"{req['rid']} {req['sub']}: exit {rc}, "
                 f"expected {req['expect_rc']}: {err.strip()[:200]}")
        if rc != 0:
            _require(err.startswith("error:"), f"{req['rid']}: no error message")
            return 0
        rows = _read_rows(req["out"], req["fmt"])
        n = getattr(self, f"_check_{req['sub']}")(req, rows, rng)
        self.props["rows"][req["sub"]] = self.props["rows"].get(req["sub"], 0) + n
        return n

    def _check_sensitivity(self, req, rows, rng):
        cfg = req["cfg"]
        sl = self.sl
        seqs, n = cfg["sequences"], cfg["n_points"]
        _require(len(rows) == n * len(seqs), f"{req['rid']}: {len(rows)} rows")
        params = sl.units.params_from_dict(cfg)
        noq = sl.units.to_natural(params).nbar / params.quality_factor
        for i in rng.sample(range(len(rows)), min(ROWS_CHECKED, len(rows))):
            r = rows[i]
            kind = seqs[i // n]
            _require(r["sequence"] == kind and r["sweep_name"] == "nu_hz", f"{req['rid']} row {i}")
            seq = sl.pulses.make_sequence(kind, cfg["tau_s"])
            sp = sl.sensing.force_sensitivity(params, seq, 2 * math.pi * float(r["sweep_value"]))
            for key, ref in (("eta_n_per_sqrt_hz", sp.eta),
                             ("projection_var", sp.budget.projection_var),
                             ("backaction_var", sp.budget.backaction_var),
                             ("thermal_var", sp.budget.thermal_var),
                             ("nbar_over_q", noq)):
                _require(_close(float(r[key]), ref), f"{req['rid']} row {i} {key}: {r[key]} != {ref!r}")
        nus = np.geomspace(cfg["nu_min_hz"], cfg["nu_max_hz"], n)
        got = np.array([float(r["sweep_value"]) for r in rows[:n]])
        _require(np.allclose(got, nus, rtol=RTOL, atol=0), f"{req['rid']}: nu grid")
        return len(rows)

    def _check_witness(self, req, rows, rng):
        cfg = req["cfg"]
        w = self.sl.witness
        grid = cfg["grid"]
        _require(len(rows) == grid["n"], f"{req['rid']}: {len(rows)} rows")
        got = np.array([float(r["sweep_value"]) for r in rows])
        ref_grid = np.linspace(grid["min"], grid["max"], grid["n"])
        _require(np.allclose(got, ref_grid, rtol=RTOL, atol=RTOL * abs(grid["max"])),
                 f"{req['rid']}: grid")
        omega = 2 * math.pi * cfg["freq_hz"]
        g = cfg.get("g_over_omega", 1.0) * omega
        omega_l = 2 * math.pi * cfg.get("larmor_hz", 0.0)
        noq = cfg.get("nbar_over_q", 0.0)
        for i in rng.sample(range(len(rows)), min(ROWS_CHECKED, len(rows))):
            r = rows[i]
            x = float(r["sweep_value"])
            if cfg["mode"] == "pulsed":
                lam = w.pulsed_effective_lambda(g, omega, x if cfg["sweep"] == "t" else cfg["tau_s"])
                t = math.pi / omega
            else:
                lam = cfg["lam"]
                t = x if cfg["sweep"] == "t" else w.t_fixed_pulseless(omega)
            nb = cfg["nbar"] if cfg["sweep"] == "t" else x
            if noq > 0:
                res = w.bath_witness(lam, nb, noq, omega, omega_l, t, cfg["initial"])
                w_b, w_en = res.w_b, res.w_en
            else:
                w_b = w.thermal_wb(lam, nb, omega, omega_l, t)
                w_en = w.thermal_wen(lam, nb, omega, t)
            _require(r["sweep_name"] == cfg["sweep"], f"{req['rid']} row {i} sweep_name")
            _require(_close(float(r["w_b"]), w_b), f"{req['rid']} row {i} w_b")
            _require(_close(float(r["w_en"]), w_en), f"{req['rid']} row {i} w_en")
            ratio = float(r["w_ratio"])
            _require(_close(ratio, (w_b - w_en) / w_b, scale=1.0), f"{req['rid']} row {i} w_ratio")
            _require(_close(float(r["log10_w_ratio"]), math.log10(ratio) if ratio > 0 else -math.inf),
                     f"{req['rid']} row {i} log10_w_ratio")
        with open(req["out"] + ".landmarks.json") as fh:
            marks = json.load(fh)
        _require(set(marks) == {"tau_asymp", "tau_star", "max_nbar"}, f"{req['rid']}: landmarks")
        unused = "max_nbar" if cfg["sweep"] == "t" else "tau_star"
        _require(marks[unused] is None, f"{req['rid']}: landmark {unused}")
        for v in marks.values():
            _require(v is None or grid["min"] <= v <= grid["max"], f"{req['rid']}: landmark range")
        return len(rows)

    def _check_trajectory(self, req, rows, rng):
        cfg = req["cfg"]
        sl = self.sl
        n, seqs = cfg["n_samples"], cfg["sequences"]
        _require(len(rows) == 2 * n * len(seqs), f"{req['rid']}: {len(rows)} rows")
        omega = 2 * math.pi * cfg["freq_hz"]
        block = rng.randrange(2 * len(seqs))
        kind, branch = seqs[block // 2], block % 2
        ref = sl.dynamics.trajectory(sl.pulses.make_sequence(kind, cfg["tau_s"]),
                                     cfg["g_over_omega"] * omega, omega, branch, n)
        got = rows[block * n:(block + 1) * n]
        scale = max(max(abs(x), abs(p)) for _, x, p in ref)
        for i in rng.sample(range(n), min(ROWS_CHECKED, n)):
            r = got[i]
            _require(r["sequence"] == kind and int(r["branch"]) == branch, f"{req['rid']} row {i}")
            for key, val in zip(("t_s", "x_ho_units", "p_ho_units"), ref[i]):
                _require(_close(float(r[key]), val, scale=scale if key != "t_s" else 0.0),
                         f"{req['rid']} row {i} {key}")
        return len(rows)

    def _check_table(self, req, rows, rng):
        sl = self.sl
        p, s = sl.pulses, sl.sensing
        wt = req["cfg"]["omega_tau"]
        _require(len(rows) == 15, f"{req['rid']}: {len(rows)} rows")
        for i in rng.sample(range(15), ROWS_CHECKED):
            r = rows[i]
            kind = p.SequenceKind(SEQUENCES[i // 5])
            seq = p.make_sequence(kind, wt)
            lead = p.leading_order_row(kind, 1.0, wt)
            leading, exact = {
                "phi_per_gf": lambda: (lead.phi_per_gf, abs(p.dc_phase(seq, 1.0, 1.0))),
                "delta_n_per_g2": lambda: (lead.delta_n_per_g2,
                                           p.residual_displacement(seq, 1.0, 1.0)[1]),
                "zeta_per_g2": lambda: (abs(p.zeta_closed_form(kind, 1.0, 1.0, wt)),
                                        abs(p.squeezing_parameter(seq, 1.0, 1.0))),
                "force_sql_scale": lambda: (lead.force_sql_scale, s.force_sql(kind, 1.0, wt, 1.0)),
                "g_star_scale": lambda: (lead.g_star_scale, s.optimal_coupling(kind, 1.0, wt, 0.25)),
            }[r["quantity"]]()
            _require(r["sequence"] == kind.value, f"{req['rid']} row {i} sequence")
            _require(_close(float(r["leading_order"]), float(leading)), f"{req['rid']} row {i} leading")
            _require(_close(float(r["exact"]), float(exact)), f"{req['rid']} row {i} exact")
        return len(rows)

    def properties(self):
        total = self.props["total"]
        return {**self.props, "invalid_share": self.props["invalid"] / total if total else 0.0}


def _read_rows(path, fmt):
    with open(path) as fh:
        if fmt == "json":
            return json.load(fh)
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# verify: the cross-validation suite


class Verify:
    """Back-to-back `spinlev verify --seed S` requests at the run's seed."""

    name = "verify"
    min_requests = 2  # one request spans 12-19 s; two halve the run-to-run noise
    trace_passes = 1
    # One request spans 12-19 s, over which the machine's speed drifts; a
    # kernel timed before and after it tracked the request worse than no
    # correction, so verify times are reported as measured.
    kernel = None

    def __init__(self, spinlev, seed, workdir, smoke=False):
        self.sl = spinlev
        self.seed = seed
        self.out = os.path.join(workdir, "verify-report.json")
        self.reference = None
        self.z = []  # (check_name, worst_z) of the Monte Carlo checks
        self.smoke = smoke
        if smoke:
            v = spinlev.verify
            v.ALL_CHECKS = tuple(fn for fn in v.ALL_CHECKS if fn.__name__ not in SLOW_CHECKS)

    def warmup(self):
        return [self._request("warmup")]

    def make_pass(self, k):
        return [self._request(f"{k}.v")]

    def _request(self, rid):
        return {"rid": rid, "argv": ["verify", "--seed", str(self.seed), "--out", self.out]}

    def execute(self, req):
        return self.sl.cli.main(req["argv"])

    def check(self, req, rc, rng):
        with open(self.out, "rb") as fh:
            data = fh.read()
        if self.reference is None:
            self._check_report(rc, data)
            self.reference = data
        _require(data == self.reference, f"{req['rid']}: report differs from the first at seed {self.seed}")
        _require(rc == 1, f"{req['rid']}: exit {rc}, expected 1 (two documented failures)")
        return json.loads(data)["n_checks"]

    def _check_report(self, rc, data):
        report = json.loads(data)
        expected = [n for n in CHECK_NAMES if not (self.smoke and n in SLOW_CHECK_NAMES)]
        names = [c["check_name"] for c in report["checks"]]
        _require(names == expected, f"check list {names}")
        _require(report["seed"] == self.seed, "report seed")
        at_default = self.seed == self.sl.verify.DEFAULT_SEED
        for c in report["checks"]:
            name = c["check_name"]
            if name in MONTE_CARLO:
                obs = c["observed"]
                self.z.append((name, obs["worst_z"] if isinstance(obs, dict) else obs, c["pass"]))
                if not at_default:
                    continue
            _require(c["pass"] == (name not in KNOWN_FAILING),
                     f"check {name}: pass={c['pass']} at seed {self.seed}")
        _require(report["all_pass"] is False, "all_pass")

    def properties(self):
        return {"verify_seed": self.seed,
                "at_default_seed": self.seed == self.sl.verify.DEFAULT_SEED,
                "monte_carlo_z": [{"check": n, "worst_z": z, "pass": p} for n, z, p in self.z]}


# ---------------------------------------------------------------------------
# fock: truncated-Fock evolution of many-segment custom sequences


UNFORCED_PULSES = (1, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)
FORCED_PULSES = (1, 2, 3, 4)  # the Strang steps grow with 1/(shortest segment)


class Fock:
    """Seeded custom sequences evolved by `oracle.evolve`, checked against
    `dynamics.evolve_state` and the `pulses` closed forms."""

    name = "fock"
    min_requests = 200
    trace_passes = 40
    kernel = staticmethod(speed.blas_kernel)
    max_alpha_sq = 150.0  # caps n_max from suggested_n_max at about 300

    def __init__(self, spinlev, seed, workdir, smoke=False):
        self.sl = spinlev
        self.seed = seed
        self.smoke = smoke
        # A fixed palette of couplings g/omega in [0.1, 2]: (n_max, g) pairs can
        # repeat, and seeds differ in pulse timing, forces and order rather
        # than in how costly their couplings are.
        self.palette = [round(0.1 + (i + 0.5) * 1.9 / 8, 4) for i in range(8)]
        self.seen = set()
        self.props = {"pulses": [], "n_max": [], "forced": 0, "total": 0, "repeats": 0}

    def warmup(self):
        rng = random.Random(f"fock-warmup:{self.seed}")
        return [self._request(rng, "w0", 4, 1.0, False), self._request(rng, "w1", 1, 0.5, True)]

    def make_pass(self, k):
        rng = random.Random(f"fock:{self.seed}:{k}")
        plan = ([(n, False) for n in (1, 4, 8)] + [(1, True)] if self.smoke else
                [(n, False) for n in UNFORCED_PULSES] + [(n, True) for n in FORCED_PULSES])
        # every (pulse count, g) pairing recurs once per len(palette) passes
        offset = self.seed % len(self.palette)
        reqs = []
        for i, (n_pulses, forced) in enumerate(plan):
            g = self.palette[(3 * i + k + offset) % len(self.palette)]
            reqs.append(self._request(rng, f"{k}.f{i}", n_pulses, g, forced))
        rng.shuffle(reqs)
        for r in reqs:
            key = (r["n_max"], r["g"])
            self.props["repeats"] += key in self.seen
            self.seen.add(key)
            self.props["total"] += 1
            self.props["forced"] += r["force"] is not None
            self.props["pulses"].append(len(r["times"]))
            self.props["n_max"].append(r["n_max"])
        return reqs

    def _request(self, rng, rid, n_pulses, g, forced):
        while True:
            if forced:
                tau = rng.uniform(0.5, 1.5)
            else:
                tau = rng.uniform(0.5, 3.0) * math.pi * (1 + n_pulses / 16)
            slot = tau / (n_pulses + 1)
            times = [(j + 1 + rng.uniform(-0.3, 0.3)) * slot for j in range(n_pulses)]
            force = None
            if forced:
                # piecewise constant, one value per pulse segment, so the oracle's
                # Strang steps never straddle a force step
                knots = [0.0, *times, tau]
                vals = [rng.uniform(-0.3, 0.3) for _ in times] + [rng.uniform(-0.3, 0.3)]
                force = (knots, vals + vals[-1:])
            a2 = _max_alpha_sq(tau, times, g, force)
            if a2 <= self.max_alpha_sq:
                break
        n_max = self.sl.oracle.suggested_n_max(a2)
        nus = [rng.uniform(0.0, 3.0) for _ in range(4)]
        return {"rid": rid, "tau": tau, "times": times, "g": g, "force": force,
                "n_max": n_max, "nus": nus}

    def execute(self, req):
        sl = self.sl
        g = req["g"]
        seq = sl.pulses.make_sequence("custom", req["tau"], req["times"])
        nat = sl.units.NaturalParams(g=g, omega=1.0, lam=2 * g, nbar=0.0, gamma=1e-6,
                                     x0=1.0, larmor=0.0)
        state = sl.oracle.evolve(sl.oracle.initial_state(0j, req["n_max"]), nat, seq, req["force"])
        closed = sl.dynamics.evolve_state(seq, g, 1.0, 0j, req["force"])
        fidelity = sl.oracle.branch_fidelity(closed, state)
        beta, delta_n = sl.pulses.residual_displacement(seq, g, 1.0)
        chi = [sl.pulses.spectral_response(seq, g, 1.0, nu) for nu in req["nus"]]
        l2 = sl.pulses.kernel_l2(seq, g, 1.0)
        return fidelity, closed, beta, delta_n, chi, l2

    def check(self, req, result, rng):
        fidelity, closed, beta, delta_n, chi, l2 = result
        _require(fidelity > FIDELITY_BOUND, f"{req['rid']}: fidelity 1 - {1 - fidelity:.3e}")
        if req["force"] is None:
            # the + branch ends at the residual displacement of the kernel
            gam = closed.branch0.alpha
            _require(abs(gam - beta) <= RTOL * max(1.0, abs(beta)), f"{req['rid']}: beta")
            _require(_close(delta_n, abs(beta) ** 2), f"{req['rid']}: delta_n")
        _require(all(math.isfinite(abs(c)) for c in chi), f"{req['rid']}: chi")
        _require(math.isfinite(l2) and l2 >= 0, f"{req['rid']}: kernel_l2")
        return 1

    def properties(self):
        p = self.props
        total = p["total"]

        def dist(vals):
            q = np.percentile(vals, [0, 25, 50, 75, 100]).tolist() if vals else []
            return dict(zip(("min", "p25", "p50", "p75", "max"), q))

        return {"requests": total, "pulse_count": dist(p["pulses"]), "n_max": dist(p["n_max"]),
                "forced_share": p["forced"] / total if total else 0.0,
                "repeat_share": p["repeats"] / total if total else 0.0,
                "g_palette": self.palette}


def _max_alpha_sq(tau, times, g, force):
    """Largest |gamma|^2 either branch reaches, from the exact segment solution
    gamma(t) = (gamma_a + c) e^{-i t} - c (omega = 1), bounded per segment."""
    edges = [0.0, *times, tau]
    worst = 0.0
    for spin in (1, -1):
        gam = 0j
        sign = 1
        for a, b in zip(edges, edges[1:]):
            f = 0.0
            if force is not None:
                knots, vals = force
                f = vals[max(i for i, t in enumerate(knots) if t <= a)]
            c = spin * sign * g - f
            worst = max(worst, (abs(gam + c) + abs(c)) ** 2)
            gam = (gam + c) * complex(math.cos(b - a), -math.sin(b - a)) - c
            sign = -sign
    return worst


WORKLOADS = {"scan": Scan, "verify": Verify, "fock": Fock}
