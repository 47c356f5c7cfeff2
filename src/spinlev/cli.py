r"""Command-line interface.

Subcommands: sensitivity, witness, table, trajectory, verify. Global flags:
--config <path> (JSON parameters), --out <path>, --format csv|json,
--seed <u64> (read by verify only), --threads <n> (falls back to the
SPINLEV_THREADS environment variable; validated, but without effect).
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
All file writes are atomic (temp file + rename) and floats are serialized
losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import dynamics, pulses, sensing, verify, witness
from .pulses import SequenceKind
from .units import REFERENCE_DEVICE, ParameterError, params_from_dict, to_natural

FLOAT_FMT = "%.16e"


class ConfigError(ValueError):
    pass


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".spinlev-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(rows, header, fmt, out):
    """rows: list of dicts keyed by header names."""
    if fmt == "csv":
        lines = [",".join(header)]
        for r in rows:
            cells = []
            for h in header:
                v = r[h]
                if isinstance(v, float):
                    cells.append(FLOAT_FMT % v)
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("SPINLEV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"SPINLEV_THREADS is not an integer: {env!r}") from exc
    return 1


def _kind(name: str) -> SequenceKind:
    try:
        return SequenceKind(name)
    except ValueError as exc:
        raise ConfigError(f"unknown sequence {name!r}") from exc


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config)
    merged = dict(REFERENCE_DEVICE)
    merged.update(cfg)
    if "temperature_k" in cfg and "nbar" not in cfg:
        merged.pop("nbar", None)
    params = params_from_dict(merged)
    tau = float(cfg.get("tau_s", 1e-4))
    kinds = cfg.get("sequences", [k.value for k in
                                  (SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2)])
    nu_min = float(cfg.get("nu_min_hz", 1.0))
    nu_max = float(cfg.get("nu_max_hz", 1e5))
    n_points = int(cfg.get("n_points", 200))
    nbar_over_q = to_natural(params).nbar / params.quality_factor
    nus = [float(nu) for nu in np.geomspace(nu_min, nu_max, n_points)]
    rows = []
    for kind in kinds:
        seq = pulses.make_sequence(_kind(kind), tau)
        points = sensing.sensitivity_sweep(params, seq, [2 * math.pi * nu for nu in nus])
        rows += [{
            "sweep_name": "nu_hz",
            "sweep_value": nu_hz,
            "eta_n_per_sqrt_hz": sp.eta,
            "projection_var": sp.budget.projection_var,
            "backaction_var": sp.budget.backaction_var,
            "thermal_var": sp.budget.thermal_var,
            "sequence": kind,
            "nbar_over_q": nbar_over_q,
        } for nu_hz, sp in zip(nus, points)]
    header = ["sweep_name", "sweep_value", "eta_n_per_sqrt_hz", "projection_var",
              "backaction_var", "thermal_var", "sequence", "nbar_over_q"]
    _emit(rows, header, args.format, args.out)
    return 0


def cmd_witness(args) -> int:
    cfg = _load_config(args.config)
    mode = cfg.get("mode", "pulseless")
    sweep = cfg.get("sweep", "t")
    omega = 2 * math.pi * float(cfg.get("freq_hz", 100.0))
    grid_cfg = cfg.get("grid", {})
    lo = float(grid_cfg.get("min", 1e-4 if sweep == "t" else 0.0))
    hi = float(grid_cfg.get("max", 10.0 / omega * 2 * math.pi if sweep == "t" else 10.0))
    n = int(grid_cfg.get("n", 2000))
    grid = list(np.linspace(lo, hi, n))
    try:
        scan = witness.violation_scan(
            mode, sweep, grid,
            lam=float(cfg.get("lam", 0.5)),
            g=float(cfg.get("g_over_omega", 1.0)) * omega,
            omega=omega,
            omega_l=2 * math.pi * float(cfg.get("larmor_hz", 0.0)),
            tau=float(cfg.get("tau_s", 0.1 * math.pi / omega)),
            nbar=float(cfg.get("nbar", 0.0)),
            nbar_over_q=float(cfg.get("nbar_over_q", 0.0)),
            initial=cfg.get("initial", "ground"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [{
        "sweep_name": scan.sweep_name,
        "sweep_value": p.sweep_value,
        "w_b": p.w_b,
        "w_en": p.w_en,
        "w_ratio": p.w_ratio,
        "log10_w_ratio": p.log10_w_ratio,
    } for p in scan.points]
    header = ["sweep_name", "sweep_value", "w_b", "w_en", "w_ratio", "log10_w_ratio"]
    _emit(rows, header, args.format, args.out)
    landmarks = {"tau_asymp": scan.tau_asymp, "tau_star": scan.tau_star,
                 "max_nbar": scan.max_nbar}
    land_path = (args.out + ".landmarks.json") if args.out else None
    text = json.dumps(landmarks, indent=2, sort_keys=True) + "\n"
    if land_path:
        _atomic_write(land_path, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_table(args) -> int:
    cfg = _load_config(args.config)
    omega = 1.0
    wt = float(cfg.get("omega_tau", 0.1))
    tau = wt / omega
    rows = []
    for kind in (SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2):
        seq = pulses.make_sequence(kind, tau)
        lead = pulses.leading_order_row(kind, omega, tau)
        phi_exact = abs(pulses.dc_phase(seq, 1.0, omega))
        dn_exact = pulses.residual_displacement(seq, 1.0, omega)[1]
        zeta_exact = abs(pulses.squeezing_parameter(seq, 1.0, omega))
        zeta_lead = abs(pulses.zeta_closed_form(kind, 1.0, omega, tau))
        for quantity, leading, exact in (
            ("phi_per_gf", lead.phi_per_gf, phi_exact),
            ("delta_n_per_g2", lead.delta_n_per_g2, dn_exact),
            ("zeta_per_g2", zeta_lead, zeta_exact),
            ("force_sql_scale", lead.force_sql_scale,
             sensing.force_sql(kind, omega, tau, 1.0)),
            ("g_star_scale", lead.g_star_scale,
             sensing.optimal_coupling(kind, omega, tau, 0.25)),
        ):
            rows.append({
                "sequence": kind.value,
                "omega_tau": wt,
                "quantity": quantity,
                "leading_order": float(leading),
                "exact": float(exact),
                "ratio": float(exact / leading) if leading else float("nan"),
            })
    header = ["sequence", "omega_tau", "quantity", "leading_order", "exact", "ratio"]
    _emit(rows, header, args.format, args.out)
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args.config)
    omega = 2 * math.pi * float(cfg.get("freq_hz", 100.0))
    g = float(cfg.get("g_over_omega", 1.0)) * omega
    tau = float(cfg.get("tau_s", 0.2 * math.pi / omega))
    n_samples = int(cfg.get("n_samples", 200))
    kinds = cfg.get("sequences", [k.value for k in
                                  (SequenceKind.RAMSEY, SequenceKind.HAHN_ECHO, SequenceKind.CARR_PURCELL2)])
    rows = []
    for kind in kinds:
        seq = pulses.make_sequence(_kind(kind), tau)
        for branch in (0, 1):
            for t, x, p in dynamics.trajectory(seq, g, omega, branch, n_samples):
                rows.append({"sequence": kind, "branch": branch,
                             "t_s": t, "x_ho_units": x, "p_ho_units": p})
    header = ["sequence", "branch", "t_s", "x_ho_units", "p_ho_units"]
    _emit(rows, header, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    report = verify.run_checks(seed=args.seed if args.seed is not None else verify.DEFAULT_SEED,
                               threads=args.threads)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report["all_pass"] else 1


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON parameter file")
    p.add_argument("--out", help="output file path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--seed", type=int, help="Monte Carlo seed")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility, without effect (default SPINLEV_THREADS or 1)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spinlev",
                                description="Pulsed spin-oscillator sensing and witness toolkit")
    p.set_defaults(config=None, out=None, format="csv", seed=None, threads=None)
    _add_global_flags(p)
    # accept the global flags after the subcommand as well
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_global_flags(common)
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, desc in (
        ("sensitivity", cmd_sensitivity, "force sensitivity frequency sweep"),
        ("witness", cmd_witness, "entanglement-witness violation scan"),
        ("table", cmd_table, "leading-order vs exact sequence table"),
        ("trajectory", cmd_trajectory, "branch phase-space trajectories"),
        ("verify", cmd_verify, "run the self-verification suite"),
    ):
        sub.add_parser(name, help=desc, parents=[common]).set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = _threads(args)
        return args.fn(args)
    except (ConfigError, ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream reader (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
