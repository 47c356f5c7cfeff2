r"""Command-line interface.

Subcommands: sensitivity, witness, table, trajectory, verify. Global flags:
--config <path> (JSON parameters), --out <path>, --format csv|json,
--seed <u64> (read by verify only).
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
All output goes through one writer, _write: stdout, or with --out an
atomic write (temp file + rename) whose file takes the mode open() would
give it under the umask. Floats are serialized losslessly.

csv writes each float as FLOAT_FMT ('%.16e') would, byte for byte, but a
whole column at a time: numpy scales it to 17-digit integers in long double
and builds the cells from digit tables. Zeros, NaN, +-inf, values within
the long-double error bound of a rounding tie (about 2 % of random values)
and the rare value a few ulps from a power of ten are formatted by
FLOAT_FMT itself; where long double is no wider than double, every value
is. json writes float.__repr__ per value. Config values that must be
numbers go through units.json_number, so a JSON boolean or string exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dynamics, pulses, sensing, verify, witness
from .units import DEVICE_KEYS, REFERENCE_DEVICE, ParameterError, json_number, params_from_dict, to_natural

FLOAT_FMT = "%.16e"


class ConfigError(ValueError):
    pass


def _write(out, text: str) -> None:
    """Write text to stdout, or atomically to the path out (a temporary file
    renamed over it) with the mode open(out, "w") gives: 0o666 less the umask."""
    if not out:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), prefix=".spinlev-")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# csv float kernel. A finite nonzero |x| is y * 10^(e - 16) with
# 10^16 <= y < 10^17, and y is formed in long double from a correctly rounded
# 10^(16 - e): two roundings of half an ulp leave |y - exact| within
# (eps + eps^2/4) * exact, about eps * y (y * 1.1e-19 with the x87 64-bit
# significand, at most 0.011). Where the fraction of y is further than
# _TIE_MARGIN * y (twice that bound) from 1/2, the nearest integer to y holds
# the 17 digits FLOAT_FMT prints. Zeros, non-finite values, near-ties and the
# rare value whose floor(log10) is one off (within a few ulps of a power of
# ten) are formatted by FLOAT_FMT itself; where long double is a plain double
# the margin exceeds 1/2 and every value takes that route.
_TIE_MARGIN = 2 * float(np.finfo(np.longdouble).eps)
_E_MIN, _E_MAX = -324, 308  # floor(log10|x|) of any double
_PAD = 0xFF  # padding byte of the csv byte matrix; UTF-8 never produces it


def _digits(n, width):
    """The digits of 0 ... n - 1, zero-padded to width, as (n, width) ASCII bytes."""
    return (np.arange(n)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + ord("0")).astype(np.uint8)


@functools.cache
def _csv_tables():
    """The long doubles 10^(16 - e) for e = _E_MIN ... _E_MAX, as the C
    library's strtold rounds them, and the uint32 words a FLOAT_FMT cell is
    built from: sign, lead digit, '.' and first digit; four digits; three
    digits and 'e'; the exponent's sign and digits. Built on first use."""
    pow10 = np.array(["1e%d" % (16 - e) for e in range(_E_MIN, _E_MAX + 1)]).astype(np.longdouble)
    minus = _text_bytes(["-%d.%d" % divmod(i, 10) for i in range(100)]).view(np.uint32).ravel()
    plus = minus.copy()
    plus.view(np.uint8)[::4] = _PAD
    head = np.concatenate([plus, minus])
    quads = _digits(10_000, 4).view(np.uint32).ravel()
    tails = np.column_stack([_digits(1000, 3), np.full(1000, ord("e"), np.uint8)]).view(np.uint32).ravel()
    exps = _text_bytes(["%+03d" % e for e in range(_E_MIN, _E_MAX + 2)]).view(np.uint32).ravel()
    return pow10, head, quads, tails, exps


def _runs(col):
    """(start, length) arrays of the runs of equal values in a float64
    column, or None unless there are at most n/2 runs (a per-sequence term
    repeated on every row). Values are compared by their bits, so 0.0 and
    -0.0 stay apart."""
    bits = col.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (starts.size + 1) > col.size:
        return None
    starts = np.concatenate(([0], starts))
    return starts, np.diff(starts, append=col.size)


def _text_bytes(cells):
    """A list of str cells as an (n, width) uint8 matrix of their UTF-8
    bytes, each row padded with 0xFF."""
    enc = [c.encode("utf-8", "surrogatepass") for c in cells]
    lens = np.fromiter(map(len, enc), np.intp, len(enc))
    out = np.full((len(enc), lens.max(initial=0)), _PAD, np.uint8)
    out[np.arange(out.shape[1]) < lens[:, None]] = np.frombuffer(b"".join(enc), np.uint8)
    return out


def _float_bytes(col):
    """A float64 column as an (n, 24) uint8 matrix of its FLOAT_FMT cells,
    each row padded with 0xFF (see _TIE_MARGIN)."""
    runs = _runs(col)
    if runs is not None:
        starts, lengths = runs
        return np.repeat(_float_bytes(col[starts]), lengths, axis=0)
    pow10, head, quads, tails, exps = _csv_tables()
    a = np.abs(col)
    ok = (a > 0) & (a < math.inf)
    if not ok.all():
        a = np.where(ok, a, 1.0)  # a placeholder; FLOAT_FMT formats these rows
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a.astype(np.longdouble) * pow10[e - _E_MIN]
    ok &= (y >= 1e16) & (y < 1e17)  # log10 can round across an integer near 10^k
    d = y.astype(np.int64)
    frac = (y - d).astype(np.float64)
    ok &= np.abs(frac - 0.5) > _TIE_MARGIN * d
    d += frac > 0.5
    carry = d >= 10**17  # the significand rounds up to 10.000... (or y is out of range)
    d[carry] = 10**16
    e += carry
    lead = d // 10**15  # lead digit and first decimal
    hi = d // 10**7 - lead * 10**8  # decimals 2-9
    lo = d - d // 10**7 * 10**7  # decimals 10-16
    words = np.empty((col.size, 6), np.uint32)
    words[:, 0] = head[np.signbit(col) * 100 + lead]
    words[:, 1] = quads[hi // 10**4]
    words[:, 2] = quads[hi - hi // 10**4 * 10**4]
    words[:, 3] = quads[lo // 1000]
    words[:, 4] = tails[lo - lo // 1000 * 1000]
    words[:, 5] = exps[e - _E_MIN]
    out = words.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        cells = _text_bytes(list(map(FLOAT_FMT.__mod__, col[slow].tolist())))
        out[slow] = _PAD
        out[slow, :cells.shape[1]] = cells
    return out


def _cells(col, fmt):
    """One output column as a list of csv or json cell strings.

    A json float array is formatted in one pass with float.__repr__ (NaN and
    +-inf spelled as json writes them), once per run when it has few (_runs).
    (csv float arrays go through _float_bytes.) Any other column keeps the
    per-cell rule: a float gets FLOAT_FMT in csv, anything else str(); json
    cells are json.dumps of the value. Columns of only str or only int take
    that rule in one map call.
    """
    if isinstance(col, np.ndarray) and col.dtype == np.float64 and fmt == "json":
        runs = _runs(col)
        if runs is not None:
            starts, lengths = runs
            return np.repeat(np.array(_cells(col[starts], fmt), dtype=object), lengths).tolist()
        cells = list(map(float.__repr__, col.tolist()))
        if not np.isfinite(col).all():
            cells = [_JSON_NONFINITE.get(c, c) for c in cells]
        return cells
    vals = col.tolist() if isinstance(col, np.ndarray) else list(col)
    types = set(map(type, vals))
    if types <= {str}:
        return vals if fmt == "csv" else list(map(encode_basestring_ascii, vals))
    if types <= {int}:
        return list(map(int.__repr__, vals))
    if fmt == "csv":
        return [FLOAT_FMT % v if isinstance(v, float) else str(v) for v in vals]
    return list(map(json.dumps, vals))


def _emit(header, columns, fmt, out):
    """Write a table given as one column per header name.

    Float columns are float64 arrays; other columns are sequences of
    scalars (str, int). Each column is converted to text once. In csv every
    column becomes a 0xFF-padded byte matrix (_float_bytes, _text_bytes),
    the matrices and the separators are laid side by side, and the padding
    is dropped before the text is decoded once; json rows are joined from
    the cell lists. The text is byte-identical to formatting the equivalent
    row dicts cell by cell (csv) or with json.dumps(rows, indent=2,
    sort_keys=True) (json).
    """
    if not header or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(columns)} for {len(header)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    if fmt == "csv":
        parts = []
        for c in columns:
            floats = isinstance(c, np.ndarray) and c.dtype == np.float64
            parts += [_float_bytes(c) if floats else _text_bytes(_cells(c, fmt)),
                      np.full((n, 1), ord(","), np.uint8)]
        parts[-1][:] = ord("\n")
        body = np.concatenate(parts, axis=1).ravel()
        text = ",".join(header) + "\n" + body[body != _PAD].tobytes().decode("utf-8", "surrogatepass")
    elif n:
        order = sorted(range(len(header)), key=header.__getitem__)
        keys = (encode_basestring_ascii(header[i]).replace("%", "%%") for i in order)
        row = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
        rows = map(row.__mod__, zip(*(_cells(columns[i], fmt) for i in order)))
        text = "[\n" + ",\n".join(rows) + "\n]\n"
    else:
        text = "[]\n"
    _write(out, text)


# Config keys each subcommand reads; any other key exits 2, so a typo cannot
# silently fall back to a default.
_SENSITIVITY_KEYS = DEVICE_KEYS | {"tau_s", "sequences", "nu_min_hz", "nu_max_hz", "n_points"}
_WITNESS_KEYS = frozenset({
    "mode", "sweep", "freq_hz", "grid", "lam", "g_over_omega", "larmor_hz",
    "tau_s", "nbar", "nbar_over_q", "initial",
})
_GRID_KEYS = frozenset({"min", "max", "n"})
_TABLE_KEYS = frozenset({"omega_tau"})
_TRAJECTORY_KEYS = frozenset({"freq_hz", "g_over_omega", "tau_s", "n_samples", "sequences"})


def _check_keys(cfg, allowed, where="config"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                          f"this subcommand reads {', '.join(sorted(allowed)) or 'none'}")
    return cfg


def _load_config(path, allowed=frozenset()):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _check_keys(cfg, allowed)


def _count(value, key: str, minimum=None) -> int:
    """An integral config count (JSON 3 or 3.0); anything else, a boolean
    included, exits 2 naming the key."""
    try:
        x = json_number(value, key)
    except ParameterError:
        x = math.nan
    if not (math.isfinite(x) and x == int(x) and (minimum is None or x >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{key} must be an integer{bound}, got {value!r}")
    return int(x)


def _finite(value, key: str, positive: bool = False) -> float:
    """A finite float config value (and > 0 if positive); anything else exits 2 naming the key."""
    x = json_number(value, key)
    if not math.isfinite(x) or (positive and x <= 0):
        raise ConfigError(f"{key} must be finite{' and > 0' if positive else ''}, got {value!r}")
    return x


def _scaled(value, scale: float, key: str, positive: bool = False) -> float:
    """_finite(value) * scale, which must be finite too: a finite value that
    overflows once scaled to natural units exits 2 naming the key."""
    x = _finite(value, key, positive) * scale
    if not math.isfinite(x):
        raise ConfigError(f"{key} = {value!r} overflows to {x!r} once scaled by {scale!r}")
    return x


def _sequences(cfg, tau: float):
    """(name, PulseSequence) for each name in the config's "sequences" list,
    by default the named kinds; anything but a list of known names exits 2."""
    names = cfg.get("sequences", list(pulses.NAMED_KINDS))
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"sequences must be a list of sequence names, got {names!r}")
    return [(name, pulses.make_sequence(name, tau)) for name in names]


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config, _SENSITIVITY_KEYS)
    merged = dict(REFERENCE_DEVICE)
    merged.update(cfg)
    if "temperature_k" in cfg and "nbar" not in cfg:
        merged.pop("nbar", None)
    params = params_from_dict(merged)
    tau = _finite(cfg.get("tau_s", 1e-4), "tau_s", positive=True)
    nu_min = json_number(cfg.get("nu_min_hz", 1.0), "nu_min_hz")
    nu_max = json_number(cfg.get("nu_max_hz", 1e5), "nu_max_hz")
    if not (math.isfinite(nu_min) and math.isfinite(nu_max) and 0 < nu_min < nu_max):
        raise ConfigError("nu_min_hz and nu_max_hz must be finite with 0 < nu_min_hz < nu_max_hz, "
                          f"got {nu_min!r} and {nu_max!r}")
    n_points = _count(cfg.get("n_points", 200), "n_points", minimum=1)
    nbar_over_q = to_natural(params).nbar / params.quality_factor
    nus = np.geomspace(nu_min, nu_max, n_points)
    header = ["sweep_name", "sweep_value", "eta_n_per_sqrt_hz", "projection_var",
              "backaction_var", "thermal_var", "sequence", "nbar_over_q"]
    spectra = [(name, sensing.sensitivity_spectrum(params, seq, 2 * math.pi * nus))
               for name, seq in _sequences(cfg, tau)]
    n = len(spectra) * n_points
    per_sequence = [np.repeat([getattr(s, key) for _, s in spectra], n_points)
                    for key in ("projection_var", "backaction_var", "thermal_var")]
    columns = [["nu_hz"] * n, np.tile(nus, len(spectra)),
               np.concatenate([s.eta for _, s in spectra] or [np.empty(0)]), *per_sequence,
               [name for name, _ in spectra for _ in range(n_points)], np.full(n, nbar_over_q)]
    _emit(header, columns, args.format, args.out)
    return 0


def cmd_witness(args) -> int:
    cfg = _load_config(args.config, _WITNESS_KEYS)
    mode = cfg.get("mode", "pulseless")
    sweep = cfg.get("sweep", "t")
    omega = _scaled(cfg.get("freq_hz", 100.0), 2 * math.pi, "freq_hz", positive=True)
    grid_cfg = _check_keys(cfg.get("grid", {}), _GRID_KEYS, "grid")
    lo = _finite(grid_cfg.get("min", 1e-4 if sweep == "t" else 0.0), "grid.min")
    hi = _finite(grid_cfg.get("max", 10.0 / omega * 2 * math.pi if sweep == "t" else 10.0), "grid.max")
    if sweep == "t":  # the kernels read the times as phases omega t
        _scaled(lo, omega, "grid.min")
        _scaled(hi, omega, "grid.max")
    n = _count(grid_cfg.get("n", 2000), "grid.n", minimum=1)
    grid = np.linspace(lo, hi, n)
    lam = _finite(cfg.get("lam", 0.5), "lam")
    g = _scaled(cfg.get("g_over_omega", 1.0), omega, "g_over_omega")
    omega_l = _scaled(cfg.get("larmor_hz", 0.0), 2 * math.pi, "larmor_hz")
    tau = _finite(cfg.get("tau_s", 0.1 * math.pi / omega), "tau_s", positive=True)
    _scaled(tau, omega, "tau_s")
    nbar = _finite(cfg.get("nbar", 0.0), "nbar")
    nbar_over_q = _finite(cfg.get("nbar_over_q", 0.0), "nbar_over_q")
    scan = witness.violation_scan(
        mode, sweep, grid, lam=lam, g=g, omega=omega, omega_l=omega_l, tau=tau,
        nbar=nbar, nbar_over_q=nbar_over_q, initial=cfg.get("initial", "ground"),
    )
    header = ["sweep_name", "sweep_value", "w_b", "w_en", "w_ratio", "log10_w_ratio"]
    _emit(header, [[scan.sweep_name] * len(grid), scan.sweep_value, scan.w_b, scan.w_en, scan.w_ratio,
                   scan.log10_w_ratio], args.format, args.out)
    if args.out:  # stdout holds the table alone, so it stays one csv or json document
        landmarks = {"tau_asymp": scan.tau_asymp, "tau_star": scan.tau_star,
                     "max_nbar": scan.max_nbar}
        _write(args.out + ".landmarks.json", json.dumps(landmarks, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_table(args) -> int:
    cfg = _load_config(args.config, _TABLE_KEYS)
    omega = 1.0
    wt = _finite(cfg.get("omega_tau", 0.1), "omega_tau", positive=True)
    tau = wt / omega
    labels, quantities, values = [], [], []
    for kind in pulses.NAMED_KINDS:
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
            labels.append(kind)
            quantities.append(quantity)
            values.append((float(leading), float(exact),
                           float(exact / leading) if leading else float("nan")))
    leading_col, exact_col, ratio_col = np.array(values).T
    header = ["sequence", "omega_tau", "quantity", "leading_order", "exact", "ratio"]
    _emit(header, [labels, np.full(len(labels), wt), quantities, leading_col, exact_col, ratio_col],
          args.format, args.out)
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args.config, _TRAJECTORY_KEYS)
    omega = _scaled(cfg.get("freq_hz", 100.0), 2 * math.pi, "freq_hz", positive=True)
    g = _scaled(cfg.get("g_over_omega", 1.0), omega, "g_over_omega")
    tau = _finite(cfg.get("tau_s", 0.2 * math.pi / omega), "tau_s", positive=True)
    _scaled(tau, omega, "tau_s")
    n_samples = _count(cfg.get("n_samples", 200), "n_samples")
    labels, branches, samples = [], [], []
    for name, seq in _sequences(cfg, tau):
        for branch in (0, 1):
            pts = dynamics.trajectory(seq, g, omega, branch, n_samples)
            labels += [name] * len(pts)
            branches += [branch] * len(pts)
            samples += pts
    t, x, p = np.array(samples, dtype=float).reshape(-1, 3).T
    header = ["sequence", "branch", "t_s", "x_ho_units", "p_ho_units"]
    _emit(header, [labels, branches, t, x, p], args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else verify.DEFAULT_SEED
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {seed}")
    _load_config(args.config)  # verify reads no config key
    report = verify.run_checks(seed=seed)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_pass"] else 1


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON parameter file")
    p.add_argument("--out", help="output file path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    p.add_argument("--seed", type=int, help="Monte Carlo seed in [0, 2**64)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spinlev",
                                description="Pulsed spin-oscillator sensing and witness toolkit")
    p.set_defaults(config=None, out=None, format="csv", seed=None)
    _add_global_flags(p)
    # accept the global flags after the subcommand as well
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    _add_global_flags(common)
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("sensitivity", "force sensitivity frequency sweep"),
        ("witness", "entanglement-witness violation scan"),
        ("table", "leading-order vs exact sequence table"),
        ("trajectory", "branch phase-space trajectories"),
        ("verify", "run the self-verification suite"),
    ):
        sub.add_parser(name, help=desc, parents=[common])
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on its first call: parse_args keeps no
    state in the parser, so one serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapped or patched cmd_* function
        # takes effect although the parser was built before
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream reader (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
