r"""Command-line interface.

Subcommands: sensitivity, witness, table, trajectory, verify. Global flags:
--config <path> (JSON parameters), --out <path>, --format csv|json,
--seed <u64> (read by verify only).
Exit codes: 0 success, 1 verification failure, 2 usage, config or --out error.
All output goes through one writer, _write: stdout, or with --out the file
open(out, "w") would write, replaced atomically. Floats are serialized
losslessly.

csv writes each float as FLOAT_FMT ('%.16e') would, byte for byte, and
json as float.__repr__ would (NaN and +-Infinity as json spells them), but
many values at a time: numpy scales them to 17-digit integers in long
double, json keeps the shortest digits that read back, and the cells are
built from digit tables. Zeros, NaN, +-inf, values within the long-double
error bound of a rounding tie or (json) of the edge of their rounding
interval, powers of two, subnormals and the largest double (json), and the
rare value a few ulps from a power of ten are formatted by FLOAT_FMT or
float.__repr__ itself: about 2 % of random values in csv, 1 % in json. So
is every value where long double is no wider than double. Both formats lay
each block of _BLOCK_ROWS rows out as one byte matrix and format each run
of equal cells in a column once, the float runs of a block in one kernel
call. Config values that must be numbers go through units.json_number, so
a JSON boolean or string exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import operator
import os
import sys
import tempfile
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dynamics, pulses, sensing, units, verify, witness
from .units import DEVICE_KEYS, REFERENCE_DEVICE, ParameterError, json_number, params_from_dict, to_natural

FLOAT_FMT = "%.16e"


def _write(out, text: str) -> None:
    """Write text to stdout, or atomically (a temporary file renamed over it)
    to the file open(out, "w") would write: a symlink's target, with the
    permission bits of an existing file or else 0o666 less the umask. A
    rename makes a new file, so the owner and the hard links of an existing
    file are not kept. An existing out that is not a regular file is opened
    and written in place, so a FIFO or a device is not replaced by a file.
    An out that cannot be written raises ParameterError naming it and leaves
    no temporary file; a BrokenPipeError (a FIFO's reader left) passes."""
    if not out:
        sys.stdout.write(text)
        return
    target = os.path.realpath(out)
    tmp = None
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            with open(out, "w") as fh:
                fh.write(text)
            return
        umask = os.umask(0)
        os.umask(umask)
        mode = os.stat(target).st_mode & 0o777 if os.path.exists(target) else 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".spinlev-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, target)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Float kernels. A finite nonzero |x| is y * 10^(e - 16) with
# 10^16 <= y < 10^17, and y is formed in long double from a correctly rounded
# 10^(16 - e): two roundings of half an ulp leave |y - exact| within
# (eps + eps^2/4) * exact, about eps * y (y * 1.1e-19 with the x87 64-bit
# significand, at most 0.011). Where the fraction of y is further than
# _TIE_MARGIN * y (twice that bound) from 1/2, the nearest integer to y holds
# the 17 digits FLOAT_FMT prints; _repr_bytes reads the shortest digits off
# the same y. Zeros, non-finite values, near-ties and the rare value whose
# floor(log10) is one off (within a few ulps of a power of ten) are formatted
# by FLOAT_FMT or float.__repr__ itself; where long double is a plain double
# the margin exceeds 1/2 and every value takes that route.
_TIE_MARGIN = 2 * float(np.finfo(np.longdouble).eps)
_E_MIN, _E_MAX = -324, 308  # floor(log10|x|) of any double
_PAD = 0xFF  # padding byte of the byte matrices; UTF-8 never produces it
_BLOCK_ROWS = 1024  # rows per block of output, which bounds every kernel call and byte matrix
_ZERO_WORD = np.frombuffer(b"0\xff\xff\xff", np.uint32)[0]  # '0' and padding

_log = logging.getLogger(__name__)


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


@functools.cache
def _repr_positions():
    """Where each byte of a json float cell comes from in its 28-byte source
    row: the FLOAT_FMT cell of its digits and exponent (sign or 0xFF, lead
    digit, '.', 16 digits, 'e', the exponent padded to 4 bytes), then '0' and
    0xFF. One row of 24 positions per case: (e + 4) * 17 + p - 1 for the
    positional cells of -4 <= e <= 15 with p digits, 340 + p - 1 for the
    scientific ones. Built on first use."""
    digit = [1] + list(range(3, 19))  # the k-th significant digit
    dot, exp, zero, pad = 2, 19, 24, 25
    cases = []
    for e in range(-4, 16):
        for p in range(1, 18):
            if e >= 0:
                cases.append(digit[:e + 1][:p] + [zero] * (e + 1 - p) + [dot] + (digit[e + 1:p] or [zero]))
            else:
                cases.append([zero, dot] + [zero] * (-e - 1) + digit[:p])
    for p in range(1, 18):
        cases.append(digit[:1] + ([dot] + digit[1:p] if p > 1 else []) + list(range(exp, exp + 5)))
    table = np.full((len(cases), 24), pad, np.intp)
    for row, case in zip(table, cases):
        row[:len(case) + 1] = [0] + case  # the sign first
    return table


def _runs(col):
    """(firsts, lengths): the first cell and length of each run of equal cells
    in a nonempty column (a per-sequence term or label repeated on every row
    is one run; a column with no two equal neighbours is n runs of 1).
    float64 cells are compared by their bits, so 0.0 and -0.0 stay apart;
    list cells, all str or all int (_emit checks), by value."""
    if isinstance(col, np.ndarray):
        bits = col.view(np.int64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    else:
        starts = np.flatnonzero(np.fromiter(map(operator.ne, col[1:], col[:-1]), bool, len(col) - 1)) + 1
    starts = np.concatenate(([0], starts))
    firsts = col[starts] if isinstance(col, np.ndarray) else [col[i] for i in starts.tolist()]
    return firsts, np.diff(starts, append=len(col))


def _text_bytes(cells):
    """A list of str cells as an (n, width) uint8 matrix of their UTF-8
    bytes, each row padded with 0xFF."""
    enc = [c.encode("utf-8", "surrogatepass") for c in cells]
    lens = np.fromiter(map(len, enc), np.intp, len(enc))
    out = np.full((len(enc), lens.max(initial=0)), _PAD, np.uint8)
    out[np.arange(out.shape[1]) < lens[:, None]] = np.frombuffer(b"".join(enc), np.uint8)
    return out


def _scaled_digits(col):
    """(ok, a, e, d, frac) of a float64 column: a = |x|, e = floor(log10 a),
    and y = a * 10^(16 - e) as its integer part d and its fraction frac (see
    _TIE_MARGIN). ok is False for zeros, non-finite values (whose a is a
    placeholder 1.0) and a y that log10 put outside [10^16, 10^17)."""
    pow10 = _csv_tables()[0]
    a = np.abs(col)
    ok = (a > 0) & (a < math.inf)
    if not ok.all():
        a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a.astype(np.longdouble) * pow10[e - _E_MIN]
    d = y.astype(np.int64)
    ok &= (d >= 10**16) & (d < 10**17)  # log10 can round across an integer near 10^k
    return ok, a, e, d, (y - d).astype(np.float64)


def _cell_words(col, d, e, width):
    """(n, width) uint32 words whose first six hold the FLOAT_FMT cells of
    the signs of col, the 17-digit integers d and the exponents e."""
    _, head, quads, tails, exps = _csv_tables()
    top = d // 10**7
    lo = d - top * 10**7  # decimals 10-16
    lead = top // 10**8  # lead digit and first decimal
    hi = top - lead * 10**8  # decimals 2-9
    words = np.empty((d.size, width), np.uint32)
    words[:, 0] = head[np.signbit(col) * 100 + lead]
    hi_upper, lo_upper = hi // 10**4, lo // 1000
    words[:, 1] = quads[hi_upper]
    words[:, 2] = quads[hi - hi_upper * 10**4]
    words[:, 3] = quads[lo_upper]
    words[:, 4] = tails[lo - lo_upper * 1000]
    words[:, 5] = exps[e - _E_MIN]
    return words


def _repr_cells(vals):
    """float.__repr__ of each float in a list, with NaN and +-inf spelled as
    json writes them."""
    return [_JSON_NONFINITE.get(c, c) for c in map(float.__repr__, vals)]


def _patch(out, col, slow, cells):
    """Overwrite the rows of the byte matrix out where slow is set with
    cells() of those values of col; return out and how many rows that was."""
    slow = np.flatnonzero(slow)
    if slow.size:
        text = _text_bytes(cells(col[slow].tolist()))
        out[slow] = _PAD
        out[slow, :text.shape[1]] = text
    return out, slow.size


def _float_bytes(col):
    """A float64 column as an (n, 24) uint8 matrix of its FLOAT_FMT cells,
    each row padded with 0xFF (see _TIE_MARGIN), and how many of them
    FLOAT_FMT formatted itself."""
    ok, _, e, d, frac = _scaled_digits(col)
    ok &= np.abs(frac - 0.5) > _TIE_MARGIN * d
    d += frac > 0.5
    carry = d >= 10**17  # the significand rounds up to 10.000... (or y is out of range)
    d[carry] = 10**16
    e += carry
    return _patch(_cell_words(col, d, e, 6).view(np.uint8), col, ~ok, lambda vals: map(FLOAT_FMT.__mod__, vals))


def _repr_bytes(col):
    """A float64 column as an (n, 24) uint8 matrix of its json cells, each
    row padded with 0xFF and equal to _repr_cells of its value, and how many
    of them _repr_cells formatted itself: every one where long double is no
    wider than double (there the margin exceeds 1/2, and _scaled_digits'
    10^(16 - e) overflows for subnormals); else those the kernel below
    cannot vouch for.

    float.__repr__ prints the shortest decimal that reads back as x, the
    nearest one where there are several. In the units of d, x reads back
    from every value within the half-ulp h of d + frac (1/2 < h < 12), a
    symmetric interval: powers of two, whose interval is not, take
    _repr_cells. 17 digits always read back (h > 1/2). 16 do iff the
    nearest multiple of 10 is inside the interval, and fewer iff the
    nearest multiple of 100 is; it is the only one there (the interval is
    narrower than 100), so it holds the shortest digits, and its trailing
    zeros say how many. d + frac is within _TIE_MARGIN * d of the exact
    value; _repr_cells formats a value where that leaves in doubt whether a
    candidate is inside the interval or which way it rounds, and so
    subnormals, the largest double, zeros and non-finite values. The cell
    is laid out by one gather from the FLOAT_FMT cell of its digits
    (_repr_positions).
    """
    if _TIE_MARGIN * 1e17 >= 0.5:
        return _patch(np.empty((col.size, 24), np.uint8), col, np.ones(col.size, bool), _repr_cells)
    ok, a, e, d, frac = _scaled_digits(col)
    df = d.astype(np.float64)
    margin = _TIE_MARGIN * df
    m = np.frexp(a)[0]  # a / 2^k in [1/2, 1): an ulp of a is a * 2^-53 / m
    h = df / m * 2.0**-54
    ok &= (m != 0.5) & (a >= np.finfo(np.float64).tiny) & (a < np.finfo(np.float64).max)
    r10, r100 = d - d // 10 * 10, d - d // 100 * 100
    below10, below100 = r10 + frac, r100 + frac  # distances down to a multiple of 10, 100
    dist10 = np.minimum(below10, 10 - below10)
    dist100 = np.minimum(below100, 100 - below100)
    hit10, hit100 = dist10 < h, dist100 < h
    ok &= (np.abs(dist10 - h) > margin) & (np.abs(dist100 - h) > margin)
    ok &= np.where(hit10, np.abs(below10 - 5), np.abs(frac - 0.5)) > margin  # (no tie at 100: h < 50)
    digits = np.where(hit100, d - r100 + 100 * (below100 > 50),
                      np.where(hit10, d - r10 + 10 * (below10 > 5), d + (frac > 0.5)))
    carry = digits == 10**17  # rounded up to 10^(e + 1)
    digits[carry | ~ok] = 10**16
    e += carry
    words = _cell_words(col, digits, e, 7)
    words[:, 6] = _ZERO_WORD
    src = words.view(np.uint8)
    p = 17 - hit10 - hit100  # the digits with no trailing zero
    short = np.flatnonzero(hit100)  # 17 less the trailing zeros, read off the digit bytes
    p[short] = 17 - (src[short, 18:1:-1] != ord("0")).argmax(axis=1)
    at = np.take(_repr_positions(), np.where((e >= -4) & (e <= 15), (e + 4) * 17, 340) + p - 1, axis=0)
    at += np.arange(0, src.size, 28)[:, None]  # each row's start in src
    return _patch(src.ravel()[at], col, ~ok, _repr_cells)


def _cells(col, fmt):
    """A nonempty list of str or of int as csv or json cell strings: str as
    it is in csv and json-quoted in json, int by its repr in both.
    (float64 arrays go through _float_bytes/_repr_bytes.)"""
    if type(col[0]) is int:
        return list(map(int.__repr__, col))
    return col if fmt == "csv" else list(map(encode_basestring_ascii, col))


def _block_bytes(cols, fmt):
    """One nonempty block of rows as a 0xFF-padded byte matrix per column,
    and the number of float run cells the kernels' fallback formatted. Each
    run of equal cells (_runs) is formatted once and its bytes repeated:
    float64 runs by one kernel call over all the columns (_float_bytes in
    csv, _repr_bytes in json), list runs through _cells and _text_bytes."""
    runs = [_runs(c) for c in cols]
    floats = [v for v, _ in runs if isinstance(v, np.ndarray)]
    mat, slow = (_float_bytes if fmt == "csv" else _repr_bytes)(np.concatenate([np.empty(0), *floats]))
    mats = iter(np.split(mat, np.cumsum([v.size for v in floats])))
    mats = [next(mats) if isinstance(v, np.ndarray) else _text_bytes(_cells(v, fmt)) for v, _ in runs]
    return [np.repeat(m, k, axis=0) for m, (_, k) in zip(mats, runs)], slow


def _emit(header, columns, fmt, out):
    """Write a table given as one column per header name.

    Float columns are float64 arrays; other columns are lists of str or of
    int, and any other column raises TypeError. Both formats are built the
    same way, _BLOCK_ROWS rows at a time: every column becomes a 0xFF-padded
    byte matrix in which each run of equal cells is formatted once and
    repeated (_block_bytes), the matrices and the literal text between them
    are laid side by side, and the padding is dropped before the block is
    decoded once. The text is byte-identical to formatting the equivalent
    row dicts cell by cell (csv) or with json.dumps(rows, indent=2,
    sort_keys=True) (json). One DEBUG record on the spinlev.cli logger
    reports the format, rows, fallback_cells (float run cells the kernels'
    fallback formatted) and seconds of each table as attributes.
    """
    start = time.perf_counter()
    if not header or len(columns) != len(header):
        raise ValueError(f"need one column per header name, got {len(columns)} for {len(header)}")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    for col in columns:
        types = set() if isinstance(col, np.ndarray) and col.dtype == np.float64 else set(map(type, col))
        if types not in (set(), {str}, {int}):
            raise TypeError(f"an output column must be a float64 array or a list of str or of int, "
                            f"got one of {', '.join(sorted(t.__name__ for t in types))}")
    if fmt == "csv":
        order = range(len(header))
        seps = [""] + [","] * (len(header) - 1) + ["\n"]
        text = [",".join(header) + "\n"]
    else:
        order = sorted(range(len(header)), key=header.__getitem__)
        keys = map(encode_basestring_ascii, (header[j] for j in order))
        seps = [f"{',' if i else '  {'}\n    {key}: " for i, key in enumerate(keys)]
        seps.append("\n  },\n")
        text = ["[\n"]
    seps = [np.frombuffer(s.encode(), np.uint8) for s in seps]
    slow = 0
    for lo in range(0, n, _BLOCK_ROWS):
        mats, k = _block_bytes([columns[i][lo:lo + _BLOCK_ROWS] for i in order], fmt)
        slow += k
        parts = [x for pair in zip(seps, mats) for x in pair] + seps[-1:]
        ends = np.cumsum([part.shape[-1] for part in parts])
        body = np.empty((mats[0].shape[0], ends[-1]), np.uint8)
        for part, end in zip(parts, ends):
            body[:, end - part.shape[-1]:end] = part
        body = body.ravel()
        text.append(body[body != _PAD].tobytes().decode("utf-8", "surrogatepass"))
    if fmt == "json":  # drop the last row's ',' and close the list
        text[-1] = text[-1][:-2] + "\n]\n" if n else "[]\n"
    _write(out, "".join(text))
    seconds = time.perf_counter() - start
    _log.debug("%s table of %d rows in %.6f s, %d float cells by the fallback", fmt, n, seconds, slow,
               extra={"format": fmt, "rows": n, "fallback_cells": slow, "seconds": seconds})


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
        raise ParameterError(f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ParameterError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                             f"this subcommand reads {', '.join(sorted(allowed)) or 'none'}")
    return cfg


def _load_config(path, allowed=frozenset()):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
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
        raise ParameterError(f"{key} must be an integer{bound}, got {value!r}")
    return int(x)


def _finite(value, key: str, positive: bool = False) -> float:
    """A finite float config value (and > 0 if positive) by the units rule;
    anything else exits 2 naming the key."""
    x = json_number(value, key)
    (units._finite_positive if positive else units._finite)(**{key: x})
    return x


def _scaled(value, scale: float, key: str, positive: bool = False) -> float:
    """_finite(value) * scale, which must be finite too: a finite value that
    overflows once scaled to natural units exits 2 naming the key."""
    x = _finite(value, key, positive) * scale
    if not math.isfinite(x):
        raise ParameterError(f"{key} = {value!r} overflows to {x!r} once scaled by {scale!r}")
    return x


def _sequences(cfg, tau: float):
    """(name, PulseSequence) for each name in the config's "sequences" list,
    by default the named kinds; anything but a list of known names exits 2."""
    names = cfg.get("sequences", list(pulses.NAMED_KINDS))
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParameterError(f"sequences must be a list of sequence names, got {names!r}")
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
        raise ParameterError("nu_min_hz and nu_max_hz must be finite with 0 < nu_min_hz < nu_max_hz, "
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
        raise ParameterError(f"--seed must be in [0, 2**64), got {seed}")
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


# built on first use; parse_args keeps no state in it, so one serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapped or patched cmd_* function
        # takes effect although the parser was built before
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout (e.g. head) or of an --out FIFO left; not an error.
        # A broken stdout goes to /dev/null, so its flush at exit cannot fail.
        if not args.out:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
