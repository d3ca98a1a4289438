"""Batch command line for the postselected CV-QKD toolkit.

Each subcommand produces one reproducible artifact: a key-rate breakdown,
a distance or noise sweep, acceptance curves, a Monte Carlo consistency
table, a rescaling demonstration, a Fock-oracle cross-check, or a
reconciliation bench.  Output is a CSV table (comment lines of
``key=value`` pairs, a column row, then data) or its JSON equivalent;
floats are printed with 9 significant digits, so the same arguments and
seed always yield byte-identical files.  The header echo of any run can
be stripped of its ``# `` prefixes and fed back as a ``--config`` file.

Exit codes: 0 on success, 1 on a domain or file error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_LOSS_DB_PER_KM,
    DEFAULT_V,
    TGrid,
    beta_from_rate_snr,
    landscape,
    optimize_t,
    pipeline_key_rate,
    snr_from_rate_beta,
    success_curves,
    tolerable_excess_noise,
)
from .errors import DomainError, PsqkdError
from .fock import apply_detector_loss, build_split_tmsv, condition_on_count, suggested_cutoff
from .gaussian import ChannelSpec, apply_channel
from .montecarlo import RescaleSpec, collect_accepted_pairs, rescale_and_filter, run_experiment
from .reconciliation import (
    accepted_pairs,
    bench,
    gaussian_pairs,
    load_alist,
    matched_channel,
    non_gaussian_label,
    peg_construct,
)
from .records import export_records, load_records
from .subtraction import SourceSpec, covariance_subtracted

# Degree profile of the constructed rate-0.1 code; low-rate irregular
# profile with a small high-degree fraction to keep the threshold down.
PEG_PROFILE = {2: 0.2, 3: 0.7, 6: 0.1}

_FLOAT_FMT = ".9g"


# ---------------------------------------------------------------------------
# config files and parameter echo

def parse_config_lines(lines) -> dict[str, str]:
    """Parse flat ``key = value`` lines into a string map.

    Blank lines and ``#`` comments are skipped; keys are normalized to
    flag destination names (hyphens become underscores).  Values stay
    strings; coercion happens against the selected subcommand's flag
    types, and keys the subcommand does not define are ignored there, so
    one config can serve several commands.
    """
    out = {}
    for i, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise DomainError(f"config line {i}: expected key = value, got {line!r}")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_lines(fh.read().splitlines())
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None


def _config_path(argv) -> str | None:
    # pre-scan so config defaults land before the real parse; flags still win
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _apply_config(sub: argparse.ArgumentParser, conf: dict[str, str]) -> None:
    for action in sub._actions:
        if action.dest == "help" or action.dest not in conf:
            continue
        raw = conf[action.dest]
        try:
            if action.nargs == 0:
                value = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                value = action.type(raw)
            else:
                value = raw
        except ValueError:
            raise DomainError(f"config key {action.dest}: bad value {raw!r}") from None
        sub.set_defaults(**{action.dest: value})


def _echo(args, **derived) -> dict:
    """Ordered parameter echo for the output header.

    The command's flags in table order, less the output flags and those
    left at None, then the derived entries.
    """
    out = {}
    for name in _COMMANDS[args.command][3]:
        value = getattr(args, name)
        if value is not None and name not in _OUTPUT:
            out[name] = value
    out.update(derived)
    return out


# ---------------------------------------------------------------------------
# rendering

def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), _FLOAT_FMT)
    return str(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return None
        return float(format(x, _FLOAT_FMT))
    if isinstance(value, np.integer):
        return int(value)
    return value


def _json_doc(params: dict | None, columns, rows, report: dict | None = None) -> dict:
    """The JSON document of a table: its params, if any, then the report or
    the columns and rows."""
    doc = {}
    if params is not None:
        doc["params"] = {k: _json_value(v) for k, v in params.items()}
    if report is not None:
        doc["report"] = {k: _json_value(v) for k, v in report.items()}
    else:
        doc["columns"] = list(columns)
        doc["rows"] = [[_json_value(v) for v in row] for row in rows]
    return doc


def _render(fmt: str, params: dict, columns, rows, report: dict | None = None) -> str:
    if fmt == "json":
        return json.dumps(_json_doc(params, columns, rows, report), indent=2) + "\n"
    buf = io.StringIO()
    for key, value in params.items():
        buf.write(f"# {key}={_text(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_text(v) for v in row])
    return buf.getvalue()


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would most likely
    raise, without creating or truncating it, so that a bad --out or
    --export fails before any work runs."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _emit(args, params, columns, rows, report=None) -> int:
    _write_out(args.out, _render(args.format, params, columns, rows, report))
    return 0


# ---------------------------------------------------------------------------
# flag vocabulary and resolution helpers

# dest: (option, kind, help), one entry per flag of any command; kind is the
# value type (None keeps the string), a tuple of choices, or bool for a
# switch.  Each command's flags and defaults are its list in _COMMANDS.
_FLAGS = {
    "out": ("--out", None, "output path (default: stdout)"),
    "format": ("--format", ("csv", "json"), "output format (default: %(default)s)"),
    "config": ("--config", None, "flat key = value defaults file; flags win"),
    "export": ("--export", None, "also write the per-round records to this path"),
    "schemes": ("--schemes", None, "comma list of none, on_off, k<count>"),
    "distances": ("--distances", None, "comma list of km values"),
    "v": ("--v", float, "source variance in shot-noise units"),
    "k": ("--k", int, "click count to condition on (unset: the plain source)"),
    "on_off": ("--on-off", bool, "condition on the threshold counter instead of a count"),
    "t": ("--t", float, "tap transmittance"),
    "t0": ("--t0", float, "tap transmittance of the recorded run"),
    "eta": ("--eta", float, "target tap transmittance"),
    "eta_d": ("--eta-d", float, "counter efficiency"),
    "k_list": ("--k-list", None, "comma list of click counts"),
    "eta_list": ("--eta-list", None, "comma list of counter efficiencies"),
    "d_lo": ("--d-lo", float, "first distance in km"),
    "d_hi": ("--d-hi", float, "last distance in km"),
    "d_step": ("--d-step", float, "distance step in km"),
    "t_lo": ("--t-lo", float, "lowest tap transmittance of the grid"),
    "t_hi": ("--t-hi", float, "highest tap transmittance of the grid"),
    "t_count": ("--t-count", int, "tap grid points"),
    "refinements": ("--refinements", int, "10x narrower grid passes around the best tap"),
    "dist": ("--dist", float, "channel length in km"),
    "tc": ("--tc", float, "channel transmittance, as an alternative to --dist"),
    "eps": ("--eps", float, "excess noise at the channel input"),
    "loss": ("--loss", float, "fiber loss in dB/km"),
    "beta": ("--beta", float, "reconciliation efficiency"),
    "n": ("--n", int, "protocol rounds"),
    "seed": ("--seed", int, "RNG seed (auto-generated and recorded when omitted)"),
    "cutoff": ("--cutoff", int, "photon-number truncation (default: variance-derived)"),
    "snr": ("--snr", float, "signal-to-noise ratio of the data"),
    "blocks": ("--blocks", int, "codewords per data type"),
    "code_n": ("--code-n", int, "constructed code length (multiple of 8)"),
    "code_rate": ("--code-rate", float, "constructed code rate"),
    "alist": ("--alist", None, "load the parity-check matrix from this alist file"),
    "records": ("--records", None, "postselected data from an exported records file"),
    "data": ("--data", ("gaussian", "postselected", "both"), "which data arms to bench"),
    "max_iter": ("--max-iter", int, "belief-propagation iteration limit per block"),
    "rate": ("--rate", float, "code rate"),
}

# flags that say where output goes, not what it holds; never echoed
_OUTPUT = ("out", "format", "config", "export")


def _single_source(args) -> SourceSpec:
    if args.on_off and args.k is not None:
        args._parser.error("--k and --on-off are mutually exclusive")
    if args.on_off:
        return SourceSpec.on_off(args.v, args.t, args.eta_d)
    if args.k is None:
        return SourceSpec.tmsv(args.v)
    return SourceSpec.k_photon(args.v, args.t, args.k, args.eta_d)


def _channel(args) -> ChannelSpec:
    if args.dist is None and args.tc is None:
        args._parser.error("one of --dist or --tc is required")
    if args.dist is not None:
        return ChannelSpec(t_c=args.tc, epsilon=args.eps,
                           distance_km=args.dist, loss_db_per_km=args.loss)
    return ChannelSpec(t_c=args.tc, epsilon=args.eps)


def _scheme_source(label: str, v: float, t: float, eta_d: float = 1.0) -> SourceSpec:
    """SourceSpec from a compact label: none, on_off, or k<count>."""
    if label == "none":
        return SourceSpec.tmsv(v)
    if label == "on_off":
        return SourceSpec.on_off(v, t, eta_d)
    if label.startswith("k") and label[1:].isdigit():
        return SourceSpec.k_photon(v, t, int(label[1:]), eta_d)
    raise DomainError(f"unknown scheme label {label!r}; use none, on_off, or k<count>")


def _split_list(text: str, flag: str, cast) -> list:
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise DomainError(f"{flag} must list at least one value")
    try:
        return [cast(tok) for tok in items]
    except ValueError:
        raise DomainError(f"{flag}: bad value in {text!r}") from None


def _distance_grid(args) -> list[float]:
    if args.d_step <= 0.0 or args.d_hi < args.d_lo:
        raise DomainError("need d_step > 0 and d_hi >= d_lo")
    count = int(math.floor((args.d_hi - args.d_lo) / args.d_step + 1e-9)) + 1
    return [args.d_lo + i * args.d_step for i in range(count)]


def _columns(label, distances, *columns) -> list[list]:
    """Rows [label, distance, cells...]; a scalar column repeats on every row.

    tolist() gives Python floats and bools, which render as scalar results do."""
    cells = (np.broadcast_to(c, (len(distances),)).tolist() for c in columns)
    return [[label, d, *row] for d, *row in zip(distances, *cells)]


def _resolve_seed(args) -> int:
    # randomized commands record the seed they actually used, so it goes back
    # into args for the echo: 63 bits from os.urandom, since the secrets
    # module would import hashlib and OpenSSL
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big") >> 1
    return args.seed


def _sigma(diff: float, se: float) -> float:
    if se > 0.0:
        return abs(diff) / se
    return 0.0 if diff == 0.0 else math.inf


# ---------------------------------------------------------------------------
# subcommands

def _cmd_keyrate(args) -> int:
    src = _single_source(args)
    ch = _channel(args)
    rep = pipeline_key_rate(src, ch, args.beta)
    params = _echo(args)
    report = {
        "mutual_info": rep.mutual_info,
        "holevo": rep.holevo,
        "raw_rate": rep.raw_rate,
        "success_prob": rep.success_prob,
        "key_rate": rep.key_rate,
        "beta": rep.beta,
        "secure": rep.is_secure,
    }
    return _emit(args, params, list(report), [list(report.values())], report)


def _cmd_fig2(args) -> int:
    labels = _split_list(args.schemes, "--schemes", str)
    distances = _distance_grid(args)
    sources = [_scheme_source(lbl, args.v, 0.5, args.eta_d) for lbl in labels]
    ch = ChannelSpec(distance_km=distances, loss_db_per_km=args.loss, epsilon=args.eps)
    rows = []
    for lbl, src in zip(labels, sources):
        rec = optimize_t(src, ch, args.beta, with_bands=False)
        rows.extend(_columns(lbl, distances, rec.t_opt, rec.key_rate_opt,
                             rec.success_prob_at_opt, rec.has_key))
    params = _echo(args)
    return _emit(args, params,
                 ["scheme", "distance_km", "t_opt", "key_rate", "success_prob",
                  "has_key"], rows)


def _cmd_fig3(args) -> int:
    labels = _split_list(args.schemes, "--schemes", str)
    distances = _distance_grid(args)
    sources = [_scheme_source(lbl, args.v, args.t, args.eta_d) for lbl in labels]
    rows = []
    for lbl, src in zip(labels, sources):
        eps_max, alive = tolerable_excess_noise(src, distances, args.beta, args.loss)
        rows.extend(_columns(lbl, distances, eps_max, alive))
    params = _echo(args)
    return _emit(args, params, ["scheme", "distance_km", "eps_max", "alive"], rows)


def _optima_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root + "_optima" + (ext or ".csv")


def _cmd_fig4(args) -> int:
    labels = _split_list(args.schemes, "--schemes", str)
    distances = _split_list(args.distances, "--distances", float)
    grid = TGrid(args.t_lo, args.t_hi, args.t_count, args.refinements)
    sources = [_scheme_source(lbl, args.v, 0.5, args.eta_d) for lbl in labels]
    ch = ChannelSpec(distance_km=distances, loss_db_per_km=args.loss, epsilon=args.eps)
    surface, optima = [], []
    for lbl, src in zip(labels, sources):
        pts, rates, rec = landscape(src, ch, args.beta, grid)
        for d, ts, rs in zip(distances, pts.T.tolist(), rates.T.tolist()):
            surface.extend([lbl, d, t, rate] for t, rate in zip(ts, rs))
        optima.extend(_columns(lbl, distances, rec.t_opt, rec.key_rate_opt,
                               rec.success_prob_at_opt, *rec.band_90, *rec.band_50,
                               rec.has_key))
    params = _echo(args)
    surface_cols = ["scheme", "distance_km", "t", "key_rate"]
    optima_cols = ["scheme", "distance_km", "t_opt", "key_rate_opt",
                   "success_prob", "band90_lo", "band90_hi", "band50_lo",
                   "band50_hi", "has_key"]
    if args.format == "json":
        doc = _json_doc(params, surface_cols, surface)
        doc["optima"] = _json_doc(None, optima_cols, optima)
        _write_out(args.out, json.dumps(doc, indent=2) + "\n")
        return 0
    surface_text = _render("csv", params, surface_cols, surface)
    optima_text = _render("csv", params, optima_cols, optima)
    if args.out:
        _write_out(args.out, surface_text)
        _write_out(_optima_path(args.out), optima_text)
    else:
        sys.stdout.write(surface_text + "\n" + optima_text)
    return 0


def _cmd_fig5(args) -> int:
    k_list = _split_list(args.k_list, "--k-list", int)
    ts, curves = success_curves(args.v, k_list, args.t_count)
    columns = ["t"] + [f"p_k{k}" for k in k_list]
    rows = [[t] + [float(curves[k][i]) for k in k_list] for i, t in enumerate(ts)]
    params = _echo(args)
    return _emit(args, params, columns, rows)


def _cmd_fig6(args) -> int:
    etas = _split_list(args.eta_list, "--eta-list", float)
    distances = _distance_grid(args)
    ch = ChannelSpec(distance_km=distances, loss_db_per_km=args.loss, epsilon=args.eps)
    rows = []
    for eta in etas:
        src = SourceSpec.k_photon(args.v, args.t, args.k, eta)
        rep = pipeline_key_rate(src, ch, args.beta)
        rows.extend(_columns(eta, distances, rep.key_rate, rep.success_prob, rep.is_secure))
    params = _echo(args)
    return _emit(args, params,
                 ["eta_d", "distance_km", "key_rate", "success_prob", "secure"],
                 rows)


def _compare_rows(est, rep, post) -> list[list]:
    rows = [
        ["accept_rate", est.accept_rate, est.se_accept, rep.success_prob],
        ["var_heterodyne", est.m2_xa, est.se_m2_xa, rep.v_tilde],
        ["mean_x", est.mean_xa, est.se_mean, 0.0],
        ["mean_p", est.mean_pa, est.se_mean, 0.0],
        ["cov_v1", est.cov.v1, est.se_v1, post.v1],
        ["cov_v2", est.cov.v2, est.se_v2, post.v2],
        ["cov_phi", est.cov.phi, est.se_phi, post.phi],
    ]
    return [row + [_sigma(row[1] - row[3], row[2])] for row in rows]


def _cmd_montecarlo(args) -> int:
    src = _single_source(args)
    ch = _channel(args)
    seed = _resolve_seed(args)
    res = run_experiment(src, ch, args.n, seed, keep_records=bool(args.export))
    if args.export:
        export_records(res.records, args.export)
    rep = covariance_subtracted(src)
    post = apply_channel(rep.cov, ch)
    params = _echo(args, n_accepted=res.estimate.n_accepted)
    return _emit(args, params,
                 ["quantity", "empirical", "std_error", "analytic", "sigma"],
                 _compare_rows(res.estimate, rep, post))


def _cmd_rescale(args) -> int:
    spec = RescaleSpec(args.v, args.t0, args.eta)
    ch = _channel(args)
    seed = _resolve_seed(args)
    src0 = SourceSpec.k_photon(args.v, args.t0, args.k)
    res = run_experiment(src0, ch, args.n, seed, keep_records=True)
    # refilter consumes seed + 1 so the run and the fresh uniforms never share a stream
    est = rescale_and_filter(res.records, spec, args.k, seed + 1)
    fresh = covariance_subtracted(SourceSpec.k_photon(spec.v_prime, args.eta, args.k))
    post = apply_channel(fresh.cov, ch)
    identity_defect = abs(math.sqrt(args.eta) * spec.lam_prime * spec.g
                          - math.sqrt(args.t0) * src0.lam)
    params = _echo(args, g=spec.g, v_prime=spec.v_prime, identity_defect=identity_defect)
    return _emit(args, params,
                 ["quantity", "empirical", "std_error", "analytic", "sigma"],
                 _compare_rows(est, fresh, post))


def _cmd_oracle(args) -> int:
    src = _single_source(args)
    if src.scheme == "none":
        raise DomainError("oracle needs a conditioning scheme: pass --k or --on-off")
    if args.cutoff is None:
        args.cutoff = suggested_cutoff(args.v)
    state = apply_detector_loss(build_split_tmsv(args.v, args.t, args.cutoff), args.eta_d)
    count = "on_off" if args.on_off else args.k
    prob, cov = condition_on_count(state, count)
    closed = covariance_subtracted(src)
    pairs = [
        ["success_prob", closed.success_prob, prob],
        ["cov_v1", closed.cov.v1, cov.v1],
        ["cov_v2", closed.cov.v2, cov.v2],
        ["cov_phi", closed.cov.phi, cov.phi],
    ]
    rows = [row + [abs(row[1] - row[2])] for row in pairs]
    params = _echo(args)
    return _emit(args, params,
                 ["quantity", "closed_form", "oracle", "abs_diff"], rows)


def _cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    if args.alist:
        code = load_alist(args.alist)
    else:
        m = args.code_n - round(args.code_rate * args.code_n)
        code = peg_construct(args.code_n, m, PEG_PROFILE, seed)
    need = args.blocks * code.n
    arms = []
    if args.data in ("gaussian", "both"):
        arms.append(("Gaussian", args.snr,
                     lambda: gaussian_pairs(args.snr, need, seed + 1)))
    if args.data in ("postselected", "both"):
        if args.records:
            arms.append((os.path.basename(args.records), None,
                         lambda: accepted_pairs(load_records(args.records))))
        else:
            src = SourceSpec.k_photon(args.v, args.t, args.k)
            ch = matched_channel(src, args.snr, args.eps)
            arms.append((non_gaussian_label(src), args.snr,
                         lambda: collect_accepted_pairs(src, ch, need, seed + 2)))
    # each arm draws from its own seed, so one arm's pairs are drawn, benched
    # and released before the next arm's are drawn
    reports = []
    for label, snr, draw in arms:
        x, y = draw()
        reports.append(bench(x, y, code, args.blocks, seed, data_type=label,
                             snr=snr, max_iter=args.max_iter))
        del x, y
    rows = [list(rep.row().values()) for rep in reports]
    params = _echo(args)
    return _emit(args, params, ["R", "SNR", "beta", "Type", "S/T", "AIN"], rows)


def _cmd_beta(args) -> int:
    if args.rate is None:
        args._parser.error("--rate is required")
    if (args.snr is None) == (args.beta is None):
        args._parser.error("pass exactly one of --snr or --beta")
    if args.snr is not None:
        snr, beta = args.snr, beta_from_rate_snr(args.rate, args.snr)
    else:
        snr, beta = snr_from_rate_beta(args.rate, args.beta), args.beta
    params = _echo(args)
    return _emit(args, params, ["code_rate", "snr", "beta"],
                 [[args.rate, snr, beta]])


# ---------------------------------------------------------------------------
# parser assembly and entry point

# name: (help, runner, default output format, {flag dest: default} in echo
# order), in help order; every command also takes --out, --format and --config
_COMMANDS = {
    "keyrate": ("single key-rate evaluation through the full pipeline", _cmd_keyrate, "json",
                {"v": DEFAULT_V, "k": None, "on_off": False, "t": 0.8, "eta_d": 1.0,
                 "dist": None, "tc": None, "eps": DEFAULT_EPSILON,
                 "loss": DEFAULT_LOSS_DB_PER_KM, "beta": DEFAULT_BETA}),
    "fig2": ("per-distance optimal tap, key rate and click probability", _cmd_fig2, "csv",
             {"schemes": "none,k1,k2", "v": DEFAULT_V, "eta_d": 1.0, "d_lo": 0.0,
              "d_hi": 200.0, "d_step": 10.0, "eps": DEFAULT_EPSILON,
              "loss": DEFAULT_LOSS_DB_PER_KM, "beta": DEFAULT_BETA}),
    "fig3": ("largest excess noise with a positive rate, per distance", _cmd_fig3, "csv",
             {"schemes": "none,k1,k2", "v": DEFAULT_V, "t": 0.8, "eta_d": 1.0,
              "d_lo": 0.0, "d_hi": 100.0, "d_step": 10.0,
              "loss": DEFAULT_LOSS_DB_PER_KM, "beta": DEFAULT_BETA}),
    "fig4": ("rate landscape over the tap, with optima and rate bands", _cmd_fig4, "csv",
             {"schemes": "k1", "distances": "50,100", "v": DEFAULT_V, "eta_d": 1.0,
              "t_lo": 0.01, "t_hi": 0.995, "t_count": 96, "refinements": 2,
              "eps": DEFAULT_EPSILON, "loss": DEFAULT_LOSS_DB_PER_KM,
              "beta": DEFAULT_BETA}),
    "fig5": ("click probability versus tap transmittance per count", _cmd_fig5, "csv",
             {"v": DEFAULT_V, "k_list": "1,2,3,4", "t_count": 400}),
    "fig6": ("key rate versus distance for imperfect counters", _cmd_fig6, "csv",
             {"v": DEFAULT_V, "t": 0.8, "k": 1, "eta_list": "1,0.8,0.5", "d_lo": 0.0,
              "d_hi": 100.0, "d_step": 5.0, "eps": DEFAULT_EPSILON,
              "loss": DEFAULT_LOSS_DB_PER_KM, "beta": DEFAULT_BETA}),
    "montecarlo": ("sampled protocol rounds against analytic targets", _cmd_montecarlo, "csv",
                   {"v": DEFAULT_V, "k": None, "on_off": False, "t": 0.8, "eta_d": 1.0,
                    "dist": None, "tc": None, "eps": DEFAULT_EPSILON,
                    "loss": DEFAULT_LOSS_DB_PER_KM, "n": 1_000_000, "seed": None,
                    "export": None}),
    "rescale": ("pump rescaling demo: reuse records at another tap transmittance",
                _cmd_rescale, "csv",
                {"v": DEFAULT_V, "t0": 0.8, "eta": 0.5, "k": 1, "dist": None, "tc": None,
                 "eps": DEFAULT_EPSILON, "loss": DEFAULT_LOSS_DB_PER_KM, "n": 1_000_000,
                 "seed": None}),
    "oracle": ("closed forms against the truncated number-basis oracle", _cmd_oracle, "csv",
               {"v": DEFAULT_V, "t": 0.8, "k": None, "on_off": False, "eta_d": 1.0,
                "cutoff": None}),
    "bench": ("reconciliation bench over Gaussian and postselected data", _cmd_bench, "csv",
              {"snr": 0.1626, "blocks": 10, "code_n": 2048, "code_rate": 0.1, "alist": None,
               "records": None, "data": "both", "v": DEFAULT_V, "t": 0.8, "k": 1,
               "eps": DEFAULT_EPSILON, "max_iter": 200, "seed": None}),
    "beta": ("reconciliation efficiency arithmetic at a working point", _cmd_beta, "csv",
             {"rate": None, "snr": None, "beta": None}),
}


def build_parser(command: str | None = None
                 ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.

    Every subcommand is registered, so the command list, the top-level help
    and argparse's errors are always complete.  Flags go on every
    subcommand, or only on command when one is named: a run parses one
    subcommand, and building every subcommand's flags takes about as long
    as a small command's whole run.
    """
    parser = argparse.ArgumentParser(
        prog="psqkd",
        description="Key rates, sweeps, simulations and reconciliation benches "
                    "for photon-subtracted CV-QKD.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    subs = {}
    for name, (help_text, run, fmt, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(_run=run, _parser=p)
        if command is None or command == name:
            for dest, default in {"out": None, "format": fmt, "config": None, **flags}.items():
                option, kind, flag_help = _FLAGS[dest]
                if kind is bool:
                    p.add_argument(option, action="store_true", help=flag_help)
                elif isinstance(kind, tuple):
                    p.add_argument(option, choices=kind, default=default, help=flag_help)
                else:
                    p.add_argument(option, type=kind, default=default, help=flag_help)
        subs[name] = p
    return parser, subs


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser(argv[0] if argv else None)
    try:
        path = _config_path(argv)
        if path is not None and argv and argv[0] in subs:
            _apply_config(subs[argv[0]], load_config(path))
        args = parser.parse_args(argv)
        for path in (args.out, getattr(args, "export", None)):
            if path:
                _check_writable(path)
        return args._run(args)
    except (PsqkdError, OSError) as exc:
        print(f"psqkd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
