"""Batch command line for the postselected CV-QKD toolkit.

Each subcommand produces one reproducible artifact: a key-rate breakdown,
a distance or noise sweep, acceptance curves, a Monte Carlo consistency
table, a rescaling demonstration, a Fock-oracle cross-check, or a
reconciliation bench.  Output is a CSV table (comment lines of
``key=value`` pairs, a column row, then data) or its JSON equivalent;
floats are printed with 9 significant digits, so the same arguments and
seed always yield byte-identical files.  The header echo of any run can
be stripped of its ``# `` prefixes and fed back as a ``--config`` file.

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import secrets
import sys

import numpy as np

from .analysis import (
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_LOSS_DB_PER_KM,
    DEFAULT_V,
    ScanSpec,
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
from .montecarlo import (
    RescaleSpec,
    collect_accepted_pairs,
    export_records,
    load_records,
    rescale_and_filter,
    run_experiment,
)
from .reconciliation import (
    accepted_pairs,
    bench,
    gaussian_pairs,
    load_alist,
    matched_channel,
    non_gaussian_label,
    peg_construct,
)
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


def read_header_params(text: str) -> dict[str, str]:
    """Recover the parameter echo from an output file's comment header.

    The inverse of the CSV header writer: ``# key=value`` lines go back
    through the config-file parser, so a saved header replays a run.
    """
    lines = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    return parse_config_lines(lines)


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


def _echo(args, names, seed=None, **derived) -> dict:
    """Ordered parameter echo for the output header.

    names are flag destinations taken from args (None means the flag was
    not given and is omitted); derived entries append after them.
    """
    out = {}
    for name in names:
        value = getattr(args, name)
        if value is not None:
            out[name] = value
    if seed is not None:
        out["seed"] = seed
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


def _render(fmt: str, params: dict, columns, rows, report: dict | None = None) -> str:
    if fmt == "json":
        doc = {"params": {k: _json_value(v) for k, v in params.items()}}
        if report is not None:
            doc["report"] = {k: _json_value(v) for k, v in report.items()}
        else:
            doc["columns"] = list(columns)
            doc["rows"] = [[_json_value(v) for v in row] for row in rows]
        return json.dumps(doc, indent=2) + "\n"
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


def _emit(args, params, columns, rows, report=None) -> int:
    _write_out(args.out, _render(args.format, params, columns, rows, report))
    return 0


# ---------------------------------------------------------------------------
# shared flag groups and resolution helpers

def _add_output(p: argparse.ArgumentParser, fmt: str = "csv") -> None:
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=fmt,
                   help=f"output format (default: {fmt})")
    p.add_argument("--config", help="flat key = value defaults file; flags win")


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=float, default=DEFAULT_V,
                   help="source variance in shot-noise units")
    p.add_argument("--t", type=float, default=0.8, help="tap transmittance")
    p.add_argument("--k", type=int, default=None,
                   help="condition on this click count (omit for the plain source)")
    p.add_argument("--on-off", action="store_true",
                   help="condition on the threshold counter instead of a count")
    p.add_argument("--eta-d", type=float, default=1.0, help="counter efficiency")


def _add_channel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", type=float, default=None, help="channel length in km")
    p.add_argument("--loss", type=float, default=DEFAULT_LOSS_DB_PER_KM,
                   help="fiber loss in dB/km")
    p.add_argument("--tc", type=float, default=None,
                   help="channel transmittance, as an alternative to --dist")
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON,
                   help="excess noise at the channel input")


def _add_distance_grid(p: argparse.ArgumentParser, lo, hi, step) -> None:
    p.add_argument("--d-lo", type=float, default=lo, help="first distance in km")
    p.add_argument("--d-hi", type=float, default=hi, help="last distance in km")
    p.add_argument("--d-step", type=float, default=step, help="distance step in km")


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


def _resolve_seed(args) -> int:
    # randomized commands record the seed they actually used
    return args.seed if args.seed is not None else secrets.randbits(63)


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
    params = _echo(args, ("v", "k", "on_off", "t", "eta_d", "dist", "tc",
                          "eps", "loss", "beta"))
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
    rows = []
    for lbl, src in zip(labels, sources):
        for d in distances:
            ch = ChannelSpec(distance_km=d, loss_db_per_km=args.loss, epsilon=args.eps)
            rec = optimize_t(src, ch, args.beta, with_bands=False)
            rows.append([lbl, d, rec.t_opt, rec.key_rate_opt, rec.success_prob_at_opt,
                         rec.has_key])
    params = _echo(args, ("schemes", "v", "eta_d", "d_lo", "d_hi", "d_step",
                          "eps", "loss", "beta"))
    return _emit(args, params,
                 ["scheme", "distance_km", "t_opt", "key_rate", "success_prob",
                  "has_key"], rows)


def _cmd_fig3(args) -> int:
    labels = _split_list(args.schemes, "--schemes", str)
    distances = _distance_grid(args)
    sources = [_scheme_source(lbl, args.v, args.t, args.eta_d) for lbl in labels]
    rows = []
    for lbl, src in zip(labels, sources):
        for d in distances:
            eps_max, alive = tolerable_excess_noise(src, d, args.beta, args.loss)
            rows.append([lbl, d, eps_max, alive])
    params = _echo(args, ("schemes", "v", "t", "eta_d", "d_lo", "d_hi", "d_step",
                          "loss", "beta"))
    return _emit(args, params, ["scheme", "distance_km", "eps_max", "alive"], rows)


def _optima_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return root + "_optima" + (ext or ".csv")


def _cmd_fig4(args) -> int:
    labels = _split_list(args.schemes, "--schemes", str)
    distances = _split_list(args.distances, "--distances", float)
    grid = TGrid(args.t_lo, args.t_hi, args.t_count, args.refinements)
    sources = [_scheme_source(lbl, args.v, 0.5, args.eta_d) for lbl in labels]
    surface, optima = [], []
    for lbl, src in zip(labels, sources):
        for d in distances:
            rows, opts = landscape(ScanSpec((d,), (src,), grid, args.eps, args.loss,
                                            args.beta))
            surface.extend([lbl, d, t, rate] for _, d, t, rate in rows)
            optima.extend(
                [lbl, rec.distance_km, rec.t_opt, rec.key_rate_opt,
                 rec.success_prob_at_opt, rec.band_90[0], rec.band_90[1],
                 rec.band_50[0], rec.band_50[1], rec.has_key]
                for rec in opts
            )
    params = _echo(args, ("schemes", "distances", "v", "eta_d", "t_lo", "t_hi",
                          "t_count", "refinements", "eps", "loss", "beta"))
    surface_cols = ["scheme", "distance_km", "t", "key_rate"]
    optima_cols = ["scheme", "distance_km", "t_opt", "key_rate_opt",
                   "success_prob", "band90_lo", "band90_hi", "band50_lo",
                   "band50_hi", "has_key"]
    if args.format == "json":
        doc = {
            "params": {k: _json_value(v) for k, v in params.items()},
            "columns": surface_cols,
            "rows": [[_json_value(v) for v in row] for row in surface],
            "optima": {
                "columns": optima_cols,
                "rows": [[_json_value(v) for v in row] for row in optima],
            },
        }
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
    params = _echo(args, ("v", "k_list", "t_count"))
    return _emit(args, params, columns, rows)


def _cmd_fig6(args) -> int:
    etas = _split_list(args.eta_list, "--eta-list", float)
    distances = _distance_grid(args)
    rows = []
    for eta in etas:
        src = SourceSpec.k_photon(args.v, args.t, args.k, eta)
        for d in distances:
            ch = ChannelSpec(distance_km=d, loss_db_per_km=args.loss, epsilon=args.eps)
            rep = pipeline_key_rate(src, ch, args.beta)
            rows.append([eta, d, rep.key_rate, rep.success_prob, rep.is_secure])
    params = _echo(args, ("v", "t", "k", "eta_list", "d_lo", "d_hi", "d_step",
                          "eps", "loss", "beta"))
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
    params = _echo(args, ("v", "k", "on_off", "t", "eta_d", "dist", "tc", "eps",
                          "loss", "n"), seed=seed, n_accepted=res.estimate.n_accepted)
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
    _, est = rescale_and_filter(res.records, spec, args.k, seed + 1)
    fresh = covariance_subtracted(SourceSpec.k_photon(spec.v_prime, args.eta, args.k))
    post = apply_channel(fresh.cov, ch)
    identity_defect = abs(math.sqrt(args.eta) * spec.lam_prime * spec.g
                          - math.sqrt(args.t0) * src0.lam)
    params = _echo(args, ("v", "t0", "eta", "k", "dist", "tc", "eps", "loss", "n"),
                   seed=seed, g=spec.g, v_prime=spec.v_prime,
                   identity_defect=identity_defect)
    return _emit(args, params,
                 ["quantity", "empirical", "std_error", "analytic", "sigma"],
                 _compare_rows(est, fresh, post))


def _cmd_oracle(args) -> int:
    src = _single_source(args)
    if src.scheme == "none":
        raise DomainError("oracle needs a conditioning scheme: pass --k or --on-off")
    cutoff = args.cutoff if args.cutoff is not None else suggested_cutoff(args.v)
    state = build_split_tmsv(args.v, args.t, cutoff)
    if args.eta_d != 1.0:
        state = apply_detector_loss(state, args.eta_d)
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
    params = _echo(args, ("v", "t", "k", "on_off", "eta_d"), cutoff=cutoff)
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
        x, y = gaussian_pairs(args.snr, need, seed + 1)
        arms.append(("Gaussian", x, y, args.snr))
    if args.data in ("postselected", "both"):
        if args.records:
            x, y = accepted_pairs(load_records(args.records))
            arms.append((os.path.basename(args.records), x, y, None))
        else:
            src = SourceSpec.k_photon(args.v, args.t, args.k)
            ch = matched_channel(src, args.snr, args.eps)
            x, y = collect_accepted_pairs(src, ch, need, seed + 2)
            arms.append((non_gaussian_label(src), x, y, args.snr))
    reports = [
        bench(x, y, code, args.blocks, seed, data_type=label, snr=snr,
              max_iter=args.max_iter)
        for label, x, y, snr in arms
    ]
    rows = [list(rep.row().values()) for rep in reports]
    params = _echo(args, ("snr", "blocks", "code_n", "code_rate", "alist",
                          "records", "data", "v", "t", "k", "eps", "max_iter"),
                   seed=seed)
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
    params = _echo(args, ("rate", "snr", "beta"))
    return _emit(args, params, ["code_rate", "snr", "beta"],
                 [[args.rate, snr, beta]])


# ---------------------------------------------------------------------------
# parser assembly and entry point

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="psqkd",
        description="Key rates, sweeps, simulations and reconciliation benches "
                    "for photon-subtracted CV-QKD.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    subs = {}

    def new(name, help_text, run, fmt="csv"):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(_run=run, _parser=p)
        _add_output(p, fmt)
        subs[name] = p
        return p

    p = new("keyrate", "single key-rate evaluation through the full pipeline",
            _cmd_keyrate, fmt="json")
    _add_source(p)
    _add_channel(p)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA,
                   help="reconciliation efficiency")

    p = new("fig2", "per-distance optimal tap, key rate and click probability",
            _cmd_fig2)
    p.add_argument("--schemes", default="none,k1,k2",
                   help="comma list of none, on_off, k<count>")
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--eta-d", type=float, default=1.0, help="counter efficiency")
    _add_distance_grid(p, 0.0, 200.0, 10.0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--loss", type=float, default=DEFAULT_LOSS_DB_PER_KM)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)

    p = new("fig3", "largest excess noise with a positive rate, per distance",
            _cmd_fig3)
    p.add_argument("--schemes", default="none,k1,k2")
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--t", type=float, default=0.8, help="tap transmittance")
    p.add_argument("--eta-d", type=float, default=1.0)
    _add_distance_grid(p, 0.0, 100.0, 10.0)
    p.add_argument("--loss", type=float, default=DEFAULT_LOSS_DB_PER_KM)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)

    p = new("fig4", "rate landscape over the tap, with optima and rate bands",
            _cmd_fig4)
    p.add_argument("--schemes", default="k1")
    p.add_argument("--distances", default="50,100", help="comma list of km values")
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--eta-d", type=float, default=1.0)
    p.add_argument("--t-lo", type=float, default=0.01)
    p.add_argument("--t-hi", type=float, default=0.995)
    p.add_argument("--t-count", type=int, default=96)
    p.add_argument("--refinements", type=int, default=2)
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--loss", type=float, default=DEFAULT_LOSS_DB_PER_KM)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)

    p = new("fig5", "click probability versus tap transmittance per count",
            _cmd_fig5)
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--k-list", default="1,2,3,4", help="comma list of counts")
    p.add_argument("--t-count", type=int, default=400, help="grid points on (0, 1]")

    p = new("fig6", "key rate versus distance for imperfect counters", _cmd_fig6)
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--t", type=float, default=0.8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eta-list", default="1,0.8,0.5",
                   help="comma list of counter efficiencies")
    _add_distance_grid(p, 0.0, 100.0, 5.0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--loss", type=float, default=DEFAULT_LOSS_DB_PER_KM)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)

    p = new("montecarlo", "sampled protocol rounds against analytic targets",
            _cmd_montecarlo)
    _add_source(p)
    _add_channel(p)
    p.add_argument("--n", type=int, default=1_000_000, help="protocol rounds")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (auto-generated and recorded when omitted)")
    p.add_argument("--export", default=None,
                   help="also write the per-round records to this path")

    p = new("rescale", "pump rescaling demo: reuse records under detector loss",
            _cmd_rescale)
    p.add_argument("--v", type=float, default=DEFAULT_V, help="source variance")
    p.add_argument("--t0", type=float, default=0.8, help="tap of the recorded run")
    p.add_argument("--eta", type=float, default=0.5, help="target counter efficiency")
    p.add_argument("--k", type=int, default=1, help="click count")
    _add_channel(p)
    p.add_argument("--n", type=int, default=1_000_000, help="protocol rounds")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (auto-generated and recorded when omitted)")

    p = new("oracle", "closed forms against the truncated number-basis oracle",
            _cmd_oracle)
    _add_source(p)
    p.add_argument("--cutoff", type=int, default=None,
                   help="photon-number truncation (default: variance-derived)")

    p = new("bench", "reconciliation bench over Gaussian and postselected data",
            _cmd_bench)
    p.add_argument("--snr", type=float, default=0.1626, help="operating SNR")
    p.add_argument("--blocks", type=int, default=10, help="codewords per data type")
    p.add_argument("--code-n", type=int, default=2048,
                   help="constructed code length (multiple of 8)")
    p.add_argument("--code-rate", type=float, default=0.1,
                   help="constructed code rate")
    p.add_argument("--alist", default=None,
                   help="load the parity-check matrix from this alist file")
    p.add_argument("--records", default=None,
                   help="postselected data from an exported records file")
    p.add_argument("--data", choices=("gaussian", "postselected", "both"),
                   default="both", help="which data arms to bench")
    p.add_argument("--v", type=float, default=DEFAULT_V)
    p.add_argument("--t", type=float, default=0.8)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (auto-generated and recorded when omitted)")

    p = new("beta", "reconciliation efficiency arithmetic at a working point",
            _cmd_beta)
    p.add_argument("--rate", type=float, default=None, help="code rate")
    p.add_argument("--snr", type=float, default=None,
                   help="SNR; the implied efficiency is computed")
    p.add_argument("--beta", type=float, default=None,
                   help="efficiency; the implied SNR is computed")

    return parser, subs


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    try:
        path = _config_path(argv)
        if path is not None and argv and argv[0] in subs:
            _apply_config(subs[argv[0]], load_config(path))
        args = parser.parse_args(argv)
        return args._run(args)
    except PsqkdError as exc:
        print(f"psqkd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
