"""The benchmark's workloads: CLI invocations and the checks on their artifacts.

Each workload is a fixed list of ``psqkd`` command lines.  Every invocation
writes its artifact into the current directory; after a pass the checks
below read those files back.  A check returns a list of problems (empty
when the artifact is right) and adds the work the artifact represents to a
``Work`` tally: sweep cells, simulated rounds, reconciled code bits and
decoded frames.

Correctness rules, all stated here so a reader can audit them:

- Deterministic artifacts (the sweep, and every artifact at the default
  seed) must match the golden files under ``golden/`` cell by cell: text
  cells exactly, numeric cells within ``RTOL`` relative (``ATOL`` absolute
  near zero).
- Monte Carlo and rescale rows must sit within ``SIGMA_BOUND`` standard
  errors of their analytic targets, on every seed.
- Bench rows must list every data arm asked for, with the requested block
  count, and ``beta`` must equal R / (0.5 log2(1 + SNR)), the definition of
  ``psqkd.analysis.beta_from_rate_snr``, within ``BETA_RTOL``.
- The oracle's closed-form and number-basis columns must agree within
  ``ORACLE_ABS_BOUND``.

Only the standard library is used, so the parent process can import this
module without loading the program.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 7
RTOL = 1e-6
ATOL = 1e-12
# Standard errors from the CLI are Gaussian-formula and run about 1.2x small
# on the non-Gaussian accepted marginal, so 6 printed sigma is ~5 true sigma.
SIGMA_BOUND = 6.0
# Printed SNR and beta carry 9 significant digits; the recomputed beta may
# differ from the printed one by a few units in the last digit.
BETA_RTOL = 1e-7
ORACLE_ABS_BOUND = 1e-8
RECORDS = "records.txt"
RECONCILE_SNR = "0.1626"
POSTSELECTED_TYPE = "non_gaussian(k=1, V=20, T=0.8)"

WORKLOADS = ("sweep", "protocol", "reconcile")


@dataclass(frozen=True)
class Invocation:
    """One CLI command line of a workload.

    label names the artifact (``<label>.csv``); kind selects its check;
    seeded marks artifacts that depend on the seed, which are compared
    with the golden files only at the default seed.
    """

    label: str
    argv: tuple
    kind: str
    seeded: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def outputs(self) -> list[str]:
        names = [f"{self.label}.csv"]
        if self.command == "fig4":
            names.append(f"{self.label}_optima.csv")
        return names

    def full_argv(self) -> list[str]:
        return list(self.argv) + ["--out", f"{self.label}.csv"]


@dataclass
class Work:
    """Work represented by the artifacts of one pass."""

    cells: int = 0
    rounds: int = 0
    bits: int = 0
    frames_ok: int = 0
    frames: int = 0
    problems: list = field(default_factory=list)


def invocations(workload: str, seed: int, smoke: bool = False) -> list[Invocation]:
    """The command lines of one pass of a workload.

    smoke shrinks every size so the whole list runs in about a second,
    keeping every command and every check.
    """
    if workload == "sweep":
        return [
            Invocation("fig2_ideal", ("fig2", "--d-step", "50" if smoke else "1"), "table"),
            Invocation("fig2_lossy", ("fig2", "--d-step", "100" if smoke else "2",
                                      "--eta-d", "0.5"), "table"),
            Invocation("fig3", ("fig3", "--d-step", "50" if smoke else "1"), "table"),
            Invocation("fig4", ("fig4", "--distances", "50", "--t-count", "32",
                                "--refinements", "1") if smoke else ("fig4",), "table"),
            Invocation("fig6", ("fig6", "--d-step", "50" if smoke else "5"), "table"),
            Invocation("oracle", ("oracle", "--k", "1", "--eta-d", "0.8")
                       + (("--v", "6") if smoke else ()), "oracle"),
        ]
    if workload == "protocol":
        big = "100000" if smoke else "10000000"
        mid = "100000" if smoke else "1000000"
        rows = "20000" if smoke else "1000000"
        code = ("--code-n", "512", "--blocks", "4") if smoke else ("--code-n", "4096")
        return [
            Invocation("mc_k1", ("montecarlo", "--k", "1", "--t", "0.8", "--dist", "50",
                                 "--n", big, "--seed", str(seed)), "moments", True),
            Invocation("mc_onoff", ("montecarlo", "--on-off", "--t", "0.8", "--dist", "50",
                                    "--n", big, "--seed", str(seed + 1)), "moments", True),
            Invocation("rescale", ("rescale", "--dist", "50", "--n", mid,
                                   "--seed", str(seed + 2)), "moments", True),
            Invocation("mc_export", ("montecarlo", "--k", "1", "--t", "0.8", "--dist", "50",
                                     "--n", rows, "--seed", str(seed + 3),
                                     "--export", RECORDS), "export", True),
            Invocation("bench_records", ("bench", "--records", RECORDS,
                                         "--data", "postselected") + code
                       + ("--seed", str(seed + 4)), "bench", True),
        ]
    if workload == "reconcile":
        code = ("--code-n", "1024", "--blocks", "2") if smoke else \
            ("--code-n", "65536", "--blocks", "4")
        return [
            Invocation("bench_both", ("bench",) + code + ("--snr", RECONCILE_SNR,
                                                          "--seed", str(seed)),
                       "bench", True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# artifact parsing and comparison

def read_table(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split a CLI CSV artifact into (header params, columns, data rows)."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    params = {}
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            params[key] = value
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    if not rows:
        raise ValueError(f"{os.path.basename(path)}: no column row")
    return params, rows[0], rows[1:]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def cells_match(got: str, want: str) -> bool:
    """Numeric cells within RTOL/ATOL (nan matches nan); others exactly."""
    if got == want:
        return True
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare_golden(path: str, golden: str) -> list[str]:
    """Problems found comparing an artifact with its golden file."""
    name = os.path.basename(path)
    if not os.path.exists(golden):
        return [f"{name}: golden file missing"]
    got_params, got_cols, got_rows = read_table(path)
    want_params, want_cols, want_rows = read_table(golden)
    problems = []
    if list(got_params) != list(want_params):
        problems.append(f"{name}: header keys {list(got_params)} != {list(want_params)}")
    else:
        for key in want_params:
            if not cells_match(got_params[key], want_params[key]):
                problems.append(f"{name}: header {key}={got_params[key]} "
                                f"!= {want_params[key]}")
    if got_cols != want_cols:
        problems.append(f"{name}: columns {got_cols} != {want_cols}")
    if len(got_rows) != len(want_rows):
        problems.append(f"{name}: {len(got_rows)} rows != {len(want_rows)}")
        return problems
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        if len(got) != len(want):
            problems.append(f"{name}: row {i} has {len(got)} cells != {len(want)}")
            continue
        for col, g, w in zip(want_cols, got, want):
            if not cells_match(g, w):
                problems.append(f"{name}: row {i} {col}={g} != {w}")
    return problems[:20]


# ---------------------------------------------------------------------------
# per-kind checks

def _flag(argv, name, default=None):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else default


def _check_moments(inv, params, cols, rows, work) -> list[str]:
    problems = []
    if cols != ["quantity", "empirical", "std_error", "analytic", "sigma"] or len(rows) != 7:
        return [f"{inv.label}: unexpected layout {cols} with {len(rows)} rows"]
    for row in rows:
        sigma = _number(row[4])
        if sigma is None or not sigma <= SIGMA_BOUND:
            problems.append(f"{inv.label}: {row[0]} sigma {row[4]} exceeds {SIGMA_BOUND}")
    work.rounds += int(params.get("n", "0"))
    return problems


def _check_export(inv) -> list[str]:
    # export_records writes two header lines, then one line per round
    want = int(_flag(inv.argv, "--n")) + 2
    with open(RECORDS, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return [] if lines == want else [f"{RECORDS}: {lines} lines, expected {want}"]


def _check_oracle(inv, rows) -> list[str]:
    problems = []
    for row in rows:
        diff = _number(row[3])
        if diff is None or not diff <= ORACLE_ABS_BOUND:
            problems.append(f"{inv.label}: {row[0]} closed form and oracle differ "
                            f"by {row[3]}")
    return problems


def _check_bench(inv, rows, work) -> list[str]:
    n = int(_flag(inv.argv, "--code-n", "2048"))
    blocks = int(_flag(inv.argv, "--blocks", "10"))
    m = n - round(0.1 * n)
    rate = (n - m) / n
    if _flag(inv.argv, "--data", "both") == "postselected":
        want_types = [RECORDS]
    else:
        want_types = ["Gaussian", POSTSELECTED_TYPE]
    types = [row[3] for row in rows if len(row) == 6]
    if len(rows) != len(want_types) or types != want_types:
        return [f"{inv.label}: data arms {types} != {want_types}"]
    problems = []
    for row in rows:
        r, snr, beta = _number(row[0]), _number(row[1]), _number(row[2])
        ok_text, _, total_text = row[4].partition("/")
        if None in (r, snr, beta) or not (ok_text.isdigit() and total_text.isdigit()):
            problems.append(f"{inv.label}: malformed row {row}")
            continue
        ok, total = int(ok_text), int(total_text)
        if abs(r - rate) > 1e-8:
            problems.append(f"{inv.label}: code rate {r} != {rate}")
        if row[3] != RECORDS and row[1] != RECONCILE_SNR:
            problems.append(f"{inv.label}: {row[3]} SNR {row[1]} != {RECONCILE_SNR}")
        if snr <= 0.0 or abs(beta - r / (0.5 * math.log2(1.0 + snr))) > BETA_RTOL * beta:
            problems.append(f"{inv.label}: beta {beta} is not R/C(SNR) at R={r}, SNR={snr}")
        if total != blocks or ok > total:
            problems.append(f"{inv.label}: {row[3]} S/T {row[4]} with {blocks} blocks asked")
        work.frames_ok += ok
        work.frames += total
        work.bits += total * n
    return problems


def check(inv: Invocation, seed: int, golden_dir: str | None, work: Work) -> list[str]:
    """Check one invocation's artifacts in the current directory.

    golden_dir holds the golden files for this workload and size; it is
    None when golden files are being written, which skips the comparison.
    """
    for name in inv.outputs():
        if not os.path.exists(name):
            return [f"{inv.label}: {name} not written"]
    problems = []
    try:
        params, cols, rows = read_table(f"{inv.label}.csv")
        if inv.kind == "table":
            work.cells += len(rows)
            if inv.command == "fig4":
                work.cells += len(read_table(f"{inv.label}_optima.csv")[2])
        elif inv.kind == "oracle":
            work.cells += len(rows)
            problems += _check_oracle(inv, rows)
        elif inv.kind in ("moments", "export"):
            problems += _check_moments(inv, params, cols, rows, work)
            if inv.kind == "export":
                problems += _check_export(inv)
        elif inv.kind == "bench":
            problems += _check_bench(inv, rows, work)
        if golden_dir is not None and (seed == DEFAULT_SEED or not inv.seeded):
            for name in inv.outputs():
                problems += compare_golden(name, os.path.join(golden_dir, name))
    except (OSError, ValueError, IndexError) as exc:
        return [f"{inv.label}: malformed artifact: {exc}"]
    return problems
