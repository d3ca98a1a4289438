"""Workload process: runs one workload's CLI invocations and checks them.

Started by run.py with the program's ``src`` on PYTHONPATH and a scratch
directory as the working directory.  It imports ``psqkd.cli`` once (the
clock starts after that), then repeats passes over the workload's
invocations through ``psqkd.cli.main``.  Each pass is timed as a whole and
per invocation, in wall seconds and in reference seconds (``speed.py``);
after the clock stops, every artifact is checked and the pass's files are
removed.  The result, with the process's peak RSS, goes
to a JSON file for run.py.

Usage: child.py --workload W --seed N --seconds S --result FILE
               [--smoke] [--trace FILE] [--golden-out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from time import perf_counter

import psqkd.cli
import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def reset_caches() -> None:
    """Empty the program's memo caches, as a fresh CLI process would have them.

    Passes repeat the same inputs, so without this every pass after the
    first would find, for example, each block's mu_of_snr already cached.
    """
    for key, module in list(sys.modules.items()):
        if module is not None and key.startswith("psqkd"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(invs, tr=None) -> tuple[float, list[float], list[float], list[str]]:
    """One pass: (wall_s, per-invocation wall s, per-invocation reference s, problems).

    Untraced, a ``speed.Sampler`` runs through the pass, and the wall times
    leave out its own time.  Traced, the pass and each invocation get their
    own spans, and there are no reference times.
    """
    problems = []
    times = []
    refs = []
    sampler = None if tr else speed.Sampler()
    root = tr.push(tracer.PASS) if tr else None
    if sampler:
        sampler.start()
    start = perf_counter()
    try:
        for inv in invs:
            frame = tr.push(f"cli.{inv.command}") if tr else None
            mark = sampler.mark() if sampler else perf_counter()
            try:
                rc = psqkd.cli.main(inv.full_argv())
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed invocation, not a failed run
                rc = f"{type(exc).__name__}: {exc}"
            if sampler:
                took, ref = sampler.span(mark)
                refs.append(ref)
            else:
                took = perf_counter() - mark
            times.append(took)
            if tr:
                tr.pop(frame)
            if rc != 0:
                problems.append(f"{inv.label}: exit {rc}")
    finally:
        if sampler:
            sampler.stop()
    wall = perf_counter() - start - (sampler.spent if sampler else 0.0)
    if tr:
        tr.pop(root)
    return wall, times, refs, problems


def check_pass(invs, seed, golden_dir, failed_early) -> tuple[workloads.Work, int]:
    """Check every artifact; returns the work tally and the failed invocation count."""
    work = workloads.Work()
    failed = 0
    for inv in invs:
        early = [p for p in failed_early if p.startswith(inv.label + ":")]
        problems = early or workloads.check(inv, seed, golden_dir, work)
        if problems:
            failed += 1
            work.problems += problems
    return work, failed


def clear_outputs() -> None:
    for name in os.listdir("."):
        path = os.path.join(".", name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # the build report's layout differs across NumPy releases
        blas_name = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", help="also run one traced pass and write its spans here")
    ap.add_argument("--golden-out", help="copy the artifacts of one pass here")
    args = ap.parse_args()

    invs = workloads.invocations(args.workload, args.seed, args.smoke)
    size = "smoke" if args.smoke else "full"
    golden_dir = None if args.golden_out else os.path.join(HERE, "golden", size,
                                                           args.workload)
    passes = []
    attempted = failed = 0
    problems = []
    peak_rss_mb = None
    started = perf_counter()
    # At least two passes, so the medians rest on more than one sample; after
    # that, start another pass only while it is expected to end in time.
    while len(passes) < 2 or (perf_counter() - started) + passes[-1]["wall_s"] <= args.seconds:
        reset_caches()
        wall, times, refs, early = run_pass(invs)
        if peak_rss_mb is None:
            # The peak of a fresh process over one pass, as one CLI run of each
            # invocation would see it; later passes reuse a fragmented heap.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        work, bad = check_pass(invs, args.seed, golden_dir, early)
        attempted += len(invs)
        failed += bad
        problems += work.problems
        passes.append({"wall_s": wall, "invocation_s": times, "invocation_ref_s": refs,
                       "cells": work.cells,
                       "rounds": work.rounds, "bits": work.bits,
                       "frames_ok": work.frames_ok, "frames": work.frames})
        if args.golden_out:
            os.makedirs(args.golden_out, exist_ok=True)
            for inv in invs:
                for name in inv.outputs():
                    shutil.copyfile(name, os.path.join(args.golden_out, name))
        clear_outputs()
        if args.trace or args.golden_out:
            break

    if args.trace:
        reset_caches()
        tr = tracer.Tracer(args.workload)
        uninstall = tracer.install(tr)
        try:
            wall, _, _, early = run_pass(invs, tr)
        finally:
            uninstall()
        work, bad = check_pass(invs, args.seed, golden_dir, early)
        attempted += len(invs)
        failed += bad
        problems += work.problems
        clear_outputs()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tr.export(), fh)

    result = {
        "workload": args.workload,
        "passes": passes,
        "labels": [inv.label for inv in invs],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "peak_rss_mb": peak_rss_mb,
        "versions": versions(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
