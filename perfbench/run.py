#!/usr/bin/env python3
"""psqkd benchmark: three CLI workloads, end-to-end metrics and a traced run.

Run from the root of a psqkd checkout:

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics of one workload: set-up time
(fresh interpreters importing psqkd.cli), then passes over the workload's
CLI invocations in one fresh child process until --seconds are used, with
every artifact checked.  Times are in reference seconds: wall seconds
scaled by the host's speed, sampled on the workload's core (speed.py).  --trace 1 runs the traced run instead: for every
workload, one untraced and one traced pass, giving the per-layer metrics
and the spans (written to .perfbench/trace-seed<N>.json).  --smoke runs
the same code paths at sizes that finish in seconds.  --update-golden
rewrites the golden artifacts at the default seed.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it give every metric by name and
unit, the per-invocation times and the provenance of the run.  See
perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 6
IMPORT_PROBES = 3
# A run must end within 180 s; keep a margin for the parent's own work.
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import psqkd.cli; "
                "print(time.perf_counter() - t)")
# The set-up probe samples the machine's speed while it imports, and prints
# the sampler's own time and the factor from wall to reference seconds.
SETUP_PROBE = ("import sys; sys.path.insert(0, {here!r}); import speed; "
               "s = speed.Sampler(); s.start(); m = s.mark(); import psqkd.cli; "
               "wall, ref = s.span(m); s.stop(); print(s.spent, ref / wall)")
SCIPY_PROBE = ("import time, numpy; t = time.perf_counter(); import scipy.special; "
               "print(time.perf_counter() - t)")


class BenchError(Exception):
    """A run that cannot produce a result."""


def child_env(nproc: int) -> dict:
    """Environment of every child: the checkout's src, one process, bounded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PSQKD_THREADS", None)
    for var in BLAS_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(env: dict, nproc: int, seed: int, versions: dict) -> dict:
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas": versions.get("blas"),
        "blas_threads": {var: env[var] for var in BLAS_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def probe(code: str, env: dict, timeout: float) -> tuple[float, list[float]]:
    """Start a fresh interpreter running code: (process wall s, values it prints)."""
    t = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=WORK,
                         capture_output=True, text=True, timeout=timeout)
    wall = perf_counter() - t
    if out.returncode != 0:
        raise BenchError(f"import probe failed: {out.stderr.strip()[-500:]}")
    return wall, [float(v) for v in out.stdout.split()]


def setup_probe(env: dict) -> tuple[float, float]:
    """One fresh interpreter importing psqkd.cli: (wall s, reference s).

    The whole process's wall time, less the sampler's, is scaled by the
    speed sampled during the import.
    """
    wall, (spent, factor) = probe(SETUP_PROBE.format(here=HERE), env, 60.0)
    return wall - spent, (wall - spent) * factor


def run_child(workload: str, seed: int, seconds: float, smoke: bool, env: dict,
              timeout: float, trace_path: str | None = None,
              golden_out: str | None = None) -> dict:
    """Run one workload process and return its result document."""
    cwd = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    result_path = os.path.join(WORK, f"result-{os.getpid()}-{workload}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--result", result_path]
    if smoke:
        cmd.append("--smoke")
    if trace_path:
        cmd += ["--trace", trace_path]
    if golden_out:
        cmd += ["--golden-out", golden_out]
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise BenchError(f"{workload} process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report_problems(res: dict) -> None:
    for problem in res["problems"]:
        print(f"  FAILED {res['workload']}: {problem}")


def end_to_end(args, env, nproc, deadline) -> dict:
    """The --trace 0 run: set-up, timed passes, checks; prints the report."""
    # Half the interpreter starts go before the workload and half after, so
    # the median samples the machine at two moments of the run.
    setup = [setup_probe(env) for _ in range(SETUP_RUNS // 2)]
    res = run_child(args.workload, args.seed, args.seconds, args.smoke, env,
                    deadline - perf_counter() - SETUP_RUNS * 2.0)
    setup += [setup_probe(env) for _ in range(SETUP_RUNS - len(setup))]
    passes = res["passes"]
    n = len(res["labels"])
    # A pass built from each invocation's median time: a slow spell of the
    # shared machine during one invocation of one pass does not move it.
    medians = [statistics.median(p["invocation_s"][i] for p in passes) for i in range(n)]
    ref_medians = [statistics.median(p["invocation_ref_s"][i] for p in passes)
                   for i in range(n)]
    wall = sum(medians)
    first = passes[0]

    print(f"psqkd benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes of {len(res['labels'])} invocations"
          + (" (smoke sizes)" if args.smoke else ""))
    print("provenance " + json.dumps(provenance(env, nproc, args.seed, res["versions"])))
    print("pass wall times (s): " + ", ".join(fmt(p["wall_s"]) for p in passes))
    print("invocation medians (wall s, reference s):")
    for label, median, ref in zip(res["labels"], medians, ref_medians):
        print(f"  {label:<16} {fmt(median):>10} {fmt(ref):>10}")
    report_problems(res)

    metrics = {
        "wall_ref_s": (sum(ref_medians), "s", f"reference s: sum of invocation medians "
                       f"over {len(passes)} passes"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s",
                    f"reference s: median of {len(setup)} interpreter starts"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "peak RSS of the workload process, first pass"),
    }
    extra = {
        "wall_s": (wall, "s", f"wall s: sum of invocation medians over {len(passes)} passes"),
        "setup_wall_s": (statistics.median(w for w, _ in setup), "s",
                         f"wall s: median of {len(setup)} interpreter starts"),
        "ops_failed_frac": (res["failed"] / res["attempted"], "fraction",
                            f"{res['failed']} of {res['attempted']} invocations"),
    }
    if first["cells"]:
        extra["cells_per_s"] = (first["cells"] / wall, "1/s",
                                f"{first['cells']} cells per pass / wall_s")
    if first["rounds"]:
        extra["rounds_per_s"] = (first["rounds"] / wall, "1/s",
                                 f"{first['rounds']} rounds per pass / wall_s")
    if args.workload == "reconcile":
        extra["bits_per_s"] = (first["bits"] / wall, "1/s",
                               f"{first['bits']} code bits per pass / wall_s")
    if first["frames"]:
        ok = sum(p["frames_ok"] for p in passes)
        total = sum(p["frames"] for p in passes)
        extra["frames_ok_frac"] = (ok / total, "fraction", f"{ok} of {total} blocks decoded")
    print("end-to-end metrics:")
    for name, (value, unit, note) in {**metrics, **extra}.items():
        print(f"  {name:<16} {fmt(value):>12} {unit:<8} {note}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def traced(args, env, nproc, deadline) -> dict:
    """The --trace 1 run: every workload once untraced and once traced."""
    imports = [probe(IMPORT_PROBE, env, 60.0)[1][0] for _ in range(IMPORT_PROBES)]
    scipy_imports = [probe(SCIPY_PROBE, env, 60.0)[1][0] for _ in range(IMPORT_PROBES)]
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.scipy_special_import_s": (statistics.median(scipy_imports), "s"),
    }
    doc = {"spans": [], "folded": [], "layers": {}, "metrics": {}}
    attempted = failed = 0
    versions = {}
    part = os.path.join(WORK, f"trace-part-{os.getpid()}.json")
    for workload in workloads.WORKLOADS:
        try:
            res = run_child(workload, args.seed, args.seconds, args.smoke, env,
                            deadline - perf_counter(), trace_path=part)
            with open(part, encoding="utf-8") as fh:
                spans = json.load(fh)
        finally:
            if os.path.exists(part):
                os.remove(part)
        versions = res["versions"]
        attempted += res["attempted"]
        failed += res["failed"]
        report_problems(res)
        doc["spans"] += spans["spans"]
        doc["folded"] += spans["folded"]
        doc["layers"][workload] = spans["layers"]
        metrics.update(tracer.layer_metrics(workload, spans["layers"],
                                            res["passes"][0]["wall_s"]))

    prov = provenance(env, nproc, args.seed, versions)
    print(f"psqkd benchmark: traced run of every workload, seed {args.seed}"
          + (" (smoke sizes)" if args.smoke else ""))
    print("provenance " + json.dumps(prov))
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {fmt(value):>12} {unit}")
    print("self-time accounting (module self times + cli.self_s = trace.wall_s):")
    for workload in workloads.WORKLOADS:
        own = tracer.self_by_module(doc["layers"][workload])
        cli_self = metrics[f"{workload}.cli.self_s"][0]
        wall = metrics[f"{workload}.trace.wall_s"][0]
        parts = ", ".join(f"{m} {fmt(s)}" for m, s in sorted(own.items(), key=lambda x: -x[1]))
        print(f"  {workload}: {parts}, cli {fmt(cli_self)}; sum "
              f"{fmt(sum(own.values()) + cli_self)} s of traced wall {fmt(wall)} s; "
              f"overhead {fmt(metrics[f'{workload}.trace.overhead_s'][0])} s")

    doc["provenance"] = prov
    doc["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    path = os.path.join(WORK, f"trace-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": doc["metrics"],
    }


def update_golden(env) -> None:
    for size in ("full", "smoke"):
        for workload in workloads.WORKLOADS:
            out = os.path.join(HERE, "golden", size, workload)
            shutil.rmtree(out, ignore_errors=True)
            res = run_child(workload, workloads.DEFAULT_SEED, 0.0, size == "smoke", env,
                            600.0, golden_out=out)
            report_problems(res)
            print(f"golden {size}/{workload}: {len(os.listdir(out))} files")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite the golden artifacts at the default seed")
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "psqkd", "cli.py")):
        print(f"perfbench: no psqkd sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    if not args.update_golden and args.workload is None:
        ap.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    try:
        probe(IMPORT_PROBE, env, 120.0)  # compiles bytecode; not timed
        if args.update_golden:
            update_golden(env)
            return 0
        if args.trace:
            result = traced(args, env, nproc, deadline)
        else:
            result = end_to_end(args, env, nproc, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
