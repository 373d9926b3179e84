"""Benchmark of the effdiff identification pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each execution of a workload is a fresh
Python process (bench/child.py) with a fresh output directory under
.bench_out/, running sequentially with one BLAS/OpenMP thread. effdiff is
imported from src/ as it stands; nothing is built.

--trace 0 runs the workload at least once and again while another run fits
in --seconds, plus a few set-up-only processes, and reports medians of the
end-to-end metrics. --trace 1 runs it once untraced and once traced, and
reports the per-layer metrics of the traced run and the tracing overhead.
Every execution's CSV and JSON output is checked. The metric names and
units are those of BENCHMARK.json. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; --workload all
prints one such object per workload, keyed by name.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

sys.dont_write_bytecode = True  # leave no cache in the checkout

import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
THREADS = "1"

CSV_COLUMNS = ["experiment", "strategy", "epsilon", "P", "Q", "r", "seed",
               "a11", "a12", "a22", "err_star", "err_eps_q", "psi_final",
               "iters", "wall_ms"]
NUMERIC_COLUMNS = CSV_COLUMNS[2:]


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """SHA-256 over effdiff's sources; identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "effdiff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(stats: dict) -> dict:
    return {"commit": _commit(), "src_sha256": _src_digest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": sys.version.split()[0], "numpy": stats.get("numpy"),
            "scipy": stats.get("scipy"), "blas": stats.get("blas"),
            "blas_threads": int(THREADS)}


# ---------------------------------------------------------------------------
# executions

def spawn(workload: str, seed: int, out: str, trace: int,
          setup_only: bool = False) -> dict:
    """One fresh child process; returns its stats with wall_s and setup_s."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(out, "child.log")
    t_spawn = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: execution exceeded "
                             f"{CHILD_TIMEOUT_S} s; see {log_path}") from exc
    stats_path = os.path.join(out, "stats.json")
    if proc.returncode != 0 or not os.path.exists(stats_path):
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{workload}: child exited {proc.returncode}; "
                         f"log {log_path}:\n{tail}")
    with open(stats_path) as f:
        stats = json.load(f)
    stats["setup_s"] = stats["t_call"] - t_spawn
    if "t_end" in stats:
        stats["wall_s"] = stats["t_end"] - stats["t_call"]
    stats["out"] = out
    return stats


# ---------------------------------------------------------------------------
# output check

def record_problems(workload: str, rec: dict | None) -> list[str]:
    """Reasons the numbers of one JSON record are wrong (empty if right)."""
    if rec is None:
        return ["missing"]
    if "error" in rec:
        return ["error"]
    entries = [rec.get(k) for k in ("a11", "a12", "a22")]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and math.isfinite(v) for v in entries):
        return ["non_finite"]
    a11, a12, a22 = entries
    if not (a11 > 0.0 and a11 * a22 - a12 * a12 > 0.0):
        return ["not_spd"]
    ref = workloads.WORKLOADS[workload]["reference"]
    if rec.get("strategy") == "A_star":
        if any(abs(v - r) > workloads.A_STAR_ATOL
               for v, r in zip(entries, ref)):
            return ["a_star_value"]
    # ME results against A*; noisy re-identifications are not compared
    elif rec.get("strategy") == "ME" \
            and ":sigma=" not in rec.get("experiment", ""):
        err = math.sqrt(sum((v - r) ** 2 for v, r in zip(entries, ref))
                        / sum(r * r for r in ref))
        if err > workloads.err_star_tolerance(workload, rec["epsilon"]):
            return ["err_star"]
    return []


def row_parses(row: list[str] | None) -> bool:
    if row is None or len(row) != len(CSV_COLUMNS):
        return False
    for column, cell in zip(CSV_COLUMNS, row):
        if column in NUMERIC_COLUMNS and cell:
            try:
                float(cell)
            except ValueError:
                return False
    return True


def check_output(workload: str, out: str) -> dict:
    """Check one execution's records; a record fails on any problem.

    ``numeric_failed`` counts records whose numbers are wrong or missing;
    ``failed`` also counts records whose CSV row does not parse.
    """
    try:
        with open(os.path.join(out, workloads.OUTPUT["json"])) as f:
            records = json.load(f)["records"]
        with open(os.path.join(out, workloads.OUTPUT["csv"]),
                  newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, ValueError, KeyError):
        records, rows = [], []
    header_ok = bool(rows) and rows[0] == CSV_COLUMNS
    rows = rows[1:]
    attempted = max(workloads.WORKLOADS[workload]["records"], len(records))
    reasons: Counter = Counter()
    failed = numeric_failed = 0
    for i in range(attempted):
        problems = record_problems(
            workload, records[i] if i < len(records) else None)
        numeric_failed += bool(problems)
        if not (header_ok and row_parses(rows[i] if i < len(rows) else None)):
            problems.append("csv_not_numeric")
        failed += bool(problems)
        reasons.update(problems)
    return {"attempted": attempted, "failed": failed,
            "numeric_failed": numeric_failed, "reasons": reasons}


# ---------------------------------------------------------------------------
# one workload

def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    base = _fresh_dir(os.path.join(
        OUT_ROOT, f"{workload}-seed{seed}-trace{trace}"))

    def execution(k, traced=0):
        return spawn(workload, seed, os.path.join(base, f"exec{k}"), traced)

    if trace:
        plain = execution(0)
        traced = execution(1, traced=1)
        executions = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        wanted = spec["per_layer"]
    else:
        setups = [spawn(workload, seed, os.path.join(base, f"setup{k}"), 0,
                        setup_only=True)["setup_s"]
                  for k in range(SETUP_PROBES)]
        executions = []
        start = time.monotonic()
        while True:
            executions.append(execution(len(executions)))
            last = executions[-1]
            if time.monotonic() - start + last["setup_s"] + last["wall_s"] \
                    > seconds:
                break

        def median(key):
            return statistics.median(e[key] for e in executions)
        metrics = {"wall_s": median("wall_s"),
                   "setup_s": statistics.median(
                       setups + [e["setup_s"] for e in executions]),
                   "cpu_s": median("cpu_s"),
                   "peak_rss_mb": median("peak_rss_mb")}
        wanted = spec["end_to_end"]

    checks = [check_output(workload, e["out"]) for e in executions]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    reasons = sum((c["reasons"] for c in checks), Counter())

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    result = {
        "correct": all(c["numeric_failed"] == 0 for c in checks)
        and all(e["exit_code"] == 0 for e in executions),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "executions": len(executions),
              "failed_frac": failed / attempted,
              "failure_reasons": dict(reasons), "missing": missing,
              "env": environment(executions[0]), "result": result}
    with open(os.path.join(base, "result.json"), "w") as f:
        json.dump(detail, f, indent=1)
    return detail


def report(detail: dict) -> None:
    """Human-readable lines: environment, each metric with its unit, check."""
    result = detail["result"]
    print("env " + json.dumps(detail["env"]))
    seeded = workloads.WORKLOADS[detail["workload"]]["seeded"]
    print(f"workload {detail['workload']} seed {detail['seed']}"
          + ("" if seeded else " (input does not depend on the seed)")
          + f": {detail['executions']} execution(s), trace "
          f"{detail['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name in detail["missing"]:
        print(f"  {name} missing (no factor object exposed)")
    reasons = ", ".join(f"{k}: {v}"
                        for k, v in sorted(detail["failure_reasons"].items()))
    print(f"  failed_frac = {detail['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} records"
          + (f"; {reasons}" if reasons else "") + ")")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the effdiff identification pipeline.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "effdiff")):
        print(f"error: effdiff sources not found under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    names = [w["name"] for w in spec["workloads"]] \
        if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            detail = run_workload(name, args.seed, args.seconds, args.trace,
                                  spec)
            report(detail)
            results[name] = detail["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
