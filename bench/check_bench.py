"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/check_bench.py

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run, even one started on the whole checkout, does not collect it.

The count tests run every workload traced, twice with one seed and once
with another, so the file takes several minutes.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

# Counts that do not depend on the hardware; timings are excluded.
COUNT_SUFFIXES = ("factorizations", "solves", "assemblies", "lu_nnz",
                  "op_applications", "descents", "iterations",
                  "evaluations", "interpolate_calls", "accepted_frac",
                  "converged_frac")


def scratch(name):
    return run._fresh_dir(os.path.join(run.OUT_ROOT, "test", name))


def write_output(out, records, rows):
    with open(os.path.join(out, workloads.OUTPUT["json"]), "w") as f:
        json.dump({"schema_version": 1, "records": records}, f)
    with open(os.path.join(out, workloads.OUTPUT["csv"]), "w",
              newline="") as f:
        csv.writer(f).writerows([run.CSV_COLUMNS] + rows)


def periodic_record(strategy, eps, a):
    return {"experiment": "identify_periodic", "strategy": strategy,
            "epsilon": eps, "P": 3, "Q": 11, "r": 20, "seed": None,
            "a11": a[0], "a12": a[1], "a22": a[2], "err_star": 0.0,
            "err_eps_q": 0.1, "psi_final": None, "iters": None,
            "wall_ms": 1.0}


def csv_row(rec, a11_cell=None):
    row = ["" if rec[c] is None else str(rec[c]) for c in run.CSV_COLUMNS]
    if a11_cell is not None:
        row[run.CSV_COLUMNS.index("a11")] = a11_cell
    return row


def test_check_counts_each_failure_kind():
    good_me = periodic_record("ME", 0.2, (18.8, -0.09, 11.9))
    a_star = periodic_record("A_star", 0.2, workloads.PERIODIC_A_STAR)
    far_me = periodic_record("ME", 0.1, (15.0, 0.0, 11.8))
    not_spd = periodic_record("ME", 0.1, (1.0, 5.0, 1.0))
    records = [good_me, a_star, far_me, not_spd]
    rows = [csv_row(good_me),
            csv_row(a_star, a11_cell="np.float64(19.33759)"),
            csv_row(far_me), csv_row(not_spd)]
    out = scratch("check")
    write_output(out, records, rows)

    got = run.check_output("periodic_sweep", out)
    assert got["attempted"] == 4
    assert got["failed"] == 3
    assert got["numeric_failed"] == 2
    assert got["reasons"] == {"csv_not_numeric": 1, "err_star": 1,
                              "not_spd": 1}


def test_check_counts_missing_and_errored_records():
    records = [{"experiment": "identify_checkerboard", "strategy": "ME",
                "epsilon": 0.05, "error": "ValueError('x')"}]
    out = scratch("missing")
    write_output(out, records, [])
    got = run.check_output("checkerboard_mc", out)
    assert (got["attempted"], got["failed"], got["numeric_failed"]) \
        == (2, 2, 2)
    assert got["reasons"]["missing"] == 1 and got["reasons"]["error"] == 1


def test_exits_nonzero_without_sources():
    bare = scratch("bare")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "periodic_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_selects_disjoint_random_inputs():
    for name, key in (("measurement_noise", workloads.NOISE_DRAWS),
                      ("checkerboard_mc", workloads.CHECKERBOARD_M1)):
        a = workloads.make_config(name, 0)["base_seed"]
        b = workloads.make_config(name, 1)["base_seed"]
        assert set(range(a, a + key)).isdisjoint(range(b, b + key))


@pytest.fixture(scope="module")
def traced():
    """Traced executions: (workload, seed, k) -> stats."""
    cache = {}

    def get(workload, seed, k=0):
        if (workload, seed, k) not in cache:
            out = os.path.join(scratch(f"{workload}-{seed}-{k}"), "exec")
            cache[workload, seed, k] = run.spawn(workload, seed, out, 1)
        return cache[workload, seed, k]
    return get


def counts(stats):
    return {k: v for k, v in stats["layers"].items()
            if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(traced, workload):
    first, second = traced(workload, 0, 0), traced(workload, 0, 1)
    assert first["exit_code"] == second["exit_code"] == 0
    assert counts(first) == counts(second)
    assert counts(first)["solver.fine_factorizations"] > 0


@pytest.mark.parametrize("workload", ["measurement_noise", "checkerboard_mc"])
def test_other_seed_changes_results(traced, workload):
    def matrices(stats):
        with open(os.path.join(stats["out"],
                               workloads.OUTPUT["json"])) as f:
            return [(r["a11"], r["a12"], r["a22"])
                    for r in json.load(f)["records"]
                    if ":sigma=" in r["experiment"]
                    or r["experiment"] == "identify_checkerboard"]
    assert matrices(traced(workload, 0)) != matrices(traced(workload, 1))
