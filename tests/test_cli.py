import csv
import glob
import json
import math
import os
import runpy
import subprocess
import sys

import pytest

from effdiff.cli import EXIT_CONFIG_MISSING, EXIT_DOF_CAP, EXIT_OK, \
    EXIT_SCHEMA, OUTPUT_ENV_VAR, load_config, main, resolve_report


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
# the benchmark's workload definitions, run from source so that nothing is
# written under bench/
BENCH_WORKLOADS = runpy.run_path(os.path.join(ROOT, "bench", "workloads.py"))


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {"schema_version": 1, "experiment": "one_d_profile",
           "epsilons": [0.01], "grid": [1.0, 3.0, 201]}
    doc.update(overrides)
    return doc


def test_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "nope.json")]) == EXIT_CONFIG_MISSING
    assert "not found" in capsys.readouterr().err


def test_config_path_is_a_directory(tmp_path, capsys):
    assert main([str(tmp_path)]) == EXIT_CONFIG_MISSING
    assert "not a file" in capsys.readouterr().err


def test_config_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode("utf-16-le"))
    assert main([str(path), "--validate"]) == EXIT_SCHEMA
    assert "invalid config" in capsys.readouterr().err


def test_schema_violations(tmp_path, capsys):
    cases = [
        {"schema_version": 2, "experiment": "sweep"},
        {"schema_version": 1},
        {"schema_version": 1, "experiment": "mystery"},
        base_doc(epsilons=[-0.1]),
        base_doc(strategies=[]),
        {"schema_version": 1, "experiment": "sweep",
         "epsilons": [0.25], "P": 7, "Q": 5},
        base_doc(coefficient="granite"),
        base_doc(coefficient={"kind": "constant", "a11": 1.0}),
        base_doc(grid=[3.0, 1.0, 100]),
        base_doc(grid=[1.0, 3.0, 2.5]),
        base_doc(profile="laptop"),
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": "checkerboard", "strategies": ["MV", "bogus"]},
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": {"kind": "constant", "a11": 2.0, "a12": 0.0,
                         "a22": 1.0}},
        {"schema_version": 1, "experiment": "sweep", "cell_n": 64},
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": "checkerboard", "M1": True},
        {"schema_version": 1, "experiment": "sweep", "r": True},
        {"schema_version": 1, "experiment": "sweep", "epsilons": []},
        base_doc(epsilons=[]),
        # Python's json reads Infinity; every number must be finite
        {"schema_version": 1, "experiment": "sweep", "epsilons": [0.2],
         "r": math.inf},
        {"schema_version": 1, "experiment": "sweep", "epsilons": [0.2],
         "coarse_H": math.inf},
        {"schema_version": 1, "experiment": "noise_coefficient",
         "sigma": math.inf},
        {"schema_version": 1, "experiment": "noise_measurement",
         "sigmas": [0.01, math.inf]},
        base_doc(epsilons=[math.inf]),
        base_doc(epsilons=[math.nan]),
        base_doc(grid=[1.0, math.inf, 100]),
        base_doc(grid=[1.0, 3.0, 10 ** 400]),
        {"schema_version": 1, "experiment": "homogenize",
         "coefficient": {"kind": "constant", "a11": math.inf, "a12": 0.0,
                         "a22": 1.0}},
        # finite, but not SPD: indefinite, and semidefinite
        {"schema_version": 1, "experiment": "homogenize",
         "coefficient": {"kind": "constant", "a11": 1, "a12": 2, "a22": 1}},
        {"schema_version": 1, "experiment": "homogenize",
         "coefficient": {"kind": "constant", "a11": 1, "a12": 1, "a22": 1}},
        # SPD, but its eigenvalues overflow, so no field can be made of it
        {"schema_version": 1, "experiment": "homogenize",
         "coefficient": {"kind": "constant", "a11": 1e300, "a12": 1e299,
                         "a22": 1e300}},
        # finite, but sqrt(2) r / eps overflows, in either profile
        {"schema_version": 1, "experiment": "sweep", "epsilons": [0.2],
         "r": 1e308},
        {"schema_version": 1, "experiment": "sweep", "epsilons": [0.2],
         "r": 1e308, "profile": "full"},
        {"schema_version": 1, "experiment": "noise_measurement",
         "epsilons": [1e-308]},
        # each of these validated and then failed its run: the checkerboard's
        # cells need eps <= 1, a fine mesh of n carries at most 4 n - 1
        # modes (Q of a sweep, P of a noise study), and a coarse mesh of
        # n = 1 has only corners on its boundary
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": "checkerboard", "epsilons": [2.0],
         "strategies": ["ME"], "P": 3, "Q": 3, "M1": 1},
        {"schema_version": 1, "experiment": "identify", "epsilons": [3.0],
         "strategies": ["ME"], "P": 3, "Q": 11, "r": 1},
        {"schema_version": 1, "experiment": "noise_measurement",
         "epsilons": [3.0], "P": 5, "r": 1},
        {"schema_version": 1, "experiment": "sweep", "epsilons": [0.5],
         "strategies": ["ME", "MS", "MV"], "r": 4, "coarse_H": 1.5},
        {"schema_version": 1, "experiment": "noise_measurement",
         "epsilons": [0.5], "r": 4, "coarse_H": math.sqrt(2.0)},
    ]
    for doc in cases:
        for validate in ([], ["--validate"]):
            code = main([write_config(tmp_path, doc)] + validate)
            assert code == EXIT_SCHEMA, (doc, validate)
            assert "invalid config" in capsys.readouterr().err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main([str(bad_json)]) == EXIT_SCHEMA


@pytest.mark.parametrize("validate", [[], ["--validate"]],
                         ids=["run", "validate"])
@pytest.mark.parametrize("overrides, flags, key", [
    ({"base_seed": -1}, [], "'base_seed'"),
    ({}, ["--seed", "-1"], "--seed"),
    ({}, ["--workers", "-3"], "--workers"),
    ({"grid": [1.0, 3.0, 2.5]}, [], "'grid'")],
    ids=["base_seed", "seed_flag", "workers_flag", "grid_count"])
def test_negative_seed_and_fractional_count_rejected(tmp_path, capsys,
                                                     overrides, flags, key,
                                                     validate):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_doc(**overrides))
    assert main([path, "--out", str(out), *flags, *validate]) == EXIT_SCHEMA
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_dof_cap_exceeded(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "sweep",
           "epsilons": [0.001], "r": 2000, "Q": 11}
    assert main([write_config(tmp_path, doc)]) == EXIT_DOF_CAP
    assert "caps fine-mesh nodes" in capsys.readouterr().err


@pytest.mark.parametrize("coarse_h", [
    pytest.param(1e-300, id="1e-300"),
    pytest.param(0.0005, id="0.0005"),
    pytest.param(8.2e-5, id="8.2e-05"),
    pytest.param(8e-5, id="8e-05")])
def test_dof_cap_covers_the_coarse_mesh(tmp_path, capsys, coarse_h):
    # (ceil(sqrt(2) / 0.0005) + 1)^2 = 8,008,900 nodes, past the desk cap;
    # the full profile caps no mesh, even of about 2e600 nodes (1e-300)
    doc = {"schema_version": 1, "experiment": "sweep", "epsilons": [0.2],
           "coarse_H": coarse_h}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_DOF_CAP
    err = capsys.readouterr().err
    assert "caps coarse-mesh nodes" in err and "Raise coarse_H" in err
    if coarse_h == 1e-300:
        assert "needs 2.000e+600." in err and len(err) < 200
    doc["profile"] = "full"
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert f"coarse n = {math.ceil(math.sqrt(2.0) / coarse_h)})" in out


def test_dof_cap_covers_the_corrector_cell(tmp_path, capsys):
    # A* solves cells 10,000, 20,000 and 40,000: the last has 1.6e9 nodes
    doc = {"schema_version": 1, "experiment": "homogenize", "cell_n": 40000,
           "profile": "desk"}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_DOF_CAP
    assert "desk profile caps cell-mesh nodes" in capsys.readouterr().err


def test_validate_reports_resolution(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "sweep",
           "epsilons": [0.05, 0.25], "P": "auto", "Q": 11}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eps = 0.05: P = 3" in out
    assert "eps = 0.25: P = 5" in out
    assert "r: 20.0" in out          # desk default for the periodic field


def test_profile_override_changes_r(tmp_path, capsys):
    path = write_config(tmp_path, {"schema_version": 1, "experiment": "sweep",
                                   "epsilons": [0.25], "Q": 11})
    assert main([path, "--validate", "--profile", "full"]) == EXIT_OK
    assert "r: 40.0" in capsys.readouterr().out


def test_load_config_resolves_constant_coefficient(tmp_path):
    path = write_config(tmp_path, {
        "schema_version": 1, "experiment": "homogenize",
        "coefficient": {"kind": "constant", "a11": 3.0, "a12": 0.5,
                        "a22": 2.0}})
    cfg = load_config(path)
    assert cfg.coefficient == "constant"
    assert cfg.constant_entries.a12 == 0.5


def test_one_d_profile_run_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path, base_doc())
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 202     # header + grid
    header = rows[0]
    a11s = [float(r[header.index("a11")]) for r in rows[1:]]
    psis = [float(r[header.index("psi_final")]) for r in rows[1:]]
    best = a11s[psis.index(min(psis))]
    assert abs(best - 3.0 ** 0.5) < 2e-2
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["config"]["experiment"] == "one_d_profile"


@pytest.mark.parametrize("overrides, exit_code, message", [
    # a run would ask np.linspace for 1e12 candidates
    pytest.param({"grid": [1.0, 3.0, 1_000_000_000_000]}, EXIT_DOF_CAP,
                 "caps grid candidates at 4000000; a grid count of "
                 "1000000000000 needs 1.000e+12. Reduce the count.",
                 id="grid-1e12"),
    pytest.param({"grid": [1.0, 3.0, 4_000_001]}, EXIT_DOF_CAP,
                 "caps grid candidates", id="grid-cap+1"),
    pytest.param({"grid": [1.0, 3.0, 4_000_000]}, EXIT_OK, None,
                 id="grid-cap"),
    # ceil(50 / eps) midpoint-rule points: 5e10 at eps = 1e-9
    pytest.param({"epsilons": [1e-9]}, EXIT_DOF_CAP,
                 "caps quadrature points at 4000000; eps = 1e-09 needs "
                 "5.000e+10. Raise eps.", id="eps-1e-9"),
    pytest.param({"epsilons": [1.25e-5]}, EXIT_OK, None, id="eps-cap"),
    # 50 / eps overflows a float
    pytest.param({"epsilons": [1e-320]}, EXIT_SCHEMA,
                 "more subdivisions than a float holds", id="eps-1e-320")])
def test_one_d_profile_sizes_are_capped(tmp_path, capsys, overrides,
                                        exit_code, message):
    # checked through --validate only: none of these is ever run
    path = write_config(tmp_path, base_doc(**overrides))
    assert main([path, "--validate"]) == exit_code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert message in err


def test_output_env_var(tmp_path, monkeypatch):
    out = tmp_path / "nested"
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(out))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, base_doc(grid=[1.0, 3.0, 11]))
    assert main([path]) == EXIT_OK
    assert (out / "results.csv").exists()


def test_homogenize_constant_returns_input(tmp_path):
    doc = {"schema_version": 1, "experiment": "homogenize",
           "coefficient": {"kind": "constant", "a11": 5.0, "a12": 1.0,
                           "a22": 3.0}}
    path = write_config(tmp_path, doc)
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    rec = json.loads((tmp_path / "results.json").read_text())["records"][0]
    assert abs(rec["a11"] - 5.0) < 1e-9
    assert abs(rec["a12"] - 1.0) < 1e-9
    assert abs(rec["a22"] - 3.0) < 1e-9


def test_homogenize_checkerboard_exact(tmp_path):
    doc = {"schema_version": 1, "experiment": "homogenize",
           "coefficient": "checkerboard"}
    path = write_config(tmp_path, doc)
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    rec = json.loads((tmp_path / "results.json").read_text())["records"][0]
    assert rec["a11"] == 8.0 and rec["a12"] == 0.0 and rec["a22"] == 8.0


def strip_wall_ms(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


def test_sweep_runs_deterministically(tmp_path):
    doc = {"schema_version": 1, "experiment": "sweep", "epsilons": [0.25],
           "strategies": ["ME"], "r": 4, "Q": 5, "coarse_H": 0.2,
           "output": {"csv": "a.csv", "json": "a.json"}}
    path = write_config(tmp_path, doc)
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    doc["output"] = {"csv": "b.csv", "json": "b.json"}
    path2 = write_config(tmp_path, doc, name="cfg2.json")
    assert main([path2, "--out", str(tmp_path)]) == EXIT_OK
    assert strip_wall_ms(tmp_path / "a.csv") == \
        strip_wall_ms(tmp_path / "b.csv")
    rec = json.loads((tmp_path / "a.json").read_text())["records"][0]
    assert "error" not in rec


def test_records_across_blas_thread_counts(tmp_path):
    # the README's rule: every field but wall_ms is byte-identical at any
    # BLAS thread count.  At eps = 0.1 the fine mesh (n = 283) is large
    # enough that a free R-mode eigensolve rounds differently on 2 threads
    doc = {"schema_version": 1, "experiment": "sweep", "epsilons": [0.1],
           "strategies": ["ME", "MS", "A_star"], "P": 3, "Q": 5,
           "coarse_H": 0.2}
    path = write_config(tmp_path, doc)
    runs = []
    for k, threads in enumerate((1, 1, 2, 2)):
        out = tmp_path / f"run{k}"
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(
            [sys.executable, "-m", "effdiff.cli", path, "--out", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        records = json.loads((out / "results.json").read_text())["records"]
        runs.append([{key: v for key, v in rec.items() if key != "wall_ms"}
                     for rec in records])
    assert [rec["strategy"] for rec in runs[0]] == ["ME", "MS", "A_star"]
    assert runs[1] == runs[0] and runs[2] == runs[0] and runs[3] == runs[0]


def test_me_ms_check_experiment(tmp_path):
    doc = {"schema_version": 1, "experiment": "me_ms_check",
           "epsilons": [0.25], "r": 4}
    path = write_config(tmp_path, doc)
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    recs = json.loads((tmp_path / "results.json").read_text())["records"]
    assert len(recs) == 3
    for rec in recs:
        assert abs(rec["ratio"] - 2.0) < 1e-6


def test_resolve_report_mentions_ensembles():
    from effdiff.cli import RunConfig
    cfg = RunConfig(experiment="sweep", coefficient="checkerboard",
                    epsilons=[0.25])
    lines = "\n".join(resolve_report(cfg))
    assert "M1 = 10" in lines
    assert "M2" not in lines   # checkerboard sweeps average M1 only


def test_resolve_report_states_noise_draws():
    from effdiff.cli import RunConfig
    cfg = RunConfig(experiment="noise_measurement", epsilons=[0.2])
    lines = "\n".join(resolve_report(cfg))
    assert "draws = 40" in lines


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_configs_validate(path):
    assert main([path, "--validate"]) == EXIT_OK


@pytest.mark.parametrize("experiment", ["noise_measurement",
                                        "noise_coefficient", "me_ms_check"])
def test_empty_epsilons_rejected(tmp_path, capsys, experiment):
    path = write_config(tmp_path, {"schema_version": 1,
                                   "experiment": experiment, "epsilons": []})
    assert main([path, "--validate"]) == EXIT_SCHEMA
    assert "'epsilons' must not be empty" in capsys.readouterr().err


def test_checkerboard_auto_p_runs_the_validated_p(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "sweep",
           "coefficient": "checkerboard", "epsilons": [0.25],
           "strategies": ["ME"], "P": "auto", "Q": 5, "r": 2, "M1": 2,
           "coarse_H": 0.2}
    path = write_config(tmp_path, doc)
    assert main([path, "--validate"]) == EXIT_OK
    assert "eps = 0.25: P = 5," in capsys.readouterr().out
    assert main([path, "--out", str(tmp_path)]) == EXIT_OK
    recs = json.loads((tmp_path / "results.json").read_text())["records"]
    assert [rec["P"] for rec in recs] == [5]


def test_me_ms_check_cap_counts_the_capped_mesh(tmp_path, capsys):
    # the run caps the mesh at n = 128, so the desk cap must not count the
    # 32,012,964 nodes that h = eps / r alone would give
    doc = {"schema_version": 1, "experiment": "me_ms_check",
           "epsilons": [0.005], "r": 20}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    assert "eps = 0.005: fine n = 128 (16641 nodes)" \
        in capsys.readouterr().out


def test_validate_noise_reports_first_epsilon_only(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "noise_measurement",
           "epsilons": [0.2, 0.1]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eps = 0.2: P = 5" in out
    assert "eps = 0.1" not in out


@pytest.mark.parametrize("experiment", ["homogenize", "noise_measurement",
                                        "noise_coefficient", "one_d_profile",
                                        "me_ms_check"])
def test_strategies_rejected_where_not_read(tmp_path, capsys, experiment):
    doc = {"schema_version": 1, "experiment": experiment,
           "strategies": ["bogus"]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert "'strategies' is read by identify and sweep only" \
        in capsys.readouterr().err


@pytest.mark.parametrize("coefficient, cell_n, solved", [
    ({"kind": "constant", "a11": 2.0, "a12": 0.0, "a22": 1.0}, 256, 64),
    ({"kind": "constant", "a11": 2.0, "a12": 0.0, "a22": 1.0}, 16, 16),
    ("checkerboard", 256, None),
    ("periodic_smooth", 8, 8)])
def test_homogenize_records_the_cell_it_solved(tmp_path, coefficient, cell_n,
                                               solved):
    doc = {"schema_version": 1, "experiment": "homogenize",
           "coefficient": coefficient, "cell_n": cell_n}
    assert main([write_config(tmp_path, doc), "--out", str(tmp_path)]) \
        == EXIT_OK
    recs = json.loads((tmp_path / "results.json").read_text())["records"]
    assert [rec["cell_n"] for rec in recs] == [solved]


@pytest.mark.parametrize("cell_n", [2, 3, 4, 6, 254, 255])
def test_cell_n_must_be_multiple_of_four(tmp_path, capsys, cell_n):
    # A* is extrapolated from cells cell_n / 4, cell_n / 2 and cell_n
    doc = {"schema_version": 1, "experiment": "homogenize", "cell_n": cell_n}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert "'cell_n' must be a multiple of 4, >= 8" in capsys.readouterr().err


def test_validate_homogenize_reports_both_cells(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "homogenize"}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    assert "cell_n: 128 (A* extrapolated from cells 32, 64 and 128)" \
        in capsys.readouterr().out


def test_noise_run_resolves_r_from_the_periodic_field(tmp_path, capsys):
    # the noise studies measure the periodic field, so r, the fine mesh and
    # M1 follow that field, and a config may name no other coefficient
    doc = {"schema_version": 1, "experiment": "noise_measurement",
           "coefficient": "periodic_smooth", "epsilons": [0.05]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r: 20.0" in out
    assert "fine n = 566 (" in out
    assert "M1" not in out
    doc["coefficient"] = "checkerboard"
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert "'coefficient' is read by" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "sweep", "epsilon": [0.5]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert "unknown key 'epsilon'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, key, value", [
    ("noise_measurement", "Q", 11),
    ("noise_coefficient", "Q", 11),
    ("one_d_profile", "coefficient", "periodic_smooth"),
    ("noise_coefficient", "coefficient", "checkerboard"),
    ("me_ms_check", "coefficient",
     {"kind": "constant", "a11": 2.0, "a12": 0.0, "a22": 1.0}),
    ("sweep", "sigmas", [0.1]),
    ("noise_measurement", "sigma", 2.0),
    ("sweep", "M2", 4),
    ("noise_coefficient", "M2", 4),
    ("homogenize", "grid", [1.0, 3.0, 11]),
    ("homogenize", "epsilons", [0.1]),
    ("sweep", "M1", 4)])
def test_unread_key_rejected(tmp_path, capsys, experiment, key, value):
    doc = {"schema_version": 1, "experiment": experiment, key: value}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert f"'{key}' is read by" in capsys.readouterr().err


@pytest.mark.parametrize("output", [{"csv": 5}, {"cvs": "a.csv"}])
def test_bad_output_rejected_before_the_run(tmp_path, capsys, output):
    doc = base_doc(output=output)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, doc), "--out", str(out)]) \
        == EXIT_SCHEMA
    assert "'output' must be" in capsys.readouterr().err
    assert not out.exists()


def test_noise_study_reads_no_q(tmp_path, capsys):
    # the study uses P modes only, so P may exceed the default Q = 11
    doc = {"schema_version": 1, "experiment": "noise_measurement",
           "epsilons": [0.2], "P": 12}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    assert "eps = 0.2: P = 12," in capsys.readouterr().out


@pytest.mark.parametrize("experiment, absent", [
    ("noise_measurement", "Q = "), ("noise_coefficient", "Q = "),
    ("one_d_profile", "coefficient:")])
def test_validate_omits_settings_the_run_does_not_read(tmp_path, capsys,
                                                       experiment, absent):
    doc = {"schema_version": 1, "experiment": experiment,
           "epsilons": [0.2]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"experiment: {experiment}\n")
    assert absent not in out


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS["WORKLOADS"]))
def test_benchmark_configs_validate(tmp_path, workload, seed):
    doc = BENCH_WORKLOADS["make_config"](workload, seed)
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK


def test_benchmark_wrappers_install():
    # bench/child.py --trace 1 patches its span wrappers over names in
    # effdiff's modules; it fails if one of them is gone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "from child import Tracer, install_wrappers; "
                               "install_wrappers(Tracer(), 29)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_counters_agree_with_the_records(tmp_path):
    # the traced descent counters of bench/child.py count what the records
    # of the same run report
    doc = {"schema_version": 1, "experiment": "sweep",
           "coefficient": "periodic_smooth", "epsilons": [0.2],
           "strategies": ["ME", "MS"], "P": 3, "Q": 3, "r": 5}
    path = write_config(tmp_path, doc)
    script = (
        "import json, sys\n"
        "from child import Tracer, install_wrappers, layer_metrics\n"
        "from effdiff.cli import main\n"
        "from effdiff.experiments import DEFAULT_COARSE_H, coarse_mesh_n\n"
        "tracer = Tracer()\n"
        "install_wrappers(tracer, coarse_mesh_n(DEFAULT_COARSE_H))\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps(layer_metrics(tracer)))\n"
        "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, path, "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.splitlines()[-1])
    records = json.loads((tmp_path / "results.json").read_text())["records"]
    assert [r["strategy"] for r in records] == ["ME", "MS"]
    assert layers["identify.descents"] == 2
    assert layers["identify.evaluations"] == \
        sum(r["evaluations"] for r in records) > 0
    assert layers["identify.iterations"] == \
        sum(r["iters"] for r in records) > 0
