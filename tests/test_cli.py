import csv
import glob
import json
import os

import pytest

from effdiff.cli import EXIT_CONFIG_MISSING, EXIT_DOF_CAP, EXIT_OK, \
    EXIT_SCHEMA, OUTPUT_ENV_VAR, load_config, main, resolve_report


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.json")))


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
        base_doc(profile="laptop"),
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": "checkerboard", "strategies": ["MV", "bogus"]},
        {"schema_version": 1, "experiment": "sweep",
         "coefficient": {"kind": "constant", "a11": 2.0, "a12": 0.0,
                         "a22": 1.0}},
        {"schema_version": 1, "experiment": "sweep", "cell_n": 64},
    ]
    for doc in cases:
        code = main([write_config(tmp_path, doc)])
        assert code == EXIT_SCHEMA, doc
        assert "invalid config" in capsys.readouterr().err
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main([str(bad_json)]) == EXIT_SCHEMA


def test_dof_cap_exceeded(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "sweep",
           "epsilons": [0.001], "r": 2000, "Q": 11}
    assert main([write_config(tmp_path, doc)]) == EXIT_DOF_CAP
    assert "caps fine-mesh nodes" in capsys.readouterr().err


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
    path = write_config(tmp_path, base_doc(
        coefficient={"kind": "constant", "a11": 3.0, "a12": 0.5,
                     "a22": 2.0}))
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


@pytest.mark.parametrize("cell_n", [2, 3, 255])
def test_cell_n_must_be_even(tmp_path, capsys, cell_n):
    # A* is extrapolated from cells cell_n / 2 and cell_n
    doc = {"schema_version": 1, "experiment": "homogenize", "cell_n": cell_n}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_SCHEMA
    assert "'cell_n'" in capsys.readouterr().err


def test_validate_homogenize_reports_both_cells(tmp_path, capsys):
    doc = {"schema_version": 1, "experiment": "homogenize"}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    assert "cell_n: 256 (A* extrapolated from cells 128 and 256)" \
        in capsys.readouterr().out


def test_noise_run_resolves_r_from_the_periodic_field(tmp_path, capsys):
    # the noise studies measure the periodic field whatever the config's
    # coefficient says, so r, the fine mesh and M1 follow that field
    doc = {"schema_version": 1, "experiment": "noise_measurement",
           "coefficient": "checkerboard", "epsilons": [0.05]}
    assert main([write_config(tmp_path, doc), "--validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r: 20.0" in out
    assert "fine n = 566 (" in out
    assert "M1" not in out
