import csv
import inspect
import json
import math

import numpy as np
import pytest

from effdiff import experiments
from effdiff.coefficients import SymMat, constant_field, sample_checkerboard
from effdiff.cli import RunConfig
from effdiff.experiments import CSV_COLUMNS, DEFAULT_R, checkerboard_mean, \
    coarse_mesh_n, err_eps_q, err_eps_q_setup, err_star, fine_mesh_n, \
    identify_checkerboard, one_d_profile, parallel_map, sweep, \
    take_measurements, take_modes, write_csv, write_json
from effdiff.identify import CoarseModel, simulate_measurements
from effdiff.mesh import build_unit_square_mesh
from effdiff.modes import affine_modes


ASTAR = SymMat(19.3378, 0.0, 11.8312)


# ---------------------------------------------------------------------------
# error measures

def test_err_star_hand_value():
    val = err_star(SymMat(20.0, 0.0, 12.0), ASTAR)
    expect = math.sqrt((20.0 - 19.3378) ** 2 + (12.0 - 11.8312) ** 2) \
        / math.sqrt(19.3378 ** 2 + 11.8312 ** 2)
    assert abs(val - expect) < 1e-12
    assert abs(val - 0.03015) < 2e-4


def test_err_star_zero_and_scaling():
    assert err_star(ASTAR, ASTAR) == 0.0
    a = SymMat(20.0, 1.0, 12.0)
    v1 = err_star(a, ASTAR)
    v2 = err_star(SymMat.from_vec(3.0 * a.vec()),
                  SymMat.from_vec(3.0 * ASTAR.vec()))
    assert abs(v1 - v2) < 1e-12


def test_err_star_rejects_zero_reference():
    with pytest.raises(ValueError):
        err_star(ASTAR, SymMat(0.0, 0.0, 0.0))


def small_measurements(a0=SymMat(10.0, 1.0, 6.0), n=12):
    mesh = build_unit_square_mesh(n)
    basis = affine_modes(mesh)
    meas = simulate_measurements(mesh, constant_field(a0), basis)
    return mesh, basis, meas


def test_err_eps_q_zero_at_exact_fit():
    mesh, basis, meas = small_measurements()
    with pytest.warns(UserWarning, match="ridge"):
        val, ridge = err_eps_q(SymMat(10.0, 1.0, 6.0), meas, mesh)
    assert val < 1e-7
    assert ridge > 0.0


def test_err_eps_q_dominates_single_mode():
    mesh, basis, meas = small_measurements()
    at = SymMat(12.0, 0.0, 7.0)
    with pytest.warns(UserWarning, match="ridge"):
        full, _ = err_eps_q(at, meas, mesh)
        one, _ = err_eps_q(at, take_measurements(meas, 1), mesh)
    assert one <= full + 1e-10


def test_err_eps_q_is_max_over_sampled_ratios():
    # the metric maximizes a volume-norm ratio; random combinations of the
    # recorded fields can only fall below it
    mesh, basis, meas = small_measurements()
    at = SymMat(13.0, -0.5, 8.0)
    with pytest.warns(UserWarning, match="ridge"):
        val, _ = err_eps_q(at, meas, mesh)
    from effdiff.coefficients import constant_field
    from effdiff.mesh import interpolate_nodal
    from effdiff.solver import NeumannSolver, assemble_volume_mass
    u = NeumannSolver(mesh, constant_field(at)).solve(basis.modes.T)
    mass = assemble_volume_mass(mesh)
    diffs = np.array([meas.volume_fields[k]
                      - interpolate_nodal(mesh, u[:, k], mesh.nodes)
                      for k in range(meas.count)])
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(500):
        c = rng.standard_normal(meas.count)
        d = c @ diffs
        u = c @ meas.volume_fields
        den = float(u @ (mass @ u))
        if den > 1e-14:
            worst = max(worst, math.sqrt(float(d @ (mass @ d)) / den))
    assert worst <= val + 1e-8


def test_err_eps_q_with_its_setup_is_identical():
    mesh, basis, meas = small_measurements()
    at = SymMat(12.0, 0.5, 7.0)
    with pytest.warns(UserWarning, match="ridge"):
        fresh = err_eps_q(at, meas, mesh)
        shared = err_eps_q(at, meas, mesh, err_eps_q_setup(meas, mesh))
    assert shared == fresh


def test_err_eps_q_requires_fields():
    mesh, basis, meas = small_measurements()
    from effdiff.identify import Measurements
    stripped = Measurements(basis=meas.basis, energies=meas.energies,
                            mesh=mesh)
    with pytest.raises(ValueError):
        err_eps_q(SymMat.identity(), stripped, mesh)


def test_parallel_map_matches_serial():
    xs = list(range(20))
    assert parallel_map(lambda x: x * x, xs, workers=4) == \
        [x * x for x in xs]
    assert parallel_map(lambda x: x + 1, xs, workers=1) == \
        [x + 1 for x in xs]


# ---------------------------------------------------------------------------
# one-dimensional landscape

def test_one_d_profile_constant_coefficient():
    grid = np.linspace(1.0, 6.0, 501)
    prof = one_d_profile(lambda y: np.full_like(y, 3.0), eps=0.1,
                         abar_grid=grid)
    psi = prof[:, 1]
    assert abs(grid[np.argmin(psi)] - 3.0) < 1.5e-2
    assert psi.min() < 1e-10


def test_one_d_profile_cosine_argmin_sqrt3():
    grid = np.linspace(1.0, 3.0, 4001)
    prof = one_d_profile(lambda y: 2.0 + np.cos(2.0 * np.pi * y), eps=1e-3,
                         abar_grid=grid)
    assert abs(grid[np.argmin(prof[:, 1])] - math.sqrt(3.0)) < 2e-3


def test_one_d_profile_unimodal_around_minimum():
    grid = np.linspace(1.2, 2.6, 701)
    prof = one_d_profile(lambda y: 2.0 + np.cos(2.0 * np.pi * y), eps=1e-3,
                         abar_grid=grid)
    psi = prof[:, 1]
    k = int(np.argmin(psi))
    assert np.all(np.diff(psi[:k + 1]) <= 1e-12)
    assert np.all(np.diff(psi[k:]) >= -1e-12)


def test_one_d_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        one_d_profile(lambda y: np.full_like(y, 2.0), eps=0.1,
                      abar_grid=[1.0, -1.0])


# ---------------------------------------------------------------------------
# sizing and slicing

def test_mesh_sizing():
    assert fine_mesh_n(0.1, 20) == math.ceil(math.sqrt(2.0) * 20 / 0.1)
    assert fine_mesh_n(0.1, 20, align_cells=10) % 10 == 0
    assert fine_mesh_n(0.1, 20, align_cells=10) >= fine_mesh_n(0.1, 20)
    assert coarse_mesh_n(0.05) == math.ceil(math.sqrt(2.0) / 0.05)
    with pytest.raises(ValueError):
        fine_mesh_n(0.0, 20)
    with pytest.raises(ValueError):
        coarse_mesh_n(-1.0)


def test_take_modes_and_measurements(small_periodic_setup):
    meas = small_periodic_setup["meas"]
    part = take_measurements(meas, 2)
    assert part.count == 2
    assert np.array_equal(part.energies, meas.energies[:2])
    assert np.array_equal(part.cross, meas.cross[:2, :2])
    basis2 = take_modes(meas.basis, 2)
    assert basis2.count == 2
    assert np.array_equal(basis2.modes, meas.basis.modes[:2])
    with pytest.raises(ValueError):
        take_modes(meas.basis, meas.count + 1)


# ---------------------------------------------------------------------------
# sweep records and serialization

def test_sweep_empty_epsilons():
    assert sweep([], ["ME"]) == []


def test_sweep_record_shape_and_order():
    records = sweep([0.25], ["ME", "A_star"], r=4.0, q=5, coarse_h=0.2)
    assert [r["strategy"] for r in records] == ["ME", "A_star"]
    for rec in records:
        assert "error" not in rec
        assert set(CSV_COLUMNS) <= set(rec)
        assert rec["epsilon"] == 0.25
        assert rec["experiment"] == "identify_periodic"
        assert rec["wall_ms"] >= 0.0
        assert rec["err_star"] >= 0.0 and rec["err_eps_q"] >= 0.0
        m = SymMat(rec["a11"], rec["a12"], rec["a22"])
        assert m.is_spd()
    assert records[1]["iters"] is None   # reference row reports no descent
    assert records[1]["err_star"] == 0.0


def test_sweep_workers_match_serial_and_simulate_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simulate_measurements(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_measurements", counting)

    def run(workers):
        records = sweep([0.25, 0.5], ["ME", "A_star"], r=4.0, q=5,
                        coarse_h=0.2, workers=workers)
        return [{k: v for k, v in rec.items() if k != "wall_ms"}
                for rec in records]

    serial = run(1)
    calls.clear()
    assert run(2) == serial
    assert len(calls) == 2   # one measurement set per epsilon


def test_records_report_how_the_descent_stopped(tmp_path):
    records = sweep([0.25], ["ME", "A_star"], r=4.0, q=5, coarse_h=0.2)
    records += experiments.measurement_noise_study(
        eps=0.25, r=4.0, p=3, sigmas=(0.05,), draws=1, coarse_h=0.2)
    records += experiments.coefficient_noise_study(
        eps=0.25, r=4.0, p=3, sigma=0.5, m1=2, coarse_h=0.2)
    write_csv(records, str(tmp_path / "out.csv"))
    write_json(records, str(tmp_path / "out.json"))
    with open(tmp_path / "out.csv", newline="") as fh:
        assert next(csv.reader(fh)) == list(CSV_COLUMNS)
    doc = json.loads((tmp_path / "out.json").read_text())["records"]
    assert doc[1]["strategy"] == "A_star"
    for key in ("termination", "grad_norm", "evaluations", "gradients"):
        assert doc[1][key] is None, key
    # both sweep rows computed err_eps_q on a regular Gram, without a ridge
    assert "err_eps_q_ridge" in doc[0]
    assert doc[0]["err_eps_q_ridge"] is None is doc[1]["err_eps_q_ridge"]
    for rec in doc[:1] + doc[2:]:
        assert rec["termination"] in ("gradient_small", "max_iters",
                                      "line_search_failed")
        assert rec["grad_norm"] >= 0.0
        # a gradient at the start and at every accepted point; a value at
        # the start and at every trial point
        assert rec["gradients"] == rec["iters"] + 1
        assert rec["evaluations"] >= rec["gradients"]


def _count_models(monkeypatch):
    """The CoarseModel constructions from now on."""
    built = []
    init = CoarseModel.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoarseModel, "__init__", counting)
    return built


def test_noise_study_descents_share_one_surrogate(monkeypatch):
    built = _count_models(monkeypatch)
    records = experiments.measurement_noise_study(
        eps=0.25, r=4.0, p=3, sigmas=(0.05, 0.1), draws=2, coarse_h=0.2)
    assert len(records) == 5 and len(built) == 1
    model = built[0]
    # each record reports the shared model as its descent left it
    assert records[-1]["reduced_m"] == model.m
    assert records[-1]["snapshots"] == model.snapshots
    assert records[-1]["enrichments"] == model.enrichments
    for rec in records:
        # the snapshot of A = I, and those its enrichments added since
        assert 0 < rec["reduced_m"] <= model.m
        assert rec["snapshots"] == 1 + rec["enrichments"]
    built.clear()
    experiments.coefficient_noise_study(eps=0.25, r=4.0, p=3, sigma=0.5,
                                        m1=2, coarse_h=0.2)
    assert len(built) == 1


def test_sweep_strategies_share_one_surrogate(monkeypatch):
    built = _count_models(monkeypatch)
    setups = []
    setup = experiments.err_eps_q_setup
    monkeypatch.setattr(experiments, "err_eps_q_setup",
                        lambda *a: setups.append(a) or setup(*a))
    records = sweep([0.25], ["ME", "MS", "A_star"], coefficient="checkerboard",
                    r=2.0, p=3, q=3, m1=2, coarse_h=0.2)
    assert [r["strategy"] for r in records] == ["ME", "MS", "A_star"]
    assert "error" not in records[0] and "error" not in records[1]
    # ME and MS descend on one surrogate; A_star descends on none
    assert len(built) == 1
    # the three records' err_eps_q share its candidate-independent work
    assert len(setups) == 1
    assert all(r["err_eps_q"] > 0.0 for r in records)
    assert records[1]["snapshots"] >= records[0]["snapshots"] >= 1
    for key in ("reduced_m", "snapshots", "enrichments"):
        assert records[2][key] is None, key


def test_sweep_captures_per_record_errors():
    records = sweep([0.25], ["bogus"], r=4.0, q=5, coarse_h=0.2)
    assert len(records) == 1
    assert "bogus" in records[0]["error"]


def test_sweep_rejects_unknown_coefficient():
    records = sweep([0.25], ["ME"], coefficient="nope", r=4.0, q=5,
                    coarse_h=0.2)
    assert "error" in records[0]


def test_checkerboard_mean_matches_per_seed_measurements():
    # the running sum over M1 realizations, divided once, is exactly the
    # average of the per-seed records
    eps, base_seed, m1 = 0.25, 4, 3
    mean = checkerboard_mean(eps, q=5, r=2.0, m1=m1, base_seed=base_seed)
    batch = [simulate_measurements(mean.mesh, sample_checkerboard(seed, eps),
                                   mean.basis)
             for seed in range(base_seed, base_seed + m1)]
    for name in ("energies", "cross", "boundary_traces", "volume_fields"):
        ref = np.mean([getattr(m, name) for m in batch], axis=0)
        got = getattr(mean, name)
        assert got.shape == ref.shape and (got == ref).all(), name


def test_sweep_checkerboard_small():
    records = sweep([0.25], ["ME", "A_star"], coefficient="checkerboard",
                    r=2.0, p=3, q=3, m1=2, base_seed=0, coarse_h=0.2)
    for rec in records:
        assert "error" not in rec
        assert rec["experiment"] == "identify_checkerboard"
        assert rec["M1"] == 2
    assert records[1]["a11"] == 8.0 and records[1]["a22"] == 8.0


def test_sweep_takes_the_coefficients_default_r():
    # the library's checkerboard runs and the desk CLI agree on r = 10
    records = sweep([0.25], ["A_star"], coefficient="checkerboard", p=3,
                    q=3, m1=1, coarse_h=0.2)
    assert "error" not in records[0]
    assert records[0]["r"] == DEFAULT_R["checkerboard"] == 10.0
    assert RunConfig("sweep", coefficient="checkerboard").resolved_r() == 10.0
    assert inspect.signature(identify_checkerboard).parameters["r"].default \
        == 10.0


def test_write_csv_and_json(tmp_path):
    records = [{c: None for c in CSV_COLUMNS}]
    records[0].update(experiment="identify_periodic", strategy="ME",
                      epsilon=0.1, P=3, Q=11, r=20, seed=0, a11=19.0,
                      a12=0.0, a22=12.0, err_star=0.01, psi_final=1e-9,
                      iters=12, wall_ms=5.0, energies=[-1.0])
    cpath = tmp_path / "out.csv"
    jpath = tmp_path / "out.json"
    write_csv(records, str(cpath))
    write_json(records, str(jpath), config={"experiment": "sweep"})
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][rows[0].index("err_eps_q")] == ""
    assert float(rows[1][rows[0].index("a11")]) == 19.0
    assert "energies" not in rows[0]   # extras live only in the JSON
    doc = json.loads(jpath.read_text())
    assert doc["schema_version"] == 1
    assert doc["records"][0]["strategy"] == "ME"
    assert doc["records"][0]["energies"] == [-1.0]
    assert doc["config"]["experiment"] == "sweep"


def test_write_csv_repr_roundtrips_floats(tmp_path):
    val = 0.1 + 0.2
    records = [{c: None for c in CSV_COLUMNS}]
    records[0].update(experiment="x", strategy="ME", epsilon=val, P=1, Q=1,
                      r=1, seed=0, a11=val, a12=0.0, a22=np.float64(val),
                      wall_ms=0.0, iters=0)
    path = tmp_path / "rt.csv"
    write_csv(records, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][rows[0].index("a11")]) == val
    # numpy floats are written like Python floats, not as np.float64(...)
    assert rows[1][rows[0].index("a22")] == repr(val)
