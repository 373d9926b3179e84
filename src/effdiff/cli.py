"""Config-driven command-line front end.

Reads a JSON config with a versioned schema, resolves defaults (mode count
per epsilon, mesh sizes, profile overrides), optionally validates without
running, and emits the documented CSV/JSON result files atomically.

Exit codes: 0 success, 2 config file missing, 3 schema violation,
4 mesh-size cap exceeded, 1 any other runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .coefficients import SymMat, constant_field, periodic_smooth_field, \
    scale_epsilon
from .experiments import CHECKERBOARD_STRATEGIES, DEFAULT_COARSE_H, \
    ME_MS_CHECK_MAX_N, STRATEGIES, coarse_mesh_n, coefficient_noise_study, \
    fine_n, measurement_noise_study, one_d_profile, periodic_reference, \
    record, resolve_p, sweep, write_csv, write_json
from .homogenization import checkerboard_exact, homogenized_matrix
from .identify import me_ms_identity_check
from .mesh import build_periodic_cell_mesh, build_unit_square_mesh

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "EFFDIFF_OUT_DIR"
DESK_DOF_CAP = 4_000_000

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG_MISSING = 2
EXIT_SCHEMA = 3
EXIT_DOF_CAP = 4

EXPERIMENTS = ("homogenize", "identify", "sweep", "noise_measurement",
               "noise_coefficient", "one_d_profile", "me_ms_check")
COEFFICIENTS = ("periodic_smooth", "checkerboard", "constant")
# the coefficients a sweep runs on, with the strategies of each
SWEEP_STRATEGIES = {"periodic_smooth": STRATEGIES,
                    "checkerboard": CHECKERBOARD_STRATEGIES}
FINE_MESH_EXPERIMENTS = ("identify", "sweep", "noise_measurement",
                         "noise_coefficient", "me_ms_check")
FIRST_EPSILON_EXPERIMENTS = ("noise_measurement", "noise_coefficient",
                             "me_ms_check")
PROFILES = ("desk", "full")


class SchemaError(ValueError):
    pass


@dataclass
class RunConfig:
    experiment: str
    coefficient: str = "periodic_smooth"
    constant_entries: SymMat | None = None
    epsilons: list = field(default_factory=lambda: [0.2, 0.1, 0.05])
    strategies: list = field(default_factory=lambda: ["ME"])
    p: int | None = None     # None: "auto", choose_p per epsilon
    q: int = 11
    r: float | None = None
    coarse_h: float = DEFAULT_COARSE_H
    m1: int | None = None
    m2: int | None = None
    sigmas: list = field(default_factory=lambda: [0.01, 0.05, 0.1])
    sigma: float = 2.0
    base_seed: int = 0
    cell_n: int = 256        # A* extrapolated from cells cell_n / 2, cell_n
    profile: str = "desk"
    out_csv: str = "results.csv"
    out_json: str = "results.json"
    workers: int = 1
    grid: list = field(default_factory=lambda: [1.0, 3.0, 2001])

    def run_coefficient(self) -> str:
        """The coefficient the run measures: only sweeps read the config's
        coefficient, the other runs use the periodic field."""
        if self.experiment in ("identify", "sweep"):
            return self.coefficient
        return "periodic_smooth"

    def resolved_r(self) -> float:
        if self.r is not None:
            return self.r
        if self.run_coefficient() == "checkerboard":
            return 20.0 if self.profile == "full" else 10.0
        return 40.0 if self.profile == "full" else 20.0

    def resolved_m1(self) -> int:
        if self.m1 is not None:
            return self.m1
        return 40 if self.profile == "full" else 10

    def resolved_m2(self) -> int:
        if self.m2 is not None:
            return self.m2
        return 40 if self.profile == "full" else 10

    def resolved_draws(self) -> int:
        """Noisy re-identifications per sigma in the measurement-noise study."""
        return 4 * self.resolved_m2()

    def run_epsilons(self) -> list:
        """The epsilons the run uses."""
        if self.experiment in FIRST_EPSILON_EXPERIMENTS:
            return self.epsilons[:1]
        return self.epsilons

    def homogenize_cell_n(self) -> int | None:
        """The corrector cell ``homogenize`` solves: ``cell_n`` for the
        periodic field, at most 64 for a constant coefficient, and none for
        the checkerboard, whose matrix is known in closed form."""
        if self.coefficient == "checkerboard":
            return None
        if self.coefficient == "constant":
            return min(self.cell_n, 64)
        return self.cell_n

    def fine_n(self, eps: float) -> int:
        """The fine-mesh subdivisions the run uses at ``eps``."""
        cap = ME_MS_CHECK_MAX_N if self.experiment == "me_ms_check" else None
        return fine_n(self.run_coefficient(), eps, self.resolved_r(),
                      max_n=cap)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def load_config(path: str) -> RunConfig:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "config root must be an object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}")
    _expect("experiment" in doc, "missing required key 'experiment'")
    _expect(doc["experiment"] in EXPERIMENTS,
            f"unknown experiment {doc['experiment']!r}; "
            f"expected one of {EXPERIMENTS}")

    cfg = RunConfig(experiment=doc["experiment"])
    coeff = doc.get("coefficient", "periodic_smooth")
    if isinstance(coeff, dict):
        _expect(coeff.get("kind") == "constant",
                "structured coefficient spec must have kind 'constant'")
        for k in ("a11", "a12", "a22"):
            _expect(isinstance(coeff.get(k), (int, float)),
                    f"constant coefficient needs numeric entry {k!r}")
        cfg.coefficient = "constant"
        cfg.constant_entries = SymMat(float(coeff["a11"]),
                                      float(coeff["a12"]),
                                      float(coeff["a22"]))
    else:
        _expect(coeff in COEFFICIENTS,
                f"unknown coefficient {coeff!r}; expected {COEFFICIENTS}")
        cfg.coefficient = coeff

    if "epsilons" in doc:
        eps = doc["epsilons"]
        _expect(isinstance(eps, list)
                and all(isinstance(e, (int, float)) and e > 0 for e in eps),
                "'epsilons' must be a list of positive numbers")
        cfg.epsilons = [float(e) for e in eps]
    if "strategies" in doc:
        strat = doc["strategies"]
        _expect(isinstance(strat, list) and strat,
                "'strategies' must be a non-empty list")
        cfg.strategies = strat
    if "P" in doc:
        _expect(doc["P"] == "auto"
                or (isinstance(doc["P"], int) and doc["P"] >= 1),
                "'P' must be 'auto' or a positive integer")
        cfg.p = None if doc["P"] == "auto" else doc["P"]
    if "Q" in doc:
        _expect(isinstance(doc["Q"], int) and doc["Q"] >= 1,
                "'Q' must be a positive integer")
        cfg.q = doc["Q"]
    for key, attr, kindcheck in (
            ("r", "r", lambda v: isinstance(v, (int, float)) and v > 0),
            ("coarse_H", "coarse_h",
             lambda v: isinstance(v, (int, float)) and v > 0),
            ("M1", "m1", lambda v: isinstance(v, int) and v >= 1),
            ("M2", "m2", lambda v: isinstance(v, int) and v >= 2),
            ("base_seed", "base_seed", lambda v: isinstance(v, int)),
            ("cell_n", "cell_n",
             lambda v: isinstance(v, int) and v >= 4 and v % 2 == 0),
            ("sigma", "sigma",
             lambda v: isinstance(v, (int, float)) and v >= 0)):
        if key in doc:
            _expect(kindcheck(doc[key]), f"invalid value for {key!r}")
            setattr(cfg, attr, doc[key])
    if "sigmas" in doc:
        _expect(isinstance(doc["sigmas"], list)
                and all(isinstance(s, (int, float)) and s >= 0
                        for s in doc["sigmas"]),
                "'sigmas' must be a list of nonnegative numbers")
        cfg.sigmas = [float(s) for s in doc["sigmas"]]
    if "grid" in doc:
        g = doc["grid"]
        _expect(isinstance(g, list) and len(g) == 3 and g[0] > 0
                and g[1] > g[0] and int(g[2]) >= 2,
                "'grid' must be [min, max, count] with 0 < min < max")
        cfg.grid = [float(g[0]), float(g[1]), int(g[2])]
    if "profile" in doc:
        _expect(doc["profile"] in PROFILES,
                f"profile must be one of {PROFILES}")
        cfg.profile = doc["profile"]
    out = doc.get("output", {})
    _expect(isinstance(out, dict), "'output' must be an object")
    cfg.out_csv = out.get("csv", cfg.out_csv)
    cfg.out_json = out.get("json", cfg.out_json)

    if cfg.experiment in ("identify", "sweep"):
        allowed = SWEEP_STRATEGIES.get(cfg.coefficient)
        _expect(allowed is not None,
                f"{cfg.experiment} runs on {tuple(SWEEP_STRATEGIES)}, "
                f"not {cfg.coefficient!r}")
        unknown = [s for s in cfg.strategies if s not in allowed]
        _expect(not unknown, f"strategies {unknown} do not run on "
                             f"{cfg.coefficient}; expected from {allowed}")
    _expect("strategies" not in doc
            or cfg.experiment in ("identify", "sweep"),
            "'strategies' is read by identify and sweep only")
    _expect("cell_n" not in doc or cfg.experiment == "homogenize",
            "'cell_n' is read by homogenize only")
    _expect(cfg.epsilons or cfg.experiment not in FIRST_EPSILON_EXPERIMENTS,
            f"'epsilons' must not be empty for {cfg.experiment}")
    for eps in cfg.run_epsilons():
        p = resolve_p(eps, cfg.p)
        _expect(cfg.q >= p, f"Q = {cfg.q} < P = {p} at eps = {eps}")
    return cfg


def resolve_report(cfg: RunConfig) -> list[str]:
    """Human-readable resolution of defaults; used by --validate."""
    lines = [f"experiment: {cfg.experiment}",
             f"coefficient: {cfg.coefficient}",
             f"profile: {cfg.profile}",
             f"base_seed: {cfg.base_seed}"]
    if cfg.experiment in FINE_MESH_EXPERIMENTS:
        identifies = cfg.experiment != "me_ms_check"
        lines.append(f"r: {cfg.resolved_r()}")
        if identifies:
            lines.append(f"coarse_H: {cfg.coarse_h} "
                         f"(coarse n = {coarse_mesh_n(cfg.coarse_h)})")
        for eps in cfg.run_epsilons():
            n = cfg.fine_n(eps)
            modes = f"P = {resolve_p(eps, cfg.p)}, Q = {cfg.q}, " \
                if identifies else ""
            lines.append(f"eps = {eps}: {modes}fine n = {n} "
                         f"({(n + 1) ** 2} nodes)")
        if cfg.run_coefficient() == "checkerboard" \
                or cfg.experiment == "noise_coefficient":
            lines.append(f"M1 = {cfg.resolved_m1()}")
        if cfg.experiment == "noise_measurement":
            lines.append(f"M2 = {cfg.resolved_m2()}, "
                         f"draws = {cfg.resolved_draws()}")
    if cfg.experiment == "homogenize":
        cell_n = cfg.homogenize_cell_n()
        lines.append(f"cell_n: {cell_n}" + (
            f" (A* extrapolated from cells {cell_n // 2} and {cell_n})"
            if cfg.coefficient == "periodic_smooth" else ""))
    if cfg.experiment == "one_d_profile":
        lines.append(f"grid: {cfg.grid}")
    return lines


def dof_cap_error(cfg: RunConfig) -> str | None:
    """Why the run exceeds the desk profile's fine-mesh cap, if it does."""
    if cfg.profile != "desk" or cfg.experiment not in FINE_MESH_EXPERIMENTS:
        return None
    for eps in cfg.run_epsilons():
        dofs = (cfg.fine_n(eps) + 1) ** 2
        if dofs > DESK_DOF_CAP:
            return (f"desk profile caps fine-mesh nodes at {DESK_DOF_CAP}; "
                    f"eps = {eps}, r = {cfg.resolved_r()} needs {dofs}. "
                    f"Reduce r or use --profile full.")
    return None


def run_experiment(cfg: RunConfig) -> list[dict]:
    if cfg.experiment == "homogenize":
        t0 = time.perf_counter()
        cell_n = cfg.homogenize_cell_n()
        if cfg.coefficient == "constant":
            m = cfg.constant_entries or SymMat.identity()
            cell = build_periodic_cell_mesh(cell_n)
            a = homogenized_matrix(cell, constant_field(m))
        elif cfg.coefficient == "checkerboard":
            a = checkerboard_exact()
        else:
            a = periodic_reference(cell_n)
        return [record("homogenize", "A_star", None, a,
                       wall_ms=1000.0 * (time.perf_counter() - t0),
                       cell_n=cell_n)]

    if cfg.experiment in ("identify", "sweep"):
        return sweep(cfg.epsilons, strategies=cfg.strategies,
                     coefficient=cfg.coefficient, r=cfg.resolved_r(),
                     p=cfg.p, q=cfg.q, coarse_h=cfg.coarse_h,
                     m1=cfg.resolved_m1(), base_seed=cfg.base_seed,
                     workers=cfg.workers)

    if cfg.experiment == "noise_measurement":
        return measurement_noise_study(
            eps=cfg.epsilons[0], r=cfg.resolved_r(), p=cfg.p,
            sigmas=cfg.sigmas, draws=cfg.resolved_draws(),
            base_seed=cfg.base_seed, coarse_h=cfg.coarse_h)

    if cfg.experiment == "noise_coefficient":
        return coefficient_noise_study(
            eps=cfg.epsilons[0], r=cfg.resolved_r(), p=cfg.p,
            sigma=cfg.sigma, m1=cfg.resolved_m1(),
            base_seed=cfg.base_seed, coarse_h=cfg.coarse_h)

    if cfg.experiment == "one_d_profile":
        lo, hi, count = cfg.grid
        eps = cfg.epsilons[0] if cfg.epsilons else 1e-3
        table = one_d_profile(lambda x: 2.0 + np.cos(2.0 * np.pi * x), eps,
                              np.linspace(lo, hi, count))
        # scalar candidate stored in a11, objective value in psi_final
        return [record("one_d_profile", "ME", eps,
                       SymMat(float(ab), None, None), P=1,
                       psi_final=float(psi), wall_ms=0.0)
                for ab, psi in table]

    if cfg.experiment == "me_ms_check":
        eps = cfg.epsilons[0]
        mesh = build_unit_square_mesh(cfg.fine_n(eps))
        coeff = scale_epsilon(periodic_smooth_field(), eps)
        rng = np.random.default_rng(cfg.base_seed)
        records = []
        for k in range(3):
            abar = SymMat(15.0 + 5.0 * rng.random(),
                          2.0 * rng.random() - 1.0,
                          10.0 + 4.0 * rng.random())
            t0 = time.perf_counter()
            me, ms = me_ms_identity_check(coeff, abar, mesh)
            records.append(record(
                "me_ms_check", "ME", eps, abar, r=cfg.resolved_r(),
                seed=cfg.base_seed + k, psi_final=me,
                wall_ms=1000.0 * (time.perf_counter() - t0),
                psi_me=me, psi_ms=ms, ratio=ms / me))
        return records

    raise SchemaError(f"unknown experiment {cfg.experiment!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdiff",
        description="Identify constant effective diffusion matrices from "
                    "coarse energy measurements.")
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--validate", action="store_true",
                        help="resolve and print defaults without running")
    parser.add_argument("--profile", choices=PROFILES,
                        help="override the config profile")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker threads (0 = sequential)")
    parser.add_argument("--seed", type=int,
                        help="override the config base seed")
    parser.add_argument("--out",
                        help=f"output directory (also {OUTPUT_ENV_VAR})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if not os.path.exists(args.config):
        print(f"error: config not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG_MISSING
    try:
        cfg = load_config(args.config)
    except SchemaError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.profile:
        cfg.profile = args.profile
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.workers:
        cfg.workers = args.workers

    cap_error = dof_cap_error(cfg)
    if cap_error:
        print(f"error: {cap_error}", file=sys.stderr)
        return EXIT_DOF_CAP

    if args.validate:
        for line in resolve_report(cfg):
            print(line)
        return EXIT_OK

    out_dir = args.out or os.environ.get(OUTPUT_ENV_VAR) or "."
    os.makedirs(out_dir, exist_ok=True)

    try:
        records = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: run failed: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME

    csv_path = os.path.join(out_dir, cfg.out_csv)
    json_path = os.path.join(out_dir, cfg.out_json)
    with open(args.config) as f:
        config_doc = json.load(f)
    write_csv(records, csv_path)
    write_json(records, json_path, config=config_doc)
    failures = [r for r in records if "error" in r]
    print(f"wrote {len(records)} records to {csv_path} and {json_path}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return EXIT_RUNTIME if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
