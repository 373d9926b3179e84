"""Config-driven command-line front end.

Reads a JSON config with a versioned schema, resolves defaults (mode count
per epsilon, mesh sizes, profile overrides), optionally validates without
running, and emits the documented CSV/JSON result files atomically.  One
table, ``KEYS``, gives each config key its check and the runs that read it;
a key that is unknown or that the run does not read is a schema violation.

Exit codes: 0 success, 2 config file missing, 3 schema violation,
4 size cap exceeded (mesh nodes in the desk profile; the points of
``one_d_profile`` in any profile), 1 any other runtime failure.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import SymMat, constant_field, periodic_smooth_field, \
    scale_epsilon
from .experiments import CHECKERBOARD_STRATEGIES, DEFAULT_COARSE_H, \
    DEFAULT_R, ME_MS_CHECK_MAX_N, STRATEGIES, coarse_mesh_n, \
    coefficient_noise_study, fine_n, measurement_noise_study, one_d_profile, \
    one_d_quad_points, periodic_reference, record, resolve_p, sweep, \
    write_csv, write_json
from .homogenization import checkerboard_exact, homogenized_matrix
from .identify import me_ms_identity_check
from .mesh import build_periodic_cell_mesh, build_unit_square_mesh

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "EFFDIFF_OUT_DIR"
DESK_DOF_CAP = 4_000_000
# quadrature points and candidates of one_d_profile, in any profile
ONE_D_MAX_POINTS = 4_000_000

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
    cell_n: int = 128        # A* from cells cell_n / 4, cell_n / 2, cell_n
    profile: str = "desk"
    out_csv: str = "results.csv"
    out_json: str = "results.json"
    workers: int = 1
    grid: list = field(default_factory=lambda: [1.0, 3.0, 2001])

    def resolved_r(self) -> float:
        if self.r:
            return self.r
        r = DEFAULT_R[self.coefficient]
        return 2.0 * r if self.profile == "full" else r

    def resolved_m1(self) -> int:
        return self.m1 or (40 if self.profile == "full" else 10)

    def resolved_m2(self) -> int:
        return self.m2 or (40 if self.profile == "full" else 10)

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
        return fine_n(self.coefficient, eps, self.resolved_r(), max_n=cap)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


# a JSON number that a float holds: isinstance would also pass true and
# false, json reads Infinity and NaN, and an integer has no bound
def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _positive(v) -> bool:
    return _finite(v) and v > 0


def _nonnegative(v) -> bool:
    return _finite(v) and v >= 0


def _int_from(lo: int):
    return lambda v: type(v) is int and v >= lo


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def _coefficient(v) -> dict:
    if not isinstance(v, dict):
        return {"coefficient": v}
    return {"coefficient": "constant", "constant_entries": SymMat(
        *(float(v[k]) for k in ENTRIES))}


def _spd(v) -> bool:
    try:    # entries whose eigenvalues overflow make no field either
        return _coefficient(v)["constant_entries"].is_spd()
    except OverflowError:
        return False


SWEEPS = ("identify", "sweep")
ENTRIES = ("a11", "a12", "a22")
NOISE_STUDIES = ("noise_measurement", "noise_coefficient")
# Each config key: the runs that read it ("<experiment>" or "<experiment> on
# <coefficient>"), what its value must be and the test of that (None: checked
# before the walk), and the RunConfig fields it sets, if not {key.lower(): v}.
KEYS = {
    "schema_version": (EXPERIMENTS, None, None),
    "experiment": (EXPERIMENTS, None, None),
    "base_seed": (EXPERIMENTS, "a nonnegative integer", _int_from(0)),
    "profile": (EXPERIMENTS, f"one of {PROFILES}", lambda v: v in PROFILES),
    "output": (EXPERIMENTS, "an object of 'csv' and 'json' file names",
               lambda v: isinstance(v, dict) and set(v) <= {"csv", "json"}
               and all(isinstance(s, str) for s in v.values()),
               lambda v: {f"out_{k}": s for k, s in v.items()}),
    "coefficient": (
        ("homogenize",) + tuple(f"{e} on {c}" for e in SWEEPS
                                for c in SWEEP_STRATEGIES)
        + tuple(f"{e} on periodic_smooth" for e in FIRST_EPSILON_EXPERIMENTS),
        f"one of {COEFFICIENTS} or {{'kind': 'constant', 'a11': a11, "
        f"'a12': a12, 'a22': a22}} with finite entries that form an SPD "
        f"matrix",
        lambda v: v in COEFFICIENTS or isinstance(v, dict)
        and v.get("kind") == "constant" and set(v) == {"kind", *ENTRIES}
        and all(_finite(v[k]) for k in ENTRIES) and _spd(v),
        _coefficient),
    "epsilons": (EXPERIMENTS[1:],   # every run but homogenize
                 "a list of finite positive numbers", _list_of(_positive),
                 lambda v: {"epsilons": [float(e) for e in v]}),
    "strategies": (SWEEPS, "a non-empty list",
                   lambda v: isinstance(v, list) and v),
    "Q": (SWEEPS, "a positive integer", _int_from(1)),
    "P": (SWEEPS + NOISE_STUDIES, "'auto' or a positive integer",
          lambda v: v == "auto" or _int_from(1)(v),
          lambda v: {"p": None if v == "auto" else v}),
    # at coarse n = 1 the four boundary nodes are corners, and every
    # strategy's run failed there
    "coarse_H": (SWEEPS + NOISE_STUDIES, "a finite positive number below "
                 "sqrt(2), so that the coarse mesh has n >= 2",
                 lambda v: _positive(v) and v < math.sqrt(2.0)),
    "r": (SWEEPS + FIRST_EPSILON_EXPERIMENTS, "a finite positive number",
          _positive),
    "M1": (("identify on checkerboard", "sweep on checkerboard",
            "noise_coefficient"), "a positive integer", _int_from(1)),
    "M2": (("noise_measurement",), "an integer >= 2", _int_from(2)),
    "sigmas": (("noise_measurement",), "a list of finite nonnegative numbers",
               _list_of(_nonnegative),
               lambda v: {"sigmas": [float(s) for s in v]}),
    "sigma": (("noise_coefficient",), "a finite nonnegative number",
              _nonnegative),
    "cell_n": (("homogenize",), "a multiple of 4, >= 8",
               lambda v: _int_from(8)(v) and v % 4 == 0),
    "grid": (("one_d_profile",), "[min, max, count] with 0 < min < max < inf "
             "and an integer count >= 2",
             lambda g: _list_of(_positive)(g) and len(g) == 3
             and g[1] > g[0] and _int_from(2)(g[2]),
             lambda g: {"grid": [float(g[0]), float(g[1]), g[2]]}),
}


def reads(cfg: RunConfig, key: str) -> bool:
    """Whether the run ``cfg`` describes reads config key ``key``."""
    readers = KEYS[key][0]
    return cfg.experiment in readers \
        or f"{cfg.experiment} on {cfg.coefficient}" in readers


def load_config(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    for key, value in doc.items():
        _expect(key in KEYS,
                f"unknown key {key!r}; expected one of {tuple(KEYS)}")
        _, meaning, test, *fields = KEYS[key]
        if test is not None:
            _expect(test(value), f"{key!r} must be {meaning}")
            cfg = replace(cfg, **(fields[0](value) if fields
                                  else {key.lower(): value}))
    for key in doc:     # after the walk, which sets the coefficient
        readers = " and ".join(", ".join(KEYS[key][0]).rsplit(", ", 1))
        _expect(reads(cfg, key), f"{key!r} is read by {readers} only")

    if cfg.experiment in SWEEPS:
        allowed = SWEEP_STRATEGIES[cfg.coefficient]
        unknown = [s for s in cfg.strategies if s not in allowed]
        _expect(not unknown, f"strategies {unknown} do not run on "
                             f"{cfg.coefficient}; expected from {allowed}")
        _expect(cfg.coefficient != "checkerboard"
                or all(eps <= 1.0 for eps in cfg.epsilons),
                f"'epsilons' must be <= 1 on the checkerboard, whose cells "
                f"have side eps; got {cfg.epsilons}")
        for eps in cfg.epsilons:
            p = resolve_p(eps, cfg.p)
            _expect(cfg.q >= p, f"Q = {cfg.q} < P = {p} at eps = {eps}")
    # the default list is not empty, and homogenize rejects the key
    _expect(cfg.epsilons, f"'epsilons' must not be empty for "
                          f"{cfg.experiment}")
    return cfg


def resolve_report(cfg: RunConfig) -> list[str]:
    """Human-readable resolution of defaults; used by --validate."""
    lines = [f"experiment: {cfg.experiment}"]
    if reads(cfg, "coefficient"):
        lines.append(f"coefficient: {cfg.coefficient}")
    lines += [f"profile: {cfg.profile}", f"base_seed: {cfg.base_seed}"]
    if reads(cfg, "r"):
        lines.append(f"r: {cfg.resolved_r()}")
    if reads(cfg, "coarse_H"):
        lines.append(f"coarse_H: {cfg.coarse_h} "
                     f"(coarse n = {coarse_mesh_n(cfg.coarse_h)})")
    for eps in cfg.run_epsilons() if reads(cfg, "r") else ():
        n = cfg.fine_n(eps)
        modes = f"P = {resolve_p(eps, cfg.p)}, " if reads(cfg, "P") else ""
        if reads(cfg, "Q"):
            modes += f"Q = {cfg.q}, "
        lines.append(f"eps = {eps}: {modes}fine n = {n} "
                     f"({(n + 1) ** 2} nodes)")
    if reads(cfg, "M1"):
        lines.append(f"M1 = {cfg.resolved_m1()}")
    if reads(cfg, "M2"):
        lines.append(f"M2 = {cfg.resolved_m2()}, "
                     f"draws = {cfg.resolved_draws()}")
    if reads(cfg, "cell_n"):
        cell_n = cfg.homogenize_cell_n()
        lines.append(f"cell_n: {cell_n}" + (
            f" (A* extrapolated from cells {cell_n // 4}, {cell_n // 2} "
            f"and {cell_n})"
            if cfg.coefficient == "periodic_smooth" else ""))
    if reads(cfg, "grid"):
        lines.append(f"grid: {cfg.grid}")
    return lines


def _count(nodes: int) -> str:
    """A count: in full up to nine digits, to four significant digits
    beyond (as a Decimal, since no float holds every count)."""
    return str(nodes) if nodes < 10 ** 9 \
        else format(decimal.Decimal(nodes), ".3e")


def dof_cap_error(cfg: RunConfig) -> str | None:
    """Why the run exceeds a size cap, if it does: the desk profile's node
    cap on a fine, coarse or corrector-cell mesh, or ``ONE_D_MAX_POINTS`` on
    the quadrature points or grid candidates of ``one_d_profile``.  Raises
    ValueError, in any profile, for a size that no float holds."""
    meshes = [("fine", f"eps = {eps}, r = {cfg.resolved_r()}", "Reduce r",
               cfg.fine_n(eps))
              for eps in (cfg.run_epsilons() if reads(cfg, "r") else ())]
    if reads(cfg, "coarse_H"):
        meshes.append(("coarse", f"coarse_H = {cfg.coarse_h}",
                       "Raise coarse_H", coarse_mesh_n(cfg.coarse_h)))
    cell_n = cfg.homogenize_cell_n() if reads(cfg, "cell_n") else None
    if cell_n:
        meshes.append(("cell", f"cell_n = {cfg.cell_n}", "Reduce cell_n",
                       cell_n))
    for mesh, setting, remedy, n in meshes:
        nodes = (n + 1) ** 2
        if cfg.profile == "desk" and nodes > DESK_DOF_CAP:
            return (f"desk profile caps {mesh}-mesh nodes at {DESK_DOF_CAP}; "
                    f"{setting} needs {_count(nodes)}. "
                    f"{remedy} or use --profile full.")
    if cfg.experiment == "one_d_profile":
        eps, count = cfg.epsilons[0], cfg.grid[2]
        for what, setting, remedy, points in (
                ("quadrature points", f"eps = {eps}", "Raise eps",
                 one_d_quad_points(eps)),
                ("grid candidates", f"a grid count of {count}",
                 "Reduce the count", count)):
            if points > ONE_D_MAX_POINTS:
                return (f"one_d_profile caps {what} at {ONE_D_MAX_POINTS}; "
                        f"{setting} needs {_count(points)}. {remedy}.")
    return None


def check_fine_modes(cfg: RunConfig) -> None:
    """Raise SchemaError when the fine mesh of an epsilon cannot carry the
    R-modes the run computes on it: Q for a sweep, P for a noise study.
    A mesh of n subdivisions has 4 n boundary nodes and at most 4 n - 1
    modes of zero boundary mean."""
    if not reads(cfg, "P"):     # the runs without an R-mode eigensolve
        return
    key = "Q" if reads(cfg, "Q") else "P"
    for eps in cfg.run_epsilons():
        n = cfg.fine_n(eps)
        count = cfg.q if key == "Q" else resolve_p(eps, cfg.p)
        _expect(count <= 4 * n - 1,
                f"{key!r} = {count} exceeds the {4 * n - 1} modes of the "
                f"fine mesh at eps = {eps} (n = {n}); raise r or lower {key}")


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
        eps = cfg.epsilons[0]
        table = one_d_profile(lambda x: 2.0 + np.cos(2.0 * np.pi * x), eps,
                              np.linspace(*cfg.grid))
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
    if not os.path.isfile(args.config):
        print(f"error: config is not a file: {args.config}", file=sys.stderr)
        return EXIT_CONFIG_MISSING
    try:
        cfg = load_config(args.config)
        _expect(args.seed is None or args.seed >= 0,
                f"--seed (which sets 'base_seed') must be a nonnegative "
                f"integer, got {args.seed}")
        _expect(args.workers >= 0, f"--workers must be a nonnegative "
                                   f"integer, got {args.workers}")
    except SchemaError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.profile:
        cfg.profile = args.profile
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.workers:
        cfg.workers = args.workers

    try:
        cap_error = dof_cap_error(cfg)
        check_fine_modes(cfg)   # after the overrides, which set the profile
    except ValueError as exc:    # also a size that no float holds
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
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
    with open(args.config, encoding="utf-8") as f:
        config_doc = json.load(f)
    write_csv(records, csv_path)
    write_json(records, json_path, config=config_doc)
    failures = [r for r in records if "error" in r]
    print(f"wrote {len(records)} records to {csv_path} and {json_path}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return EXIT_RUNTIME if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
