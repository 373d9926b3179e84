"""One benchmark execution of effdiff, in a fresh process.

    python3 bench/child.py --workload NAME --seed N --out DIR --trace 0|1
                           [--setup-only]

Imports effdiff, writes the workload's config into DIR, then calls
``effdiff.cli.main`` once on it and writes ``stats.json`` to DIR: the
monotonic time of the first call into ``main`` and of its return (the
parent measures set-up from its own clock before the spawn; CLOCK_MONOTONIC
is system-wide), CPU seconds and peak RSS of the run, and the library
versions. ``--setup-only`` stops just before the call.

With ``--trace 1`` the benchmark's own wrappers time each layer: they are
patched over the public functions and methods where effdiff's modules
import them, each call becoming a span (name, start, end, parent, self
time). Spans stay in memory and are written to ``spans.json`` when the run
ends; ``stats.json`` then also carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time

import workloads


class Tracer:
    """In-memory span recorder; spans nest through a stack of open ones."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, on_return=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``on_return(span, args, result)`` may attach attributes to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = {"name": label, "start": time.perf_counter(),
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "child_s": 0.0}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                duration = span["end"] - span["start"]
                span["self_s"] = duration - span.pop("child_s")
                if span["parent"] is not None:
                    tracer.spans[span["parent"]]["child_s"] += duration
            if on_return is not None:
                on_return(span, args, result)
            return result
        return wrapper

    def inside(self, span: dict, name: str) -> bool:
        """Whether a span named ``name`` encloses ``span``."""
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False


def install_wrappers(tracer: Tracer, coarse_n: int) -> None:
    """Patch span-recording wrappers over effdiff's layer entry points.

    Functions are patched where they are imported (the module global the
    caller looks up); methods are patched on their class, which every
    import site shares. The package re-exports the function ``identify``
    under the module's name, so that module is reached via sys.modules.
    """
    import effdiff.cli as cli
    import effdiff.experiments as experiments
    import effdiff.modes as modes
    import effdiff.solver as solver
    identify = sys.modules["effdiff.identify"]

    def kind(mesh):
        return "coarse" if mesh.n == coarse_n else "fine"

    def record_fill(span, args, _result):
        # fill as SuperLU stores it, when the solver exposes its factor
        span["nnz"] = getattr(getattr(args[0], "_lu", None), "nnz", None)

    def record_descent(span, _args, trace):
        span["iterations"] = trace.iterations
        span["termination"] = trace.termination

    ns = solver.NeumannSolver
    ns.__init__ = tracer.wrap(
        ns.__init__, lambda self, mesh, *a, **k: f"solver.{kind(mesh)}_factor",
        record_fill)
    ns.solve = tracer.wrap(
        ns.solve, lambda self, *a, **k: f"solver.{kind(self.mesh)}_solve")
    cs = solver.CorrectorSolver
    cs.__init__ = tracer.wrap(cs.__init__, "solver.corrector_factor",
                              record_fill)
    solver.assemble_stiffness = tracer.wrap(solver.assemble_stiffness,
                                            "solver.assemble")
    cm = identify.CoarseModel
    cm.evaluate = tracer.wrap(cm.evaluate, "identify.evaluate")

    for module, attr, name, hook in (
            (experiments, "compute_r_modes", "modes.r_modes", None),
            (experiments, "simulate_measurements", "identify.simulate", None),
            (experiments, "identify", "identify.descent", record_descent),
            (experiments, "homogenized_matrix", "homogenization.reference",
             None),
            (experiments, "err_eps_q", "experiments.err_eps_q", None),
            (experiments, "build_unit_square_mesh", "mesh.build", None),
            (experiments, "build_periodic_cell_mesh", "mesh.build", None),
            (cli, "write_csv", "experiments.write", None),
            (cli, "write_json", "experiments.write", None),
            (experiments, "interpolate_nodal", "mesh.interpolate", None),
            (identify, "interpolate_nodal", "mesh.interpolate", None),
            (identify, "interpolate_boundary", "mesh.interpolate", None),
            (modes, "interpolate_boundary", "mesh.interpolate", None)):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, hook))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times from the recorded spans.

    ``*_factor_s`` is a solver constructor's self time: building and
    factoring the system, without the assembly span inside it.
    ``*_lu_nnz`` is the largest factor's stored entries; it is None when a
    factorization ran but its solver exposes no factor.
    """
    by_name: dict[str, list[dict]] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def total(items, key=None):
        if key is None:
            return sum(s["end"] - s["start"] for s in items)
        return sum(s[key] for s in items)

    m = {}
    for kind in ("fine", "coarse", "corrector"):
        factors = spans(f"solver.{kind}_factor")
        fills = [s["nnz"] for s in factors]
        m[f"solver.{kind}_factorizations"] = len(factors)
        m[f"solver.{kind}_factor_s"] = total(factors, "self_s")
        m[f"solver.{kind}_lu_nnz"] = \
            None if None in fills else max(fills, default=0)
    for kind in ("fine", "coarse"):
        solves = spans(f"solver.{kind}_solve")
        m[f"solver.{kind}_solves"] = len(solves)
        m[f"solver.{kind}_solve_s"] = total(solves)
    m["solver.assemblies"] = len(spans("solver.assemble"))
    m["solver.assemble_s"] = total(spans("solver.assemble"))

    m["modes.r_modes_s"] = total(spans("modes.r_modes"))
    m["modes.op_applications"] = sum(
        tracer.inside(s, "modes.r_modes") for s in spans("solver.fine_solve"))

    descents = spans("identify.descent")
    evaluations = [s for s in spans("identify.evaluate")
                   if tracer.inside(s, "identify.descent")]
    iterations = total(descents, "iterations")
    m["identify.simulate_s"] = total(spans("identify.simulate"))
    m["identify.descents"] = len(descents)
    m["identify.descent_s"] = total(descents)
    m["identify.iterations"] = iterations
    m["identify.evaluations"] = len(evaluations)
    m["identify.evaluate_s"] = total(evaluations)
    m["identify.accepted_frac"] = \
        iterations / len(evaluations) if evaluations else 0.0
    m["identify.converged_frac"] = sum(
        s["termination"] == "gradient_small" for s in descents) \
        / len(descents) if descents else 0.0

    m["homogenization.reference_s"] = total(spans("homogenization.reference"))
    m["experiments.err_eps_q_s"] = total(spans("experiments.err_eps_q"))
    m["experiments.write_s"] = total(spans("experiments.write"))
    m["mesh.build_s"] = total(spans("mesh.build"))
    m["mesh.interpolate_calls"] = len(spans("mesh.interpolate"))
    m["mesh.interpolate_s"] = total(spans("mesh.interpolate"))
    return m


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):  # numpy without the dict form
        return None


def _write_json(path: str, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import effdiff.cli
    from effdiff.experiments import DEFAULT_COARSE_H, coarse_mesh_n

    config = workloads.make_config(args.workload, args.seed)
    config_path = os.path.join(args.out, "config.json")
    _write_json(config_path, config)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_wrappers(tracer, coarse_mesh_n(
            config.get("coarse_H", DEFAULT_COARSE_H)))

    stats = {"numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas": _blas_name(numpy), "t_call": time.monotonic()}
    if not args.setup_only:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        stats["exit_code"] = effdiff.cli.main(
            [config_path, "--out", args.out])
        stats["t_end"] = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        stats["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) \
            + (ru1.ru_stime - ru0.ru_stime)
        stats["peak_rss_mb"] = ru1.ru_maxrss * 1024 / 1e6  # Linux: KiB
        if tracer is not None:
            stats["layers"] = layer_metrics(tracer)
            _write_json(os.path.join(args.out, "spans.json"), tracer.spans)
    _write_json(os.path.join(args.out, "stats.json"), stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
