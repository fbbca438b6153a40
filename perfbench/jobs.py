"""The benchmark's workloads: inputs drawn from the workload seed, one job, one gate.

A job produces one verified result and returns ``(passed, detail)``.  Every
call into neumannlab goes through a module attribute (``kernel.build_kernel``,
not a name imported from it), so the traced run can wrap those attributes.
Job inputs are drawn once, before the first job, from the workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from neumannlab import cli, coeff, discretize, estimates, kernel, solve
from neumannlab import mesh as meshmod

#: Most jobs one run can draw inputs for; a run stops well before this.
MAX_JOBS = 500

TOLERANCE = 1e-10
#: c02 / c04 acceptance tolerances and the solver's own residual guard.
IDENTITY_TOL = 1e-8
REPRESENTATION_TOL = 1e-7
RESIDUAL_TOL = 100 * TOLERANCE

def job_seeds(rng):
    """Job seeds whose lowest bit, the checkerboard phase, runs 0, 0, 1, 1, 0, 0, ...

    The two phases differ by a few percent in job time, so every run, and both
    its traced and untraced jobs, gets each phase equally often.
    """
    seeds = rng.integers(0, 2**31 - 1, size=MAX_JOBS)
    return [int(s) & ~1 | (i // 2) % 2 for i, s in enumerate(seeds)]


# -- suite -----------------------------------------------------------------
#: n=12 takes ~1 s a job, so a run holds ~30 job samples; n=20 takes ~6 s,
#: and a run's median of five or six jobs was not steady.
SUITE_N = 12
#: report.json embeds outdir and the config hash, so it must not vary by run.
SUITE_OUTDIR = ".perfbench_out/suite"


def suite_inputs(rng):
    return [
        cli.RunConfig(
            kind="full-suite",
            seed=s,
            outdir=SUITE_OUTDIR,
            mesh_n=SUITE_N,
            coeff_type="checkerboard",
            coeff_contrast=10.0,
            coeff_cell=0.25,
            poles="near-boundary",
            trials=8,
            solve_tolerance=TOLERANCE,
        )
        for s in job_seeds(rng)
    ]


def suite_job(cfg):
    report = cli.run_experiment(cfg)
    cli.emit_report(report, cfg.outdir)
    digest = hashlib.sha256((Path(cfg.outdir) / "report.json").read_bytes()).hexdigest()
    passed = bool(report.passed) and not report.failures
    return passed, {"seed": cfg.seed, "report_sha256": digest}


def suite_sizes():
    """Sizes of every suite job: a scalar field on the full n^3 box, two poles."""
    return {"dofs": (SUITE_N + 1) ** 3, "cells": SUITE_N**3, "poles": 2}


# -- kernel-set ------------------------------------------------------------
#: 6^3 for the same reason as SUITE_N: 343 poles, ~1 s a job (8^3 takes ~4 s).
KSET_N = 6
KSET_M = 3


def kernel_set_inputs(rng):
    return job_seeds(rng)


def kernel_set_job(seed):
    mesh = meshmod.build_box_mesh((1.0, 1.0, 1.0), KSET_N)
    spec = coeff.SkewPerturbed(
        coeff.ScalarCheckerboard(10.0, seed=seed, m=KSET_M), 0.5, seed=seed
    )
    fld = coeff.make_coefficient(spec)
    cfg = solve.SolveConfig(tolerance=TOLERANCE)
    kernels = kernel.build_node_kernel_set(mesh, fld, cfg)
    f, g, _ = estimates.random_compatible_data(mesh, KSET_M, np.random.default_rng(seed))
    direct = solve.solve_neumann_bounded(mesh, fld, f, g, cfg)
    rep = kernel.representation_solve(kernels, f, g)
    readout = kernel.mollified_readout(kernels, direct)
    rel = float(discretize.l2_norm(rep - readout) / discretize.l2_norm(readout))
    sizes = {"dofs": mesh.n_nodes * KSET_M, "cells": mesh.n_cells, "poles": mesh.n_nodes}
    return rel <= REPRESENTATION_TOL, {"seed": seed, "representation_rel_l2": rel, "sizes": sizes}


# -- graph-krylov ----------------------------------------------------------
GRAPH_H = 1.0 / 6.0
#: A 6^3 box, not the 10^3 of the c10 study: at ~70 MB the larger operator's
#: CG time doubled and halved with other load on the machine's shared cache.
GRAPH_BOX = ((-3.0, -3.0, -3.0), (3.0, 3.0, 3.0))
GRAPH_K = 0.5
GRAPH_CONTRAST = 100.0


@dataclass(frozen=True)
class GraphInput:
    seed: int
    amplitudes: tuple
    wavenumbers: tuple
    angles: tuple
    phases: tuple
    pole_xy: tuple

    def profile(self, x, y):
        """Sum of plane waves lifted to sit on the box floor; slope <= 0.9 K."""
        z = np.full_like(x, GRAPH_BOX[0][2] + sum(self.amplitudes))
        for a, k, t, p in zip(self.amplitudes, self.wavenumbers, self.angles, self.phases):
            z = z + a * np.sin(k * (np.cos(t) * x + np.sin(t) * y) + p)
        return z

    @property
    def pole(self):
        # 8h above the highest point the floor can reach
        top = GRAPH_BOX[0][2] + 2 * sum(self.amplitudes)
        return np.array([self.pole_xy[0], self.pole_xy[1], top + 8 * GRAPH_H])


def graph_inputs(rng):
    out = []
    for seed in job_seeds(rng):
        k = rng.uniform(2.0, 4.0, size=3)
        share = rng.dirichlet(np.ones(3))
        amps = 0.9 * GRAPH_K * share / k  # sum a_i k_i = 0.9 K
        out.append(
            GraphInput(
                seed=seed,
                amplitudes=tuple(amps.tolist()),
                wavenumbers=tuple(k.tolist()),
                angles=tuple(rng.uniform(0.0, np.pi, size=3).tolist()),
                phases=tuple(rng.uniform(0.0, 2 * np.pi, size=3).tolist()),
                pole_xy=tuple(rng.uniform(-1.0, 1.0, size=2).tolist()),
            )
        )
    return out


def graph_job(inp):
    mesh = meshmod.build_truncated_graph_mesh(inp.profile, GRAPH_K, GRAPH_BOX, GRAPH_H)
    fld = coeff.make_coefficient(coeff.ScalarCheckerboard(GRAPH_CONTRAST, seed=inp.seed))
    cfg = solve.SolveConfig(linear_solver="krylov", tolerance=TOLERANCE)
    kern = kernel.build_kernel(mesh, fld, inp.pole, cfg)
    vals = np.random.default_rng(inp.seed).standard_normal((mesh.n_nodes, 1))
    vals[mesh.far_nodes] = 0.0
    identity = float(
        np.abs(kernel.check_defining_identity(kern, discretize.DiscreteField(mesh, vals))).max()
    )
    far_zero = bool(np.all(kern.values[mesh.far_nodes] == 0.0))
    column = kern.telemetry["columns"][0]
    passed = identity <= IDENTITY_TOL and far_zero and column["residual"] <= RESIDUAL_TOL
    detail = {
        "seed": inp.seed,
        "identity_residual": identity,
        "far_cut_exact_zero": far_zero,
        "solve_residual": column["residual"],
        "cg_iterations": column["iterations"],
        "sizes": {"dofs": mesh.n_nodes, "cells": mesh.n_cells, "poles": 1},
    }
    return passed, detail


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_job: object


WORKLOADS = {
    "suite": Workload(suite_inputs, suite_job),
    "kernel-set": Workload(kernel_set_inputs, kernel_set_job),
    "graph-krylov": Workload(graph_inputs, graph_job),
}
