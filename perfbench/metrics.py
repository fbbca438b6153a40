"""Metric names and units, the layer predictions, and the per-layer derivation.

``PREDICTIONS`` is written down before any optimisation lands, so a later
change can cite it by name: a change to one layer should move the end-to-end
metric named here, on the workload named here, and leave the others within
their bounds.  The reason for each workload is its ``why`` in BENCHMARK.json.
``layer_metrics`` turns the spans of traced jobs into the per-layer figures.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import LAYERS, self_times

END_TO_END = {
    "setup_s": "s",
    "job_p50_cal": "cal",
    "peak_rss_mb": "MB",
}

#: printed and stored with the end-to-end metrics, but too dependent on the
#: host's other load to carry a bound (see ``run.end_to_end``).
INFORMATIVE = {
    "setup_p50_s": "s",
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "reference_p50_s": "s",
}

_SELF = {f"self.{layer}_s": "s" for layer in LAYERS + ("bench",)}

PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.locate_s": "s",
    "mesh.locate_points": "count",
    "coeff.evaluate_s": "s",
    "coeff.evaluate_points": "count",
    "discretize.assemble_stiffness_s": "s",
    "discretize.assemble_stiffness_calls": "count",
    "discretize.stiffness_nnz": "count",
    "discretize.boundary_load_s": "s",
    "discretize.volume_load_s": "s",
    "discretize.load_calls": "count",
    "solve.factor_s": "s",
    "solve.factor_calls": "count",
    "solve.lu_fill_nnz": "count",
    "solve.triangular_s": "s",
    "solve.rhs_solved": "count",
    "solve.krylov_s": "s",
    "solve.krylov_iterations": "count",
    "solve.krylov_iterations_spread": "count",
    "solve.krylov_bytes_computed": "B",
    "solve.residual_max": "rel",
    "kernel.mollifier_load_s": "s",
    "kernel.mollifier_load_calls": "count",
    "kernel.build_kernel_calls": "count",
    "kernel.pole_p50_ms": "ms",
    "kernel.pole_p95_ms": "ms",
    "kernel.check_s": "s",
    "estimates.fits_s": "s",
    "estimates.local_boundedness_s": "s",
    "cli.self_s": "s",
    **_SELF,
    "trace.job_mean_s": "s",
    "trace.job_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.jobs": "count",
    "trace.spans": "count",
}

#: per-layer metric -> the end-to-end metric it should move, and where.
PREDICTIONS = {
    "mesh.build_s": "job_p50_cal on graph-krylov (all-pairs Lipschitz check); about 0 elsewhere",
    "mesh.locate_s": "small share of suite; a vectorised Mesh.locate moves no end-to-end metric beyond its bound",
    "mesh.locate_points": "count behind mesh.locate_s",
    "coeff.evaluate_s": "job_p50_cal on graph-krylov (every Gauss point) and kernel-set (per-cell RNG of the skew field)",
    "coeff.evaluate_points": "count behind coeff.evaluate_s",
    "discretize.assemble_stiffness_s": "job_p50_cal on graph-krylov and suite",
    "discretize.assemble_stiffness_calls": "building each operator once takes suite from 4 to 2",
    "discretize.stiffness_nnz": "exact-repeat size count; constant unless the discretisation changes",
    "discretize.boundary_load_s": "job_p50_cal on suite (_facet_trace_map rebuilt per call)",
    "discretize.volume_load_s": "job_p50_cal on suite",
    "discretize.load_calls": "job_p50_cal on suite",
    "solve.factor_s": "job_p50_cal on suite; kernel-set only slightly; graph-krylov not at all",
    "solve.factor_calls": "suite: one per operator build; exact-repeat count",
    "solve.lu_fill_nnz": "suite: an ordering change moves it; exact-repeat count",
    "solve.triangular_s": "job_p50_cal on kernel-set",
    "solve.rhs_solved": "kernel-set: 1029 columns per job; exact-repeat count",
    "solve.krylov_s": "job_p50_cal on graph-krylov",
    "solve.krylov_iterations": "graph-krylov: a preconditioner lowers it; exact-repeat count per seed",
    "solve.krylov_iterations_spread": "graph-krylov: max - min over the run's traced jobs",
    "solve.krylov_bytes_computed": "graph-krylov: computed as iterations x nnz x (value + index bytes)",
    "solve.residual_max": "correctness guard: stays <= 100 x tolerance",
    "kernel.mollifier_load_s": "job_p50_cal on kernel-set",
    "kernel.mollifier_load_calls": "kernel-set: 343 per job",
    "kernel.build_kernel_calls": "job_p50_cal on kernel-set",
    "kernel.pole_p50_ms": "job_p50_cal on kernel-set",
    "kernel.pole_p95_ms": "job_p50_cal on kernel-set (343 samples per job)",
    "kernel.check_s": "about 0 everywhere: guards against work moving into the checks",
    "estimates.fits_s": "job_p50_cal on suite",
    "estimates.local_boundedness_s": "job_p50_cal on suite",
    "cli.self_s": "orchestration overhead on suite",
    "trace.overhead_s": "traced minus untraced job_p50_s in the same run",
}

_BUILD = ("mesh.build_box_mesh", "mesh.build_staircase_mesh", "mesh.build_truncated_graph_mesh",
          "mesh.Mesh.__init__")
_KRYLOV = ("solve.cg", "solve.gmres", "solve.minres")
_CHECKS = ("kernel.check_defining_identity", "kernel.check_symmetry_identity",
           "kernel.representation_solve", "kernel.mollified_readout")
_SELF_TIME = {
    "mesh.Mesh.locate": "mesh.locate_s",
    "coeff.CoefficientField.evaluate": "coeff.evaluate_s",
    "discretize.assemble_stiffness": "discretize.assemble_stiffness_s",
    "discretize.assemble_boundary_load": "discretize.boundary_load_s",
    "discretize.assemble_volume_load": "discretize.volume_load_s",
    "solve.splu": "solve.factor_s",
    "solve.SuperLU.solve": "solve.triangular_s",
    "kernel.mollifier_load": "kernel.mollifier_load_s",
    "cli.run_experiment": "cli.self_s",
    **{name: "mesh.build_s" for name in _BUILD},
    **{name: "solve.krylov_s" for name in _KRYLOV},
    **{name: "kernel.check_s" for name in _CHECKS},
}
_CALLS = {
    "discretize.assemble_stiffness": "discretize.assemble_stiffness_calls",
    "discretize.assemble_boundary_load": "discretize.load_calls",
    "discretize.assemble_volume_load": "discretize.load_calls",
    "solve.splu": "solve.factor_calls",
    "kernel.mollifier_load": "kernel.mollifier_load_calls",
    "kernel.build_kernel": "kernel.build_kernel_calls",
}
_LOCAL_BOUNDEDNESS = "estimates.test_local_boundedness"


def _one_job(spans, selfs, lo):
    """Per-layer figures of one traced job.

    A job's spans are contiguous in the run and the first is its root; ``lo``
    is the root's index in the run, so ``parent - lo`` indexes ``spans``.
    """
    out = defaultdict(float)
    poles = []
    in_lb = [False] * len(spans)
    for i, (rec, own) in enumerate(zip(spans, selfs)):
        name, start, end, parent, _, info = rec
        info = info or {}
        local_parent = parent - lo if parent >= 0 else -1
        parent_name = spans[local_parent][0] if local_parent >= 0 else None
        layer = name.split(".", 1)[0]
        out[f"self.{layer}_s"] += own
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own
        if name in _CALLS:
            out[_CALLS[name]] += 1
        in_lb[i] = name == _LOCAL_BOUNDEDNESS or (local_parent >= 0 and in_lb[local_parent])
        if layer == "estimates":
            out["estimates.local_boundedness_s" if in_lb[i] else "estimates.fits_s"] += own
        if name == "mesh.Mesh.locate":
            out["mesh.locate_points"] += info.get("points", 0)
        elif name == "coeff.CoefficientField.evaluate" and parent_name != name:
            out["coeff.evaluate_points"] += info.get("points", 0)
        elif name == "discretize.assemble_stiffness":
            out["discretize.stiffness_nnz"] = max(out["discretize.stiffness_nnz"], info.get("nnz", 0))
        elif name == "solve.splu":
            out["solve.lu_fill_nnz"] = max(out["solve.lu_fill_nnz"], info.get("lu_nnz", 0))
        elif name == "solve.SuperLU.solve":
            out["solve.rhs_solved"] += info.get("rhs", 0)
        elif name in _KRYLOV:
            out["solve.krylov_iterations"] += info.get("iterations", 0)
            out["solve.krylov_bytes_computed"] += info.get("bytes_computed", 0)
        elif name == "kernel.build_kernel":
            poles.append(end - start)
        if "residual" in info:
            out["solve.residual_max"] = max(out["solve.residual_max"], info["residual"])
    out["trace.spans"] = len(spans)
    return out, poles


def layer_metrics(spans, traced_times, untraced_times):
    """Per-layer metrics over the traced jobs of a run, as a mean per traced job.

    A mean, not a median, so that the layer self times and ``self.bench_s``
    add up to ``trace.job_mean_s``.  Sizes (``*_nnz``) are the largest in a
    job; ``solve.residual_max`` is the largest in the run.
    """
    selfs = self_times(spans)
    extent = {}  # job id -> (first, last + 1) span index
    for i, rec in enumerate(spans):
        lo, _ = extent.get(rec[4], (i, i))
        extent[rec[4]] = (lo, i + 1)
    per_job, poles = [], []
    for lo, hi in extent.values():
        figures, job_poles = _one_job(spans[lo:hi], selfs[lo:hi], lo)
        per_job.append(figures)
        poles.extend(job_poles)
    out = {name: 0.0 for name in PER_LAYER}
    for name in out:
        if name.startswith("trace.") or name == "solve.krylov_iterations_spread":
            continue
        values = [job.get(name, 0.0) for job in per_job]
        out[name] = max(values) if name == "solve.residual_max" else float(np.mean(values))
    iterations = [job.get("solve.krylov_iterations", 0.0) for job in per_job]
    out["solve.krylov_iterations_spread"] = float(max(iterations) - min(iterations))
    if poles:
        out["kernel.pole_p50_ms"] = 1e3 * float(np.percentile(poles, 50))
        out["kernel.pole_p95_ms"] = 1e3 * float(np.percentile(poles, 95))
    out["trace.spans"] = float(np.mean([job["trace.spans"] for job in per_job]))
    out["trace.jobs"] = float(len(traced_times))
    out["trace.job_mean_s"] = float(np.mean(traced_times))
    out["trace.job_p50_s"] = statistics.median(traced_times)
    if untraced_times:
        out["trace.overhead_s"] = out["trace.job_p50_s"] - statistics.median(untraced_times)
    return out
