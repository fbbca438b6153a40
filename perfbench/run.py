"""neumannlab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client in this one process: a job
starts when the previous one has finished and been checked, as long as it
can end within ``--seconds``.  Job inputs come from ``--seed`` alone.  With
``--trace 0`` the program runs unwrapped and the end-to-end metrics are
reported; with ``--trace 1`` jobs alternate untraced and traced (layer
wrappers installed for that job only) and the per-layer metrics are reported.
The last line of standard output is one JSON object; the lines before it, and
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, give every metric
with its unit, the failed ratio, the provenance and each job's record.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: One BLAS thread: SuperLU and the CG matvecs do not use it, and two threads
#: on the two cores only add noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: setup_s is the fastest of this many fresh processes, spread over the run.
SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import neumannlab, draw the inputs and exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def set_up(workload, seed):
    """Import the program from this checkout and draw the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import jobs
    import neumannlab

    source = Path(neumannlab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"neumannlab imported from {source}, not from this checkout's src/")
    if workload not in jobs.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(jobs.WORKLOADS)}")
    spec = jobs.WORKLOADS[workload]
    return spec, spec.make_inputs(np.random.default_rng(seed))


def time_setup(args):
    """Wall time of one fresh process that starts, imports neumannlab and draws the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


def run_job(spec, inp, tracer):
    """One job: (seconds, passed, detail).  A raised error is a failed job."""
    root = None
    start = time.perf_counter()
    if tracer is not None:
        root = tracer.open("bench.job")
    try:
        passed, detail = spec.run_job(inp)
    except Exception as exc:  # a failed job is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        passed, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if root is not None:
            tracer.close(root)
    return time.perf_counter() - start, passed, detail


def run_loop(spec, inputs, seconds, tracer, setup, reference):
    """Closed loop for ``seconds``; with a tracer, odd jobs are traced.

    A job starts only if a typical job would end within ``seconds``, so a run
    lasts about ``seconds`` whatever the job size.  ``setup``, if given, times
    one fresh set-up process; it is called before the first job and then at
    even steps through the run, ``SETUP_REPEATS`` times in all, so the set-up
    samples see the same spread of host states as the jobs.  ``reference``, if
    given, is timed before every job.  Returns the job records, the set-up
    samples and the loop time without the set-up samples.
    """
    records, setup_samples = [], []
    start = time.perf_counter()
    for index, inp in enumerate(inputs):
        elapsed = time.perf_counter() - start
        if setup is not None and elapsed >= len(setup_samples) * seconds / SETUP_REPEATS:
            setup_samples.append(setup())
            elapsed = time.perf_counter() - start
        typical = statistics.median(r["seconds"] for r in records) if records else 0.0
        enough = index >= (2 if tracer is not None else 1)
        if enough and elapsed + typical > seconds:
            break  # the next job would not end within the measured time
        gc.collect()  # free the last job's cycles, so peak RSS does not depend on GC timing
        reference_s = reference.time() if reference is not None else None
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.job = index
            tracer.install()
        try:
            wall, passed, detail = run_job(spec, inp, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        records.append({"job": index, "seconds": wall, "passed": passed, "traced": traced,
                        "reference_s": reference_s, "peak_rss_mb": peak_rss_mb(), **detail})
    loop_s = time.perf_counter() - start - sum(setup_samples)
    while setup is not None and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup())
    return records, setup_samples, loop_s


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, records, values):
    import numpy as np
    import scipy

    import jobs

    if args.workload == "suite":
        sizes = [jobs.suite_sizes()]
    else:
        sizes = [r["sizes"] for r in records if "sizes" in r]
    ranges = {k: [min(s[k] for s in sizes), max(s[k] for s in sizes)] for k in sizes[0]} if sizes else {}
    # the stiffness is the program's internal, so only the traced run sees its nnz
    ranges["stiffness_nnz"] = values.get("discretize.stiffness_nnz")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes_min_max": ranges,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_samples, records):
    """The bounded metrics: fastest set-up, median job in reference units, peak RSS.

    ``job_p50_cal`` is the median over passed jobs of the job's time divided
    by the time of the fixed reference work timed just before it
    (``reference.py``): the host's other load slows both, and the ratio keeps
    only the program's own cost.
    ``setup_s`` is the fastest of the set-up samples spread over the run, for
    the same reason.  ``informative`` gives the plain wall-clock figures; they
    are printed and stored, not bounded.
    """
    passed = [r for r in records if r["passed"]] or records
    return {
        "setup_s": min(setup_samples),
        "job_p50_cal": statistics.median(r["seconds"] / r["reference_s"] for r in passed),
        # after the first job: later jobs add only allocator fragmentation,
        # which varies from run to run
        "peak_rss_mb": records[0]["peak_rss_mb"],
    }


def informative(setup_samples, records, loop_s):
    passed = [r["seconds"] for r in records if r["passed"]]
    return {
        "setup_p50_s": statistics.median(setup_samples),
        "job_p50_s": statistics.median(passed) if passed else float("nan"),
        "jobs_per_s": len(passed) / loop_s,
        "reference_p50_s": statistics.median(r["reference_s"] for r in records),
    }


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    spec, inputs = set_up(args.workload, args.seed)
    import metrics
    import reference
    import spans

    tracer = spans.Tracer() if args.trace else None
    setup = None if args.trace else functools.partial(time_setup, args)
    ref = None if args.trace else reference.Reference()
    records, setup_samples, loop_s = run_loop(spec, inputs, args.seconds, tracer, setup, ref)
    attempted = len(records)
    failed = sum(not r["passed"] for r in records)

    extra = {}
    if args.trace:
        traced = [r["seconds"] for r in records if r["traced"]]
        untraced = [r["seconds"] for r in records if not r["traced"]]
        values = metrics.layer_metrics(tracer.spans, traced, untraced)
        units = metrics.PER_LAYER
    else:
        values = end_to_end(setup_samples, records)
        units = metrics.END_TO_END
        extra = informative(setup_samples, records, loop_s)

    reported = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "provenance": provenance(args, records, values),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "setup_samples_s": setup_samples,
        "loop_s": loop_s,
        "metrics": reported,
        "not_bounded": {k: {"value": v, "unit": metrics.INFORMATIVE[k]} for k, v in extra.items()},
        "jobs": records,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs attempted, "
          f"{failed} failed (failed_ratio {failed / attempted:.3f}), "
          f"BLAS threads {BLAS_ENV['OPENBLAS_NUM_THREADS']}, loop {loop_s:.2f} s")
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:36s} {value:.6g} {metrics.INFORMATIVE[name]}  (not bounded)")
    print(f"  details: {OUT.relative_to(ROOT) / (stem + '.json')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
