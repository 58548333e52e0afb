"""Run one imutok benchmark workload.

    python3 benchmarks/run.py --workload {train,eval,stream} --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next to
this directory; without it the command fails before printing a result. The
last stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced pass with ``--trace 1``). The lines before it
carry the environment and the named per-workload report. The exit code is
non-zero when any output check fails.
"""

import os

# Pinned before numpy is first imported. The BLAS thread count changes float
# summation order, so it changes results as well as timings. numpy's
# transparent-huge-page madvise is off so that huge-page availability, which
# changes over time on a shared host, does not change memory layout.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(1, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "aux_per_s": "1/s",
}


def import_package():
    """Import imutok from this checkout's src/, never from anywhere else."""
    if not (SRC / "imutok" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'imutok'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import imutok
    if Path(imutok.__file__).resolve().parent != SRC / "imutok":
        sys.exit(f"error: imported imutok from {imutok.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "blas_threads": BLAS_THREADS,
            "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "python": platform.python_version(), "seed": seed}


def run_pass(workload, seconds: float, units=None, tracer=None, reference=None) -> dict:
    """Set up (SETUP_REPEATS times untraced, once traced), run units of work
    until the next one would end after ``seconds`` (but at least the
    workload's minimum), or exactly ``units`` units; then check the outputs.
    When traced, each phase is a top-level span. A reference kernel, when
    given, runs before the first set-up and after every set-up and unit."""
    phase = tracer.span if tracer else (lambda name: nullcontext())
    refs = [reference()] if reference else []

    def timed(name, fn, *args):
        t0 = perf_counter()
        with phase(name):
            out = fn(*args)
        elapsed = perf_counter() - t0
        if reference:
            refs.append(reference())
        return out, elapsed

    setup_s, digests = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        digest, elapsed = timed("phase.setup", workload.setup)
        digests.append(digest)
        setup_s.append(elapsed)
    failures = [] if len(set(digests)) == 1 else ["repeated set-up built different inputs"]

    ops, unit_s = 0, []
    start = perf_counter()
    while len(unit_s) < workload.max_units:
        if tracer:
            tracer.run_id = len(unit_s) + 1
        n, elapsed = timed("phase.work", workload.unit, len(unit_s))
        ops += n
        unit_s.append(elapsed)
        if units is not None:
            if len(unit_s) >= units:
                break
        elif (len(unit_s) >= workload.min_units
              and perf_counter() - start + elapsed > seconds):
            break
    if tracer:
        tracer.restore()
    failures += workload.check()
    return {"setup_s": setup_s, "unit_s": unit_s, "ops": ops, "failures": failures,
            "reference_s": refs}


def end_to_end(workload, base: dict, ref_s: float) -> tuple:
    """Calibrated end-to-end values, and the report of uncalibrated ones.

    Each set-up and unit is scaled by REF_S / (median of the four reference
    times nearest to it, two before and two after): times are multiplied by
    it, rates divided. The median keeps one disturbed reference run from
    moving the scale."""
    refs = base["reference_s"]
    scale = [ref_s / statistics.median(refs[max(0, i - 1):i + 3]) for i in range(len(refs) - 1)]
    n_setup = len(base["setup_s"])
    ops_per_s, aux_per_s = workload.rates(scale[n_setup:])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(s * k for s, k in zip(base["setup_s"], scale)),
        "peak_rss_mb": rss_mb,
        "ops_per_s": ops_per_s,
        "aux_per_s": aux_per_s,
    }
    report = {
        "setup_s": {"value": statistics.median(base["setup_s"]), "unit": "s", "n": n_setup},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "reference_ms": {"value": 1e3 * statistics.median(refs), "unit": "ms", "n": len(refs),
                         "nominal": 1e3 * ref_s},
    }
    report.update(workload.report())
    return values, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracing
    from workloads import REF_S, WORKLOADS, Reference, make_plan

    OUT.mkdir(exist_ok=True)
    plan = make_plan(args.workload, args.seed)
    print(json.dumps({"env": environment(args.seed)}), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](plan, Path(tmp))
        base = run_pass(workload, args.seconds, reference=Reference(workload.reference))
        attempted, failures = base["ops"], list(base["failures"])
        if not args.trace:
            values, report = end_to_end(workload, base, REF_S[workload.reference])
            report["ops"] = {"value": attempted, "unit": "count"}
            report["ops_failed"] = {"value": len(failures), "unit": "count"}
            if getattr(workload, "digests", None):
                report["checkpoint_arrays_digest"] = workload.digests
            print(json.dumps({"report": report}), flush=True)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            tracer = tracing.Tracer()
            traced = WORKLOADS[args.workload](plan, Path(tmp))
            tracer.install()
            try:
                trace = run_pass(traced, args.seconds, units=len(base["unit_s"]), tracer=tracer)
            finally:
                tracer.restore()
            attempted += trace["ops"]
            failures += trace["failures"]
            summary = tracing.summarize(tracer)
            untraced_s = statistics.median(base["setup_s"]) + sum(base["unit_s"])
            traced_s = sum(summary["phase_s"].values())
            summary["metrics"][tracing.OVERHEAD] = traced_s - untraced_s
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.npz"
            tracer.write(spans_path)
            print(json.dumps({"trace": {
                "untraced_s": untraced_s, "traced_s": traced_s,
                "phase_s": summary["phase_s"],
                "phase_self_plus_child_s": summary["phase_self_plus_child_s"],
                "layer_self_ms": summary["layer_self_ms"],
                "spans": summary["spans"], "spans_file": str(spans_path.relative_to(ROOT))}}),
                flush=True)
            specs = tracing.metric_specs()
            metrics = {k: {"value": summary["metrics"][k], "unit": specs[k][0]} for k in specs}
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
