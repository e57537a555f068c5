#!/usr/bin/env python3
"""soapfda benchmark: one workload, one process, a closed loop of calls.

    python3 perfbench/run.py --workload sparse-fit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
the same checkout. The inputs are made from the seed first, untimed. Set-up
(the calls that hand them to the program) runs SETUP_REPEATS times and
reports its median; then whole rounds of the workload run until
``--seconds`` of round time have passed. Every round's outputs are checked.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, the end-to-end ones with ``--trace 0`` and the per-layer ones
with ``--trace 1``. A human summary and the environment record go to
stderr. The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# run id of the spans recorded during set-up
SETUP_RUN = -1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_thread_counts() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read from the libraries."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(fn())
                break
    return counts


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(cfg):
        b = cfg["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_thread_counts(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def per_layer(tracer, runs, n_rounds, quality, slowdown) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced rounds, per round."""

    def spans(name, with_setup=False):
        among = runs | {SETUP_RUN} if with_setup else runs
        return [tracer.spans[i] for i in tracer.select(among, name)]

    def total(name):
        return sum(s.end - s.start for s in spans(name))

    def mean_dur(name):
        """Mean duration per call, set-up calls included."""
        d = [s.end - s.start for s in spans(name, with_setup=True)]
        return sum(d) / len(d) if d else 0.0

    def io_time():
        names = ("core.read_long_csv", "core.write_long_csv", "core.save_model", "core.load_model")
        return sum(total(n) for n in names)

    fits = tracer.select(runs, "solver.fit_soap")
    facts = [tracer.facts[i] for i in fits]
    fit_time = sum(tracer.spans[i].end - tracer.spans[i].start for i in fits)
    evals = sum(f["evals"] for f in facts)
    cv = tracer.select(runs, "selection.loco_cv_gamma")
    folds = sum(tracer.facts[i]["folds"] for i in cv)
    cv_time = sum(tracer.spans[i].end - tracer.spans[i].start for i in cv)
    selfs = tracer.self_times(runs)
    nf = max(len(facts), 1)
    m = {
        "solver.fit_soap_s": (fit_time / nf, "s"),
        "solver.objective_evals": (evals / nf, "count"),
        "solver.sweeps": (sum(f["sweeps"] for f in facts) / nf, "count"),
        "solver.fallbacks": (sum(f["fallbacks"] for f in facts) / nf, "count"),
        "solver.unconverged": (sum(not f["converged"] for f in facts) / n_rounds, "count"),
        "solver.ms_per_objective_eval": (1e3 * fit_time / evals if evals else 0.0, "ms"),
        "solver.psi_step_penalized_us": (1e6 * median(quality.probes.get("psi_step_penalized")), "us"),
        "solver.score_step_ms": (1e3 * median(quality.probes.get("score_step")), "ms"),
        "solver.objective_ms": (1e3 * median(quality.probes.get("objective")), "ms"),
        "selection.folds": (folds / n_rounds, "count"),
        "selection.fold_ms": (1e3 * cv_time / folds if folds else 0.0, "ms"),
        "selection.aic_ms": (1e3 * mean_dur("selection.aic"), "ms"),
        "predict.predict_trajectory_us": (1e6 * mean_dur("predict.predict_trajectory"), "us"),
        "predict.project_scores_us": (1e6 * mean_dur("predict.project_scores"), "us"),
        "predict.holdout_ms": (1e3 * mean_dur("predict.holdout_last_mspe_model"), "ms"),
        "basis.eval_basis_matrix_calls": (len(spans("basis.eval_basis_matrix")) / n_rounds, "count"),
        "basis.eval_basis_matrix_ms": (1e3 * total("basis.eval_basis_matrix") / n_rounds, "ms"),
        "basis.make_bspline_basis_ms": (1e3 * mean_dur("basis.make_bspline_basis"), "ms"),
        "core.validate_dataset_ms": (1e3 * mean_dur("core.validate_dataset"), "ms"),
        "core.io_ms": (1e3 * io_time() / n_rounds, "ms"),
        "oracle.dense_curves_from_rows_ms": (1e3 * mean_dur("oracle.dense_curves_from_rows"), "ms"),
        "oracle.uncentered_cov_ms": (1e3 * mean_dur("oracle.uncentered_cov"), "ms"),
        "oracle.grid_eigenfunctions_ms": (1e3 * mean_dur("oracle.grid_eigenfunctions"), "ms"),
        "oracle.compare_to_soap_ms": (1e3 * mean_dur("oracle.compare_to_soap"), "ms"),
    }
    for layer, seconds in selfs.items():
        m[f"{layer}.self_s"] = (seconds / n_rounds, "s")
    m.update(quality_metrics(quality))
    m["trace.slowdown"] = (slowdown, "ratio")
    return m


def quality_metrics(q) -> dict[str, tuple[float, str]]:
    return {
        "quality.fit_objective": (median(q.fit_objective), "y2"),
        "quality.impe": (median(q.impe), "y2"),
        "quality.component_imse": (median(q.component_imse), "1"),
        "quality.cv_error": (median(q.cv_error), "y2"),
        "quality.imse_misses": (median(q.imse_misses), "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread unless the environment says otherwise; numpy is not imported yet
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "soapfda" / "__init__.py").is_file():
        print(f"no soapfda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import resource

    import soapfda

    if Path(soapfda.__file__).resolve().parent != ROOT / "src" / "soapfda":
        print(f"imported soapfda from {soapfda.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer("soapfda") if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    quality = workloads.Quality()
    correct, failures = True, []
    try:
        clock = workloads.Clock()
        if tracer:
            tracer.run = SETUP_RUN
        setup_s = []
        for _ in range(SETUP_REPEATS):
            if tracer:
                tracer.install()
            state, _, scaled = clock.timed(wl.setup)
            if tracer:
                tracer.uninstall()
            setup_s.append(scaled)

        rounds, raw_rounds, raw_s, solve, pred, attempted, failed = [], [], 0.0, [], [], 0, 0
        traced_rounds = set()
        # a traced run alternates untraced and traced rounds, at least one of each
        while raw_s < args.seconds or (tracer and len(rounds) < 2):
            traced = bool(tracer) and len(rounds) % 2 == 1
            if traced:
                tracer.run = len(rounds)
                traced_rounds.add(len(rounds))
                tracer.install()
            out = wl.round(state, clock)
            if traced:
                tracer.uninstall()
            raw_s += out.raw_s
            rounds.append((out.scaled_s, traced))
            raw_rounds.append(out.raw_s)
            if not traced:
                solve.append(sum(out.solve_s) / len(out.solve_s))
                pred.append(sum(out.predict_s) / len(out.predict_s))
            try:
                wl.check(state, out, quality)
            except checks.CheckFailed as exc:
                correct = False
                failures.append(f"round {len(rounds)}: {exc}")
            # counted after the check, which can find failed operations
            attempted += out.attempted
            failed += out.failed
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [dt for dt, traced in rounds if not traced]
    if tracer:
        traced_times = [dt for dt, traced in rounds if traced]
        slowdown = median(traced_times) / median(plain)
        metrics = per_layer(tracer, traced_rounds, len(traced_rounds), quality, slowdown)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "traced_rounds": sorted(traced_rounds), "spans": tracer.dump()}, fh)
        print(f"spans written to {trace_path.relative_to(ROOT)}; tracing slowdown x{slowdown:.3f}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "solve_s": (median(solve), "s"),
            "predict_s": (median(pred), "s"),
            "round_s": (median(plain), "s"),
            "peak_rss_mb": (peak_mb, "MiB"),
        }
        for name in ("fit_objective", "impe", "component_imse", "cv_error", "imse_misses"):
            values = getattr(quality, name)
            if values:
                print(f"  quality.{name}: median {median(values):.6g}, min {min(values):.6g}, "
                      f"max {max(values):.6g} over {len(values)}", file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} attempted, {failed} failed, "
        f"checks {'passed' if correct else 'FAILED'}; unscaled round time median {median(raw_rounds):.4g} s",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
