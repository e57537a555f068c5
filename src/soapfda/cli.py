"""Command-line interface: fit, predict, simulate, oracle-check.

Diagnostics go to stderr; data goes to files in --output-dir (or stdout).
Every subcommand is deterministic given its inputs and flags. On
failure, a flag error included, a machine-readable error JSON is printed
to stdout and the exit status is 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import selection
from .basis import default_basis_size, make_bspline_basis, quantile_interior_knots
from .core import (
    DataValidationError,
    _write_json,
    dataset_from_columns,
    dataset_to_rows,
    load_model,
    read_long_csv,
    save_model,
    write_csv,
    write_long_csv,
)
from .oracle import compare_to_soap, dense_curves, grid_eigenfunctions
from .predict import _holdout_last, _trajectories, default_grid
from .sim import SimulationConfig, draw_replication, parse_config_file, run_replication_study
from .solver import SingularStepError, _fit_models, _rows, fit_soap


class CliError(Exception):
    """User-facing failure, reported as error type ``cli``."""


class _ArgumentParser(argparse.ArgumentParser):
    """Turns a flag error into a CliError (usage on stderr); subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(f"{self.prog}: {message}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--domain expects 'a,b', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliError(f"--domain expects numbers: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"--domain expects finite bounds, got {text!r}")
    return lo, hi


def _parse_m_grid(text: str) -> list[int]:
    if ".." not in text:
        raise CliError(f"--m-grid expects 'a..b', got {text!r}")
    a, b = text.split("..", 1)
    try:
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise CliError(f"--m-grid expects integers: {exc}") from exc
    if lo < 1 or hi < lo:
        raise CliError(f"--m-grid range {text!r} is empty or invalid")
    return list(range(lo, hi + 1))


def _parse_gamma_grid(text: str) -> list[float]:
    try:
        return [float(g) for g in text.split(",") if g.strip() != ""]
    except ValueError as exc:
        raise CliError(f"--gamma-grid expects comma-separated numbers: {exc}") from exc


def _load_dataset(path, domain):
    if not os.path.exists(path):
        raise CliError(f"input file not found: {path}")
    return dataset_from_columns(*read_long_csv(path), domain)


def _build_basis(dataset, args):
    """The basis of ``fit`` and ``oracle-check`` (which has no --knots) on
    the dataset's domain."""
    size = args.basis_size
    if size is None:  # not `or`: a size of 0 is an error, not the default
        size = default_basis_size(dataset.n_obs_total, args.order)
    interior = None
    if getattr(args, "knots", "equal") == "quantile":
        interior = quantile_interior_knots(dataset.all_times(), size - args.order, dataset.domain)
    return make_bspline_basis(dataset.domain, size, args.order, interior_knots=interior)


def _write_scores_csv(path, ids, scores) -> None:
    header = ["subject_id"] + [f"score_{m + 1}" for m in range(scores.shape[1])]
    write_csv(path, header, [ids, *scores.T])


def _write_trajectories_csv(path, ids, grid, values) -> None:
    # the grid's fields are formatted once, not once per subject
    grid_text = list(map(repr, grid.tolist()))
    write_csv(
        path,
        ["subject_id", "t", "x_hat"],
        [[sid for sid in ids for _ in grid_text], grid_text * len(ids), np.concatenate(values)],
    )


def cmd_fit(args) -> int:
    dataset = _load_dataset(args.input, args.domain)
    grid = default_grid(dataset.domain, args.grid_size)
    basis = _build_basis(dataset, args)

    m_grid = _parse_m_grid(args.m_grid) if args.m_grid else None
    candidate_m = m_grid or [args.m]
    max_m = max(candidate_m)
    report: dict = {
        "n_subjects": dataset.n_subjects,
        "n_obs_total": dataset.n_obs_total,
        "basis_size": basis.size,
        "order": basis.order,
    }

    if args.gamma_grid:
        candidates = _parse_gamma_grid(args.gamma_grid)
        _log(f"selecting gamma and fitting 1..{max_m} component(s) over {candidates} by LOCO-CV")
        gammas, cv_tables, models = selection.select_gammas_sequential(dataset, basis, max_m, candidates)
        report["cv"] = [{"component": m + 1, **dataclasses.asdict(tab)} for m, tab in enumerate(cv_tables)]
        fits = [models[m - 1] for m in candidate_m]
    else:
        gammas = [args.gamma] * max_m
        _log(f"fitting component counts {candidate_m}, gamma {args.gamma!r}")
        fits = _fit_models(dataset, basis, candidate_m, args.gamma)
    report["gammas"] = list(map(float, gammas))

    model = fits[-1]
    if m_grid:
        aic_result = selection.aic(dataset, fits)
        report["aic"] = [
            {"m": m, "aic": a, "sigma2": s2}
            for m, a, s2 in zip(aic_result.candidate_m, aic_result.aic, aic_result.sigma2)
        ]
        report["chosen_m"] = aic_result.chosen
        model = fits[m_grid.index(aic_result.chosen)]

    fit_report = model.report
    report.update(dataclasses.asdict(fit_report))
    report["noise_var"] = model.noise_var
    report["orthonormality_error"] = model.orthonormality_error()

    if not fit_report.converged:
        capped = [f"stage {k + 1}" for k, hit in enumerate(fit_report.stage_capped) if hit]
        if fit_report.sweeps_capped:
            capped.append("the sweeps")
        _log(
            f"warning: fit did not converge within the iteration caps (capped: {', '.join(capped)}); "
            f"final objective {fit_report.final_objective!r}"
        )

    # the fitted scores are the projections bitwise, so no subject is projected again
    phi = model.component_values(grid)
    fitted = [phi @ a for a in model.scores]
    os.makedirs(args.output_dir, exist_ok=True)
    save_model(model, os.path.join(args.output_dir, "model.json"))
    _write_scores_csv(os.path.join(args.output_dir, "scores.csv"), dataset.ids, model.scores)
    _write_trajectories_csv(os.path.join(args.output_dir, "fitted.csv"), dataset.ids, grid, fitted)
    _write_json(report, os.path.join(args.output_dir, "report.json"))
    _log(f"wrote model.json, scores.csv, fitted.csv, report.json to {args.output_dir}")
    return 0


def cmd_predict(args) -> int:
    if not os.path.exists(args.model):
        raise CliError(f"model file not found: {args.model}")
    model = load_model(args.model)
    dataset = _load_dataset(args.input, model.basis.domain)
    grid = default_grid(model.basis.domain, args.grid_size)

    # predict_trajectories and holdout_last_mspe_model, bitwise, from one
    # evaluation of the basis at the file's rows
    rows = _rows(dataset.subjects, model.basis)
    trajectories = _trajectories(dataset.subjects, model, grid, rows[1:])
    values = [traj.values for traj in trajectories]
    scores = np.vstack([traj.scores for traj in trajectories])
    mspe = _holdout_last(model, dataset.subjects, rows) if args.holdout_last else None
    os.makedirs(args.output_dir, exist_ok=True)
    _write_trajectories_csv(os.path.join(args.output_dir, "predictions.csv"), dataset.ids, grid, values)
    _write_scores_csv(os.path.join(args.output_dir, "scores.csv"), dataset.ids, scores)
    written = "predictions.csv, scores.csv"

    if mspe is not None:
        _write_json(mspe.to_dict(), os.path.join(args.output_dir, "mspe.json"))
        written += ", mspe.json"
    _log(f"wrote {written} to {args.output_dir}")
    return 0


def cmd_simulate(args) -> int:
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        config = parse_config_file(args.config)
    else:
        config = SimulationConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    _log(f"running {args.reps} replication(s), {args.m} component(s), seed {config.seed}")
    try:
        summary = run_replication_study(
            config,
            n_reps=args.reps,
            n_components=args.m,
            gammas=args.gamma,
            basis_size=args.basis_size,
            order=args.order,
            grid_size=args.grid_size,
        )
    except RuntimeError as exc:  # every replication failed
        raise CliError(str(exc)) from exc
    os.makedirs(args.output_dir, exist_ok=True)
    _write_json(summary.to_dict(), os.path.join(args.output_dir, "summary.json"))

    fields = ["rep", "impe"] + [f"imse_{m + 1}" for m in range(len(summary.imse_components))]
    columns = [np.array([r["rep"] for r in summary.per_rep], dtype=int)]
    columns += [np.array([r[f] for r in summary.per_rep], dtype=float) for f in fields[1:]]
    write_csv(os.path.join(args.output_dir, "replications.csv"), fields, columns)

    if args.dump_data:
        for rep in range(args.reps):
            train, test, _ = draw_replication(config, rep)
            write_long_csv(os.path.join(args.output_dir, f"train_{rep:03d}.csv"), dataset_to_rows(train))
            write_long_csv(os.path.join(args.output_dir, f"test_{rep:03d}.csv"), dataset_to_rows(test))
    _log(f"wrote summary.json, replications.csv to {args.output_dir}")
    return 0


def cmd_oracle_check(args) -> int:
    if not os.path.exists(args.input):
        raise CliError(f"input file not found: {args.input}")
    ids, t, y = read_long_csv(args.input)
    # the default domain is the grid's span; dataset_from_columns reports empty
    # input. argmin and argmax pick the first extreme in file order, as min()
    # and max() on a list do, so a span bound is -0.0 only if the file says so first.
    span = (t[t.argmin()], t[t.argmax()]) if t.size else None
    dataset = dataset_from_columns(ids, t, y, args.domain or span)
    curve_set = dense_curves(dataset)
    model = fit_soap(dataset, _build_basis(dataset, args), args.m, 0.0)

    oracle_funcs, eigenvalues = grid_eigenfunctions(curve_set, args.m)
    imse_per_component = compare_to_soap(model, oracle_funcs, curve_set.grid)

    payload = {
        "imse_per_component": [float(v) for v in imse_per_component],
        "eigenvalues": [float(v) for v in eigenvalues],
    }
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        _write_json(payload, os.path.join(args.output_dir, "oracle_check.json"))
        _log(f"wrote oracle_check.json to {args.output_dir}")
    else:
        _write_json(payload)
    return 0


def _add_common(parser, with_domain=True):
    parser.add_argument("--basis-size", type=int, default=None, help="number of basis functions")
    parser.add_argument("--order", type=int, default=4, help="spline order (4 = cubic)")
    if with_domain:
        parser.add_argument("--domain", type=_parse_domain, default=None, metavar="a,b")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="soapfda",
        description="Estimate orthonormal empirical components from sparse longitudinal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit components to a long-format CSV")
    fit.add_argument("--input", required=True)
    fit.add_argument("--output-dir", required=True)
    _add_common(fit)
    fit.add_argument("--knots", choices=["equal", "quantile"], default="equal")
    group_m = fit.add_mutually_exclusive_group()
    group_m.add_argument("--m", type=int, default=2, help="number of components")
    group_m.add_argument("--m-grid", default=None, metavar="a..b", help="AIC over this range of M")
    group_g = fit.add_mutually_exclusive_group()
    group_g.add_argument("--gamma", type=float, default=0.0, help="roughness penalty weight")
    group_g.add_argument("--gamma-grid", default=None, metavar="g1,g2,...", help="LOCO-CV over these gammas")
    fit.add_argument("--grid-size", type=int, default=101)
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", help="reconstruct trajectories for new subjects")
    predict.add_argument("--input", required=True)
    predict.add_argument("--model", required=True, help="model JSON from 'fit'")
    predict.add_argument("--output-dir", required=True)
    predict.add_argument("--grid-size", type=int, default=101)
    predict.add_argument("--holdout-last", action="store_true", help="also run the held-out-last protocol")
    predict.set_defaults(func=cmd_predict)

    simulate = sub.add_parser("simulate", help="replicated synthetic-data study")
    simulate.add_argument("--config", default=None, help="key=value config file")
    simulate.add_argument("--output-dir", required=True)
    simulate.add_argument("--reps", type=int, default=5)
    simulate.add_argument("--m", type=int, default=2)
    simulate.add_argument("--gamma", type=float, default=1e-3)
    _add_common(simulate, with_domain=False)
    simulate.add_argument("--grid-size", type=int, default=101)
    simulate.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    simulate.add_argument("--dump-data", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    oracle = sub.add_parser("oracle-check", help="compare a fit against the dense-grid eigenfunctions")
    oracle.add_argument("--input", required=True, help="dense CSV: all subjects on one grid")
    oracle.add_argument("--output-dir", default=None)
    oracle.add_argument("--m", type=int, default=2)
    _add_common(oracle)
    oracle.set_defaults(func=cmd_oracle_check)
    return parser


# main's error type by exception class, first match first; other ValueErrors and OSErrors go by class name
_ERROR_TYPES = {CliError: "cli", DataValidationError: "validation", SingularStepError: "solver"}


def main(argv=None) -> int:
    try:
        # inside the try: flag errors and type functions such as _parse_domain raise CliError
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (*_ERROR_TYPES, ValueError, OSError) as exc:
        kind = next((kind for cls, kind in _ERROR_TYPES.items() if isinstance(exc, cls)), type(exc).__name__)
        _write_json({"error": {"type": kind, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
