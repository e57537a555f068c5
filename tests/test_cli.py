import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from soapfda import FitReport, SimulationConfig, cli, dataset_from_columns, fit_soap, gen_sparse_dataset, solver
from soapfda.cli import main
from soapfda.core import _write_json, dataset_to_rows, load_model, read_long_csv, write_long_csv
from soapfda.predict import default_grid, holdout_last_mspe_model, predict_trajectories
from soapfda.basis import eval_basis_matrix, make_bspline_basis


@pytest.fixture(scope="module")
def sparse_fixture(tmp_path_factory):
    """Rank-2 synthetic long-format CSV generated with a fixed seed."""
    path = tmp_path_factory.mktemp("data") / "train.csv"
    cfg = SimulationConfig(seed=202, n_train=50, ni_range=(3, 8), noise_sd=1.0)
    ds, _, _ = gen_sparse_dataset(cfg, 50, np.random.default_rng(202))
    write_long_csv(path, dataset_to_rows(ds))
    return str(path)


@pytest.fixture(scope="module")
def dense_fixture(tmp_path_factory):
    """Noise-free rank-2 curves on a common dense grid."""
    path = tmp_path_factory.mktemp("data") / "dense.csv"
    basis = make_bspline_basis((0.0, 1.0), 8, 4)
    G = basis.gram
    rng = np.random.default_rng(7)
    c1 = rng.normal(size=8)
    c1 /= np.sqrt(c1 @ G @ c1)
    c2 = rng.normal(size=8)
    c2 -= (c1 @ G @ c2) * c1
    c2 /= np.sqrt(c2 @ G @ c2)
    grid = np.linspace(0, 1, 401)
    B = eval_basis_matrix(basis, grid)
    scores = rng.normal(size=(40, 2)) * [5.0, 2.0]
    X = np.outer(scores[:, 0], B @ c1) + np.outer(scores[:, 1], B @ c2)
    rows = [
        (f"s{i:03d}", float(grid[j]), float(X[i, j]))
        for i in range(40)
        for j in range(401)
    ]
    write_long_csv(path, rows)
    return str(path)


def run_cli(*args):
    return main(list(args))


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestFit:
    def test_fit_writes_orthonormal_model(self, sparse_fixture, tmp_path):
        out = tmp_path / "fit"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "2", "--gamma", "0.001",
        )
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert report["orthonormality_error"] <= 1e-8
        model = load_model(out / "model.json")
        assert model.n_components == 2
        assert (out / "scores.csv").exists() and (out / "fitted.csv").exists()

    def test_m_grid_emits_aic_table(self, sparse_fixture, tmp_path):
        out = tmp_path / "aic"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m-grid", "1..6", "--gamma", "0.001",
            "--basis-size", "8",
        )
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["aic"]) == 6
        assert [row["m"] for row in report["aic"]] == [1, 2, 3, 4, 5, 6]
        assert report["chosen_m"] in range(1, 7)

    def test_gamma_grid_selection(self, sparse_fixture, tmp_path):
        out = tmp_path / "cv"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "1", "--gamma-grid", "0,0.01",
            "--basis-size", "8",
        )
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["cv"]) == 1
        assert report["gammas"][0] in (0.0, 0.01)

    def test_gamma_grid_on_one_subject_names_cause(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        write_long_csv(csv, [("a", 0.2, 1.0), ("a", 0.5, 2.0), ("a", 0.8, 1.5)])
        status = run_cli(
            "fit", "--input", str(csv), "--output-dir", str(tmp_path / "o"),
            "--domain", "0,1", "--gamma-grid", "0,1e2",
        )
        assert status == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert "needs at least 2 subjects, got 1" in error["message"]

    def test_failed_cv_gives_solver_error_json(self, tmp_path, capsys):
        # subject a is all zeros, so the fold that holds out b has nothing to fit
        csv = tmp_path / "zeros.csv"
        write_long_csv(csv, [
            ("a", 0.1, 0.0), ("a", 0.5, 0.0), ("a", 0.9, 0.0),
            ("b", 0.2, 1.0), ("b", 0.6, 2.0), ("b", 0.8, 1.5),
        ])
        out = tmp_path / "o"
        status = run_cli(
            "fit", "--input", str(csv), "--output-dir", str(out),
            "--domain", "0,1", "--basis-size", "5", "--m", "1", "--gamma-grid", "0,1e2",
        )
        assert status == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "solver"
        assert "every candidate gamma failed" in error["message"]
        assert not out.exists()

    def test_gamma_grid_with_m_grid(self, sparse_fixture, tmp_path):
        # gammas selected sequentially up to max M, then AIC across M
        out = tmp_path / "both"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m-grid", "1..2", "--gamma-grid", "0,0.01",
            "--basis-size", "8",
        )
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["cv"]) == 2
        assert len(report["aic"]) == 2
        assert report["chosen_m"] in (1, 2)
        model = load_model(out / "model.json")
        assert model.n_components == report["chosen_m"]

    def test_report_carries_fallback_count(self, sparse_fixture, tmp_path):
        out = tmp_path / "fb"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "2", "--gamma", "0.001", "--basis-size", "8",
        )
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        ds = dataset_from_columns(*read_long_csv(sparse_fixture), (0.0, 1.0))
        model = fit_soap(ds, make_bspline_basis((0.0, 1.0), 8, 4), 2, 0.001)
        assert report["n_fallbacks"] == model.report.n_fallbacks
        saved = json.loads((out / "model.json").read_text())["report"]
        assert report["n_truncated"] == saved["n_truncated"] == model.report.n_truncated
        assert report["stage_cycles"] == saved["stage_cycles"] == list(model.report.stage_cycles)
        assert report["final_objective"] == saved["final_objective"] == model.report.final_objective
        assert report["stage_offsets"] == list(model.report.stage_offsets)
        assert report["loss_trace"] == list(model.report.loss_trace)

    def test_every_report_field_is_saved_and_reported(self, sparse_fixture, tmp_path):
        # loops over the dataclass, so a new FitReport field is covered as it lands
        out = tmp_path / "fields"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "2", "--gamma", "0.001", "--basis-size", "8",
        )
        assert status == 0
        ds = dataset_from_columns(*read_long_csv(sparse_fixture), (0.0, 1.0))
        fitted = fit_soap(ds, make_bspline_basis((0.0, 1.0), 8, 4), 2, 0.001).report
        loaded = load_model(out / "model.json").report
        report = json.loads((out / "report.json").read_text())
        for f in dataclasses.fields(FitReport):
            value = getattr(fitted, f.name)
            assert getattr(loaded, f.name) == value, f.name
            assert report[f.name] == json.loads(json.dumps(value)), f.name

    def test_unconverged_fit_warns_on_stderr(self, sparse_fixture, tmp_path, capsys, monkeypatch):
        # one inner iteration cannot meet the convergence test, which compares two cycles
        monkeypatch.setattr(solver, "_MAX_INNER_ITERS", 1)
        out = tmp_path / "warn"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "1", "--basis-size", "8",
        )
        assert status == 0
        assert json.loads((out / "report.json").read_text())["converged"] is False
        captured = capsys.readouterr()
        assert captured.out == ""
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "did not converge" in warnings[0]
        assert "(capped: stage 1)" in warnings[0]
        # the objective of the saved model, not the end of the loss trace
        final = load_model(out / "model.json").report.final_objective
        assert f"final objective {final!r}" in warnings[0]

    def test_converged_fit_does_not_warn(self, sparse_fixture, tmp_path, capsys):
        out = tmp_path / "quiet"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "1", "--basis-size", "8",
        )
        assert status == 0
        assert json.loads((out / "report.json").read_text())["converged"] is True
        assert "warning:" not in capsys.readouterr().err

    def test_missing_input_gives_error_json(self, tmp_path, capsys):
        status = run_cli("fit", "--input", str(tmp_path / "nope.csv"), "--output-dir", str(tmp_path / "o"))
        assert status == 2
        err = json.loads(capsys.readouterr().out)
        assert "not found" in err["error"]["message"]

    @pytest.mark.parametrize(
        "text, line",
        [
            ('subject_id,"{big}",y\n', 1),
            ('subject_id,t,y\na,0.1,1\n\n"{big}",1_0,1\n', 4),
            # numpy's C reader reads these; the csv module's limit holds whether or not a 1_0 sends the file to the loop
            ('subject_id,t,y\n"{big}",0.1,1\n', 2),
            ('subject_id,t,y\n"{big}",0.1,1\nb,1_0,1\n', 2),
            ("subject_id,t,y\na,0.1,1\n{big},0.1,1\n", 3),
            ('subject_id,t,y\n"{commas}",0.1,1\n', 2),
            ("subject_id,t,y\na,0.1,1\nb,{spaces}0.1,1\n", 3),
        ],
        ids=["header", "loop-read-record", "quoted-id", "quoted-id-and-1_0", "bare-id", "id-of-commas", "padded-time"],
    )
    def test_oversize_field_gives_validation_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "big.csv"
        path.write_text(text.format(big="a" * 200_000, commas="a," * 100_000, spaces=" " * 200_000))
        status = run_cli("fit", "--input", str(path), "--output-dir", str(tmp_path / "o"))
        assert status == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "validation",
            "message": f"line {line}: field larger than field limit (131072)",
        }

    def test_model_not_utf8_names_file_and_line(self, sparse_fixture, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(b'{\n  "basis": "caf\xe9"\n}\n')
        status = run_cli(
            "predict", "--input", sparse_fixture, "--model", str(model), "--output-dir", str(tmp_path / "o")
        )
        assert status == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "validation",
            "message": f"{model}:2: not UTF-8 text: invalid continuation byte",
        }

    def test_input_not_utf8_gives_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"subject_id,t,y\na\xe9,0.1,1\n")
        status = run_cli("fit", "--input", str(path), "--output-dir", str(tmp_path / "o"))
        assert status == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "validation",
            "message": "line 2: not UTF-8 text: invalid continuation byte",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "grid, expected",
        [
            ("3", "--m-grid expects 'a..b', got '3'"),
            ("1..x", "--m-grid expects integers"),
            ("0..2", "--m-grid range '0..2' is empty or invalid"),
        ],
    )
    def test_bad_m_grid_gives_error_json(self, sparse_fixture, tmp_path, capsys, grid, expected):
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"), "--domain", "0,1",
            "--m-grid", grid,
        )
        assert status == 2
        assert expected in json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["predict", "--input", "DATA", "--model", "MISSING", "--output-dir", "OUT"], "model file not found"),
            (["simulate", "--config", "MISSING", "--output-dir", "OUT"], "config file not found"),
            (["oracle-check", "--input", "MISSING", "--output-dir", "OUT"], "input file not found"),
        ],
        ids=["predict-model", "simulate-config", "oracle-check-input"],
    )
    def test_missing_file_gives_error_json(self, sparse_fixture, tmp_path, capsys, argv, expected):
        missing, out = tmp_path / "nope", tmp_path / "o"
        argv = [{"DATA": sparse_fixture, "MISSING": str(missing), "OUT": str(out)}.get(a, a) for a in argv]
        assert run_cli(*argv) == 2
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == f"{expected}: {missing}"
        assert not out.exists()

    def test_quantile_knots_accepted(self, sparse_fixture, tmp_path):
        out = tmp_path / "q"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out),
            "--domain", "0,1", "--m", "1", "--knots", "quantile", "--basis-size", "8",
        )
        assert status == 0

    def test_malformed_domain_gives_error_json(self, sparse_fixture, dense_fixture, tmp_path, capsys):
        cases = [
            ("fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"), "--domain", "1"),
            ("fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"), "--domain", "a,b"),
            ("oracle-check", "--input", dense_fixture, "--domain", "1,2,3"),
        ]
        for argv in cases:
            assert run_cli(*argv) == 2, argv
            assert "--domain" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_grid_size_below_one_rejected_before_fitting(self, sparse_fixture, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(cli, "_fit_models", no_fit)
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"),
            "--domain", "0,1", "--grid-size", "0",
        )
        assert status == 2
        assert "grid size" in json.loads(capsys.readouterr().out)["error"]["message"]

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_gives_error_json(self, sparse_fixture, tmp_path, capsys, gamma):
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"),
            "--domain", "0,1", "--m", "1", "--gamma", gamma,
        )
        assert status == 2
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert f"gamma {gamma} must be finite" in message

    @pytest.mark.parametrize("domain", ["nan,1", "0,inf"])
    def test_non_finite_domain_gives_error_json(self, sparse_fixture, tmp_path, capsys, domain):
        status = run_cli("fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"), "--domain", domain)
        assert status == 2
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == f"--domain expects finite bounds, got {domain!r}"

    def test_basis_size_zero_rejected(self, sparse_fixture, dense_fixture, tmp_path, capsys):
        for argv in (
            ("fit", "--input", sparse_fixture, "--output-dir", str(tmp_path / "o"), "--domain", "0,1", "--m", "1"),
            ("oracle-check", "--input", dense_fixture, "--m", "1"),
        ):
            assert run_cli(*argv, "--basis-size", "0") == 2, argv
            assert "basis size 0" in json.loads(capsys.readouterr().out)["error"]["message"]


class TestPredict:
    def test_training_predictions_bit_identical_to_fit(self, sparse_fixture, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "2", "--gamma", "0.001")
        pred_out = tmp_path / "pred"
        status = run_cli(
            "predict", "--input", sparse_fixture, "--model", str(fit_out / "model.json"),
            "--output-dir", str(pred_out),
        )
        assert status == 0
        fitted = (fit_out / "fitted.csv").read_bytes()
        predicted = (pred_out / "predictions.csv").read_bytes()
        assert fitted == predicted
        assert (fit_out / "scores.csv").read_bytes() == (pred_out / "scores.csv").read_bytes()

    def test_shared_rows_match_separate_calls(self, sparse_fixture, tmp_path, rng):
        """predict evaluates the basis at the file's rows once for both the
        predictions and held-out-last; its files are byte-identical to those
        of predict_trajectories and holdout_last_mspe_model called apart, with
        single-observation subjects among the eligible ones."""
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "2", "--gamma", "0.001")
        rows = [
            (sid, float(t), float(rng.normal()))
            for sid, n in [("solo", 1), ("a,b", 4), ("pair", 2), ('say "hi"', 7), ("lone", 1), ("Zoë", 3)]
            for t in rng.uniform(size=n)
        ]
        test_csv = tmp_path / "test.csv"
        write_long_csv(test_csv, rows)
        out = tmp_path / "pred"
        assert run_cli(
            "predict", "--input", str(test_csv), "--model", str(fit_out / "model.json"),
            "--output-dir", str(out), "--holdout-last", "--grid-size", "37",
        ) == 0

        model = load_model(fit_out / "model.json")
        ds = dataset_from_columns(*read_long_csv(test_csv), model.basis.domain)
        grid = default_grid(model.basis.domain, 37)
        trajectories = predict_trajectories(ds.subjects, model, grid)
        apart = tmp_path / "apart"
        apart.mkdir()
        cli._write_trajectories_csv(apart / "predictions.csv", ds.ids, grid, [t.values for t in trajectories])
        cli._write_scores_csv(apart / "scores.csv", ds.ids, np.vstack([t.scores for t in trajectories]))
        _write_json(holdout_last_mspe_model(model, ds).to_dict(), apart / "mspe.json")
        for name in ("predictions.csv", "scores.csv", "mspe.json"):
            assert (out / name).read_bytes() == (apart / name).read_bytes(), name

    def test_holdout_last_counts_single_obs(self, sparse_fixture, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1", "--gamma", "0.001")
        test_csv = tmp_path / "test.csv"
        rows = [("solo", 0.5, 1.0)] + [
            ("pair", float(t), float(v)) for t, v in [(0.2, 1.0), (0.8, 2.0)]
        ]
        write_long_csv(test_csv, rows)
        out = tmp_path / "hold"
        status = run_cli(
            "predict", "--input", str(test_csv), "--model", str(fit_out / "model.json"),
            "--output-dir", str(out), "--holdout-last",
        )
        assert status == 0
        mspe = json.loads((out / "mspe.json").read_text())
        assert mspe["n_excluded"] == 1 and mspe["n_eligible"] == 1

    def test_out_of_domain_data_rejected(self, sparse_fixture, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1")
        bad_csv = tmp_path / "bad.csv"
        write_long_csv(bad_csv, [("a", 3.0, 1.0)])
        status = run_cli(
            "predict", "--input", str(bad_csv), "--model", str(fit_out / "model.json"),
            "--output-dir", str(tmp_path / "o"),
        )
        assert status == 2
        assert "domain" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_invalid_data_reported_as_validation(self, sparse_fixture, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1")
        capsys.readouterr()
        cases = [
            (("a", 0.5, math.nan), "row 1: non-finite value nan"),
            (("a", 1.5, 1.0), "row 1: time 1.5 outside domain [0.0, 1.0]"),
        ]
        for row, expected in cases:
            bad_csv = tmp_path / "bad.csv"
            write_long_csv(bad_csv, [("a", 0.25, 1.0), row])
            status = run_cli(
                "predict", "--input", str(bad_csv), "--model", str(fit_out / "model.json"),
                "--output-dir", str(tmp_path / "o"),
            )
            assert status == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error == {"type": "validation", "message": expected}
            assert not (tmp_path / "o").exists()

    def test_grid_size_below_one_rejected_before_writing(self, sparse_fixture, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1")
        capsys.readouterr()
        out = tmp_path / "o"
        status = run_cli(
            "predict", "--input", sparse_fixture, "--model", str(fit_out / "model.json"),
            "--output-dir", str(out), "--grid-size", "0",
        )
        assert status == 2
        assert "grid size must be >= 1" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not out.exists()

    def test_malformed_model_gives_error_json(self, sparse_fixture, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1", "--basis-size", "8")
        good = json.loads((fit_out / "model.json").read_text())
        knots = good["basis"]["interior_knots"]
        capsys.readouterr()
        cases = [
            ({k: v for k, v in good.items() if k != "coef"}, "lacks key 'coef'"),
            ([good], "JSON object"),
            ({**good, "coef": good["coef"][:-1]}, "'coef' has shape"),
            ({**good, "scores": [row * 2 for row in good["scores"]]}, "'scores' has shape"),
            ({**good, "basis": {**good["basis"], "domain": 5}}, "'basis.domain'"),
            ({**good, "l": None}, "'l' has an invalid value"),
            ({**good, "coef": [math.nan] + good["coef"][1:]}, "'coef' has a non-finite value"),
            ({**good, "coef": [2 * c for c in good["coef"]]}, "'coef' is not G-orthonormal"),
            ({**good, "noise_var": math.inf}, "'noise_var' has a non-finite value"),
            ({**good, "basis": {**good["basis"], "domain": [1.0, 0.0]}}, "'basis.domain' is (1.0, 0.0)"),
            ({**good, "basis": {**good["basis"], "interior_knots": knots[::-1]}}, "'basis.interior_knots'"),
            ({**good, "basis": {**good["basis"], "interior_knots": knots[:-1] + [1.5]}}, "'basis.interior_knots'"),
            ({**good, "basis": {**good["basis"], "interior_knots": knots[:-1]}}, "'basis.interior_knots' has shape"),
            ({**good, "basis": {**good["basis"], "order": 1}}, "'basis.order'"),
            ({**good, "l": 3}, "'l' is 3, below basis.order 4"),
            ({**good, "m": 0, "coef": [], "gammas": [], "scores": [[] for _ in good["scores"]]},
             "model key 'm' is 0, outside [1, l=8]"),
            ({**good, "m": 9, "coef": good["coef"] * 9, "gammas": good["gammas"] * 9,
              "scores": [row * 9 for row in good["scores"]]}, "model key 'm' is 9, outside [1, l=8]"),
            ({**good, "l": 10.7}, "'l' has an invalid value"),
            ({**good, "l": True}, "'l' has an invalid value"),
            ({**good, "m": True}, "'m' has an invalid value"),
            ({**good, "basis": {**good["basis"], "order": 4.9}}, "'basis.order' has an invalid value"),
            *[
                ({**good, "report": {**good["report"], key: value}}, f"'report.{key}' has an invalid value{detail}")
                for key, value, detail in [
                    ("stage_cycles", [29.7, 3], ": expected an integer, got 29.7"),
                    ("stage_cycles", [True], ""),
                    ("stage_cycles", "12", ""),
                    ("stage_capped", ["no", "no"], ": expected true or false, got 'no'"),
                    ("converged", "no", ""),
                    ("sweeps_capped", 0.5, ""),
                    ("n_sweeps", "2", ""),
                    ("final_objective", "1.5", ""),
                    ("loss_trace", [1.0, None], ""),
                ]
            ],
            ({**good, "noise_var": "1.5"}, "'noise_var' has an invalid value: expected a number, got '1.5'"),
            ({**good, "noise_var": True}, "'noise_var' has an invalid value"),
            ({**good, "gammas": ["0"] * len(good["gammas"])}, "'gammas' has an invalid value: expected a number"),
            ({**good, "coef": [False] + good["coef"][1:]}, "'coef' has an invalid value"),
            ({**good, "l": "8"}, "'l' has an invalid value"),
        ]
        for doc, expected in cases:
            bad = tmp_path / "bad_model.json"
            bad.write_text(json.dumps(doc))
            status = run_cli(
                "predict", "--input", sparse_fixture, "--model", str(bad),
                "--output-dir", str(tmp_path / "o"),
            )
            assert status == 2, expected
            assert expected in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_model_file_that_is_not_json_gives_validation_error(self, sparse_fixture, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text('{\n  "coef": [0.1, oops]\n}\n', encoding="utf-8")
        status = run_cli(
            "predict", "--input", sparse_fixture, "--model", str(bad), "--output-dir", str(tmp_path / "o"),
        )
        assert status == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "validation", "message": f"{bad}:2: not JSON: Expecting value"}
        assert not (tmp_path / "o").exists()

    def test_deeply_nested_model_file_gives_validation_error(self, sparse_fixture, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        status = run_cli(
            "predict", "--input", sparse_fixture, "--model", str(deep), "--output-dir", str(tmp_path / "o"),
        )
        assert status == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "validation", "message": f"{deep}: not JSON: nested too deeply to decode"}
        assert not (tmp_path / "o").exists()


class TestSimulate:
    def test_smoke_with_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 25\nn_test = 25\nseed = 5\nni_min = 3\nni_max = 8\n")
        out = tmp_path / "sim"
        status = run_cli(
            "simulate", "--config", str(cfg), "--output-dir", str(out),
            "--reps", "2", "--basis-size", "8",
        )
        assert status == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["impe"]) == {"mean", "sd", "median", "min", "max"}
        lines = (out / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 reps

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 10\nn_test = 10\nseed = 5\n")
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text("n_train = 10\nn_test = 10\nseed = 9\n")
        runs = {"flag": (cfg, "--seed", "9"), "file": (seeded,), "config": (cfg,)}
        for tag, (path, *flag) in runs.items():
            args = ["simulate", "--config", str(path), "--output-dir", str(tmp_path / tag)]
            assert run_cli(*args, "--reps", "1", "--basis-size", "6", *flag) == 0
        summary = {tag: (tmp_path / tag / "summary.json").read_bytes() for tag in runs}
        assert summary["flag"] == summary["file"] != summary["config"]

    def test_dump_data_round_trips(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 10\nn_test = 10\nseed = 6\nni_min = 2\nni_max = 5\n")
        out = tmp_path / "sim"
        run_cli("simulate", "--config", str(cfg), "--output-dir", str(out),
                "--reps", "1", "--basis-size", "6", "--dump-data")
        from soapfda.sim import draw_replication, parse_config_file
        ids, t, y = read_long_csv(out / "train_000.csv")
        rows = list(zip(ids, t.tolist(), y.tolist()))
        assert len({r[0] for r in rows}) == 10
        train, _, _ = draw_replication(parse_config_file(cfg), 0)
        assert rows == dataset_to_rows(train)


    @pytest.mark.parametrize(
        "text, expected",
        [
            ("normal_scale_is_sd = maybe\n", "sim.cfg:1: key 'normal_scale_is_sd'"),
            ("seed = 1\nseed = 2\n", "sim.cfg:2: key 'seed' repeats line 1"),
            ("n_train = abc\n", "sim.cfg:1: key 'n_train'"),
            ("n_train = 0\n", "n_train must be >= 1"),
            ("n_test = -3\n", "n_test must be >= 1"),
            ("noise_sd = nan\n", "noise_sd must be finite"),
        ],
    )
    def test_bad_config_gives_error_json(self, tmp_path, capsys, text, expected):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text)
        status = run_cli("simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--reps", "1")
        assert status == 2
        assert expected in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_config_not_utf8_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        # \r\n, \r and \n each end a line, as file iteration counts them
        cfg.write_bytes(b"seed = 1\r\nn_train = 10\r# caf\xe9\n")
        status = run_cli("simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o"), "--reps", "1")
        assert status == 2
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "validation",
            "message": f"{cfg}:3: not UTF-8 text: invalid continuation byte",
        }

    def test_all_failed_study_gives_error_json(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 10\nn_test = 10\n")
        status = run_cli(
            "simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "o"),
            "--reps", "2", "--gamma", "nan",
        )
        assert status == 2
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert "all 2 replications failed" in message and "must be finite" in message


class TestOracleCheck:
    def test_dense_fixture_close_to_oracle(self, dense_fixture, tmp_path):
        out = tmp_path / "oc"
        status = run_cli(
            "oracle-check", "--input", dense_fixture, "--output-dir", str(out),
            "--m", "2", "--basis-size", "8",
        )
        assert status == 0
        payload = json.loads((out / "oracle_check.json").read_text())
        assert all(v < 1e-4 for v in payload["imse_per_component"])
        assert payload["eigenvalues"] == sorted(payload["eigenvalues"], reverse=True)

    def test_stdout_when_no_output_dir(self, dense_fixture, capsys):
        status = run_cli("oracle-check", "--input", dense_fixture, "--m", "1", "--basis-size", "8")
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert "imse_per_component" in payload

    @pytest.mark.parametrize("span", [(-1.0, 2.5), (0.25, 2.5)])
    def test_default_domain_is_the_grid_span(self, span, tmp_path, capsys):
        # a grid that does not start at 0: without --domain the fit is on the
        # grid's span, exactly as with that span given
        grid = np.linspace(*span, 201)
        rng = np.random.default_rng(3)
        X = np.outer(rng.normal(size=30), np.cos(grid)) + np.outer(rng.normal(size=30), np.sin(2 * grid))
        path = tmp_path / "dense.csv"
        write_long_csv(path, [(f"s{i:02d}", float(t), float(v)) for i in range(30) for t, v in zip(grid, X[i])])
        outputs = []
        for extra in ((), (f"--domain={span[0]!r},{span[1]!r}",)):
            assert run_cli("oracle-check", "--input", str(path), "--m", "2", "--basis-size", "8", *extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert all(v < 1e-3 for v in json.loads(outputs[0])["imse_per_component"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,0.0,1\na,0.5,2\na,1.0,3\nb,0.0,1\nb,nan,2\nb,1.0,3\n", "row 4: non-finite time nan"),
            ("", "empty input: no observation rows"),
        ],
    )
    def test_invalid_rows_give_validation_error(self, text, message, tmp_path, capsys):
        path = tmp_path / "dense.csv"
        path.write_text("subject_id,t,y\n" + text)
        assert run_cli("oracle-check", "--input", str(path), "--m", "1") == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"type": "validation", "message": message}


class TestDeterminism:
    def test_fit_byte_identical_across_runs(self, sparse_fixture, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_cli("fit", "--input", sparse_fixture, "--output-dir", str(out),
                    "--domain", "0,1", "--m", "2", "--gamma", "0.001")
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_fit_on_byte_order_marked_copy_is_byte_identical(self, sparse_fixture, tmp_path):
        marked = tmp_path / "excel.csv"
        with open(sparse_fixture, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        outs = []
        for tag, path in (("a", sparse_fixture), ("b", str(marked))):
            out = tmp_path / tag
            assert run_cli("fit", "--input", path, "--output-dir", str(out), "--domain", "0,1", "--m", "2") == 0
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_simulate_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 15\nn_test = 15\nseed = 8\nni_min = 3\nni_max = 6\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_cli("simulate", "--config", str(cfg), "--output-dir", str(out),
                    "--reps", "2", "--basis-size", "6")
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_predict_byte_identical_across_runs(self, sparse_fixture, tmp_path):
        fit_out = tmp_path / "fit"
        run_cli("fit", "--input", sparse_fixture, "--output-dir", str(fit_out),
                "--domain", "0,1", "--m", "1")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_cli("predict", "--input", sparse_fixture, "--model", str(fit_out / "model.json"),
                    "--output-dir", str(out), "--holdout-last")
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])


class TestOutputDirectory:
    """A command creates its output directory only once it can no longer fail."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--m-grid", "3..1"],
            ["fit", "--gamma-grid", "abc"],
            ["fit", "--gamma-grid", "0,1e2", "--input", "ONE"],
            ["simulate", "--m", "5", "--basis-size", "4", "--reps", "1"],
        ],
        ids=["m-grid", "gamma-grid", "one-subject-cv", "simulate-m-above-basis"],
    )
    def test_failing_command_leaves_no_directory(self, sparse_fixture, tmp_path, capsys, argv):
        one = tmp_path / "one.csv"
        write_long_csv(one, [("a", 0.2, 1.0), ("a", 0.5, 2.0), ("a", 0.8, 1.5)])
        argv = [str(one) if a == "ONE" else a for a in argv]
        if argv[0] == "fit" and "--input" not in argv:
            argv += ["--input", sparse_fixture]
        if argv[0] == "fit":
            argv += ["--domain", "0,1"]
        out = tmp_path / "out"
        assert run_cli(*argv, "--output-dir", str(out)) == 2
        assert "error" in json.loads(capsys.readouterr().out)
        assert not out.exists()

    def test_successful_fit_writes_its_four_files(self, sparse_fixture, tmp_path):
        out = tmp_path / "nested" / "out"
        status = run_cli(
            "fit", "--input", sparse_fixture, "--output-dir", str(out), "--domain", "0,1", "--m", "1",
        )
        assert status == 0
        assert sorted(os.listdir(out)) == ["fitted.csv", "model.json", "report.json", "scores.csv"]

    def test_output_dir_that_is_a_file_gives_os_error_json(self, sparse_fixture, tmp_path, capsys):
        """An OSError is reported under its own class name."""
        taken = tmp_path / "taken"
        taken.write_text("x")
        status = run_cli("fit", "--input", sparse_fixture, "--output-dir", str(taken), "--m", "1")
        assert status == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "FileExistsError", "message": f"[Errno 17] File exists: {str(taken)!r}"}
        }
        assert taken.read_text() == "x"


class TestFlagErrors:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["fit", "--output-dir", "o"], "soapfda fit: the following arguments are required: --input"),
            (["fit", "--input", "x", "--output-dir", "o", "--gamma", "abc"], "argument --gamma: invalid float value: 'abc'"),
            (["fit", "--input", "x", "--output-dir", "o", "--m", "2.5"], "argument --m: invalid int value: '2.5'"),
            (["bogus"], "soapfda: argument command: invalid choice: 'bogus'"),
        ],
        ids=["missing-input", "gamma-abc", "m-2.5", "unknown-subcommand"],
    )
    def test_flag_error_gives_error_json(self, capsys, argv, expected):
        status = run_cli(*argv)
        captured = capsys.readouterr()
        assert status == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "cli"
        assert expected in error["message"]
        assert captured.err.startswith("usage: soapfda")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: soapfda fit")


def run_module(*args, stdin=None):
    """``python -m soapfda.cli`` with ``args`` in a child process, fed
    ``stdin`` (bytes) through a pipe; the child imports the same soapfda as
    this process, installed or not."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "soapfda.cli", *args], input=stdin, capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def chunk_aligned_csv(n_after):
    """A long-format CSV whose header and 23-byte records, padded with blank
    lines, fill exactly the first 8 KB (a text reader's first chunk), then
    ``n_after`` more records; returns (bytes, record count)."""
    n_head = (8192 - len("subject_id,t,y\n")) // 23
    tv = np.random.default_rng(5).uniform(size=(n_head + n_after, 2))
    records = [f"s{k % 400:03d},{t:.6f},{v:.6f}\n" for k, (t, v) in enumerate(tv)]
    head = "subject_id,t,y\n" + "".join(records[:n_head])
    return (head + "\n" * (8192 - len(head)) + "".join(records[n_head:])).encode(), len(records)


class TestEntryPoint:
    def test_module_invocation(self, sparse_fixture, tmp_path):
        out = tmp_path / "cli"
        status, stdout, stderr = run_module(
            "fit", "--input", sparse_fixture, "--output-dir", str(out), "--domain", "0,1", "--m", "1"
        )
        assert status == 0, stderr
        assert (out / "model.json").exists()
        assert stdout == ""  # data goes to files, diagnostics to stderr
        assert "wrote" in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
    def test_piped_input_reads_every_record(self, tmp_path):
        data, count = chunk_aligned_csv(5_000)
        assert data[8191:8193] == b"\ns"  # the first chunk ends on a record
        out = tmp_path / "piped"
        status, _, stderr = run_module(
            "fit", "--input", "/dev/stdin", "--output-dir", str(out),
            "--domain", "0,1", "--m", "1", "--basis-size", "6", stdin=data,
        )
        assert status == 0, stderr
        assert json.loads((out / "report.json").read_text())["n_obs_total"] == count

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin on this platform")
    def test_piped_input_names_a_bad_line(self, tmp_path):
        data, count = chunk_aligned_csv(3)
        lines = data.count(b"\n")
        status, stdout, _ = run_module(
            "fit", "--input", "/dev/stdin", "--output-dir", str(tmp_path / "o"), "--domain", "0,1",
            stdin=data + b"s001,0.5,oops\n",
        )
        assert status == 2
        assert json.loads(stdout)["error"] == {
            "type": "validation",
            "message": f"line {lines + 1}: could not convert string to float: 'oops'",
        }
