import dataclasses
import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from soapfda import FitReport, SimulationConfig, cli, fit_soap, gen_sparse_dataset, solver, validate_dataset
from soapfda.cli import main
from soapfda.core import dataset_to_rows, load_model, read_long_csv, write_long_csv
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
        ds = validate_dataset(read_long_csv(sparse_fixture), (0.0, 1.0))
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
        ds = validate_dataset(read_long_csv(sparse_fixture), (0.0, 1.0))
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
            raise AssertionError("fit_soap ran")

        monkeypatch.setattr(cli, "fit_soap", no_fit)
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

    def test_dump_data_round_trips(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_train = 10\nn_test = 10\nseed = 6\nni_min = 2\nni_max = 5\n")
        out = tmp_path / "sim"
        run_cli("simulate", "--config", str(cfg), "--output-dir", str(out),
                "--reps", "1", "--basis-size", "6", "--dump-data")
        from soapfda.sim import draw_replication, parse_config_file
        rows = read_long_csv(out / "train_000.csv")
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


class TestEntryPoint:
    def test_module_invocation(self, sparse_fixture, tmp_path):
        out = tmp_path / "cli"
        # the child imports the same soapfda as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "soapfda.cli", "fit", "--input", sparse_fixture,
             "--output-dir", str(out), "--domain", "0,1", "--m", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "model.json").exists()
        assert proc.stdout == ""  # data goes to files, diagnostics to stderr
        assert "wrote" in proc.stderr
