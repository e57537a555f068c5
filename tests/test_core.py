import math

import numpy as np
import pytest

from soapfda import (
    DataValidationError,
    FecModel,
    FitReport,
    Subject,
    make_bspline_basis,
    validate_dataset,
)
from soapfda.core import (
    dataset_to_rows,
    model_from_dict,
    model_to_dict,
    read_long_csv,
    write_long_csv,
)


def reference_validate(rows, domain=None):
    """Naive per-row validation and grouping: a dict of lists per subject,
    sorted ids, and one stable argsort per subject. Returns (domain,
    [(id, t, y), ...]); raises DataValidationError like validate_dataset."""
    rows = list(rows)
    if not rows:
        raise DataValidationError("empty input: no observation rows")
    for idx, (_, t, y) in enumerate(rows):
        if not np.isfinite(t):
            raise DataValidationError(f"row {idx}: non-finite time {t!r}")
        if not np.isfinite(y):
            raise DataValidationError(f"row {idx}: non-finite value {y!r}")
    if domain is None:
        domain = (0.0, max(float(r[1]) for r in rows))
    lo, hi = float(domain[0]), float(domain[1])
    if lo >= hi:
        raise DataValidationError(f"invalid domain ({lo}, {hi})")
    for idx, (_, t, _) in enumerate(rows):
        if not (lo <= t <= hi):
            raise DataValidationError(f"row {idx}: time {t} outside domain [{lo}, {hi}]")
    grouped = {}
    for sid, t, y in rows:
        grouped.setdefault(str(sid), []).append((float(t), float(y)))
    subjects = []
    for sid in sorted(grouped):
        t = np.array([p[0] for p in grouped[sid]])
        y = np.array([p[1] for p in grouped[sid]])
        order = np.argsort(t, kind="stable")
        subjects.append((sid, t[order], y[order]))
    return (lo, hi), subjects


def outcome(fn, rows, domain):
    """(domain, subjects) as plain tuples, or the error message."""
    try:
        result = fn(rows, domain)
    except DataValidationError as exc:
        return str(exc)
    if isinstance(result, tuple):
        return result
    return result.domain, [(s.id, s.t, s.y) for s in result.subjects]


class TestSubject:
    @pytest.mark.parametrize(
        "t, y",
        [
            (np.array([0.1, 0.2]), np.array([1.0])),
            (np.array([[0.1, 0.2]]), np.array([[1.0, 2.0]])),
            (np.array([0.1, 0.2]), np.array([[1.0], [2.0]])),
        ],
    )
    def test_unequal_or_not_1d_rejected(self, t, y):
        with pytest.raises(ValueError, match="subject s7: t and y must be 1-D arrays of equal length"):
            Subject(id="s7", t=t, y=y)

    @pytest.mark.parametrize(
        "t, y, got",
        [
            ([0.1, 0.2], [1.0, 2.0], "list and list"),
            (np.array([0.1, 0.2]), (1.0, 2.0), "ndarray and tuple"),
        ],
    )
    def test_non_array_rejected(self, t, y, got):
        with pytest.raises(ValueError, match=f"subject a: t and y must be numpy arrays, got {got}"):
            Subject(id="a", t=t, y=y)


class TestValidateDataset:
    def test_sorts_by_time_within_subject(self):
        ds = validate_dataset([("s1", 0.2, 1.0), ("s1", 0.1, 2.0)], (0.0, 1.0))
        s = ds.subjects[0]
        np.testing.assert_array_equal(s.t, [0.1, 0.2])
        np.testing.assert_array_equal(s.y, [2.0, 1.0])

    def test_out_of_domain_reports_row(self):
        with pytest.raises(DataValidationError, match="row 0"):
            validate_dataset([("s1", 1.5, 1.0)], (0.0, 1.0))

    def test_non_finite_value_reports_row(self):
        with pytest.raises(DataValidationError, match="row 1"):
            validate_dataset([("s1", 0.5, 1.0), ("s2", 0.6, float("nan"))], (0.0, 1.0))

    def test_empty_input(self):
        with pytest.raises(DataValidationError, match="empty"):
            validate_dataset([], (0.0, 1.0))

    def test_single_observation_subjects_accepted(self):
        ds = validate_dataset([("a", 0.3, 1.0), ("b", 0.7, -1.0)], (0.0, 1.0))
        assert [s.n_obs for s in ds.subjects] == [1, 1]

    def test_default_domain_is_max_time(self):
        ds = validate_dataset([("a", 0.3, 1.0), ("a", 4.5, 2.0)])
        assert ds.domain == (0.0, 4.5)

    def test_time_ties_kept_in_input_order(self):
        ds = validate_dataset([("a", 0.5, 1.0), ("a", 0.5, 2.0), ("a", 0.1, 0.0)], (0.0, 1.0))
        np.testing.assert_array_equal(ds.subjects[0].y, [0.0, 1.0, 2.0])

    def test_permutation_invariant(self, rng):
        rows = [
            (f"s{i}", float(t), float(v))
            for i in range(5)
            for t, v in zip(rng.permutation(np.linspace(0.05, 0.95, 7)), rng.normal(size=7))
        ]
        ds1 = validate_dataset(rows, (0.0, 1.0))
        order = rng.permutation(len(rows))
        ds2 = validate_dataset([rows[k] for k in order], (0.0, 1.0))
        assert ds1.ids == ds2.ids
        for a, b in zip(ds1.subjects, ds2.subjects):
            np.testing.assert_array_equal(a.t, b.t)
            np.testing.assert_array_equal(a.y, b.y)

    def test_cd4_shaped_counts_preserved(self, rng):
        # 283 subjects, n_i between 1 and 14 with median 6
        counts = np.clip(np.round(rng.normal(6.5, 3.0, size=283)), 1, 14).astype(int)
        counts[np.argsort(counts)[283 // 2]] = 6
        rows = []
        for i, k in enumerate(counts):
            for t in rng.uniform(0, 6, size=k):
                rows.append((f"p{i:04d}", float(t), float(rng.normal())))
        ds = validate_dataset(rows, (0.0, 6.0))
        assert ds.n_subjects == 283
        got = np.array(sorted(s.n_obs for s in ds.subjects))
        np.testing.assert_array_equal(got, np.sort(counts))
        assert got.min() >= 1 and got.max() <= 14

    def test_matches_per_row_reference(self, rng):
        # ids that sort differently as strings and as numbers, integer ids,
        # tied and signed-zero times, and shuffled rows
        pool = ["9", "10", 9, 10, "a", "B", "s01", 3]
        for trial in range(200):
            n = int(rng.integers(1, 40))
            ids = [pool[k] for k in rng.integers(0, len(pool), n)]
            times = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], n) if trial % 2 else rng.uniform(0, 1, n)
            rows = [(sid, float(t), float(v)) for sid, t, v in zip(ids, times, rng.normal(size=n))]
            if trial % 4 == 0:
                rows = [(sid, int(4 * t), v) for sid, t, v in rows]
            domain = None if trial % 3 == 0 else (0.0, 4.0)
            want = outcome(reference_validate, rows, domain)
            got = outcome(validate_dataset, rows, domain)
            if isinstance(want, str):
                assert got == want
                continue
            assert got[0] == want[0]
            assert [sid for sid, _, _ in got[1]] == [sid for sid, _, _ in want[1]]
            for (_, t, y), (_, t_ref, y_ref) in zip(got[1], want[1]):
                assert t.tobytes() == t_ref.tobytes() and y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize(
        "rows, domain, message",
        [
            # several bad rows: the first is named
            ([("a", 0.1, 1.0), ("b", 0.2, math.inf), ("c", math.nan, 1.0), ("d", 0.3, math.nan)],
             (0.0, 1.0), "row 1: non-finite value inf"),
            # both fields non-finite: the time is named
            ([("a", 0.1, 1.0), ("b", -math.inf, math.nan)], (0.0, 1.0), "row 1: non-finite time -inf"),
            # a non-finite value is reported before an earlier out-of-domain time
            ([("a", 1.5, 1.0), ("b", 0.2, math.nan)], (0.0, 1.0), "row 1: non-finite value nan"),
            # out-of-domain time after finite rows
            ([("a", 0.1, 1.0), ("b", 0.9, 2.0), ("c", 0.5, 3.0), ("d", -0.25, 4.0), ("e", 2.0, 5.0)],
             (0.0, 1.0), "row 3: time -0.25 outside domain [0.0, 1.0]"),
            ([("a", 1, 1.0), ("a", 3, 2.0)], (0.0, 2.0), "row 1: time 3 outside domain [0.0, 2.0]"),
            ([("a", -1.0, 1.0)], None, "invalid domain (0.0, -1.0)"),
        ],
    )
    def test_error_names_first_offending_row(self, rows, domain, message):
        assert outcome(reference_validate, rows, domain) == message
        with pytest.raises(DataValidationError) as info:
            validate_dataset(rows, domain)
        assert str(info.value) == message

    def test_row_without_three_fields_named(self):
        with pytest.raises(DataValidationError, match=r"row 1: expected \(id, t, y\), got \('b', 0.2\)"):
            validate_dataset([("a", 0.1, 1.0), ("b", 0.2)], (0.0, 1.0))

    def test_subjects_are_immutable(self):
        ds = validate_dataset([("a", 0.3, 1.0)], (0.0, 1.0))
        with pytest.raises(ValueError):
            ds.subjects[0].t[0] = 0.9


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        rows = [(f"s{i}", float(rng.uniform()), float(rng.normal())) for i in range(20)]
        path = tmp_path / "data.csv"
        write_long_csv(path, rows)
        back = read_long_csv(path)
        assert back == [(sid, t, y) for sid, t, y in rows]
        ds = validate_dataset(back, (0.0, 1.0))
        again = validate_dataset(dataset_to_rows(ds), (0.0, 1.0))
        assert again.ids == ds.ids
        for a, b in zip(ds.subjects, again.subjects):
            np.testing.assert_array_equal(a.t, b.t)
            np.testing.assert_array_equal(a.y, b.y)

    def test_floats_written_by_repr(self, tmp_path):
        path = tmp_path / "data.csv"
        write_long_csv(path, [("a", 1, 0.1), ("b", np.float64(0.5), 1 / 3)])
        assert path.read_bytes() == b"subject_id,t,y\r\na,1.0,0.1\r\nb,0.5,0.3333333333333333\r\n"
        write_long_csv(path, [])
        assert path.read_bytes() == b"subject_id,t,y\r\n"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time,value\na,0.1,2\n")
        with pytest.raises(DataValidationError, match="header"):
            read_long_csv(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,t,y\na,0.1,oops\n")
        with pytest.raises(DataValidationError, match="line 2"):
            read_long_csv(path)


class TestModelRoundTrip:
    def make_model(self, rng, with_report=True):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        G = basis.gram
        c1 = rng.normal(size=6)
        c1 /= np.sqrt(c1 @ G @ c1)
        c2 = rng.normal(size=6)
        c2 -= (c1 @ G @ c2) * c1
        c2 /= np.sqrt(c2 @ G @ c2)
        report = None
        if with_report:
            report = FitReport(
                loss_trace=(3.0, 2.0, 1.5),
                converged=True,
                n_sweeps=2,
                stage_cycles=(4, 1),
                sweep_objectives=(1.6, 1.5),
                stage_offsets=(0, 1),
                n_truncated=3,
                final_objective=1.75,
            )
        return FecModel(
            basis=basis,
            coef=np.column_stack([c1, c2]),
            scores=rng.normal(size=(7, 2)),
            gammas=np.array([0.0, 1e-2]),
            noise_var=0.25,
            report=report,
        )

    def test_json_round_trip_exact(self, rng):
        model = self.make_model(rng)
        back = model_from_dict(model_to_dict(model))
        np.testing.assert_array_equal(back.coef, model.coef)
        np.testing.assert_array_equal(back.scores, model.scores)
        np.testing.assert_array_equal(back.gammas, model.gammas)
        assert back.noise_var == model.noise_var
        assert back.report == model.report
        np.testing.assert_array_equal(back.basis.gram, model.basis.gram)
        np.testing.assert_array_equal(back.basis.penalty, model.basis.penalty)

    def test_report_without_truncation_count_loads_as_zero(self, rng):
        doc = model_to_dict(self.make_model(rng))
        del doc["report"]["n_truncated"]  # written before the field existed
        assert model_from_dict(doc).report.n_truncated == 0

    def test_older_report_loads(self, rng):
        doc = model_to_dict(self.make_model(rng))
        # written before stage_cycles and final_objective, with a key since removed
        del doc["report"]["stage_cycles"], doc["report"]["final_objective"]
        doc["report"]["tolerance_used"] = 1e-7
        report = model_from_dict(doc).report
        assert report.stage_cycles == ()
        assert math.isnan(report.final_objective)
        assert report.n_sweeps == 2

    def test_schema_version_written_and_optional(self, rng):
        model = self.make_model(rng)
        doc = model_to_dict(model)
        assert doc["schema_version"] == 1
        del doc["schema_version"]  # written before the key existed
        back = model_from_dict(doc)
        np.testing.assert_array_equal(back.coef, model.coef)
        assert back.report == model.report

    @pytest.mark.parametrize("version", [0, 2, 1.0, "1", None, True])
    def test_other_schema_version_rejected(self, rng, version):
        doc = model_to_dict(self.make_model(rng))
        doc["schema_version"] = version
        with pytest.raises(ValueError, match="schema_version"):
            model_from_dict(doc)

    def test_round_trip_without_report(self, rng):
        model = self.make_model(rng, with_report=False)
        back = model_from_dict(model_to_dict(model))
        assert back.report is None
        np.testing.assert_array_equal(back.coef, model.coef)

    def test_orthonormality_error(self, rng):
        model = self.make_model(rng)
        assert model.orthonormality_error() < 1e-12

    def test_invariants_enforced(self, rng):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        with pytest.raises(ValueError):
            FecModel(
                basis=basis,
                coef=np.zeros((6, 0)),
                scores=np.zeros((3, 0)),
                gammas=np.zeros(0),
                noise_var=0.0,
            )
        with pytest.raises(ValueError, match="noise_var"):
            FecModel(
                basis=basis,
                coef=np.eye(6)[:, :1],
                scores=np.zeros((3, 1)),
                gammas=np.zeros(1),
                noise_var=-1.0,
            )
