import csv
import gc
import json
import math

import numpy as np
import pytest

from soapfda import (
    DataValidationError,
    FecModel,
    FitReport,
    Subject,
    dataset_from_columns,
    make_bspline_basis,
    validate_dataset,
)
from soapfda.core import (
    dataset_to_rows,
    load_model,
    model_from_dict,
    model_to_dict,
    read_long_csv,
    save_model,
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


def reference_read(path):
    """The per-row reader: one (id, t, y) tuple per record, numbered from
    the header's line 1 with blank records counted; raises
    DataValidationError like read_long_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("subject_id", "t", "y"):
            raise DataValidationError(f"expected header subject_id,t,y, got {header!r}")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise DataValidationError(f"line {lineno}: expected 3 fields, got {len(rec)}")
            try:
                rows.append((rec[0], float(rec[1]), float(rec[2])))
            except ValueError as exc:
                raise DataValidationError(f"line {lineno}: {exc}") from exc
    return rows


def read_outcome(fn, path):
    try:
        return fn(path)
    except DataValidationError as exc:
        return str(exc)


def assert_reads_like_reference(path):
    """read_long_csv gives the reference's rows as bitwise-equal columns,
    or its message; returns the reference outcome."""
    want, got = read_outcome(reference_read, path), read_outcome(read_long_csv, path)
    if isinstance(want, str):
        assert got == want
        return want
    ids, t, y = got
    assert ids == [r[0] for r in want]
    assert t.dtype == y.dtype == np.float64
    assert t.tobytes() == np.array([r[1] for r in want], dtype=float).tobytes()
    assert y.tobytes() == np.array([r[2] for r in want], dtype=float).tobytes()
    return want


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

    def test_caller_arrays_stay_writeable(self):
        t, y = np.array([0.1, 0.2]), np.array([1.0, 2.0])
        subject = Subject(id="a", t=t, y=y)
        for given, stored in ((t, subject.t), (y, subject.y)):
            assert given.flags.writeable
            assert not stored.flags.writeable
            np.testing.assert_array_equal(stored, given)


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


class TestDatasetFromColumns:
    @pytest.mark.parametrize(
        "t, y, message",
        [
            ([0.1, math.nan], [1.0, 2.0], "row 1: non-finite time nan"),
            ([0.1, 0.2], [1.0, -math.inf], "row 1: non-finite value -inf"),
            ([0.1, 1.5], [1.0, 2.0], "row 1: time 1.5 outside domain [0.0, 1.0]"),
        ],
    )
    def test_array_columns_named_as_rows_are(self, t, y, message):
        rows = list(zip(["a", "b"], t, y))
        assert outcome(reference_validate, rows, (0.0, 1.0)) == message
        with pytest.raises(DataValidationError) as info:
            dataset_from_columns(["a", "b"], np.array(t), np.array(y), (0.0, 1.0))
        assert str(info.value) == message

    def test_unequal_columns_rejected(self):
        with pytest.raises(DataValidationError, match="equal length, got 2 ids and shapes"):
            dataset_from_columns(["a", "b"], np.array([0.1]), np.array([1.0, 2.0]))

    def test_caller_columns_unchanged(self):
        t, y = np.array([0.2, 0.1]), np.array([1.0, 2.0])
        ds = dataset_from_columns(["a", "a"], t, y, (0.0, 1.0))
        assert t.flags.writeable and t.tolist() == [0.2, 0.1]
        np.testing.assert_array_equal(ds.subjects[0].t, [0.1, 0.2])
        np.testing.assert_array_equal(ds.subjects[0].y, [2.0, 1.0])


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        rows = [(f"s{i}", float(rng.uniform()), float(rng.normal())) for i in range(20)]
        path = tmp_path / "data.csv"
        write_long_csv(path, rows)
        ids, t, y = read_long_csv(path)
        back = list(zip(ids, t.tolist(), y.tolist()))
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


class TestReadLongCsv:
    def test_round_trip_with_awkward_ids(self, tmp_path, rng):
        ids = ["a,b", 'say "hi"', " lead", "Zoë", "北京", "10", "9", "10"]
        rows = [(sid, float(t), float(v)) for sid, t, v in zip(ids, rng.uniform(size=8), rng.normal(size=8))]
        rows.append(("9", 5e-324, -0.0))
        path = tmp_path / "data.csv"
        write_long_csv(path, rows)
        assert b"\r\n" in path.read_bytes()
        assert assert_reads_like_reference(path) == rows
        ds = dataset_from_columns(*read_long_csv(path))
        assert ds.ids == (" lead", "10", "9", "Zoë", "a,b", 'say "hi"', "北京")
        assert [s.n_obs for s in ds.subjects] == [1, 2, 2, 1, 1, 1, 1]

    def test_crlf_and_blank_lines_between_records(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"subject_id,t,y\r\n\r\na,0.1,1\r\n\r\n\r\nb,0.2,2\n\nc,0.3,3e2\r\n\n")
        assert assert_reads_like_reference(path) == [("a", 0.1, 1.0), ("b", 0.2, 2.0), ("c", 0.3, 300.0)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,time,value\na,0.1,2\n", "expected header subject_id,t,y, got ['id', 'time', 'value']"),
            ("", "expected header subject_id,t,y, got None"),
            ("a,0.1\n", "line 3: expected 3 fields, got 2"),
            ("a,0.1,1,9\n", "line 3: expected 3 fields, got 4"),
            ("a,zz,1\n", "line 3: could not convert string to float: 'zz'"),
            ("a,0.1,oops\n", "line 3: could not convert string to float: 'oops'"),
            # the first bad line in file order, the time before the value
            ("a,x,y\n", "line 3: could not convert string to float: 'x'"),
            ("b,0.2,oops\na,zz,1\n", "line 3: could not convert string to float: 'oops'"),
            ("a,zz,1\nb,0.2\n", "line 3: could not convert string to float: 'zz'"),
            ("a,0.1\nb,zz,1\n", "line 3: expected 3 fields, got 2"),
            # blank lines count toward the line number
            ("\n\nb,0.2,1\n\r\nc,0.3\n", "line 7: expected 3 fields, got 2"),
            ("\n\nb,0.2,1\n\nc,0.3,\n", "line 7: could not convert string to float: ''"),
        ],
    )
    def test_malformed_file_named_like_reference(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        body = text if text.startswith("id,") or not text else "subject_id,t,y\n\n" + text
        path.write_text(body, encoding="utf-8")
        assert assert_reads_like_reference(path) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # the short record starts on line 4, after a record on lines 2-3
            ('"a\nb",0.1,1\nc,0.2\n', "line 4: expected 3 fields, got 2"),
            ('"a\r\nb",0.1,1\r\n\r\nc,0.2\r\n', "line 5: expected 3 fields, got 2"),
            # a bad value inside a record that spans lines 4-5 is on line 4
            ('"a\nb",0.1,1\n"c\nd",0.2,oops\n', "line 4: could not convert string to float: 'oops'"),
            ('a,0.1,1\nb,0.2,"1\n2"\n', "line 3: could not convert string to float: '1\\n2'"),
        ],
    )
    def test_malformed_record_after_multiline_field_names_its_physical_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(("subject_id,t,y\n" + text).encode())
        with pytest.raises(DataValidationError) as exc:
            read_long_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["a,0.1,1\nb,0.2,2\n", "a,0.1,1\nb,0.2\n", "a,0.1,1\nb,zz,2\n"])
    def test_byte_order_mark_reads_like_the_plain_file(self, tmp_path, text):
        # Excel's CSV export starts the file with a UTF-8 byte-order mark;
        # the reread that names a bad record must skip it too
        plain, marked = tmp_path / "plain.csv", tmp_path / "excel.csv"
        plain.write_bytes(("subject_id,t,y\n" + text).encode())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want = assert_reads_like_reference(plain)
        got = read_outcome(read_long_csv, marked)
        if isinstance(want, str):
            assert got == want
        else:
            ids, t, y = got
            assert list(zip(ids, t.tolist(), y.tolist())) == want

    def test_header_without_rows_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("subject_id,t,y\n\n")
        assert assert_reads_like_reference(path) == []
        with pytest.raises(DataValidationError, match="^empty input: no observation rows$"):
            dataset_from_columns(*read_long_csv(path))

    def test_no_per_row_objects_kept(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 401)
        path = tmp_path / "dense.csv"
        write_long_csv(path, [(f"s{i:02d}", t, t * i) for i in range(50) for t in grid.tolist()])
        gc.collect()
        gc.disable()  # a collection would untrack the tuples the per-row reader keeps
        try:
            before = len(gc.get_objects())
            columns = read_long_csv(path)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(columns[0]) == 20_050
        assert grown < 100


class TestFecModel:
    def test_caller_arrays_stay_writeable(self):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        coef = np.linalg.cholesky(np.linalg.inv(basis.gram))[:, :2]  # G-orthonormal columns
        scores, gammas = np.ones((3, 2)), np.zeros(2)
        model = FecModel(basis=basis, coef=coef, scores=scores, gammas=gammas, noise_var=0.0)
        for given, stored in ((coef, model.coef), (scores, model.scores), (gammas, model.gammas)):
            assert given.flags.writeable
            assert not stored.flags.writeable
            np.testing.assert_array_equal(stored, given)


    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("scores", np.zeros(3), r"scores must be an \(n, M\) matrix, got shape \(3,\)"),
            ("noise_var", math.nan, "noise_var must be >= 0, got nan"),
            ("gammas", np.array([-1.0]), r"gammas must be finite and >= 0, got \[-1.0\]"),
            ("gammas", np.array([math.nan]), r"gammas must be finite and >= 0, got \[nan\]"),
            ("coef", np.zeros(6), r"coef must be an \(L, M\) matrix, got shape \(6,\)"),
            ("coef", np.zeros((6, 1, 1)), r"coef must be an \(L, M\) matrix, got shape \(6, 1, 1\)"),
            ("coef", np.eye(7)[:, :1], "coefficient rows do not match basis size"),
            ("coef", np.eye(6)[:, :1].tolist(), "coef must be a numpy array, got list"),
            ("scores", np.zeros((3, 1)).tolist(), "scores must be a numpy array, got list"),
            ("gammas", [0.0], "gammas must be a numpy array, got list"),
        ],
        ids=[
            "1-D-scores", "nan-noise-var", "negative-gamma", "nan-gamma", "1-D-coef", "3-D-coef", "coef-rows",
            "list-coef", "list-scores", "list-gammas",
        ],
    )
    def test_invalid_field_rejected_by_name(self, name, value, match):
        basis = make_bspline_basis((0.0, 1.0), 6, 4)
        given = dict(coef=np.eye(6)[:, :1], scores=np.zeros((3, 1)), gammas=np.zeros(1), noise_var=0.0)
        given[name] = value
        with pytest.raises(ValueError, match=match):
            FecModel(basis=basis, **given)


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

    @pytest.mark.parametrize(
        "gammas, match",
        [
            ([-1.0, 0.0], "gammas must be finite and >= 0"),
            # a number where a list belongs raised TypeError from len()
            (0.0, "scores/gammas do not match the number of components"),
        ],
        ids=["negative", "scalar"],
    )
    def test_bad_gammas_in_file_rejected(self, rng, tmp_path, gammas, match):
        doc = model_to_dict(self.make_model(rng))
        doc["gammas"] = gammas
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_model(path)

    def test_saved_file_is_indented_sorted_json_with_a_final_newline(self, rng, tmp_path):
        model = self.make_model(rng)
        save_model(model, tmp_path / "model.json")
        expected = json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "model.json").read_text(encoding="utf-8") == expected

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
