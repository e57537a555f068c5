import builtins
import csv
import gc
import io
import json
import math
import tracemalloc
import warnings
from dataclasses import fields

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
from soapfda import cli, core
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
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
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
    """The per-row reader: one (id, t, y) tuple per record, each numbered by
    the physical line it starts on (blank lines and the lines of a quoted
    line break counted); raises DataValidationError like read_long_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("subject_id", "t", "y"):
            raise DataValidationError(f"expected header subject_id,t,y, got {header!r}")
        rows = []
        start = reader.line_num + 1
        for rec in reader:
            lineno, start = start, reader.line_num + 1
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


# records after the header, by form: numpy's C reader reads the first group
# itself, the csv-module loop alone reads the second (``float()`` takes those
# numbers and numpy does not, or the file holds an information separator),
# and both readers reject the third
C_READ_RECORDS = {
    "doubled-quote": '"x""y",0.1,1\n',
    "stray-quote": 'a"b,0.1,1\n',
    "text-after-quotes": '"a"b,0.1,1\n',
    "quoted-newlines": '"q\nr",0.1,1\n"s\r\nt",0.2,2\n',
    "quoted-comma": '"a,b",0.1,1\n',
    "quoted-numbers": 'a,"0.1","1"\n',
    "cr-line-ends": "a,0.1,1\rb,0.2,2\r",
    "crlf-line-ends": "a,0.1,1\r\nb,0.2,2\r\n",
    "no-final-newline": "a,0.1,1\nb,0.2,2",
    "spaces-around-numbers": "a, 0.5 ,1 \nb,\u20030.5,\u00a01\n",
    "tabs-around-numbers": "a,\t0.5,1\t\n",
    "signed-exponent": "a,+1E5,1\n",
    "negative-nan": "a,0.1,-nan\n",
    "negative-infinity": "a,0.1,-Infinity\n",
    "empty-id": ",0.1,1\n",
    "hash-id": "#c,0.1,1\n",
}
LOOP_READ_RECORDS = {
    "digit-groups": "a,1_0,1\n",
    "arabic-indic-digit": "a,\u0661,1\n",
    "separator-in-id": "a\x1cb,0.1,1\n",
}
REJECTED_RECORDS = {
    "whitespace-line": "a,0.1,1\n \n",
    "two-fields": "a,0.1\n",
    "four-fields": "a,0.1,1,9\n",
    "empty-field": "a,,1\n",
    "hex-number": "a,0x10,1\n",
    "nul-byte": "a,0.1\x00,1\n",
    # numpy strips U+001C-U+001F around a number as whitespace; float() does not
    "separator-after-number": "a,2\x1c,1\n",
    "separator-before-number": "a,0.1,\x1f1\n",
}

# field forms of the random files below
ID_FORMS = [
    "a", "s1", '"a,b"', '"x""y"', 'a"b', '"a"b', " s ", "", "#c", "\tt", "Zoë", "a\x1cb", '"q\nr"', '"s\r\nt"',
]
NUMBER_FORMS = [
    "0.1", " 0.5 ", "1e5", "+1E5", "-nan", "-Infinity", "iNf", "\t2", '"0.3"', "5.", ".5", "1e400",
    "3e-320", "\u20031\u2003", "\x0c1", "-0.0", "0.30000000000000004", "1_0", "\u0661",
]
BAD_NUMBER_FORMS = ["2\x1c", "", "x", "0x10", "1e", "--1", "1,2"]


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
        t[0], y[:] = 0.95, 0.0  # the subject owns copies
        assert subject.t.tolist() == [0.1, 0.2] and subject.y.tolist() == [1.0, 2.0]


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
            # a bound that is not finite
            ([("a", 0.2, 1.0)], (0.0, math.inf), "invalid domain (0.0, inf)"),
            ([("a", 0.2, 1.0)], (-math.inf, math.inf), "invalid domain (-inf, inf)"),
            ([("a", 0.2, 1.0)], (math.nan, 1.0), "invalid domain (nan, 1.0)"),
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

    def test_ids_written_as_the_names_they_group_by(self, tmp_path):
        """An id that is not a string is written as ``str(id)``, so the file
        reads back into the subjects the rows make directly."""
        rows = [(7, 0.25, 1.0), (None, 0.5, 2.0), (7, 0.75, 3.0), ("7", 0.1, 4.0), (None, 0.2, -1.0)]
        path = tmp_path / "data.csv"
        write_long_csv(path, rows)
        assert path.read_bytes() == (
            b"subject_id,t,y\r\n7,0.25,1.0\r\nNone,0.5,2.0\r\n7,0.75,3.0\r\n7,0.1,4.0\r\nNone,0.2,-1.0\r\n"
        )
        back = dataset_from_columns(*read_long_csv(path), (0.0, 1.0))
        want = validate_dataset(rows, (0.0, 1.0))
        assert back.ids == want.ids == ("7", "None")
        for a, b in zip(back.subjects, want.subjects):
            assert a.t.tobytes() == b.t.tobytes() and a.y.tobytes() == b.y.tobytes()

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


def reference_csv_bytes(header, columns) -> bytes:
    """The file ``csv.writer`` writes for these columns, an array's values
    formatted by ``repr`` first, as the writer did before it formatted rows itself."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray) else col for col in columns]
    writer.writerows(zip(*cells))
    return buf.getvalue().encode("utf-8")


# strings that csv.writer quotes, doubles, passes or writes as an empty field
AWKWARD_STRINGS = ["a,b", 'say "hi"', "cr\rid", "nl\nid", "crlf\r\nid", "", " lead", "trail ", "Zoë", "北京", "\t", '"', "10"]
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e16, 1e-5, 0.1, 1 / 3, 1e308, 123456789.0]


class TestWriteCsv:
    @pytest.mark.parametrize("chunk", [2, 3, 8192])
    def test_random_columns_match_csv_writer(self, tmp_path, monkeypatch, rng, chunk):
        """Seeded random files of two to four columns of the kinds the writer
        takes, written in chunks of rows so that repeated fields span several
        chunks, are byte for byte csv.writer's."""
        monkeypatch.setattr(core, "_WRITE_ROWS", chunk)
        path = tmp_path / "out.csv"
        for _ in range(60):
            n = int(rng.integers(0, 12))
            columns = []
            for _ in range(int(rng.integers(2, 5))):
                kind = rng.integers(0, 5)
                strings = [AWKWARD_STRINGS[i] for i in rng.integers(0, len(AWKWARD_STRINGS), n)]
                if kind == 0:  # a list of strings, as ids are given
                    columns.append(strings)
                elif kind == 1:  # a tuple of strings, as a dataset's ids are
                    columns.append(tuple(strings))
                elif kind == 2:
                    columns.append(np.array([AWKWARD_FLOATS[i] for i in rng.integers(0, len(AWKWARD_FLOATS), n)]))
                elif kind == 3:
                    columns.append(rng.integers(-5, 5, n))
                else:
                    columns.append(rng.integers(0, 2, n).astype(bool))
            header = [f"c{k}" for k in range(len(columns))]
            core.write_csv(path, header, columns)
            assert path.read_bytes() == reference_csv_bytes(header, columns)

    @pytest.mark.parametrize(
        "header, columns, error, message",
        [
            (["a", "b"], [["x", "y"], [1, 2]], TypeError, "column 'b'"),
            (["a", "b"], [["x", None], np.zeros(2)], TypeError, "column 'a'"),
            (["a", "b"], [["x", True], np.zeros(2)], TypeError, "column 'a'"),
            (["a", "b"], [np.array(["x", 1], dtype=object), np.zeros(2)], TypeError, "column 'a'"),
            (["a", "b"], [["x", "y"], np.zeros((2, 1))], TypeError, "column 'b'"),
            (["a"], [["x", ""]], ValueError, "two or more equal-length columns"),
            (["a", "b"], [["x"]], ValueError, "two or more equal-length columns"),
            (["a", "b"], [["x", "y", "z"], np.zeros(2)], ValueError, "two or more equal-length columns"),
        ],
        ids=["ints", "none", "bool", "object-array", "2-d-array", "one-column", "header-of-two", "unequal-lengths"],
    )
    def test_unsupported_columns_rejected(self, tmp_path, header, columns, error, message):
        path = tmp_path / "out.csv"
        with pytest.raises(error, match=message):
            core.write_csv(path, header, columns)
        assert not path.exists()

    def test_trajectory_file_matches_csv_writer(self, tmp_path):
        grid, ids = np.linspace(0.0, 1.0, 7), ["a,b", "c", ""]
        values = [np.sin(grid * (k + 1)) for k in range(len(ids))]
        path = tmp_path / "traj.csv"
        cli._write_trajectories_csv(path, ids, grid, values)
        want = reference_csv_bytes(
            ["subject_id", "t", "x_hat"],
            [[sid for sid in ids for _ in grid], np.tile(grid, len(ids)), np.concatenate(values)],
        )
        assert path.read_bytes() == want


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

    @pytest.mark.parametrize("name", [*C_READ_RECORDS, *LOOP_READ_RECORDS, *REJECTED_RECORDS])
    def test_record_forms_read_like_reference(self, tmp_path, monkeypatch, name):
        """Each record form reads as the reference reads it, and only the
        loop-read and rejected forms go to the csv-module loop."""
        text = {**C_READ_RECORDS, **LOOP_READ_RECORDS, **REJECTED_RECORDS}[name]
        loop_reads = []
        read_records = core._read_records
        monkeypatch.setattr(core, "_read_records", lambda data: loop_reads.append(data) or read_records(data))
        path = tmp_path / "edge.csv"
        path.write_bytes(("subject_id,t,y\n" + text).encode())
        outcome = assert_reads_like_reference(path)
        assert isinstance(outcome, str) == (name in REJECTED_RECORDS)
        assert len(loop_reads) == (name not in C_READ_RECORDS)

    def test_random_record_mixes_read_like_reference(self, tmp_path, rng):
        def number():
            return rng.choice(BAD_NUMBER_FORMS if rng.random() < 0.05 else NUMBER_FORMS)

        path = tmp_path / "mix.csv"
        for _ in range(300):
            records = [
                "" if rng.random() < 0.1 else ",".join([rng.choice(ID_FORMS), number(), number()])
                for _ in range(rng.integers(0, 6))
            ]
            end = rng.choice(["\n", "\r\n", "\r"])
            text = end.join(["subject_id,t,y", *records]) + (end if rng.random() < 0.5 else "")
            path.write_bytes(text.encode())
            assert_reads_like_reference(path)

    def test_dense_file_reads_like_reference(self, tmp_path, rng):
        grid = np.linspace(0.0, 1.0, 401)
        rows = [(f"s{i:02d}", t, v) for i in range(50) for t, v in zip(grid.tolist(), rng.normal(size=401).tolist())]
        path = tmp_path / "dense.csv"
        write_long_csv(path, rows)
        assert assert_reads_like_reference(path) == rows
        # copies: no view keeps the parser's record array alive
        _, t, y = read_long_csv(path)
        assert t.flags.owndata and y.flags.owndata and t.flags.c_contiguous and y.flags.c_contiguous

    @pytest.mark.parametrize("text", ["subject_id,t,y", "subject_id,t,y\n", "subject_id,t,y\n\n\r\n\r"])
    def test_header_without_records_reads_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, t, y = read_long_csv(path)
        assert ids == []
        assert t.shape == y.shape == (0,) and t.dtype == y.dtype == np.float64

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"subject_id,t,y\na\xe9,0.1,1\n", "line 2: not UTF-8 text: invalid continuation byte"),
            (b"subject_\xe9id,t,y\n", "line 1: not UTF-8 text: invalid continuation byte"),
            # the byte-order mark is counted in the position but ends no line
            (b"\xef\xbb\xbfsubject_id,t,y\n\xe9,0.1,1\n", "line 2: not UTF-8 text: invalid continuation byte"),
            # \r\n, \r and \n each end one physical line, inside a quoted field too
            (b"subject_id,t,y\r\nb,0.2,1\r\r\na\xff,0.1,1\n", "line 4: not UTF-8 text: invalid start byte"),
            (b'subject_id,t,y\n"a\nb\xe9",0.1,1\n', "line 3: not UTF-8 text: invalid continuation byte"),
            # far past the decoder's first chunk
            (b"subject_id,t,y\n" + b"a,0.1,1\n" * 20_000 + b"z,\xe9,1\n",
             "line 20002: not UTF-8 text: invalid continuation byte"),
        ],
    )
    def test_not_utf8_names_the_line(self, tmp_path, data, message):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(DataValidationError) as exc:
            read_long_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "data",
        [b"a,0.1,1\n", b"a,1_0,1\n", b"a,0.1,oops\n", b"a\x1cb,0.1,1\n", b"a\xe9,0.1,1\n", b'"a\nb",0.1\n'],
        ids=["c-read", "loop-read", "bad-record", "separator", "not-utf8", "short-multiline-record"],
    )
    def test_path_opened_once(self, tmp_path, monkeypatch, data):
        path = tmp_path / "data.csv"
        path.write_bytes(b"subject_id,t,y\n" + data)
        opened, real_open = [], builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))
        read_outcome(read_long_csv, path)
        assert opened == [path]

    @pytest.mark.parametrize(
        "record",
        ['"{id}",0.1,1\n', "{id},0.1,1\n", '"{commas}",0.1,1\n', "a,{padded},1\n", 'a,0.1,"{padded}"\n'],
        ids=["quoted-id", "bare-id", "id-of-commas", "padded-time", "quoted-padded-value"],
    )
    @pytest.mark.parametrize("over", [0, 1], ids=["at-limit", "over-limit"])
    @pytest.mark.parametrize("tail", ["", "b,1_0,1\n"], ids=["c-read", "with-1_0"])
    def test_field_limit_reads_like_reference(self, tmp_path, record, over, tail):
        """A field of csv.field_size_limit() characters reads and one more
        is rejected by its line, whichever parser the rest of the file needs."""
        size = csv.field_size_limit() + over
        fields = {"id": "é" * size, "commas": ("a," * size)[:size], "padded": " " * (size - 3) + "0.1"}
        path = tmp_path / "long.csv"
        path.write_text("subject_id,t,y\nz,0.5,2\n" + record.format(**fields) + tail, encoding="utf-8")
        if over:
            with pytest.raises(DataValidationError) as exc:
                read_long_csv(path)
            assert str(exc.value) == f"line 3: field larger than field limit ({size - 1})"
        else:
            assert len(assert_reads_like_reference(path)) == 2 + bool(tail)

    def test_peak_memory_beyond_the_columns_bounded(self, tmp_path):
        """What the read holds beyond the columns it returns is at most twice
        the file: the file's bytes and the parser's record array, with no
        full-size text buffer (which alone takes four bytes a character)."""
        rng = np.random.default_rng(3)
        t, y = rng.uniform(size=100_000), rng.normal(size=100_000)
        path = tmp_path / "big.csv"
        write_long_csv(path, [(f"s{i // 400:03d}", a, b) for i, (a, b) in enumerate(zip(t.tolist(), y.tolist()))])
        size = path.stat().st_size
        assert size > 3_000_000
        tracemalloc.start()
        try:
            columns = read_long_csv(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert columns[1].tobytes() == t.tobytes() and columns[2].tobytes() == y.tobytes()
        assert peak - kept <= 2 * size

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
        before = model.orthonormality_error()
        coef *= 3  # the model owns copies
        scores[:], gammas[:] = -1.0, 5.0
        assert model.orthonormality_error() == before < 1e-12
        assert model.scores.tolist() == [[1.0, 1.0]] * 3 and model.gammas.tolist() == [0.0, 0.0]


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
                n_fallbacks=0,
                n_truncated=3,
                n_guard_kept=0,
                final_objective=1.75,
                stage_capped=(False, False),
                sweeps_capped=False,
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

    def test_report_without_truncation_count_rejected(self, rng):
        doc = model_to_dict(self.make_model(rng))
        del doc["report"]["n_truncated"]  # as written before the field existed
        with pytest.raises(ValueError, match="lacks key 'report.n_truncated'"):
            model_from_dict(doc)

    def test_older_report_rejected(self, rng):
        model = self.make_model(rng)
        doc = model_to_dict(model)
        # as written before stage_cycles and final_objective, with a key since removed
        del doc["report"]["stage_cycles"], doc["report"]["final_objective"]
        doc["report"]["tolerance_used"] = 1e-7
        with pytest.raises(ValueError, match="lacks key 'report.stage_cycles'"):
            model_from_dict(doc)
        doc["report"]["stage_cycles"] = [4, 1]
        with pytest.raises(ValueError, match="lacks key 'report.final_objective'"):
            model_from_dict(doc)
        doc["report"]["final_objective"] = 1.75  # the key model_to_dict does not write is ignored
        assert model_from_dict(doc).report == model.report

    def test_schema_version_written_and_required(self, rng):
        model = self.make_model(rng)
        doc = model_to_dict(model)
        assert doc["schema_version"] == 1
        del doc["schema_version"]  # as written before the key existed
        with pytest.raises(ValueError, match="lacks key 'schema_version'"):
            model_from_dict(doc)

    @pytest.mark.parametrize("name", [f.name for f in fields(FitReport)])
    def test_every_report_field_required(self, rng, name):
        doc = model_to_dict(self.make_model(rng))
        del doc["report"][name]
        with pytest.raises(ValueError, match=f"lacks key 'report.{name}'"):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("noise_var", np.float32(0.25)), ("l", np.int64(6)), ("report.converged", np.True_)],
        ids=["float32", "int64", "bool_"],
    )
    def test_only_json_types_accepted(self, rng, key, value):
        doc = model_to_dict(self.make_model(rng))
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
        with pytest.raises(ValueError, match=f"'{key}' has an invalid value"):
            model_from_dict(doc)

    def test_basis_with_numpy_integers_saves_and_loads(self, rng, tmp_path):
        basis = make_bspline_basis((0.0, 1.0), np.int64(6), np.int64(4))
        assert type(basis.size) is int and type(basis.order) is int
        model = self.make_model(rng)
        model = FecModel(basis, model.coef, model.scores, model.gammas, model.noise_var, model.report)
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert (back.basis.size, back.basis.order) == (6, 4)
        np.testing.assert_array_equal(back.basis.gram, basis.gram)
        np.testing.assert_array_equal(back.coef, model.coef)

    @pytest.mark.parametrize(
        "text, line, msg",
        [("", 1, "Expecting value"), ('{\n  "l": 6,\n  "m": ', 3, "Expecting value"), ("{} {}", 1, "Extra data")],
        ids=["empty", "truncated", "two-documents"],
    )
    def test_file_that_is_not_json_names_path_and_line(self, tmp_path, text, line, msg):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataValidationError) as info:
            load_model(path)
        assert str(info.value) == f"{path}:{line}: not JSON: {msg}"

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
