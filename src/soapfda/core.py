"""Domain data model: subjects, datasets, fitted models, and their (de)serialization."""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Iterable, get_args, get_origin, get_type_hints

import numpy as np

from .basis import BasisSystem, _freeze, eval_basis_matrix, make_bspline_basis


class DataValidationError(ValueError):
    """Raised when raw input rows violate the dataset contract."""


@dataclass(frozen=True)
class Subject:
    """One subject's irregular observations, sorted ascending by time.

    Ties in time are kept in input order; they are legitimate repeated
    measurements and the least-squares steps handle the duplicated rows.
    """

    id: str
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.t, np.ndarray) and isinstance(self.y, np.ndarray)):
            raise ValueError(
                f"subject {self.id}: t and y must be numpy arrays, "
                f"got {type(self.t).__name__} and {type(self.y).__name__}"
            )
        if self.t.ndim != 1 or self.t.shape != self.y.shape:
            raise ValueError(
                f"subject {self.id}: t and y must be 1-D arrays of equal length, "
                f"got shapes {self.t.shape} and {self.y.shape}"
            )
        _freeze(self, "t", "y")

    @property
    def n_obs(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class LongitudinalDataset:
    """n subjects observed irregularly on a common interval."""

    domain: tuple[float, float]
    subjects: tuple[Subject, ...]

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_obs_total(self) -> int:
        return sum(s.n_obs for s in self.subjects)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.subjects)

    def all_times(self) -> np.ndarray:
        return np.concatenate([s.t for s in self.subjects])


@dataclass(frozen=True)
class FitReport:
    """Diagnostics from a fit.

    ``loss_trace`` records the full objective (residual term plus any
    roughness penalties at the current component count) after every score
    and component update. ``stage_cycles`` counts the alternation cycles of
    each component's extraction stage and ``n_sweeps`` the refinement sweeps
    (0 for one component); ``sweep_objectives`` holds the objective at the
    end of each sweep; ``stage_offsets`` marks where each component's
    extraction begins in ``loss_trace``. ``n_fallbacks`` counts the
    hard-case component steps, each solved exactly in closed form.
    ``n_truncated`` counts the subjects whose final score solve kept fewer
    than M directions (n_i < M, or a direction cut by the score kernel's
    floor). ``n_guard_kept`` counts the (score step, subject) pairs in which
    the score guard kept a subject's previous scores, along the path the
    trace records: each stage's winning start, then the sweeps.
    ``stage_capped`` marks each stage whose winning start stopped at the
    cycle cap, and ``sweeps_capped`` whether the sweeps stopped at theirs;
    ``converged`` is true exactly when neither happened.
    ``final_objective`` is the objective of the returned model, whose scores
    come from a final unguarded refit, so it can differ from the trace's
    last entry.
    """

    loss_trace: tuple[float, ...]
    converged: bool
    n_sweeps: int
    stage_cycles: tuple[int, ...] = ()
    sweep_objectives: tuple[float, ...] = ()
    stage_offsets: tuple[int, ...] = ()
    n_fallbacks: int = 0
    n_truncated: int = 0
    n_guard_kept: int = 0
    final_objective: float = math.nan
    stage_capped: tuple[bool, ...] = ()
    sweeps_capped: bool = False


@dataclass(frozen=True)
class FecModel:
    """Fitted orthonormal components with per-subject scores.

    ``coef`` is L x M: column m holds the basis coefficients of component m,
    G-orthonormal across columns. ``scores`` is n x M in dataset subject
    order.
    """

    basis: BasisSystem
    coef: np.ndarray
    scores: np.ndarray
    gammas: np.ndarray
    noise_var: float
    report: FitReport | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("coef", "scores", "gammas"):
            if not isinstance(getattr(self, name), np.ndarray):
                raise ValueError(f"{name} must be a numpy array, got {type(getattr(self, name)).__name__}")
        if self.coef.ndim != 2:
            raise ValueError(f"coef must be an (L, M) matrix, got shape {self.coef.shape}")
        L, M = self.coef.shape
        if M < 1 or L < M:
            raise ValueError(f"need 1 <= M <= L, got coef shape {self.coef.shape}")
        if L != self.basis.size:
            raise ValueError("coefficient rows do not match basis size")
        if self.scores.ndim != 2:
            raise ValueError(f"scores must be an (n, M) matrix, got shape {self.scores.shape}")
        if self.scores.shape[1] != M or self.gammas.shape != (M,):
            raise ValueError("scores/gammas do not match the number of components")
        if not (np.isfinite(self.gammas).all() and (self.gammas >= 0).all()):
            raise ValueError(f"gammas must be finite and >= 0, got {self.gammas.tolist()}")
        if not self.noise_var >= 0:  # not `<`: NaN fails every comparison
            raise ValueError(f"noise_var must be >= 0, got {float(self.noise_var)!r}")
        _freeze(self, "coef", "scores", "gammas")

    @property
    def n_components(self) -> int:
        return self.coef.shape[1]

    def component_values(self, grid) -> np.ndarray:
        """Values of every component at the grid points, shape (len(grid), M)."""
        return eval_basis_matrix(self.basis, grid) @ self.coef

    def orthonormality_error(self) -> float:
        """max |coef_m' G coef_l - delta_ml| over all component pairs."""
        return _orthonormality_error(self.coef, self.basis.gram)


def _orthonormality_error(coef: np.ndarray, gram: np.ndarray) -> float:
    """max |C'GC - I| over the columns of ``coef`` C; 0 for no columns."""
    return float(np.abs(coef.T @ gram @ coef - np.eye(coef.shape[1])).max(initial=0.0))


def validate_dataset(
    raw: Iterable[tuple[str, float, float]],
    domain: tuple[float, float] | None = None,
) -> LongitudinalDataset:
    """Group (id, t, y) triples into a validated dataset.

    Checks that each row has three fields, then hands the id, time and
    value columns to ``dataset_from_columns``, which makes the subjects; an
    error there names the row by its input index and repeats the caller's
    own value.

    Raises
    ------
    DataValidationError
        On a row without three fields, and on everything
        ``dataset_from_columns`` rejects, empty input included.
    """
    rows = list(raw)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if np.any(lengths != 3):
        idx = int(np.argmax(lengths != 3))
        raise DataValidationError(f"row {idx}: expected (id, t, y), got {rows[idx]!r}")
    ids, t, y = tuple(zip(*rows)) or ((), (), ())
    return dataset_from_columns(ids, t, y, domain)


def _given(column, idx):
    """Entry ``idx`` of a column as the caller gave it; a Python scalar for an array."""
    return column[idx].item() if isinstance(column, np.ndarray) else column[idx]


def dataset_from_columns(ids, t, y, domain: tuple[float, float] | None = None) -> LongitudinalDataset:
    """Group observation columns into a validated dataset.

    This is the one place where observations become subjects: row k is
    (``ids[k]``, ``t[k]``, ``y[k]``). Rows are grouped by subject id
    (``str(id)``) and sorted ascending by time within each subject (stable,
    so exact time ties keep their input order). Subjects are ordered by id
    as ``sorted()`` orders strings, making the result independent of input
    row order. The domain defaults to (0, max observed t) when not supplied.
    The subjects' arrays are read-only slices of two sorted copies, so the
    caller's columns are neither kept nor changed.

    Raises
    ------
    DataValidationError
        On empty or unequal columns, non-finite values or out-of-domain
        times; the message names the first offending row index, and for a
        row with a non-finite time and value, the time. It repeats the
        offending value as the caller gave it (as a Python float when the
        column is an array).
    """
    t_in, y_in = t, y
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    if t.shape != (len(ids),) or y.shape != (len(ids),):
        raise DataValidationError(
            f"ids, t and y must be columns of equal length, got {len(ids)} ids "
            f"and shapes {t.shape} and {y.shape}"
        )
    if not len(ids):
        raise DataValidationError("empty input: no observation rows")

    bad = ~np.isfinite(np.column_stack([t, y])).ravel()  # row by row, time before value
    if np.any(bad):
        idx, col = divmod(int(np.argmax(bad)), 2)
        raise DataValidationError(
            f"row {idx}: non-finite {('time', 'value')[col]} {_given((t_in, y_in)[col], idx)!r}"
        )

    if domain is None:
        domain = (0.0, t.max())
    lo, hi = float(domain[0]), float(domain[1])
    if lo >= hi:
        raise DataValidationError(f"invalid domain ({lo}, {hi})")
    outside = ~((lo <= t) & (t <= hi))
    if np.any(outside):
        idx = int(np.argmax(outside))
        raise DataValidationError(f"row {idx}: time {_given(t_in, idx)} outside domain [{lo}, {hi}]")

    sids = list(map(str, ids))
    names = sorted(set(sids))
    code_of = {sid: k for k, sid in enumerate(names)}
    codes = np.fromiter(map(code_of.__getitem__, sids), dtype=np.intp, count=len(sids))
    order = np.lexsort((t, codes))  # stable: by id, then time, then input order
    ends = np.cumsum(np.bincount(codes))[:-1]
    t, y = t[order], y[order]
    t.setflags(write=False)  # read-only slices need no views of their own in Subject
    y.setflags(write=False)
    subjects = tuple(map(Subject, names, np.split(t, ends), np.split(y, ends)))
    return LongitudinalDataset(domain=(lo, hi), subjects=subjects)


# ---------------------------------------------------------------------------
# CSV long format: header subject_id,t,y, one row per observation.
# ---------------------------------------------------------------------------

CSV_HEADER = ("subject_id", "t", "y")


def read_long_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a long-format CSV with the standard header into three columns.

    Returns ``(ids, t, y)``: the subject ids as strings and the times and
    values as float arrays, each converted by ``float()``, one entry per
    record in file order; blank lines and a UTF-8 byte-order mark (as Excel
    writes) are skipped. No per-record object is kept, so a large file
    leaves only the three columns behind. A header with no records gives
    empty columns, which ``dataset_from_columns`` rejects as empty input.

    Raises
    ------
    DataValidationError
        On a wrong or missing header, and on the first record in file order
        without three fields or with a field ``float()`` rejects (the time
        before the value); the message names the line the record starts on.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataValidationError(
                f"expected header {','.join(CSV_HEADER)}, got {header!r}"
            )
        ids, ts, ys = [], [], []
        try:
            for sid, t_text, y_text in filter(None, reader):
                ids.append(sid)
                ts.append(t_text)
                ys.append(y_text)
            t = np.fromiter(map(float, ts), dtype=float, count=len(ts))
            y = np.fromiter(map(float, ys), dtype=float, count=len(ys))
        except ValueError:
            fh.seek(0)
            _raise_first_bad_record(csv.reader(fh))
            raise
    return ids, t, y


def _raise_first_bad_record(reader) -> None:
    """Raise the error of the first record, after the header, that has not
    three fields or a time or value ``float()`` rejects, naming the
    physical line on which the record starts (a quoted field may span
    lines, so this is not the record count)."""
    next(reader)
    start = reader.line_num + 1
    for rec in reader:
        lineno, start = start, reader.line_num + 1
        if not rec:
            continue
        if len(rec) != 3:
            raise DataValidationError(f"line {lineno}: expected 3 fields, got {len(rec)}")
        try:
            float(rec[1]), float(rec[2])
        except ValueError as exc:
            raise DataValidationError(f"line {lineno}: {exc}") from exc


def write_csv(path, header, columns) -> None:
    """Write equal-length columns under a header row.

    Every value of a numpy-array column is written as its ``repr``, which
    reads back bitwise; other columns, such as subject ids, are written as
    they are.
    """
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray) else col for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def write_long_csv(path, rows: Iterable[tuple[str, float, float]]) -> None:
    ids, t, y = tuple(zip(*rows)) or ((), (), ())
    write_csv(path, CSV_HEADER, [ids, np.asarray(t, dtype=float), np.asarray(y, dtype=float)])


def dataset_to_rows(dataset: LongitudinalDataset) -> list[tuple[str, float, float]]:
    return [(s.id, float(t), float(y)) for s in dataset.subjects for t, y in zip(s.t, s.y)]


# ---------------------------------------------------------------------------
# Model JSON document. The basis is stored as its defining parameters only;
# gram/penalty matrices are recomputed on load (bit-exact: same quadrature).
# ---------------------------------------------------------------------------


# the layout of a model document; a file without the key is version 1
_SCHEMA_VERSION = 1


def model_to_dict(model: FecModel) -> dict:
    L, M = model.coef.shape
    doc = {
        "schema_version": _SCHEMA_VERSION,
        "basis": {
            "domain": [model.basis.domain[0], model.basis.domain[1]],
            "order": model.basis.order,
            "interior_knots": model.basis.interior_knots.tolist(),
        },
        "l": L,
        "m": M,
        "coef": model.coef.ravel(order="F").tolist(),
        "scores": model.scores.tolist(),
        "gammas": np.asarray(model.gammas, dtype=float).tolist(),
        "noise_var": float(model.noise_var),
    }
    if model.report is not None:
        doc["report"] = asdict(model.report)
    return doc


def _name(key: str, section: str | None) -> str:
    return f"{section}.{key}" if section else key


def _field(doc, key: str, section: str | None = None):
    """``doc[key]`` from a model document or one of its sections; a
    ValueError names what is missing."""
    if not isinstance(doc, dict):
        raise ValueError(f"model {section or 'document'} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"model document lacks key {_name(key, section)!r}")
    return doc[key]


def _converted(doc, key: str, convert, section: str | None = None, default=MISSING):
    """``convert(doc[key])``; a wrongly typed value raises a ValueError naming
    the key; ``default`` fills a missing key."""
    if default is not MISSING and isinstance(doc, dict) and key not in doc:
        return default
    value = _field(doc, key, section)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"model key {_name(key, section)!r} has an invalid value: {exc}") from exc


def _number(value):
    """``value`` if it is a number; a string, a boolean or null raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return value


def _as_int(value) -> int:
    if not float(_number(value)).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value) -> float:
    return float(_number(value))


def _as_bool(value) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected true or false, got {value!r}")
    return bool(value)


def _as_floats(value) -> np.ndarray:
    """A number, or nested lists of numbers, as a float array."""
    for item in np.asarray(value, dtype=object).flat:
        _number(item)
    return np.asarray(value, dtype=float)


def _finite(doc, key: str, section: str | None = None, convert=_as_floats):
    """``doc[key]`` as a float array (or through ``convert``), all entries finite."""
    value = _converted(doc, key, convert, section)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"model key {_name(key, section)!r} has a non-finite value")
    return value


_AS_SCALAR = {bool: _as_bool, int: _as_int, float: _as_float}


def _converter(hint):
    """The function that reads a JSON value back as type ``hint``: a scalar
    type, or a tuple of one item type read from a list. A bool is only a
    JSON boolean, an int only an integral number and a float only a number."""
    if get_origin(hint) is tuple:
        item = _AS_SCALAR[get_args(hint)[0]]

        def convert(values):
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"expected a list, got {values!r}")
            return tuple(map(item, values))

        return convert
    return _AS_SCALAR[hint]


# a fitted model's coefficients are G-orthonormal to about 1e-16
_MAX_ORTHONORMALITY_ERROR = 1e-8


def model_from_dict(doc: dict) -> FecModel:
    """Rebuild a fitted model from ``model_to_dict`` output.

    The document comes from outside the program, so each of these raises a
    ValueError that names the key: a missing key, a value of the wrong type
    (a bool field takes only a JSON boolean, an int only an integral number
    and a float only a number, in a list as alone; a string never passes),
    a non-finite or negative ``gammas`` or ``noise_var``, a non-finite
    ``coef`` or ``scores``, a ``coef`` or ``scores`` whose shape does not
    match ``l`` and ``m``, and a ``coef`` whose columns are not
    G-orthonormal to 1e-8; so does a basis that ``make_bspline_basis``
    would reject, and a ``schema_version`` other than 1 (a file without one
    is read as version 1). The report's fields are those of ``FitReport``:
    one missing from an older file loads as the field's default, and a key
    that is no field (such as ``tolerance_used``) is ignored.
    """
    b = _field(doc, "basis")
    version = doc.get("schema_version", _SCHEMA_VERSION)
    if type(version) is not int or version != _SCHEMA_VERSION:
        raise ValueError(
            f"model key 'schema_version' is {version!r}; only version {_SCHEMA_VERSION} can be read"
        )
    domain = _finite(b, "domain", "basis")
    if domain.shape != (2,):
        raise ValueError(f"model key 'basis.domain' has shape {domain.shape}, expected (2,)")
    lo, hi = float(domain[0]), float(domain[1])
    if lo >= hi:
        raise ValueError(f"model key 'basis.domain' is ({lo}, {hi}), not an interval")
    L, M = _converted(doc, "l", _as_int), _converted(doc, "m", _as_int)
    order = _converted(b, "order", _as_int, "basis")
    if order < 2:
        raise ValueError(f"model key 'basis.order' is {order}, expected >= 2")
    if L < order:
        raise ValueError(f"model key 'l' is {L}, below basis.order {order}")
    knots = _finite(b, "interior_knots", "basis")
    if knots.shape != (L - order,):
        raise ValueError(
            f"model key 'basis.interior_knots' has shape {knots.shape}, "
            f"expected ({L - order},) for l={L}, order={order}"
        )
    if np.any(knots <= lo) or np.any(knots >= hi) or np.any(np.diff(knots) <= 0):
        raise ValueError("model key 'basis.interior_knots' is not strictly increasing inside basis.domain")
    basis = make_bspline_basis((lo, hi), L, order, interior_knots=knots)
    coef = _finite(doc, "coef")
    if coef.shape != (L * M,):
        raise ValueError(f"model key 'coef' has shape {coef.shape}, expected ({L * M},) for l={L}, m={M}")
    # C-contiguous so downstream BLAS calls match the freshly fitted model bitwise
    coef = np.ascontiguousarray(coef.reshape((L, M), order="F"))
    scores = _finite(doc, "scores")
    if scores.ndim != 2 or scores.shape[1] != M:
        raise ValueError(f"model key 'scores' has shape {scores.shape}, expected (n, {M}) for m={M}")
    report = None
    if "report" in doc:
        r, hints = doc["report"], get_type_hints(FitReport)
        report = FitReport(
            **{
                f.name: _converted(r, f.name, _converter(hints[f.name]), "report", f.default)
                for f in fields(FitReport)
            }
        )
    model = FecModel(
        basis=basis,
        coef=coef,
        scores=scores,
        gammas=_finite(doc, "gammas"),
        noise_var=_finite(doc, "noise_var", convert=_as_float),
        report=report,
    )
    err = model.orthonormality_error()
    if err > _MAX_ORTHONORMALITY_ERROR:
        raise ValueError(
            f"model key 'coef' is not G-orthonormal: error {err:.3g} exceeds {_MAX_ORTHONORMALITY_ERROR:g}"
        )
    return model


def _write_json(doc, path=None) -> None:
    """Write ``doc`` as every JSON file of the program is written (indent 2,
    sorted keys, final newline), to ``path`` or, without one, to stdout."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_model(model: FecModel, path) -> None:
    _write_json(model_to_dict(model), path)


def load_model(path) -> FecModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
