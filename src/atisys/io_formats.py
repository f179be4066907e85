"""File formats: trajectory CSV, system/plant JSON, polynomial-matrix JSON.

Trajectory CSV has the header ``t,w1,...,wq`` and one row per time step with
``t`` running 1..T.  The input/output split is not part of the CSV; it comes
from a sidecar JSON descriptor ``{"m": ..., "labels": [...]}`` next to the
file (same stem, ``.json`` suffix) or from an explicit argument, which wins.

Polynomial matrices serialize as ``{"rows", "cols", "entries"}`` where
``entries[i][j]`` lists the exact coefficients of entry (i, j) ascending by
degree as ``"num/den"`` strings.  A kernel representation adds ``"c"``: a
flat list for a constant offset, or a list of per-time rows for an offset
sequence on a window.  Coefficients and offsets are integers or ``"num/den"``
strings (:mod:`atisys.poly`'s rule); any other JSON number is a FormatError.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

import numpy as np

from .affine_ss import AffineStateSpace
from .errors import AtisysError, DimensionMismatch, NonFiniteEntry
from .kernelrep import AffineKernelRep, OffsetSequence
from .plants import NonlinearPlant, expr_from_json
from .poly import Poly, _fraction
from .polymatrix import PolyMatrix
from .trajectories import Trajectory


class FormatError(AtisysError):
    """A file does not match its documented schema."""


# -- trajectories ------------------------------------------------------


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def read_trajectory_csv(
    path, m: int | None = None, all_inputs: bool = False
) -> Trajectory:
    """Load a trajectory; the split ``m`` falls back to the sidecar, then 0.

    ``all_inputs=True`` treats every variable as an input, which is what the
    excitation tests expect.  Blank lines are skipped; ``#`` starts no
    comment.  The time column must hold exactly 1..T (``2.0`` reads as 2,
    ``2.5`` is an error).  Every failure raises :class:`FormatError`, naming
    the 1-based data row where there is one, or the sidecar when that is
    malformed.
    """
    path = Path(path)
    with path.open() as fh:  # universal newlines: loadtxt sees "\n" line ends only
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if not header or header[0].strip() != "t":
            raise FormatError(f"{path}: header must start with 't'")
        q = len(header) - 1
        if q < 1:
            raise FormatError(f"{path}: no variable columns")
        body = fh.read()
    if not body.strip():
        raise FormatError(f"{path}: no samples")
    # loadtxt takes its field count from the first row; hold that row to the header
    fields = len(next(csv.reader([body.lstrip("\n").partition("\n")[0]])))
    if fields != q + 1:
        raise FormatError(f"{path}: row 1 has {fields} fields, the header has {q + 1}")
    try:
        table = np.loadtxt(
            io.StringIO(body), delimiter=",", comments=None, quotechar='"', ndmin=2
        )
    except ValueError as exc:
        raise _body_error(path, exc) from None
    t = table[:, 0]
    bad = np.flatnonzero(t != np.arange(1, len(t) + 1))
    if bad.size:
        row = int(bad[0]) + 1
        raise FormatError(
            f"{path}: time column must run 1..T, found {t[row - 1]:g} at row {row}"
        )
    labels = None
    if m is None and not all_inputs:
        side = sidecar_path(path)
        if side.exists():
            m, labels = _read_sidecar(side, q)
    data = table[:, 1:]
    if all_inputs:
        return Trajectory.inputs(data, labels=labels)
    return Trajectory(data, m=0 if m is None else int(m), labels=labels)


def _read_json(path, what: str) -> dict:
    """The JSON object in a file; bad JSON, bad text or another type is a FormatError."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bad text encoding
        raise FormatError(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return doc


def _read_sidecar(side: Path, q: int) -> tuple[int | None, list | None]:
    """The split ``m`` and the labels of a sidecar, checked against q variables."""
    meta = _read_json(side, "sidecar")
    m, labels = meta.get("m"), meta.get("labels")
    if m is not None and (type(m) is not int or not 0 <= m <= q):
        raise FormatError(f"{side}: sidecar 'm' must be an integer in [0, {q}], got {m!r}")
    if labels is not None and (type(labels) is not list or len(labels) != q):
        raise FormatError(f"{side}: sidecar 'labels' must be a list of {q} names")
    return m, labels


# numpy names the data row in its loadtxt errors, counting from 0 in a failed
# conversion and from 1 in a changed field count
_NUMPY_ROW = re.compile(r"(.*?) at row (\d+)")


def _body_error(path, exc: ValueError) -> FormatError:
    """The FormatError for a loadtxt failure, with a 1-based data row."""
    message = str(exc)
    found = _NUMPY_ROW.match(message)
    if found is None:
        return FormatError(f"{path}: {message}")
    reason, row = found.group(1), int(found.group(2))
    if reason.startswith("could not convert"):
        row += 1
    return FormatError(f"{path}: row {row}: {reason}")


def write_trajectory_csv(path, w: Trajectory, write_sidecar: bool = True):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"w{i + 1}" for i in range(w.q)])
        for t in range(w.length):
            writer.writerow([t + 1] + [repr(float(v)) for v in w.data[t]])
    if write_sidecar:
        meta = {"m": w.m}
        if w.labels:
            meta["labels"] = list(w.labels)
        sidecar_path(path).write_text(json.dumps(meta) + "\n")


# -- state-space and plant JSON ---------------------------------------


def system_to_json(sys: AffineStateSpace) -> dict:
    return {
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
        "E": sys.E.tolist(),
        "F": sys.F.tolist(),
    }


def system_from_json(doc: dict) -> AffineStateSpace:
    try:
        return AffineStateSpace(
            doc["A"], doc["B"], doc["C"], doc["D"], doc["E"], doc["F"]
        )
    except KeyError as exc:
        raise FormatError(f"system JSON missing field {exc}") from None
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise FormatError(f"system JSON invalid: {exc}") from None


def read_system_json(path) -> AffineStateSpace:
    return system_from_json(_read_json(path, "system JSON"))


def write_system_json(path, sys: AffineStateSpace):
    Path(path).write_text(json.dumps(system_to_json(sys), indent=2) + "\n")


def plant_from_json(doc: dict) -> NonlinearPlant:
    try:
        f = tuple(expr_from_json(e) for e in doc["f"])
        h = tuple(expr_from_json(e) for e in doc["h"])
        return NonlinearPlant(f=f, h=h, n=int(doc["n"]), m=int(doc["m"]))
    except KeyError as exc:
        raise FormatError(f"plant JSON missing field {exc}") from None
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise FormatError(f"plant JSON invalid: {exc}") from None


def read_plant_json(path) -> NonlinearPlant:
    return plant_from_json(_read_json(path, "plant JSON"))


# -- polynomial matrices and kernel representations --------------------


def poly_to_strings(p: Poly) -> list[str]:
    return [str(c) for c in p.coefficients]


def poly_matrix_to_json(R: PolyMatrix) -> dict:
    g, q = R.shape
    return {
        "rows": g,
        "cols": q,
        "entries": [[poly_to_strings(R.entry(i, j)) for j in range(q)] for i in range(g)],
    }


def poly_matrix_from_json(doc: dict) -> PolyMatrix:
    try:
        g, q = int(doc["rows"]), int(doc["cols"])
        entries = doc["entries"]
        shaped = len(entries) == g and all(len(row) == q for row in entries)
    except KeyError as exc:
        raise FormatError(f"matrix JSON missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"matrix JSON invalid: {exc}") from None
    if not shaped:
        raise FormatError("matrix JSON entries do not match the declared shape")
    try:
        rows = [[Poly(cell) for cell in row] for row in entries]
    except (TypeError, ValueError, NonFiniteEntry) as exc:
        raise FormatError(f"bad rational coefficient: {exc}") from None
    return PolyMatrix(rows, ncols=q)


def read_poly_matrix_json(path) -> PolyMatrix:
    return poly_matrix_from_json(_read_json(path, "matrix JSON"))


def kernel_rep_to_json(rep: AffineKernelRep) -> dict:
    doc = poly_matrix_to_json(rep.R)
    doc["c"] = [str(v) for v in rep.c]
    return doc


def kernel_rep_from_json(doc: dict) -> tuple[PolyMatrix, object]:
    """Parse a kernel representation; the offset may be constant or a window.

    Returns ``(R, c)`` where ``c`` is an :class:`AffineKernelRep`-ready tuple
    for a flat ``"c"`` list, or an :class:`OffsetSequence` when ``"c"`` is a
    list of per-time rows.
    """
    R = poly_matrix_from_json(doc)
    if "c" not in doc:
        raise FormatError("kernel JSON missing offset field 'c'")
    raw = doc["c"]
    if not isinstance(raw, list):
        raise FormatError("kernel JSON offset 'c' must be a list")
    try:
        if raw and isinstance(raw[0], list):
            return R, OffsetSequence(raw)
        return R, tuple(_fraction(v) for v in raw)
    except (TypeError, ValueError, NonFiniteEntry) as exc:
        raise FormatError(f"bad rational offset: {exc}") from None


def read_kernel_json(path):
    return kernel_rep_from_json(_read_json(path, "kernel JSON"))


def write_kernel_json(path, rep: AffineKernelRep):
    Path(path).write_text(json.dumps(kernel_rep_to_json(rep), indent=2) + "\n")
