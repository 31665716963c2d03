"""Datasets, labels, deterministic splits, and column metadata.

A :class:`Dataset` is an immutable row-major float matrix partitioned into
x, y, and z column groups.  Categorical columns are stored as integer codes
in a float slot; their cardinality lives in the column descriptor so that
downstream encoders can one-hot them without a separate code path.

All randomness in the toolkit flows from a single 64-bit seed.  Subsystems
derive independent streams with :func:`derive_rng`, keyed by a string label,
so that any stage can be reproduced in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import SchemaMismatch, TooFewRows

MASK64 = (1 << 64) - 1

#: Master seed of a TestConfig, and of the CLI when no seed is given.
DEFAULT_SEED = 20180618


def require_number(name: str, value, integer: bool = False):
    """Return ``value`` if it is a number (an integer when ``integer``) but not a bool; never coerce."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Return an independent generator for ``label`` under the master seed.

    The label is hashed with blake2s (stable across runs and platforms,
    unlike the built-in ``hash``) and mixed with the seed through numpy's
    SeedSequence, so distinct labels give statistically independent streams
    and identical (seed, label) pairs always give identical streams.
    """
    tag = int.from_bytes(hashlib.blake2s(label.encode(), digest_size=8).digest(), "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed & MASK64, tag]))


@dataclass(frozen=True)
class Column:
    """Descriptor for one data column."""

    name: str
    kind: str = "continuous"  # "continuous" | "categorical"
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "categorical"):
            raise SchemaMismatch(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "categorical":
            if self.cardinality is not None:
                require_number(f"cardinality of {self.name!r}", self.cardinality, integer=True)
            if self.cardinality is None or self.cardinality < 2:
                raise SchemaMismatch(f"categorical column {self.name!r} needs cardinality >= 2")
        elif self.cardinality is not None:
            raise SchemaMismatch(f"continuous column {self.name!r} cannot carry a cardinality")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _row_index(rows) -> np.ndarray:
    """``rows`` as an index array; booleans and fractions are refused, not cast."""
    idx = np.asarray(rows)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"row selectors must be integers, got {idx.dtype}")
    return idx.astype(np.intp, copy=False)


@dataclass(frozen=True)
class Dataset:
    """n rows of (x, y, z) blocks with per-column kind.

    Column order inside ``data`` is x columns, then y, then z.  Instances
    are immutable (frozen dataclass + read-only array) and safe to share
    across threads.
    """

    x_cols: tuple[Column, ...]
    y_cols: tuple[Column, ...]
    z_cols: tuple[Column, ...]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_cols", tuple(self.x_cols))
        object.__setattr__(self, "y_cols", tuple(self.y_cols))
        object.__setattr__(self, "z_cols", tuple(self.z_cols))
        object.__setattr__(self, "data", _as_readonly(self.data))
        cols = self.columns
        if self.data.ndim != 2 or self.data.shape[1] != len(cols):
            raise SchemaMismatch(
                f"data shape {self.data.shape} does not match {len(cols)} declared columns"
            )
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names")
        if not np.all(np.isfinite(self.data)):
            raise SchemaMismatch("dataset contains NaN or Inf cells")
        for j, col in enumerate(cols):
            if col.kind == "categorical":
                v = self.data[:, j]
                if v.size and (np.any(v != np.floor(v)) or v.min() < 0 or v.max() >= col.cardinality):
                    raise SchemaMismatch(
                        f"categorical column {col.name!r} has codes outside [0, {col.cardinality})"
                    )

    @property
    def columns(self) -> tuple[Column, ...]:
        return self.x_cols + self.y_cols + self.z_cols

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_x(self) -> int:
        return len(self.x_cols)

    @property
    def n_y(self) -> int:
        return len(self.y_cols)

    @property
    def n_z(self) -> int:
        return len(self.z_cols)

    def x_block(self) -> np.ndarray:
        return self.data[:, : self.n_x]

    def y_block(self) -> np.ndarray:
        return self.data[:, self.n_x : self.n_x + self.n_y]

    def z_block(self) -> np.ndarray:
        return self.data[:, self.n_x + self.n_y :]

    def take(self, rows) -> "Dataset":
        """Row subset (copy), preserving the order given in ``rows``."""
        return replace(self, data=self.data[_row_index(rows)])

    def with_y(self, values: np.ndarray) -> "Dataset":
        """Replace the y block, keeping the y column descriptors."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape != (self.n_rows, self.n_y):
            raise SchemaMismatch(f"y block shape {values.shape} does not match schema")
        data = np.hstack([self.x_block(), values, self.z_block()])
        return Dataset(self.x_cols, self.y_cols, self.z_cols, data)


@dataclass(frozen=True)
class LabeledDataset:
    """A dataset with binary provenance labels: 1 = original rows, 0 = mimicked."""

    base: Dataset
    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int8)
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)
        if lab.shape != (self.base.n_rows,):
            raise SchemaMismatch("labels must be one per row")
        if lab.size and not np.all((lab == 0) | (lab == 1)):
            raise SchemaMismatch("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    def take(self, rows) -> "LabeledDataset":
        idx = _row_index(rows)
        return LabeledDataset(self.base.take(idx), self.labels[idx])


def split_three_way(ds: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition rows into three disjoint sets of size ~n/3.

    Sizes are floor(n/3) each; remainder rows go to the first set, then the
    second.  The same (seed, n) always yields the same partition.
    """
    n = ds.n_rows
    if n < 9:
        raise TooFewRows(f"three-way split needs at least 9 rows, got {n}")
    perm = derive_rng(seed, "split-three-way").permutation(n)
    base, rem = divmod(n, 3)
    sizes = (base + (1 if rem >= 1 else 0), base + (1 if rem >= 2 else 0), base)
    cut = sizes[0] + sizes[1]
    return perm[: sizes[0]], perm[sizes[0] : cut], perm[cut:]


def drop_x(ds: Dataset) -> Dataset:
    """Dataset with all x columns removed; y, z untouched."""
    return Dataset((), ds.y_cols, ds.z_cols, ds.data[:, ds.n_x :])


def strip_x(labeled: LabeledDataset) -> LabeledDataset:
    """Remove the x block from a labeled dataset, keeping rows and labels."""
    return LabeledDataset(drop_x(labeled.base), labeled.labels)


def concat(a: LabeledDataset, b: LabeledDataset) -> LabeledDataset:
    """Stack two labeled datasets with identical schemas."""
    if a.base.columns != b.base.columns:
        raise SchemaMismatch("cannot concat datasets with different schemas")
    data = np.vstack([a.base.data, b.base.data])
    labels = np.concatenate([a.labels, b.labels])
    ds = Dataset(a.base.x_cols, a.base.y_cols, a.base.z_cols, data)
    return LabeledDataset(ds, labels)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------
#
# Dataset CSV: header names prefixed x_/y_/z_; optional sidecar JSON
#   {"columns": {"z_1": {"kind": "categorical", "cardinality": 3}}}
# maps column names to kinds.  Absent sidecar means all continuous; a
# sidecar path that is given must exist, hold exactly that shape (no other
# keys at either level) and name only columns of the CSV.
# Cell values are written with repr() so finite floats round-trip bit-exactly.


def _format_cell(v: float, col: Column) -> str:
    if col.kind == "categorical":
        return str(int(v))
    return repr(float(v))


def write_dataset(ds: Dataset, path, sidecar_path=None) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        cols = ds.columns
        w.writerow([c.name for c in cols])
        for row in ds.data:
            w.writerow([_format_cell(v, c) for v, c in zip(row, cols)])
    if sidecar_path is not None:
        meta = {
            "columns": {
                c.name: {"kind": c.kind, "cardinality": c.cardinality}
                for c in ds.columns
                if c.kind != "continuous"
            }
        }
        Path(sidecar_path).write_text(json.dumps(meta, sort_keys=True, indent=2))


def _read_sidecar(sidecar_path) -> dict:
    if sidecar_path is None:
        return {}
    where = f"sidecar {str(sidecar_path)!r}"
    p = Path(sidecar_path)
    if not p.is_file():
        raise SchemaMismatch(f"{where} does not exist")
    meta = json.loads(p.read_text())
    if not isinstance(meta, dict) or set(meta) != {"columns"} or not isinstance(meta["columns"], dict):
        raise SchemaMismatch(f'{where} must be {{"columns": {{name: {{"kind": ..., "cardinality": ...}}}}}}')
    for name, spec in meta["columns"].items():
        if not isinstance(spec, dict) or not set(spec) <= {"kind", "cardinality"}:
            raise SchemaMismatch(f"{where}: column {name!r} must map to an object of 'kind' and 'cardinality'")
    return meta["columns"]


def read_dataset(path, sidecar_path=None) -> Dataset:
    """Read the prefixed-header Dataset CSV, applying sidecar column kinds."""
    header, data, cols = read_table(path, sidecar_path)
    groups: dict[str, list[int]] = {"x_": [], "y_": [], "z_": []}
    for j, name in enumerate(header):
        if name[:2] not in groups:
            raise SchemaMismatch(f"column {name!r} is not prefixed x_/y_/z_")
        groups[name[:2]].append(j)
    # The x block comes first, then y, then z, each in file order.
    x, y, z = (tuple(cols[header[j]] for j in groups[p]) for p in ("x_", "y_", "z_"))
    return Dataset(x, y, z, data[:, groups["x_"] + groups["y_"] + groups["z_"]])


def read_table(path, sidecar_path=None) -> tuple[list[str], np.ndarray, dict[str, Column]]:
    """Read a plain named-column CSV (the relation-driver data format).

    No prefix convention: the relation file decides which columns play x, y,
    and z.  Returns (names, matrix, name->Column map).
    """
    meta = _read_sidecar(sidecar_path)
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{str(path)!r} has no header row")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaMismatch(
                    f"data row {len(rows) + 1} (line {reader.line_num}) has {len(row)} cells, "
                    f"the header has {len(header)}"
                )
            values = []
            for name, cell in zip(header, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SchemaMismatch(
                        f"data row {len(rows) + 1} (line {reader.line_num}), column {name!r}: "
                        f"{cell!r} is not a number"
                    ) from None
            rows.append(values)
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaMismatch(f"duplicate column name(s) in the CSV header: {', '.join(repeated)}")
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    unknown = sorted(set(meta) - set(header))
    if unknown:
        raise SchemaMismatch(f"sidecar names column(s) the CSV lacks: {', '.join(unknown)}")
    cols = {name: Column(name, **meta.get(name, {})) for name in header}
    return list(header), data, cols


@dataclass(frozen=True)
class Relation:
    """One row of a relation file: test x against y given the z column set."""

    x: str
    y: str
    z: tuple[str, ...]
    label: str  # "CI" | "NOTCI"

    def __post_init__(self):
        # A column tested against itself would read as independent.
        names = (self.x, self.y, *self.z)
        twice = sorted({n for n in names if names.count(n) > 1})
        if twice:
            row = f"{self.x},{self.y},{';'.join(self.z)}"
            raise SchemaMismatch(f"relation {row} names column(s) more than once: {', '.join(twice)}")


def read_relations(path) -> list[Relation]:
    """Read the relation CSV: columns X,Y,Z,label with Z a ;-separated list."""
    out = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("X", "Y", "label") if c not in (reader.fieldnames or ())]
        if missing:
            raise SchemaMismatch(f"relation file lacks column(s): {', '.join(missing)}")
        repeated = sorted({name for name in reader.fieldnames if reader.fieldnames.count(name) > 1})
        if repeated:
            raise SchemaMismatch(f"duplicate column name(s) in the relation header: {', '.join(repeated)}")
        for i, row in enumerate(reader, start=1):
            short = [name for name in reader.fieldnames if row[name] is None]
            if short:
                raise SchemaMismatch(
                    f"relation row {i} (line {reader.line_num}) lacks column(s): {', '.join(short)}"
                )
            if None in row:
                raise SchemaMismatch(
                    f"relation row {i} (line {reader.line_num}) has {len(reader.fieldnames) + len(row[None])} "
                    f"cells, the header has {len(reader.fieldnames)}"
                )
            label = row["label"].strip()
            if label not in ("CI", "NOTCI"):
                raise SchemaMismatch(f"relation label must be CI or NOTCI, got {label!r}")
            z_raw = (row.get("Z") or "").strip()
            z = tuple(s.strip() for s in z_raw.split(";") if s.strip())
            out.append(Relation(x=row["X"].strip(), y=row["Y"].strip(), z=z, label=label))
    return out
