"""Tabular dataset ingestion, scaling, splitting and cross-silo partitioning."""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._checks import check_range

# Skew decay of each partition scenario, from IID (1) to one class per client (0).
_DECAY = {"iid": 1.0, "light": 0.5, "moderate": 0.15, "severe": 0.0}
SCENARIOS = tuple(_DECAY)
TRAIN_FRACTION = 0.8  # the share of each class's rows that stratified_split puts in train


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with integer class labels.

    The Dataset adopts a read-only ndarray of the right dtype (float64
    features, int64 labels) that owns its data, without a copy; anything else
    is copied into a read-only array, so a caller's writable array or a view
    stays independent of the Dataset. Producers that build fresh arrays hand
    them over through ``frozen``.

    Attributes:
        features: (n_samples, n_features) float64 matrix.
        labels: (n_samples,) int64 vector with values in [0, len(class_names)).
        class_names: ordered names of the global class space.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = _adopt(self.features, np.float64)
        labs = _adopt(self.labels, np.int64)
        names = tuple(str(n) for n in self.class_names)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labs.shape}")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError(
                f"features have {feats.shape[0]} rows but labels have {labs.shape[0]} entries"
            )
        if not names:
            raise ValueError("class_names must not be empty")
        if not np.isfinite(feats).all():
            row, col = np.argwhere(~np.isfinite(feats))[0]
            raise ValueError(f"features must be finite; row {row}, column {col} is {feats[row, col]}")
        if labs.size and (labs.min() < 0 or labs.max() >= len(names)):
            raise ValueError(
                f"labels must lie in [0, {len(names)}), got range "
                f"[{labs.min()}, {labs.max()}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "class_names", names)

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts over the full class space."""
        return np.bincount(self.labels, minlength=self.n_classes)

    def select(self, indices: np.ndarray) -> "Dataset":
        """New Dataset holding a copy of the given rows, original untouched."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(frozen(self.features[idx]), frozen(self.labels[idx]), self.class_names)


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only, so a Dataset built from it adopts it without a copy.

    Only for an array its caller has just built and hands over: nothing else
    may hold it for writing.
    """
    array.setflags(write=False)
    return array


def _adopt(values, dtype: type) -> np.ndarray:
    """``values`` itself if a Dataset may keep it as is, else a read-only copy."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    return frozen(np.array(values, dtype=dtype))


# The N-BaIoT layout (Meidan et al., 2018): each CSV file holds one (device,
# class) capture of N_FEATURES columns, and its class is the first of
# CLASS_NAMES that appears in its lower-cased file name.
N_FEATURES = 115
CLASS_NAMES = ("benign", "gafgyt", "mirai")


def _class_for_file(name: str) -> int:
    lowered = name.lower()
    for class_id, class_name in enumerate(CLASS_NAMES):
        if class_name in lowered:
            return class_id
    raise ValueError(f"{name}: file name contains none of {', '.join(CLASS_NAMES)}")


def load_csv_dir(path: str | Path) -> Dataset:
    """Load every N-BaIoT-layout CSV file under ``path`` into one Dataset.

    Files are read in sorted name order and rows in file order, so the result
    is deterministic. Values are kept bit-exact (no scaling applied here).
    Each file is checked as it is read, so loading stops at the first bad row
    in file-name order and reads no file after it.

    Raises:
        FileNotFoundError: missing directory.
        ValueError: no CSV files, unmatched file name, bytes that are not
            UTF-8, a NUL character, column count mismatch (a blank line
            counts as a row of 0 columns), or a non-numeric or non-finite
            cell (the error names the file and row).
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"no such data directory: {root}")
    files = sorted(p for p in root.iterdir() if p.suffix.lower() == ".csv")
    if not files:
        raise ValueError(f"no CSV files found under {root}")

    blocks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for file in files:
        class_id = _class_for_file(file.name)
        block = _read_csv_file(file)
        blocks.append(block)
        labels.append(np.full(len(block), class_id, dtype=np.int64))
    return Dataset(frozen(np.concatenate(blocks)), frozen(np.concatenate(labels)), CLASS_NAMES)


def _read_csv_file(file: Path) -> np.ndarray:
    """One file's samples as an (n, N_FEATURES) float64 array; row 1 is the header."""
    data = file.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        row = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{file.name} row {row}: not UTF-8 text ({err.reason})") from None
    if "\0" in text:  # before Python 3.11, csv.reader fails on it naming no file or row
        row = text.count("\n", 0, text.index("\0")) + 1
        raise ValueError(f"{file.name} row {row}: NUL character")
    handle = io.StringIO(text, newline="")
    header = next(csv.reader(handle), None)
    if header is None:
        raise ValueError(f"{file.name}: empty file")
    if len(header) != N_FEATURES:
        raise ValueError(
            f"{file.name}: column count mismatch (got {len(header)}, expects {N_FEATURES})"
        )
    # The reader consumed exactly the header record, so the rest is the body.
    body = handle.read()
    block = _parse_body(body)
    if block is None:
        block = _read_rows(file.name, body)
    if not np.isfinite(block).all():
        row, col = np.argwhere(~np.isfinite(block))[0]
        raise ValueError(f"{file.name} row {row + 2}: non-finite cell {block[row, col]}")
    return block


def _parse_body(body: str) -> np.ndarray | None:
    """Parse every row with one np.loadtxt; None where only the row reader decides.

    loadtxt and ``float()`` share CPython's correctly rounded decimal parser,
    so every file loadtxt takes gives the same bits. loadtxt skips blank
    lines, which the row reader rejects, and reads a carriage return
    otherwise than csv does. Files with either, and every file loadtxt
    refuses or shapes otherwise, go to the row reader, the only source of
    file and row error messages.
    """
    if "\r" in body:
        return None
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "" in lines:
        return None
    if not lines:
        return np.empty((0, N_FEATURES))
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return block if block.shape == (len(lines), N_FEATURES) else None


def _read_rows(name: str, body: str) -> np.ndarray:
    """Parse the body record by record, naming the file, row and cell of the first bad one."""
    values: list[float] = []
    for row_no, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if len(row) != N_FEATURES:
            raise ValueError(
                f"{name} row {row_no}: column count mismatch (got {len(row)}, expects {N_FEATURES})"
            )
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"{name} row {row_no}: non-numeric cell {cell!r}") from None
    return np.array(values, dtype=np.float64).reshape(-1, N_FEATURES)


def min_max_scale(ds: Dataset) -> Dataset:
    """Map every column onto [0, 1] by (x - lo) / (hi - lo).

    ``lo`` and ``hi`` are the column minima and maxima of ``ds`` alone. A
    column with ``hi == lo`` maps to 0.0 everywhere, which keeps the
    transform defined and idempotent.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot scale an empty dataset")
    lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = ds.features - lo
    scaled /= safe
    scaled[:, span == 0] = 0.0
    return Dataset(frozen(scaled), ds.labels, ds.class_names)


def stratified_split(ds: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded per-class split into (train, test).

    Each class present contributes floor(TRAIN_FRACTION * n_c) samples
    (at least 1) to train and the remainder to test. Classes absent from
    ``ds`` are skipped; a class with a single sample cannot be split.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot split an empty dataset")
    counts = ds.class_counts().tolist()
    if 1 in counts:
        raise ValueError(f"class {ds.class_names[counts.index(1)]!r} has 1 sample(s); "
                         "need at least 2 to split")
    n_train = [max(1, math.floor(TRAIN_FRACTION * n)) if n else 0 for n in counts]
    train, test = _cut(ds, [n_train, np.subtract(counts, n_train)], seed)
    return ds.select(np.sort(train)), ds.select(np.sort(test))


def build_partition_plan(
    scenario: str,
    class_counts: np.ndarray | list[int],
    n_clients: int,
) -> tuple[tuple[int, ...], ...]:
    """Quota table for one of the four built-in scenarios.

    Row ``k`` holds client ``k``'s sample count of each class. With ``C``
    classes and ``n_c`` samples of class ``c``, client ``k`` gets
    ``floor(n_c * w_kc / sum_j w_jc)`` of class ``c``, where
    ``w_kc = decay ** ((c - k) mod C)``: client ``k`` favours class
    ``k mod C`` and the weight of every other class decays with its distance.
    The decay is 1.0 for iid (equal shares), 0.5 for light, 0.15 for moderate
    and 0.0 for severe (``0.0 ** 0 == 1``, so client ``k`` holds only class
    ``k mod C``). A class no client favours under severe (fewer clients than
    classes) has total weight 0 and goes to no client.
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    n_classes = counts.size
    check_range("n_clients", n_clients, "integer >= 1")
    if scenario not in _DECAY:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    weights = _DECAY[scenario] ** np.arange(n_classes, dtype=np.float64)
    total_w = [sum(weights[(c - j) % n_classes] for j in range(n_clients))
               for c in range(n_classes)]
    quotas = [
        [math.floor(counts[c] * weights[(c - k) % n_classes] / total_w[c]) if total_w[c] else 0
         for c in range(n_classes)]
        for k in range(n_clients)
    ]
    return tuple(tuple(row) for row in quotas)


def partition(ds: Dataset, quotas: Sequence[Sequence[int]], seed: int) -> list[Dataset]:
    """Give client ``k`` exactly ``quotas[k][c]`` samples of each class ``c``.

    Sampling is without replacement from a seeded shuffle of each class pool,
    so no sample lands on two clients and reruns are identical.

    Raises:
        ValueError: a row whose length is not the class count, a negative
            quota, or a class whose quotas exceed its samples (the message
            names the class and the shortfall).
    """
    for k, row in enumerate(quotas):
        if len(row) != ds.n_classes:
            raise ValueError(f"client {k}: quota row covers {len(row)} classes "
                             f"but dataset has {ds.n_classes}")
        if min(row) < 0:
            raise ValueError(f"client {k}: quotas must be non-negative")
    for class_id, available in enumerate(ds.class_counts().tolist()):
        need = sum(row[class_id] for row in quotas)
        if need > available:
            raise ValueError(
                f"unsatisfiable quota for class {ds.class_names[class_id]!r}: "
                f"requested {need}, available {available} (short {need - available})"
            )
    return [ds.select(idx) for idx in _cut(ds, quotas, seed)]


def _cut(ds: Dataset, quotas: Sequence[Sequence[int]], seed: int) -> list[np.ndarray]:
    """Row indices of each quota row: ``quotas[k][c]`` rows of each class ``c``.

    Each class's rows are shuffled once, by one generator seeded with
    ``seed`` in class order, and cut into consecutive runs in quota-row
    order, so no row lands in two runs. A class of 0 or 1 rows draws nothing
    from the generator.
    """
    rng = np.random.default_rng(seed)
    ends = np.cumsum(np.reshape(quotas, (-1, ds.n_classes)), axis=0)
    runs = [np.split(rng.permutation(np.flatnonzero(ds.labels == class_id)), ends[:, class_id])
            for class_id in range(ds.n_classes)]
    return [np.concatenate([pieces[k] for pieces in runs]) for k in range(len(ends))]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a desk-scale synthetic classification dataset."""

    n_classes: int
    dims: int
    cluster_spread: float
    samples_per_class: int
    clusters_per_class: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rule in (("n_classes", "integer >= 1"), ("dims", "integer >= 1"),
                           ("clusters_per_class", "integer >= 1"), ("cluster_spread", "> 0"),
                           ("samples_per_class", "integer >= 1"), ("seed", "integer >= 0")):
            check_range(name, getattr(self, name), rule)


def synthesize(spec: SyntheticSpec) -> Dataset:
    """Generate Gaussian-blob classes inside [0, 1]^dims, deterministically.

    Each class is a mixture of ``clusters_per_class`` isotropic blobs whose
    centers are drawn in [0, 1]^dims with a minimum-separation rejection pass
    so blobs of distinct classes do not sit on top of each other.
    """
    rng = np.random.default_rng(spec.seed)
    total_centers = spec.n_classes * spec.clusters_per_class
    min_sep = min(4.0 * spec.cluster_spread * math.sqrt(spec.dims), 0.5 * math.sqrt(spec.dims))
    centers = _place_centers(rng, total_centers, spec.dims, min_sep)

    features: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for class_id in range(spec.n_classes):
        class_centers = centers[
            class_id * spec.clusters_per_class : (class_id + 1) * spec.clusters_per_class
        ]
        counts = _split_evenly(spec.samples_per_class, spec.clusters_per_class)
        for center, count in zip(class_centers, counts):
            features.append(center + rng.normal(0.0, spec.cluster_spread, size=(count, spec.dims)))
        labels.append(np.full(spec.samples_per_class, class_id, dtype=np.int64))
    names = tuple(f"class_{c}" for c in range(spec.n_classes))
    return Dataset(frozen(np.vstack(features)), frozen(np.concatenate(labels)), names)


def _place_centers(rng: np.random.Generator, count: int, dims: int, min_sep: float) -> np.ndarray:
    centers = np.empty((count, dims))
    for i in range(count):
        candidate = rng.uniform(0.0, 1.0, size=dims)
        # Rejection capped at 100 tries so generation always terminates.
        for _ in range(100):
            if i == 0 or np.linalg.norm(centers[:i] - candidate, axis=1).min() >= min_sep:
                break
            candidate = rng.uniform(0.0, 1.0, size=dims)
        centers[i] = candidate
    return centers


def _split_evenly(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
