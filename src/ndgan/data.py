"""Datasets: synthetic ring benchmarks, IDX and numeric-CSV ingestion,
label subsampling, and image downscaling.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass

import numpy as np

from .densities import GaussianMixtureDensity
from .errors import FormatError, ValidationError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray | None  # (n,) int64 in 0..K-1, or None for unlabeled data
    K: int
    provenance: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {self.features.shape}")
        if np.any(~np.isfinite(self.features)):
            raise ValidationError("features contain NaN/Inf")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValidationError(
                    f"labels shape {self.labels.shape} does not match {self.features.shape[0]} rows"
                )
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.K):
                raise ValidationError(
                    f"labels must lie in 0..{self.K - 1}, got range [{self.labels.min()}, {self.labels.max()}]"
                )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def gen_ring_mixture(
    n: int, component_count: int, radius: float, sigma: float, seed: int
) -> tuple[Dataset, GaussianMixtureDensity]:
    """Equal-weight Gaussians at angles 2*pi*i/C on a circle of the given radius.

    Returns the samples (labels = component index) together with the exact
    density, so analytic oracles can score what was sampled. Sample counts
    are balanced across components (n//C each, remainder spread), then
    shuffled; the density itself is the equal-weight mixture.
    """
    if component_count < 2:
        raise ValidationError(f"component_count must be >= 2, got {component_count}")
    if radius <= 0 or sigma <= 0:
        raise ValidationError(f"radius and sigma must be positive, got {radius}, {sigma}")
    if n < component_count:
        raise ValidationError(f"n={n} is smaller than component_count={component_count}")

    angles = 2.0 * np.pi * np.arange(component_count) / component_count
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    density = GaussianMixtureDensity(
        weights=np.full(component_count, 1.0 / component_count),
        means=means,
        variances=np.full((component_count, 2), sigma**2),
    )

    rng = np.random.default_rng(seed)
    counts = np.full(component_count, n // component_count)
    counts[: n % component_count] += 1
    labels = np.repeat(np.arange(component_count), counts)
    feats = means[labels] + sigma * rng.standard_normal((n, 2))
    order = rng.permutation(n)
    data = Dataset(
        features=feats[order],
        labels=labels[order],
        K=component_count,
        provenance=f"ring(n={n},C={component_count},r={radius},sigma={sigma},seed={seed})",
    )
    return data, density


# ---------------------------------------------------------------------------
# IDX (big-endian dimension fields, unsigned byte payload)
# ---------------------------------------------------------------------------


def _read_u32be(fh, source, what):
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(source, f"truncated while reading {what}", offset=fh.tell() - len(raw))
    return struct.unpack(">I", raw)[0]


def read_idx(path) -> Dataset:
    """Read an IDX image tensor; images are flattened and scaled to [0, 1]."""
    source = str(path)
    with open(path, "rb") as fh:
        magic = _read_u32be(fh, source, "magic")
        if magic != IDX_MAGIC_IMAGES:
            raise FormatError(source, f"bad magic 0x{magic:08x}, expected 0x{IDX_MAGIC_IMAGES:08x}", offset=0)
        count = _read_u32be(fh, source, "item count")
        if count == 0:
            raise FormatError(source, "no images (item count 0)", offset=4)
        rows = _read_u32be(fh, source, "row count")
        cols = _read_u32be(fh, source, "column count")
        expected = count * rows * cols
        payload = fh.read()
    if len(payload) != expected:
        raise FormatError(source, f"truncated payload: expected {expected} bytes, got {len(payload)}", offset=16)
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return Dataset(
        features=pixels.reshape(count, rows * cols),
        labels=None,
        K=0,
        provenance=f"idx:{source}",
    )


def read_idx_labels(path) -> np.ndarray:
    source = str(path)
    with open(path, "rb") as fh:
        magic = _read_u32be(fh, source, "magic")
        if magic != IDX_MAGIC_LABELS:
            raise FormatError(source, f"bad magic 0x{magic:08x}, expected 0x{IDX_MAGIC_LABELS:08x}", offset=0)
        count = _read_u32be(fh, source, "item count")
        if count == 0:
            raise FormatError(source, "no labels (item count 0)", offset=4)
        payload = fh.read()
    if len(payload) != count:
        raise FormatError(source, f"truncated payload: expected {count} bytes, got {len(payload)}", offset=8)
    return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)


# ---------------------------------------------------------------------------
# numeric CSV
# ---------------------------------------------------------------------------


def _label_index(label_column, header, width: int) -> int | None:
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if header is None or label_column not in header[:width]:  # a header may name more columns than a row has
            raise ValidationError(f"label column {label_column!r} not among the {width} columns of header {header}")
        return header.index(label_column)
    label_idx = int(label_column)
    if not -width <= label_idx < width:
        raise ValidationError(f"label column index {label_idx} out of range for width {width}")
    return label_idx % width


def _is_header(cells) -> bool:
    try:
        [float(c) for c in cells]
    except ValueError:
        return True
    return False


# Bytes of an unquoted, space-free numeric CSV body. A body made of nothing
# else parses to the same values under np.loadtxt as under the cell parser;
# any other byte sends the file to the cell parser.
_PLAIN_BODY = b"0123456789.eE+-,\r\n"


def _read_csv_fast(path, label_column) -> tuple[np.ndarray, int | None] | None:
    """Vectorized read of a plain numeric CSV; None when it cannot vouch for the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    first, _, rest = raw.partition(b"\n")
    first = first.removesuffix(b"\r")
    if not first or b'"' in first or b"\r" in first:
        return None
    try:
        cells = first.decode("utf-8").split(",")
        header = [c.strip() for c in cells] if _is_header(cells) else None
        body = rest if header is not None else raw
        if body.translate(None, _PLAIN_BODY) or not body.strip(b"\r\n"):
            return None
        values = np.loadtxt(io.StringIO(body.decode("ascii"), newline=None), delimiter=",",
                            comments=None, ndmin=2)
    except ValueError:  # a cell loadtxt rejects, a ragged row, or undecodable bytes
        return None
    return values, _label_index(label_column, header, values.shape[1])


def _read_csv_cells(source: str, label_column) -> tuple[np.ndarray, int | None]:
    """Cell-by-cell read that reports the row and column of a bad cell."""
    with open(source, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(source, f"not UTF-8 text (byte 0x{raw[exc.start]:02x})", offset=exc.start) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [r for r in reader if r]
    except csv.Error as exc:  # a cell past csv's field limit
        raise FormatError(source, f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(source, "empty file")

    header = None
    if _is_header(rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise FormatError(source, "no data rows after header")

    width = len(rows[0])
    label_idx = _label_index(label_column, header, width)
    values = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(source, f"row {i}: ragged row has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            if "," in cell:
                raise FormatError(source, f"row {i}, column {j}: locale separators are not supported ({cell!r})")
            try:
                values[i, j] = float(cell.strip())
            except ValueError:
                raise FormatError(source, f"row {i}, column {j}: non-numeric cell {cell!r}") from None
    return values, label_idx


def read_csv_dataset(path, label_column: int | str | None = None) -> tuple[Dataset, dict | None]:
    """Rectangular numeric CSV -> Dataset.

    A non-numeric first row is treated as a header. Label values are
    remapped to contiguous 0..K-1; the original->contiguous mapping is
    returned alongside the dataset (None when there is no label column).
    Plain numeric files take a vectorized path; everything else, malformed
    files included, goes through the cell parser, which locates errors.
    """
    source = str(path)
    values, label_idx = _read_csv_fast(path, label_column) or _read_csv_cells(source, label_column)
    if label_idx is None:
        return Dataset(values, None, K=0, provenance=f"csv:{source}"), None

    raw_labels = values[:, label_idx]
    if not np.isfinite(raw_labels).all():  # NaN != NaN: it could name no class
        raise FormatError(source, f"row {int(np.argmin(np.isfinite(raw_labels)))}: non-finite label")
    feats = np.delete(values, label_idx, axis=1)
    distinct, labels = np.unique(raw_labels, return_inverse=True)
    mapping = {orig: i for i, orig in enumerate(distinct.tolist())}
    data = Dataset(feats, labels, K=len(distinct), provenance=f"csv:{source}")
    return data, mapping


TABLE_CHUNK_ROWS = 2048  # rows whose cells write_table's fast path holds as text at once
_PLAIN_CELLS = {int, float, type(None)}


def _plain(column) -> bool:
    """Whether every cell of ``column`` is an int, a float or None, cells ``str`` writes as csv does."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind  # a longdouble's tolist keeps numpy scalars
        return column.ndim == 1 and (kind in "iu" or kind == "f" and column.dtype.itemsize <= 8)
    return set(map(type, column)) <= _PLAIN_CELLS


def _cells(chunk):
    """The text of each cell of a plain column's chunk: ``str``, and None as an empty cell."""
    if isinstance(chunk, np.ndarray):
        chunk = chunk.tolist()
    return map(str, chunk) if None not in chunk else ["" if v is None else str(v) for v in chunk]


def write_table(path, header, columns):
    """CSV of a header row and equal-length columns, byte for byte as csv.writer writes them:
    a float is its ``repr``, None an empty cell. A table of two or more columns of ints, floats
    and Nones skips the csv module: each chunk of ``TABLE_CHUNK_ROWS`` rows is formatted with
    ``str`` and joined. Text, bools and single columns, which csv may quote, go through it."""
    plain = len(columns) > 1 and all(map(_plain, columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        if not plain:
            w.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
            return
        for start in range(0, min(map(len, columns)), TABLE_CHUNK_ROWS):
            rows = zip(*(_cells(c[start : start + TABLE_CHUNK_ROWS]) for c in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def write_csv_dataset(path, data: Dataset):
    header = [f"x{j}" for j in range(data.dim)]
    columns = list(data.features.T)
    if data.labels is not None:
        header.append("label")
        columns.append(data.labels)
    write_table(path, header, columns)


# ---------------------------------------------------------------------------
# dataset bookkeeping
# ---------------------------------------------------------------------------


def subsample_labeled(data: Dataset, per_class: int, seed: int) -> Dataset:
    """Seeded per-class choice without replacement, in the rows' order."""
    if data.labels is None:
        raise ValidationError("subsample_labeled needs a labeled dataset")
    rng = np.random.default_rng(seed)
    chosen = []
    for c in range(data.K):
        idx = np.nonzero(data.labels == c)[0]
        if idx.size < per_class:
            raise ValidationError(f"class {c} has only {idx.size} examples, need {per_class}")
        chosen.append(rng.permutation(idx)[:per_class])
    chosen = np.sort(np.concatenate(chosen))
    return Dataset(data.features[chosen], data.labels[chosen], data.K, f"{data.provenance}|labeled")


def downscale_images(data: Dataset, side: int, target_side: int) -> Dataset:
    """Area-average each side x side image down to target_side x target_side."""
    if side * side != data.dim:
        raise ValidationError(f"feature width {data.dim} is not {side}x{side}")
    if not 1 <= target_side <= side:
        raise ValidationError(f"target side {target_side} must lie in 1..{side}")

    # 1-d box-overlap weights: W[i, j] = overlap of target cell i with source cell j
    ratio = side / target_side
    w = np.zeros((target_side, side))
    for i in range(target_side):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), min(side, int(np.ceil(hi)))):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    w /= ratio  # rows sum to 1: averaging, not summing

    # Each row's nonzero weights in ascending column order, padded with 0: each output pixel adds
    # (w[i,r] x[r,c]) w[j,c], r outer and c inner, as np.einsum("ir,nrc,jc->nij", w, imgs, w) does
    # (bit for bit, but for one 2x2 image to 1x1), without its n*target^2*side^2 multiply-adds.
    m = int((w != 0).sum(axis=1).max())
    idx = np.argsort(w == 0, axis=1, kind="stable")[:, :m]
    wt = np.take_along_axis(w, idx, axis=1)
    imgs = data.features.reshape(data.n, side, side)
    small = np.zeros((data.n, target_side, target_side))
    for a in range(m):
        rows = wt[:, a, None] * imgs[:, idx[:, a], :]
        for b in range(m):
            small += rows[:, :, idx[:, b]] * wt[:, b]
    return Dataset(
        features=small.reshape(data.n, target_side * target_side),
        labels=None if data.labels is None else data.labels.copy(),
        K=data.K,
        provenance=f"{data.provenance}|downscaled{side}->{target_side}",
    )
