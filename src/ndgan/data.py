"""Datasets: synthetic ring benchmarks, IDX and numeric-CSV ingestion,
label subsampling, and image downscaling.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .densities import GaussianMixtureDensity
from .errors import FormatError, ValidationError, read_bytes, read_struct

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


_IDX_DIMS = ("item count", "row count", "column count")


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """The payload bytes of the IDX file at ``path``, one row per item. The magic number's low
    byte gives the number of dimensions."""
    source = str(path)
    with open(path, "rb") as fh:
        (found,) = read_struct(fh, ">I", source, "magic")
        if found != magic:
            raise FormatError(source, f"bad magic 0x{found:08x}, expected 0x{magic:08x}", offset=0)
        dims = [read_struct(fh, ">I", source, name)[0] for name in _IDX_DIMS[: magic & 0xFF]]
        if dims[0] == 0:
            raise FormatError(source, f"no {what} (item count 0)", offset=4)
        payload = read_bytes(fh, math.prod(dims), source, "payload")
        if fh.read(1):
            raise FormatError(source, "trailing bytes after the payload", offset=fh.tell() - 1)
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims[0], math.prod(dims[1:]))


def read_idx(path) -> Dataset:
    """Read an IDX image tensor; images are flattened and scaled to [0, 1]."""
    pixels = _read_idx(path, IDX_MAGIC_IMAGES, "images")
    return Dataset(features=pixels.astype(np.float64) / 255.0, labels=None, K=0, provenance=f"idx:{path}")


def read_idx_labels(path) -> np.ndarray:
    return _read_idx(path, IDX_MAGIC_LABELS, "labels")[:, 0].astype(np.int64)


# ---------------------------------------------------------------------------
# numeric CSV
# ---------------------------------------------------------------------------


@contextmanager
def csv_rows(path):
    """The non-blank rows of the CSV file at ``path``, streamed. A FormatError at the offset of
    the first byte that is not UTF-8, or naming the line of a cell past csv's field limit."""
    source = str(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield filter(None, reader)
    except UnicodeDecodeError as exc:  # its offset counts from the decoded chunk: find it in the file
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise FormatError(source, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})", offset=exc.start) from None
    except csv.Error as exc:  # a cell past csv's field limit
        raise FormatError(source, f"line {reader.line_num}: {exc}") from None


def csv_header(cells) -> list[str] | None:
    """The stripped names of a CSV's first row; None when every cell is a number, so the row is data."""
    try:
        [float(c) for c in cells]
    except ValueError:
        return [c.strip() for c in cells]
    return None


# Bytes of an unquoted, space-free numeric CSV body. A body made of nothing
# else parses to the same values under np.loadtxt as under the cell parser;
# any other byte sends the file to the cell parser.
_PLAIN_BODY = b"0123456789.eE+-,\r\n"


def _read_csv_fast(path) -> tuple[np.ndarray, list[str] | None] | None:
    """Vectorized read of a plain numeric CSV; None when it cannot vouch for the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    first, _, rest = raw.partition(b"\n")
    first = first.removesuffix(b"\r")
    if not first or b'"' in first or b"\r" in first:
        return None
    try:
        header = csv_header(first.decode("utf-8").split(","))
        body = rest if header is not None else raw
        if body.translate(None, _PLAIN_BODY) or not body.strip(b"\r\n"):
            return None
        values = np.loadtxt(io.StringIO(body.decode("ascii"), newline=None), delimiter=",",
                            comments=None, ndmin=2)
    except ValueError:  # a cell loadtxt rejects, a ragged row, or undecodable bytes
        return None
    return values, header


def _read_csv_cells(source: str) -> tuple[np.ndarray, list[str] | None]:
    """Cell-by-cell read that reports the row and column of a bad cell."""
    with csv_rows(source) as rows:
        rows = list(rows)
    if not rows:
        raise FormatError(source, "empty file")
    header = csv_header(rows[0])
    if header is not None:
        rows = rows[1:]
        if not rows:
            raise FormatError(source, "no data rows after header")

    width = len(rows[0])
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
    return values, header


def read_csv_dataset(path, label_column: str | None = None) -> Dataset:
    """Rectangular numeric CSV -> Dataset.

    A non-numeric first row is treated as a header, which must name the
    label column if one is given. Label values are remapped to contiguous
    0..K-1 in ascending order. Plain numeric files take a vectorized path;
    everything else, malformed files included, goes through the cell
    parser, which locates errors.
    """
    source = str(path)
    values, header = _read_csv_fast(path) or _read_csv_cells(source)
    if label_column is None:
        return Dataset(values, None, K=0, provenance=f"csv:{source}")
    width = values.shape[1]
    if header is None or label_column not in header[:width]:  # a header may name more columns than a row has
        raise ValidationError(f"label column {label_column!r} not among the {width} columns of header {header}")
    label_idx = header.index(label_column)

    raw_labels = values[:, label_idx]
    if not np.isfinite(raw_labels).all():  # NaN != NaN: it could name no class
        raise FormatError(source, f"row {int(np.argmin(np.isfinite(raw_labels)))}: non-finite label")
    distinct, labels = np.unique(raw_labels, return_inverse=True)
    return Dataset(np.delete(values, label_idx, axis=1), labels, K=len(distinct), provenance=f"csv:{source}")


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
