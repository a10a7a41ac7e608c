import csv
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ndgan import data as dio
from ndgan.densities import GridDensity
from ndgan.errors import FormatError, ValidationError


# ---------------------------------------------------------------------------
# ring mixture
# ---------------------------------------------------------------------------


def test_ring_sample_mean_is_near_origin():
    data, _ = dio.gen_ring_mixture(10_000, 8, 2.0, 0.2, seed=1)
    assert np.linalg.norm(data.features.mean(axis=0)) < 0.05 * 2.0


def test_ring_has_all_component_labels():
    data, _ = dio.gen_ring_mixture(8 * 20, 8, 2.0, 0.2, seed=2)
    assert set(np.unique(data.labels)) == set(range(8))
    counts = np.bincount(data.labels)
    assert counts.max() - counts.min() <= 1  # balanced by construction


def test_ring_is_seed_deterministic():
    a, _ = dio.gen_ring_mixture(500, 4, 1.0, 0.1, seed=3)
    b, _ = dio.gen_ring_mixture(500, 4, 1.0, 0.1, seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_ring_rejects_fewer_samples_than_components():
    with pytest.raises(ValidationError):
        dio.gen_ring_mixture(5, 8, 2.0, 0.2, seed=0)


def test_ring_samples_lie_on_their_declared_manifold():
    data, density = dio.gen_ring_mixture(5000, 8, 2.0, 0.2, seed=4)
    lo = -(2.0 + 4 * 0.2)
    grid = GridDensity.from_density(density, [[lo, -lo], [lo, -lo]], (200, 200))
    grid_log = np.log(np.maximum(grid.values, 1e-300)).ravel()
    cutoff = np.quantile(grid_log, 0.001)
    sample_log = density.logpdf(data.features)
    assert np.mean(sample_log > cutoff) >= 0.99


# ---------------------------------------------------------------------------
# IDX
# ---------------------------------------------------------------------------


def test_read_idx_parses_the_format_defined_example(tmp_path):
    path = tmp_path / "imgs.idx"
    payload = bytes(range(24))  # 2 items of 3x4 pixels
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 4) + payload)
    data = dio.read_idx(path)
    assert data.features.shape == (2, 12)
    assert data.features[1, 11] == pytest.approx(23 / 255.0)


def test_idx_pixel_255_maps_to_one(tmp_path):
    path = tmp_path / "one.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 1, 1, 1) + bytes([255]))
    assert dio.read_idx(path).features[0, 0] == 1.0


def test_truncated_idx_reports_expected_vs_actual(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 4) + bytes(10))
    with pytest.raises(FormatError) as err:
        dio.read_idx(path)
    assert "24" in str(err.value) and "10" in str(err.value)


def test_idx_bad_magic_is_rejected_with_offset(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x12345678, 1, 1, 1) + bytes(1))
    with pytest.raises(FormatError) as err:
        dio.read_idx(path)
    assert err.value.offset == 0


def test_idx_round_trip_is_bit_exact_for_byte_quantized_data(tmp_path, rng):
    raw = rng.integers(0, 256, size=(7, 16), dtype=np.uint8)
    original = raw.astype(np.float64) / 255.0
    img_path, lab_path = tmp_path / "x.idx", tmp_path / "y.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, 7, 4, 4) + raw.tobytes())
    labels = rng.integers(0, 10, size=7)
    lab_path.write_bytes(struct.pack(">II", 0x00000801, 7) + labels.astype(np.uint8).tobytes())
    again = dio.read_idx(img_path)
    assert np.array_equal(again.features, original)
    assert np.array_equal(dio.read_idx_labels(lab_path), labels)
    # quantizing what was read gives back the payload bytes
    pixels = np.clip(np.round(again.features * 255.0), 0, 255).astype(np.uint8)
    assert img_path.read_bytes()[16:] == pixels.tobytes()


def test_idx_labels_magic_is_checked(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">II", 0x00000803, 1) + bytes(1))
    with pytest.raises(FormatError):
        dio.read_idx_labels(path)


_IDX_FILES = {  # reader -> the bytes of a valid file, and the (name, offset) of each field
    "images": (dio.read_idx, struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)),
               [("magic", 0), ("item count", 4), ("row count", 8), ("column count", 12), ("payload", 16)]),
    "labels": (dio.read_idx_labels, struct.pack(">II", 0x801, 3) + bytes([0, 1, 0]),
               [("magic", 0), ("item count", 4), ("payload", 8)]),
}


@pytest.mark.parametrize("kind", sorted(_IDX_FILES))
def test_an_idx_file_with_trailing_bytes_fails_at_the_first_extra_byte(tmp_path, kind):
    read, raw, _ = _IDX_FILES[kind]
    path = tmp_path / "long.idx"
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(FormatError) as err:
        read(path)
    assert err.value.offset == len(raw) and "trailing bytes" in str(err.value)


@pytest.mark.parametrize("kind", sorted(_IDX_FILES))
def test_an_idx_file_cut_inside_a_field_names_the_field_and_its_offset(tmp_path, kind):
    read, raw, fields = _IDX_FILES[kind]
    path = tmp_path / "cut.idx"
    for name, at in fields:
        for cut in (at, at + 1):  # none of the field, or part of it
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as err:
                read(path)
            assert err.value.offset == at, (name, cut)
            assert f"truncated {name}: expected" in str(err.value) and f"got {cut - at}" in str(err.value)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_without_labels(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    data = dio.read_csv_dataset(path)
    assert data.features.shape == (3, 2)
    assert data.labels is None and data.K == 0


def test_csv_label_remap_is_reported(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("x0,x1,label\n0.5,1.0,3\n0.25,2.0,7\n0.1,3.0,3\n")
    data = dio.read_csv_dataset(path, label_column="label")
    assert data.K == 2  # 3 -> 0 and 7 -> 1
    assert data.labels.tolist() == [0, 1, 0]
    assert data.features.shape == (3, 2)


def test_csv_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        dio.read_csv_dataset(path)


def test_csv_ragged_and_non_numeric_errors_carry_location(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(FormatError) as err:
        dio.read_csv_dataset(ragged)
    assert "row 1" in str(err.value)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,2\n3,oops\n")
    with pytest.raises(FormatError) as err:
        dio.read_csv_dataset(alpha)
    assert "row 1" in str(err.value) and "column 1" in str(err.value)


def test_csv_round_trip_preserves_values(tmp_path, rng):
    data, _ = dio.gen_ring_mixture(40, 4, 2.0, 0.3, seed=9)
    path = tmp_path / "ring.csv"
    dio.write_csv_dataset(path, data)
    again = dio.read_csv_dataset(path, label_column="label")
    assert np.array_equal(again.features, data.features)  # repr round-trips float64
    assert np.array_equal(again.labels, data.labels)


def test_a_label_column_that_looks_like_an_index_is_a_column_name(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("a,0,label\n1.5,7,2\n2.5,9,2\n")
    data = dio.read_csv_dataset(path, label_column="0")
    assert data.labels.tolist() == [0, 1] and data.K == 2
    assert data.features.tolist() == [[1.5, 2.0], [2.5, 2.0]]
    with pytest.raises(ValidationError, match="label column '1' not among"):
        dio.read_csv_dataset(path, label_column="1")


def _csv_outcome(path, label_column):
    """What read_csv_dataset gives: every bit of the Dataset, or the exception."""
    try:
        data = dio.read_csv_dataset(path, label_column)
    except Exception as exc:
        return type(exc), str(exc)
    labels = None if data.labels is None else data.labels.tobytes()
    return data.features.tobytes(), data.features.shape, labels, data.K, data.provenance


def _cell_parser_outcome(path, label_column, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(dio, "_read_csv_fast", lambda *args: None)
        return _csv_outcome(path, label_column)


def _image_csv(path, rng, n=30):
    table = np.column_stack([rng.uniform(size=(n, 5)), rng.integers(0, 4, size=n)])
    np.savetxt(path, table, fmt=["%.6g"] * 5 + ["%d"], delimiter=",",
               header="a,b,c,d,e,label", comments="")


@pytest.mark.parametrize("kind,label_column", [
    (kind, col) for kind in ("repr-crlf", "savetxt-%.6g", "no-header", "blank-lines")
    for col in (None, "label", "2", "-1") if not (kind == "no-header" and col == "label")
])
def test_csv_fast_path_is_bit_identical_to_cell_parser(tmp_path, rng, monkeypatch, kind, label_column):
    path = tmp_path / "in.csv"
    if kind == "repr-crlf":  # csv.writer rows end in \r\n
        dio.write_csv_dataset(path, dio.gen_ring_mixture(40, 4, 2.0, 0.3, seed=9)[0])
    elif kind == "savetxt-%.6g":
        _image_csv(path, rng)
    elif kind == "no-header":
        np.savetxt(path, rng.normal(size=(20, 3)) * 1e3, fmt="%.17g", delimiter=",")
    else:
        path.write_text("x,y,label\n\n1.5,-2e-3,1\n\n\n3,4,0\n")
    assert dio._read_csv_fast(path) is not None  # the fast path took the file
    assert _csv_outcome(path, label_column) == _cell_parser_outcome(path, label_column, monkeypatch)


@pytest.mark.parametrize("text", [
    'x,y\n"1",2\n',  # quoted cell
    '"y",x\n1,2\n',  # quoted header cell
    'x,y\n"1,5",2\n',  # locale separator inside quotes
    "x,y\n#1,2\n",  # a cell starting with #
    "1,2\n#3,4\n",
    "x,y\n1,2\n   \n3,4\n",  # whitespace-only line
    "1\n \n2\n",
    "x,y\n1,2\n3\n",  # ragged
    "x,y\n1,2,3\n",
    "1,5\n1,5,6\n",
    "x,y\n",  # header only
    "x,y\n\r\n",
    "x,y\n1_000,2\n",  # underscore digits: float() takes them, loadtxt does not
    "x,y\n1,,2\n",
    "x,y\n1,2,\n",
    "x,y\n1e,2\n",
    "x,y\nnan,2\n",
    "x,y\ninf,2\n",
    "x,y\n 1,2\n",
    "x,y\n1e999,2\n",  # overflows to inf
    "x,y\n-0,+.5e-3\n",
    "x,y\r1,2\r3,4\r",  # old Mac line ends
    "",
    "\n\n",
])
@pytest.mark.parametrize("label_column", [None, "y", "0", "5"])  # a number-like name is a name, not an index
def test_csv_fast_path_matches_cell_parser_on_odd_files(tmp_path, monkeypatch, text, label_column):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode())
    assert _csv_outcome(path, label_column) == _cell_parser_outcome(path, label_column, monkeypatch)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.text(alphabet="0123456789.eE+-,\r\n _#a\"", max_size=40),
       header=st.sampled_from(["", "x,y\n", "x,y\r\n", "x\n"]),
       label_column=st.sampled_from([None, "y", "0", "-1"]))
def test_csv_fast_path_matches_cell_parser_on_random_text(tmp_path, monkeypatch, body, header, label_column):
    path = tmp_path / "fuzz.csv"
    path.write_bytes((header + body).encode())
    assert _csv_outcome(path, label_column) == _cell_parser_outcome(path, label_column, monkeypatch)


_EDGE_FLOATS = [
    float("inf"), -float("inf"), float("nan"), -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,  # repr turns to exponent form at 1e16
    0.0001, 9.999999999999999e-05, 0.00010000000000000002, -1e-4,  # ... and below 1e-4
]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
_TEXT = st.text(alphabet='a1.,"\r\n -', max_size=6)
_CELLS = {  # column kind -> the cells one column of that kind repeats
    "int": st.integers(),
    "float": _FLOATS,
    "number-or-none": st.one_of(st.none(), st.integers(), _FLOATS),
    "bool": st.one_of(st.booleans(), st.integers(0, 1)),
    "text": st.one_of(_TEXT, st.floats(), st.none()),
    "int64": st.integers(-2**63, 2**63 - 1),
    "uint8": st.integers(0, 255),
    "float64": _FLOATS,
    "float32": st.floats(width=32),
    "ndbool": st.booleans(),
    "range": st.integers(-2**40, 2**40),  # the range's start
}
_ROWS = [0, 1, 2, 7, dio.TABLE_CHUNK_ROWS - 1, dio.TABLE_CHUNK_ROWS, dio.TABLE_CHUNK_ROWS + 1,
         2 * dio.TABLE_CHUNK_ROWS + 3]


@st.composite
def _table(draw):
    n = draw(st.sampled_from(_ROWS))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=4)):
        cells = draw(st.lists(_CELLS[kind], min_size=1, max_size=9))
        if kind == "range":
            columns.append(range(cells[0], cells[0] + n))
        elif kind in ("int64", "uint8", "float64", "float32"):
            columns.append(np.resize(np.array(cells, dtype=kind), n))
        elif kind == "ndbool":
            columns.append(np.resize(np.array(cells, dtype=bool), n))
        else:
            columns.append((cells * n)[:n])
    header = draw(st.lists(_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_table())
@example(table=(["a"], [[None, 1, 2.5]]))  # csv quotes a row's only cell when it is empty
@example(table=(["a", "b"], [[None] * 3, (None, -0.0, 1e16)]))
@example(table=(["i", "x"], [range(dio.TABLE_CHUNK_ROWS + 1), np.linspace(-1e-3, 1e-3, dio.TABLE_CHUNK_ROWS + 1)]))
def test_write_table_writes_the_bytes_csv_writer_writes(tmp_path, table):
    header, columns = table
    dio.write_table(tmp_path / "table.csv", header, columns)
    with open(tmp_path / "csv.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


# ---------------------------------------------------------------------------
# subsampling and downscaling
# ---------------------------------------------------------------------------


def test_subsample_labeled_is_balanced_and_deterministic():
    data, _ = dio.gen_ring_mixture(800, 8, 2.0, 0.2, seed=5)
    labeled = dio.subsample_labeled(data, 25, seed=6)
    assert labeled.n == 8 * 25
    assert np.all(np.bincount(labeled.labels) == 25)
    again = dio.subsample_labeled(data, 25, seed=6)
    assert np.array_equal(labeled.features, again.features)


def test_subsample_whole_class_leaves_empty_remainder():
    data, _ = dio.gen_ring_mixture(80, 4, 2.0, 0.2, seed=7)
    labeled = dio.subsample_labeled(data, 20, seed=0)
    assert labeled.n == 80  # every row is taken, in the rows' order
    assert np.array_equal(labeled.features, data.features) and np.array_equal(labeled.labels, data.labels)


def test_subsample_insufficient_class_names_the_class():
    data, _ = dio.gen_ring_mixture(80, 4, 2.0, 0.2, seed=8)
    with pytest.raises(ValidationError) as err:
        dio.subsample_labeled(data, 21, seed=0)
    assert "class 0" in str(err.value)


def test_downscale_constant_image_stays_constant():
    data = dio.Dataset(np.full((3, 36), 0.7), None, 0)
    small = dio.downscale_images(data, 6, 3)
    np.testing.assert_allclose(small.features, 0.7, atol=1e-15)


def test_downscale_2x2_checkerboard_to_single_mean_pixel():
    data = dio.Dataset(np.array([[0.0, 1.0, 1.0, 0.0]]), None, 0)
    small = dio.downscale_images(data, 2, 1)
    assert small.features.tolist() == [[0.5]]


def test_downscale_preserves_unit_range(rng):
    data = dio.Dataset(rng.uniform(size=(5, 28 * 28)), None, 0)
    small = dio.downscale_images(data, 28, 14)
    assert small.features.min() >= 0.0 and small.features.max() <= 1.0
    # divisible case reduces to exact 2x2 block means
    img = data.features[0].reshape(28, 28)
    blocks = img.reshape(14, 2, 14, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(small.features[0].reshape(14, 14), blocks, atol=1e-12)


def test_downscale_handles_non_divisible_sides():
    data = dio.Dataset(np.arange(25, dtype=float).reshape(1, 25) / 25.0, None, 0)
    small = dio.downscale_images(data, 5, 2)
    assert small.features.shape == (1, 4)
    assert small.features.min() >= 0.0 and small.features.max() <= 1.0


def _box_weights(side, target):
    """The dense 1-d area-average weights: W[i, j] = overlap of target cell i with source cell j, / ratio."""
    ratio = side / target
    w = np.zeros((target, side))
    for i in range(target):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), min(side, int(np.ceil(hi)))):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    return w / ratio


@pytest.mark.parametrize("n", [1, 3])
def test_downscale_matches_the_dense_einsum_bit_for_bit(n):
    """The reference is the dense einsum that downscale_images ran before its
    sparse kernel, checked at every size pair up to 30, on pixels in [0, 1]
    and on signed N(0, 10^2) values."""
    rng = np.random.default_rng(n)
    for side in range(1, 31):
        for target in range(1, side + 1):
            w = _box_weights(side, target)
            for imgs in (rng.uniform(size=(n, side, side)), rng.normal(0.0, 10.0, size=(n, side, side))):
                got = dio.downscale_images(dio.Dataset(imgs.reshape(n, -1), None, 0), side, target).features
                ref = np.einsum("ir,nrc,jc->nij", w, imgs, w)
                if (n, side, target) == (1, 2, 1):
                    # The one exception: for one 2x2 image to 1x1 the einsum sums each source
                    # row apart, then adds the two sums; the kernel adds term by term.
                    p = (w[0, :, None] * imgs[0]) * w[0]
                    assert ref[0, 0, 0] == (p[0, 0] + p[0, 1]) + (p[1, 0] + p[1, 1])
                    ref = np.array([[((p[0, 0] + p[0, 1]) + p[1, 0]) + p[1, 1]]])
                assert got.tobytes() == ref.reshape(n, -1).tobytes(), (side, target)


def test_downscale_rejects_non_square_width():
    data = dio.Dataset(np.zeros((2, 10)), None, 0)
    with pytest.raises(ValidationError):
        dio.downscale_images(data, 3, 2)


def test_dataset_rejects_nan_and_bad_labels():
    with pytest.raises(ValidationError):
        dio.Dataset(np.array([[np.nan]]), None, 0)
    with pytest.raises(ValidationError):
        dio.Dataset(np.zeros((2, 1)), np.array([0, 5]), K=2)
