import csv
import gc
import hashlib
import io
import json
import math
import struct
import warnings
import weakref

import numpy as np
import pytest

from ndgan import blas, cli, densities, gan, scores
from ndgan import layers as nn
from ndgan import data as dio
from ndgan.errors import FormatError, SchemaError, ValidationError


def run(*argv):
    return cli.main(list(argv))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_config(tmp_path, **over):
    cfg = {
        "kind": "ring",
        "n_train": 600,
        "n_test": 300,
        "components": 4,
        "radius": 2.0,
        "sigma": 0.2,
        "novel": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": 0.3, "n": 300},
        "pi": 0.5,
        "seed": 11,
    }
    cfg.update(over)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


def train_config(tmp_path, data_dir, **over):
    cfg = {
        "dataset": {"path": str(data_dir / "train.csv"), "label_column": "label"},
        "arch": "2d",
        "train": {"total_steps": 300, "batch_size": 32, "labeled_fraction": 0.5, "log_every": 100},
        "seed": 13,
    }
    cfg.update(over)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train once; reused by the downstream command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir, model_dir = root / "data", root / "model"
    assert run("synth", "--config", str(synth_config(root)), "--out-dir", str(data_dir)) == 0
    assert run("train", "--config", str(train_config(root, data_dir)), "--out-dir", str(model_dir)) == 0
    return root, data_dir, model_dir


def test_synth_writes_expected_files_and_is_deterministic(tmp_path):
    cfg = synth_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--config", str(cfg), "--out-dir", str(out1)) == 0
    assert run("synth", "--config", str(cfg), "--out-dir", str(out2)) == 0
    for name in ("train.csv", "test.csv", "novel.csv", "density.json", "manifest.json"):
        assert (out1 / name).exists(), name
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert (
            a.replace(str(out1).encode(), b"") == b.replace(str(out2).encode(), b"")
        ), f"{name} differs between identical runs"
    with open(out1 / "train.csv") as fh:
        labels = {row["label"] for row in csv.DictReader(fh)}
    assert labels == {"0", "1", "2", "3"}


def test_seed_is_mandatory(tmp_path):
    cfg = synth_config(tmp_path)
    doc = json.loads(cfg.read_text())
    del doc["seed"]
    cfg.write_text(json.dumps(doc))
    assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = synth_config(tmp_path, typo_field=1)
    assert run("synth", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2


def test_train_writes_model_log_and_manifest(pipeline):
    _, _, model_dir = pipeline
    assert (model_dir / "model.ndgan").exists()
    assert (model_dir / "train_log.csv").exists()
    manifest = json.loads((model_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 13
    assert manifest["config"]["train"]["total_steps"] == 300


def test_train_rerun_from_manifest_is_bit_identical(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    assert "env" in json.loads((model_dir / "manifest.json").read_text())  # which the rerun ignores
    rerun = tmp_path / "rerun"
    assert run("train", "--config", str(model_dir / "manifest.json"), "--out-dir", str(rerun)) == 0
    assert sha256(rerun / "model.ndgan") == sha256(model_dir / "model.ndgan")
    assert sha256(rerun / "train_log.csv") == sha256(model_dir / "train_log.csv")


def test_train_and_eval_manifests_record_the_environment(pipeline, tmp_path):
    _, data_dir, model_dir = pipeline
    assert run("eval", "--config", str(_holdout_config(tmp_path, data_dir)), "--out-dir", str(tmp_path / "eval")) == 0
    assert run("score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "test.csv"),
               "--label-column", "label", "--scorers", "nd-gan-ratio", "--seed", "1",
               "--out-dir", str(tmp_path / "score")) == 0
    for manifest in (model_dir / "manifest.json", tmp_path / "score" / "manifest.json",
                     tmp_path / "eval" / "manifest.json"):
        env = json.loads(manifest.read_text())["env"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_threads", "nproc"}
        assert env["numpy"] == np.__version__ and env["nproc"] >= 1
        assert env["blas_threads"] == (1 if blas.openblas() else "not pinned")
    assert "env" not in json.loads((data_dir / "manifest.json").read_text())  # synth trains nothing


def test_train_missing_labels_with_labeled_fraction_fails_fast(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    cfg = train_config(tmp_path, data_dir)
    doc = json.loads(cfg.read_text())
    doc["dataset"].pop("label_column")  # features only
    cfg.write_text(json.dumps(doc))
    assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2


def test_train_divergence_exits_3(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    cfg = train_config(tmp_path, data_dir)
    doc = json.loads(cfg.read_text())
    doc["train"]["lr"] = 1e200  # overflows the row-norm square into NaN weights
    doc["train"]["total_steps"] = 50
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_atomic_write_failure_keeps_old_file_and_leaves_no_temp(tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_text("old\n")

    def failing(path):
        path.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._atomic(dest, failing)
    assert dest.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    cli._atomic(dest, lambda p: p.write_text("new\n"))
    assert dest.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


GEN_BLOCK = 6 + 5 + 14  # magic, version and kind, then the GAN header: the generator block starts here
K_FIELD, Z_DIM_FIELD = GEN_BLOCK - 14, GEN_BLOCK - 10  # the first two fields of the GAN header


@pytest.mark.parametrize("damage", ["trailing-bytes", "non-finite-weight", "zero-layer-generator",
                                    "huge-layer-dims", "K-not-discriminator-output", "z-dim-not-generator-input",
                                    "nan-noise-std", "inf-noise-std", "frozen-flag-7", "weight-norm-flag-7"])
def test_score_of_a_damaged_model_file_exits_2(pipeline, tmp_path, capsys, damage):
    root, data_dir, model_dir = pipeline
    raw = bytearray((model_dir / "model.ndgan").read_bytes())
    offset = None  # where the FormatError points
    if damage == "trailing-bytes":
        offset = len(raw)
        raw += b"\x00"
    elif damage == "non-finite-weight":
        raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last bias of the discriminator
    elif damage == "zero-layer-generator":
        raw[GEN_BLOCK : GEN_BLOCK + 4] = struct.pack("<I", 0)
        offset = GEN_BLOCK
    elif damage == "huge-layer-dims":  # a 2^32-1 x 2^32-1 first layer: its size in bytes overflows 64 bits
        raw[GEN_BLOCK + 4 : GEN_BLOCK + 12] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
        offset = GEN_BLOCK + 4 + struct.calcsize("<IIBBd")
    elif damage == "K-not-discriminator-output":  # well-formed blocks, but K+1 logits no longer fit K
        struct.pack_into("<I", raw, K_FIELD, struct.unpack_from("<I", raw, K_FIELD)[0] + 1)
        model, gen_block = gan.load_model(model_dir / "model.ndgan"), io.BytesIO()
        nn.write_mlp_block(gen_block, model.gen)
        offset = GEN_BLOCK + gen_block.tell()  # the discriminator block
    elif damage == "z-dim-not-generator-input":
        struct.pack_into("<I", raw, Z_DIM_FIELD, struct.unpack_from("<I", raw, Z_DIM_FIELD)[0] + 1)
        offset = GEN_BLOCK
    elif damage.endswith("noise-std"):  # generator layer 0, which scoring never runs
        offset = GEN_BLOCK + 4
        struct.pack_into("<d", raw, offset + struct.calcsize("<IIBB"), np.nan if damage[0] == "n" else np.inf)
    elif damage == "frozen-flag-7":  # the last byte of the GAN header
        offset = GEN_BLOCK - 1
        raw[offset] = 7
    else:  # generator layer 0's weight-norm flag, after its dims and activation code
        offset = GEN_BLOCK + 4 + struct.calcsize("<IIB")
        raw[offset] = 7
    bad = tmp_path / "bad.ndgan"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        gan.load_model(bad)
    assert err.value.offset == offset and err.value.source == str(bad)
    assert run(
        "score", "--model", str(bad), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio", "--seed", "1", "--out-dir", str(tmp_path / "out"),
    ) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("label_column", [None, "label"])
def test_score_of_a_non_utf8_csv_exits_2(pipeline, tmp_path, capsys, label_column):
    root, data_dir, model_dir = pipeline
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,x1,label\n0.5,\xff1.0,0\n")
    flags = [] if label_column is None else ["--label-column", label_column]
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(bad), *flags,
        "--scorers", "nd-gan-ratio", "--seed", "1", "--out-dir", str(tmp_path / "out"),
    ) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err and "Traceback" not in err
    with pytest.raises(FormatError) as caught:
        dio.read_csv_dataset(bad)
    assert caught.value.offset == 16


def test_one_score_call_makes_one_discriminator_pass_per_input_set(pipeline, tmp_path, monkeypatch):
    root, data_dir, model_dir = pipeline
    calls = []
    real_logits = gan.discriminator_logits

    def counting(model, x, *args):
        calls.append(x.shape)
        return real_logits(model, x, *args)

    monkeypatch.setattr(gan, "discriminator_logits", counting)
    out = tmp_path / "scored"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio,fake-prob,entropy,max-prob,knn-5",
        "--knn-reference", str(data_dir / "train.csv"), "--label-column", "label",
        "--seed", "1", "--out-dir", str(out),
    ) == 0
    monkeypatch.undo()
    x = dio.read_csv_dataset(data_dir / "novel.csv").features
    reference = dio.read_csv_dataset(data_dir / "train.csv", "label").features
    assert calls == [reference.shape, x.shape]  # the kNN reference once, then the input once

    # every registry score is bit for bit the score derived by hand from a gan.forward pass
    model = gan.load_model(model_dir / "model.ndgan")
    probs, features = gan.forward(model, x)
    real = probs[:, : model.K] / probs[:, : model.K].sum(axis=1, keepdims=True)
    want = {
        "nd-gan-ratio": scores.fake_ratio(probs[:, model.K]),
        "fake-prob": probs[:, model.K],
        "entropy": scores.score_entropy(real),
        "max-prob": scores.score_max_prob(real),
        "knn-5": scores.score_knn(features, gan.forward(model, reference)[1], 5),
    }
    got = scores.Scorer(model, list(want), reference).score(x)
    assert list(got) == list(want)
    with open(out / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    for name, values in want.items():
        assert got[name].tobytes() == values.tobytes(), name
        written = np.array([float(r[name.replace("-", "_")]) for r in rows])
        assert written.tobytes() == values.tobytes(), name
    assert [int(r["predicted_class"]) for r in rows] == np.argmax(probs[:, : model.K], axis=1).tolist()
    assert np.array([float(r["fake_prob"]) for r in rows]).tobytes() == want["fake-prob"].tobytes()


def test_score_emits_predictions_and_requested_scores(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    out = tmp_path / "scored"
    code = run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio,entropy,max-prob,knn-2",
        "--knn-reference", str(data_dir / "train.csv"), "--label-column", "label",
        "--mark-novel", "1", "--seed", "1", "--out-dir", str(out),
    )
    assert code == 0
    with open(out / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {
        "example_id", "predicted_class", "fake_prob", "is_novel",
        "nd_gan_ratio", "entropy", "max_prob", "knn_2",
    }
    assert all(r["is_novel"] == "1" for r in rows)
    assert all(np.isfinite(float(r["nd_gan_ratio"])) for r in rows)
    assert all(0 <= int(r["predicted_class"]) <= 3 for r in rows)


def test_score_of_duplicated_row_is_identical(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    dup = tmp_path / "dup.csv"
    dup.write_text("x0,x1\n0.5,0.25\n0.5,0.25\n")
    out = tmp_path / "dup_out"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(dup),
        "--scorers", "nd-gan-ratio", "--seed", "1", "--out-dir", str(out),
    ) == 0
    with open(out / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["nd_gan_ratio"] == rows[1]["nd_gan_ratio"]


def test_an_unknown_scorer_exits_2_at_its_path_before_any_file_is_touched(pipeline, tmp_path, monkeypatch, capsys):
    _, data_dir, model_dir = pipeline
    monkeypatch.setattr(gan, "load_model", lambda *args: pytest.fail("model loaded before the check"))
    out = tmp_path / "out"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio,bogus", "--seed", "1", "--out-dir", str(out),
    ) == 2
    err = capsys.readouterr().err
    assert "schema violation at $.scorers[1]:" in err and "'bogus'" in err and "knn-<k>" in err
    assert not out.exists()


def test_score_knn_without_reference_is_a_validation_error(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    code = run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "knn-1", "--seed", "1", "--out-dir", str(tmp_path / "out"),
    )
    assert code == 2


def test_eval_from_score_files(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    nom_dir, nov_dir, eval_dir = tmp_path / "nom", tmp_path / "nov", tmp_path / "eval"
    for data, mark, out in ((data_dir / "test.csv", 0, nom_dir), (data_dir / "novel.csv", 1, nov_dir)):
        assert run(
            "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data),
            "--label-column", "label", "--scorers", "nd-gan-ratio",
            "--mark-novel", str(mark), "--seed", "1", "--out-dir", str(out),
        ) == 0
    assert run(
        "eval", "--scores", str(nom_dir / "scores.csv"), "--scores", str(nov_dir / "scores.csv"),
        "--score-column", "nd_gan_ratio", "--alphas", "0.05,0.1", "--seed", "1", "--out-dir", str(eval_dir),
    ) == 0
    doc = json.loads((eval_dir / "metrics.json").read_text())
    assert 0.0 <= doc["auroc"] <= 1.0
    assert "fpr0.05" in doc["thresholds"]
    assert doc["full_scale_reference"]["nd-gan-ratio"]["per_holdout"][0] == 0.992
    assert (eval_dir / "roc_nd_gan_ratio.csv").exists()


@pytest.mark.parametrize("column", ["nd_gan_ratio", "is_novel"])
def test_eval_of_a_non_numeric_score_cell_exits_2(pipeline, tmp_path, capsys, column):
    root, data_dir, model_dir = pipeline
    scored = tmp_path / "scored"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio", "--mark-novel", "1", "--seed", "1", "--out-dir", str(scored),
    ) == 0
    with open(scored / "scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index(column)] = "abc"  # data row 2
    bad = tmp_path / "bad_scores.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run(
        "eval", "--scores", str(bad), "--score-column", "nd_gan_ratio", "--seed", "1",
        "--out-dir", str(tmp_path / "out"),
    ) == 2
    err = capsys.readouterr().err
    assert f"{bad}: row 2, column {column!r}: non-numeric cell 'abc'" in err and "Traceback" not in err


@pytest.mark.parametrize("value, message", [("2", "ground truth must be 0 or 1, got '2'"),
                                            ("-1", "ground truth must be 0 or 1, got '-1'"),
                                            ("", "has blank ground truth")],
                         ids=["two", "minus-one", "blank"])
def test_eval_of_a_ground_truth_other_than_0_or_1_exits_2(pipeline, tmp_path, capsys, value, message):
    root, data_dir, model_dir = pipeline
    scored = tmp_path / "scored"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio", "--mark-novel", "0", "--seed", "1", "--out-dir", str(scored),
    ) == 0
    with open(scored / "scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("is_novel")] = "1"
    rows[3][rows[0].index("is_novel")] = value  # data row 2
    bad = tmp_path / "bad_scores.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run(
        "eval", "--scores", str(bad), "--score-column", "nd_gan_ratio", "--seed", "1",
        "--out-dir", str(tmp_path / "out"),
    ) == 2
    err = capsys.readouterr().err
    assert f"{bad}: row 2" in err and message in err and "Traceback" not in err


def _read_scores_csv_by_dict_rows(path, column):
    """The reader as it was, one csv.DictReader dict per row: the oracle of its values and messages."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FormatError(path, "empty scores file")
    if column not in rows[0]:
        raise ValidationError(f"{path}: no column {column!r}; have {sorted(rows[0])}")
    if "is_novel" not in rows[0]:
        raise ValidationError(f"{path}: no is_novel ground-truth column")
    score_v, novel_v = [], []
    for i, row in enumerate(rows):
        if row["is_novel"] == "":
            raise ValidationError(f"{path}: row {i} has blank ground truth")
        for name, parse, values in ((column, float, score_v), ("is_novel", int, novel_v)):
            try:
                values.append(parse(row[name]))
            except (TypeError, ValueError):
                raise FormatError(path, f"row {i}, column {name!r}: non-numeric cell {row[name]!r}") from None
        if novel_v[-1] not in (0, 1):
            raise FormatError(path, f"row {i}, column 'is_novel': ground truth must be 0 or 1, got {row['is_novel']!r}")
    return np.asarray(score_v), np.asarray(novel_v, dtype=bool)


_MANY_ROWS = "s,is_novel\n" + "0.25,0\n1e-3,1\n" * 600


@pytest.mark.parametrize("text, column", [
    ("s,is_novel\n0.5,0\n1e3,1\n-inf,0\nnan,1\n", "s"),
    ("s,is_novel\n\n0.5,0\n\n\n2,1\n", "s"),  # blank rows are skipped and not counted
    ("s,is_novel,s\n1,0,2\n3,1,4\n", "s"),  # a repeated name reads its last column
    ("is_novel,s\n0,1\n1\n", "s"),  # a short row: its missing score cell
    ("s,is_novel\n1,0\n2\n", "s"),  # a short row: its missing ground truth
    ("s,is_novel\n1,0,9,9\n2,1\n", "s"),  # a long row
    ("s,is_novel\n1,0\n2, 1\n", "s"),
    ("s,is_novel\n1,0\nx,1\n", "s"),
    ("s,is_novel\n1,0\n2,1.0\n", "s"),
    ("s,is_novel\n1,0\n2,\n", "s"),
    ("s,is_novel\n1,0\n2,2\n", "s"),
    ("s,is_novel\n1,0\n", "is_novel"),
    ("s,is_novel\n1,0\n", "t"),
    ("s,t\n1,0\n", "s"),
    ("s,is_novel\n", "s"),
    ("", "s"),
    # inputs that the whole-column read takes, or hands on to the row loop
    pytest.param(_MANY_ROWS, "s", id="1200-rows"),
    pytest.param(_MANY_ROWS + "x,1\n", "s", id="1200-rows-then-a-bad-score"),
    pytest.param(_MANY_ROWS + ",1\n", "s", id="1200-rows-then-a-blank-score"),
    pytest.param(_MANY_ROWS + "1,2\n", "s", id="1200-rows-then-ground-truth-2"),
    pytest.param(_MANY_ROWS + "1,\n", "s", id="1200-rows-then-blank-ground-truth"),
    pytest.param(_MANY_ROWS + "1\n", "s", id="1200-rows-then-a-short-row"),
    ("s,is_novel\n1,0\n2, 1\n3,1 \n", "s"),  # int() takes these ground truths
    ("s,is_novel\n1,0\n2,+1\n", "s"),
    ("s,is_novel\n1,0\n2,-0\n3,1\n", "s"),
    ("s,is_novel\n1,0\n2,1_0\n", "s"),  # 10
    ("s,is_novel\n1,0\n2,0_1\n", "s"),
    ("s,is_novel\ninf,1\nnan,0\n-inf,1\n1e999,0\n", "s"),
    ("s,is_novel\n 1_5 ,0\n+.5,1\n-0,1\n", "s"),
])
def test_scores_reader_parses_and_fails_as_one_dict_per_row_did(tmp_path, text, column):
    path = tmp_path / "scores.csv"
    path.write_text(text, encoding="utf-8")
    outcomes = []
    for read in (cli._read_scores_csv, _read_scores_csv_by_dict_rows):
        try:
            outcomes.append([a.tobytes() for a in read(str(path), column)])
        except (ValidationError, FormatError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_eval_single_class_ground_truth_is_rejected(pipeline, tmp_path):
    root, data_dir, model_dir = pipeline
    nov_dir = tmp_path / "only_novel"
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio", "--mark-novel", "1", "--seed", "1", "--out-dir", str(nov_dir),
    ) == 0
    assert run(
        "eval", "--scores", str(nov_dir / "scores.csv"), "--score-column", "nd_gan_ratio",
        "--seed", "1", "--out-dir", str(tmp_path / "out"),
    ) == 2


def test_eval_holdout_mode_produces_table(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    cfg = {
        "holdout": {
            "train_dataset": {"path": str(data_dir / "train.csv"), "label_column": "label"},
            "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label"},
            "arch": "2d",
            "train": {"total_steps": 150, "batch_size": 32, "labeled_fraction": 0.5, "log_every": 100},
            "holdout_classes": [0, 2],
            "scorers": ["nd-gan-ratio", "entropy"],
            "workers": 2,
        },
        "seed": 5,
    }
    path = tmp_path / "holdout.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "holdout_out"
    assert run("eval", "--config", str(path), "--out-dir", str(out)) == 0
    doc = json.loads((out / "metrics.json").read_text())
    splits = {r["split"] for r in doc["rows"]}
    assert splits == {"0", "2"}
    assert set(doc["means"]) == {"nd-gan-ratio", "entropy"}
    assert (out / "metrics.csv").exists()
    assert (out / "roc_nd_gan_ratio_holdout0.csv").exists()
    # `workers` is accepted and has no effect: the splits run one after another
    cfg["holdout"]["workers"] = 1
    path.write_text(json.dumps(cfg))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "one_worker")) == 0
    assert (tmp_path / "one_worker" / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()


def _holdout_config(tmp_path, data_dir, **over):
    hold = {
        "train_dataset": {"path": str(data_dir / "train.csv"), "label_column": "label"},
        "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label"},
        "arch": "2d", "train": {"total_steps": 30, "batch_size": 32, "labeled_fraction": 0.5},
        "holdout_classes": [1], "scorers": ["nd-gan-ratio"],
    }
    path = tmp_path / "holdout.json"
    path.write_text(json.dumps({"holdout": hold, "seed": 5, **over}))
    return path


@pytest.mark.parametrize("alphas, columns", [([0.05], ["tpr@fpr0.05"]),
                                             ([0.01, 0.2], ["tpr@fpr0.01", "tpr@fpr0.20"])])
def test_eval_holdout_writes_one_tpr_column_per_alpha(pipeline, tmp_path, alphas, columns):
    root, data_dir, _ = pipeline
    out = tmp_path / "out"
    assert run("eval", "--config", str(_holdout_config(tmp_path, data_dir, alphas=alphas)), "--out-dir", str(out)) == 0
    (row,) = json.loads((out / "metrics.json").read_text())["rows"]
    assert sorted(k for k in row if k.startswith("tpr@")) == columns
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == ",".join(["scorer", "split", "auroc", *columns])


class Flag(str):
    """An --alphas flag value, where the other cases are config-file values."""


@pytest.mark.parametrize("alphas, where", [
    ([0.0], "[0]"), ([0.05, 1.0], "[1]"), ([1.5], "[0]"), ([True], "[0]"), (["0.05"], "[0]"), (0.05, ""),
    ([None], "[0]"), (Flag("0.05,abc"), "[1]"), (Flag("abc"), "[0]"), (Flag("0.05,,0.1"), "[1]"),
    (Flag("0.05,1.5"), "[1]"), (Flag("nan"), "[0]")],
    ids=["zero", "one", "above-one", "bool", "string", "not-a-list", "null",
         "flag-word", "flag-only-word", "flag-empty", "flag-above-one", "flag-nan"])
@pytest.mark.parametrize("mode", ["holdout", "scores"])
def test_eval_bad_alphas_fail_before_any_work(pipeline, tmp_path, monkeypatch, capsys, alphas, where, mode):
    root, data_dir, _ = pipeline
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    monkeypatch.setattr(cli, "_load_dataset", lambda *args: pytest.fail("dataset loaded before the check"))
    monkeypatch.setattr(cli, "_read_scores_csv", lambda *args: pytest.fail("scores read before the check"))
    in_config = {} if isinstance(alphas, Flag) else {"alphas": alphas}
    flag = ["--alphas", alphas] if isinstance(alphas, Flag) else []
    if mode == "holdout":
        path = _holdout_config(tmp_path, data_dir, **in_config)
    else:
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"scores": [str(tmp_path / "scores.csv")], **in_config, "seed": 5}))
    assert run("eval", "--config", str(path), *flag, "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"$.alphas{where}" in err and "Traceback" not in err


def test_eval_holdout_frees_each_split_before_training_the_next(pipeline, tmp_path, monkeypatch):
    root, data_dir, _ = pipeline
    real_train, trained, alive = gan.train_gan, [], []

    def tracking(model, *args, **kwargs):
        if trained:
            gc.collect()
            alive.append(trained[0]() is not None)
        out = real_train(model, *args, **kwargs)
        trained.append(weakref.ref(out[0]))
        return out

    monkeypatch.setattr(gan, "train_gan", tracking)
    path = _holdout_config(tmp_path, data_dir)
    doc = json.loads(path.read_text())
    doc["holdout"].update(holdout_classes=[0, 2], scorers=["nd-gan-ratio", "knn-1"])
    path.write_text(json.dumps(doc))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 0
    assert len(trained) == 2 and alive == [False]  # split 0's model died before split 2 trained


@pytest.mark.parametrize("bad", [{"scorers": ["nd-gan-ratio", "entrpy"]}, {"scorers": ["knn-0"]},
                                 {"workers": 0}, {"workers": "2"}],
                         ids=["misspelled-scorer", "knn-0", "zero-workers", "string-workers"])
def test_eval_holdout_bad_config_fails_before_training(pipeline, tmp_path, monkeypatch, bad):
    root, data_dir, _ = pipeline
    trained = []
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: trained.append(args))
    monkeypatch.setattr(cli, "_load_dataset", lambda *args: pytest.fail("dataset loaded before the check"))
    hold = {
        "train_dataset": {"path": str(data_dir / "train.csv"), "label_column": "label"},
        "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label"},
        "arch": "2d", "train": {"total_steps": 200}, "holdout_classes": [0], "scorers": ["entropy"],
    }
    path = tmp_path / "holdout.json"
    path.write_text(json.dumps({"holdout": {**hold, **bad}, "seed": 5}))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert trained == []


def test_eval_holdout_unknown_class_exits_2_before_training(pipeline, tmp_path, monkeypatch, capsys):
    root, data_dir, _ = pipeline
    trained = []
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: trained.append(args))
    path = _holdout_config(tmp_path, data_dir)
    doc = json.loads(path.read_text())
    doc["holdout"]["holdout_classes"] = [0, 42]
    path.write_text(json.dumps(doc))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert "42" in capsys.readouterr().err
    assert trained == []


def _probe_configs(pipeline, tmp_path):
    """A working config of each kind, on the pipeline's files."""
    _, data_dir, model_dir = pipeline
    dataset = {"path": str(data_dir / "train.csv"), "label_column": "label"}
    return {
        "synth": ("synth", json.loads(synth_config(tmp_path).read_text())),
        "train": ("train", {"dataset": dataset, "train": {"total_steps": 30, "batch_size": 32}, "seed": 13}),
        "score": ("score", {"model": str(model_dir / "model.ndgan"), "dataset": {"path": str(data_dir / "novel.csv")},
                            "scorers": ["nd-gan-ratio"], "seed": 1}),
        "flat": ("eval", {"scores": [str(tmp_path / "scores.csv")], "seed": 1}),
        "holdout": ("eval", json.loads(_holdout_config(tmp_path, data_dir).read_text())),
        "oracle": ("oracle", {"density": str(data_dir / "density.json"), "seed": 3}),
    }


@pytest.mark.parametrize("base, key, value, where", [
    ("synth", "radius", "x", "$.radius"),
    ("synth", "seed", "abc", "$.seed"),
    ("synth", "seed", 1.9, "$.seed"),
    ("synth", "n_train", "200", "$.n_train"),
    ("synth", "n_train", 200.7, "$.n_train"),
    ("train", "train.lr", "x", "$.train.lr"),
    ("train", "train.batch_size", 8.5, "$.train.batch_size"),
    ("train", "train.batch_size", None, "$.train.batch_size"),
    ("train", "arch", "3d", "$.arch"),
    ("train", "train.total_steps", "3", "$.train.total_steps"),
    ("train", "dataset.downscale", {"side": "abc", "target": 14}, "$.dataset.downscale.side"),
    ("holdout", "holdout.holdout_classes", 0, "$.holdout.holdout_classes"),
    ("holdout", "holdout.train.total_steps", "3", "$.holdout.train.total_steps"),
    ("holdout", "holdout.train_dataset.downscale", {"side": "abc", "target": 14},
     "$.holdout.train_dataset.downscale.side"),
    ("holdout", "holdout.test_dataset.downscale", {"side": 28, "target": 14.5},
     "$.holdout.test_dataset.downscale.target"),
    ("oracle", "grid_points", "x", "$.grid_points"),
    ("oracle", "tolerance", "x", "$.tolerance"),
    ("score", "model", ["model.ndgan"], "$.model"),
    ("score", "mark_novel", 7, "$.mark_novel"),
    ("score", "mark_novel", "1", "$.mark_novel"),
    ("score", "scorers", "entropy", "$.scorers"),
    ("score", "scorers", ["entropy", "knn-x"], "$.scorers[1]"),
    ("holdout", "holdout.scorers", ["nd-gan-ratio", "knn-0"], "$.holdout.scorers[1]"),
    ("holdout", "holdout.scorers", ["bogus"], "$.holdout.scorers[0]"),
    ("flat", "scores", "x.csv", "$.scores"),
    ("oracle", "grid_points", -4, "$.grid_points"),
    ("oracle", "grid_points", 0, "$.grid_points"),
    ("train", "dataset.split_tag", "test", "$.dataset.split_tag"),  # removed in 0.6.0: an unknown field
    ("synth", "novel.n", -1, "$.novel.n"),
    ("synth", "novel.n", 0, "$.novel.n"),
    *(pytest.param("score", "scorers", ["entropy", name], "$.scorers[1]", id=f"score-scorers-{name!r}")
      for name in ["knn-05", "knn- 5", "knn-+5", "knn-\u0665", "knn-5\n", "knn-1_0"]),  # one name per k
    # removed in 0.9.0, so unknown fields even at the values they had, which are now constants
    ("train", "train.beta1", 0.5, "$.train.beta1"),
    ("train", "train.beta2", 0.999, "$.train.beta2"),
    ("train", "train.eps", 1e-8, "$.train.eps"),
    ("train", "z_dim", 16, "$.z_dim"),
    ("train", "disc_noise_std", 0.1, "$.disc_noise_std"),
    ("holdout", "holdout.train.beta1", 0.5, "$.holdout.train.beta1"),
    ("holdout", "holdout.train.beta2", 0.999, "$.holdout.train.beta2"),
    ("holdout", "holdout.train.eps", 1e-8, "$.holdout.train.eps"),
    ("holdout", "holdout.z_dim", 64, "$.holdout.z_dim"),
    ("holdout", "holdout.disc_noise_std", 0.1, "$.holdout.disc_noise_std"),
    ("oracle", "mc_samples", 20_000, "$.mc_samples"),
    # a step size must be finite and above 0: 0 never moves, a negative one ascends the loss
    *(("train", "train.lr", lr, "$.train.lr") for lr in (0, -0.001, math.nan, math.inf)),
    ("holdout", "holdout.train.lr", -1, "$.holdout.train.lr"),
    ("synth", "novel.sigma", -0.5, "$.novel.sigma"),
    # a seed numpy's SeedSequence takes; a sigma whose square, the variance, is a positive float
    *((base, "seed", -1, "$.seed") for base in ("synth", "train", "score", "flat", "holdout", "oracle")),
    ("synth", "--seed", "-1", "$.seed"),
    ("oracle", "--seed", "-1", "$.seed"),
    *(("synth", key, sigma, f"$.{key}") for key in ("sigma", "novel.sigma") for sigma in (1e200, 1e-200)),
    ("synth", "--sigma", "1e200", "$.sigma"),
])
def test_a_malformed_config_exits_2_at_its_path_before_any_work(pipeline, tmp_path, monkeypatch, capsys,
                                                                 base, key, value, where):
    command, cfg = _probe_configs(pipeline, tmp_path)[base]
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    monkeypatch.setattr(cli, "_load_dataset", lambda *args: pytest.fail("dataset loaded before the check"))
    monkeypatch.setattr(cli, "_read_scores_csv", lambda *args: pytest.fail("scores read before the check"))
    flags = [key, value] if key.startswith("--") else []
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    if not flags:
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(command, "--config", str(path), *flags, "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"schema violation at {where}:" in err and "Traceback" not in err


@pytest.mark.parametrize("fake_source, message", [
    ({"kind": "uniform", "bounds": [[0, 1, 2]]}, "[low, high] pairs"),
    ({"kind": "uniform", "bounds": [[-3, 3], [-3, 3], [-3, 3]]}, "3 [low, high] pairs for 2-dimensional data"),
    ({"kind": "uniform"}, "[low, high] pairs, got None"),
    ({"kind": "uniform", "bounds": [[-1e308, 1e308], [0, 1]]}, "dimension 0: the width of"),
    ({"kind": "uniform", "bounds": [[0, 1], [-math.inf, 1]]}, "dimension 1: the width of"),
], ids=["not-pairs", "three-dims", "no-bounds", "huge-width", "minus-infinity"])
def test_train_rejects_uniform_bounds_that_do_not_fit_the_data(pipeline, tmp_path, monkeypatch, capsys,
                                                              fake_source, message):
    _, data_dir, _ = pipeline
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    cfg = train_config(tmp_path, data_dir, fake_source=fake_source)
    assert run("train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "schema violation at $.fake_source.bounds:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("bounds", [[[0, 1], [0, 1], [0, 1]], [[-1e308, 1e308], [0, 1]], [[0, 1], [-math.inf, 1]]],
                         ids=["three-dims", "huge-width", "minus-infinity"])
def test_synth_rejects_uniform_novel_bounds_that_do_not_fit_and_writes_nothing(tmp_path, capsys, bounds):
    cfg = synth_config(tmp_path, novel={"kind": "uniform", "bounds": bounds, "n": 50})
    out = tmp_path / "out"
    assert run("synth", "--config", str(cfg), "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "schema violation at $.novel.bounds:" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_oracle_passes_on_valid_spec_and_respects_tolerance_flag(pipeline, tmp_path):
    root, data_dir, _ = pipeline
    out = tmp_path / "oracle"
    assert run(
        "oracle", "--density", str(data_dir / "density.json"), "--seed", "3", "--out-dir", str(out),
    ) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["pass"] is True
    assert report["identity_residual"] < 1e-12
    assert (out / "dstar_grid.csv").exists()
    # impossible tolerance -> exit code 4
    assert run(
        "oracle", "--density", str(data_dir / "density.json"), "--tolerance", "0",
        "--seed", "3", "--out-dir", str(tmp_path / "oracle2"),
    ) == 4


def test_oracle_closed_form_check_on_1d_gaussians(tmp_path):
    spec = {
        "version": 1,
        "pi": 0.5,
        "data": {"weights": [1.0], "means": [[0.0]], "variances": [[1.0]]},
        "novel": {"weights": [1.0], "means": [[2.0]], "variances": [[1.0]]},
    }
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("oracle", "--density", str(path), "--seed", "7", "--out-dir", str(out)) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["lr_auroc_closed_form"] == pytest.approx(0.92135, abs=1e-4)
    assert abs(report["lr_auroc_mc"] - report["lr_auroc_closed_form"]) <= 0.01


def test_oracle_malformed_spec_reports_json_path(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "pi": 0.5, "data": {"weights": [1.0]}, "novel": {}}))
    assert run("oracle", "--density", str(path), "--seed", "1", "--out-dir", str(tmp_path / "o")) == 2
    assert "$.data" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "train", "config"])
@pytest.mark.parametrize("case, message", [
    ("missing", "density spec not found"),
    ("directory", "density spec is a directory"),
    ("not-utf8", "not UTF-8 text"),
    ("utf16-bom", "not UTF-8 text"),
    ("too-deep", "not valid JSON: maximum recursion depth exceeded"),
    ("too-many-digits", "not valid JSON: Exceeds the limit"),
])
def test_an_unreadable_density_spec_exits_2(pipeline, tmp_path, monkeypatch, capsys, command, case, message):
    """Command ``config`` gives the bad file as ``train --config``: the one JSON reader reads both."""
    _, data_dir, _ = pipeline
    path = tmp_path / "density.json"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        path.write_bytes({"not-utf8": b'{"version": 1, "pi": "\xff"}', "utf16-bom": b"\xff\xfe{}",
                          "too-deep": b"[" * 100_000, "too-many-digits": b"1" * 5_000}[case])
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    if command == "oracle":
        argv = ["oracle", "--density", str(path), "--seed", "1"]
    elif command == "train":  # a mixture fake source reads the same spec
        argv = ["train", "--config", str(train_config(tmp_path, data_dir,
                                                      fake_source={"kind": "mixture", "density": str(path)}))]
    else:
        argv = ["train", "--config", str(path), "--seed", "1"]
        message = message.replace("density spec", "config")
    assert run(*argv, "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["eval --scores", "score --data", "score --knn-reference"])
def test_a_cell_past_the_csv_field_limit_exits_2(pipeline, tmp_path, capsys, which):
    """csv's reader takes cells of at most 131,072 characters; a longer one is a bad table."""
    _, data_dir, model_dir = pipeline
    bad = tmp_path / "long.csv"
    if which == "eval --scores":
        bad.write_text(f"nd_gan_ratio,is_novel\n{'1' * 140_000},0\n2,1\n")
        argv = ["eval", "--scores", str(bad)]
    else:  # the quoted cell sends the table past the whole-file parse, to the cell parser
        bad.write_text(f'x0,x1,label\n"1",{"1" * 140_000},0\n2,3,1\n')
        paths = {"--data": data_dir / "novel.csv", "--knn-reference": data_dir / "train.csv", which.split()[1]: bad}
        argv = ["score", "--model", str(model_dir / "model.ndgan"), "--scorers", "knn-1", "--label-column", "label",
                *(str(a) for item in paths.items() for a in item)]
    assert run(*argv, "--seed", "1", "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 2: field larger than field limit (131072)" in err and "Traceback" not in err


@pytest.mark.parametrize("which", ["train --config", "score --model", "score --data", "score --knn-reference",
                                   "eval --scores", "dataset path", "labels_path"])
def test_an_input_path_that_names_a_directory_exits_2(pipeline, tmp_path, capsys, which):
    _, data_dir, model_dir = pipeline
    folder = tmp_path / "a-folder"
    folder.mkdir()
    if which.startswith("score"):
        paths = {"--model": model_dir / "model.ndgan", "--data": data_dir / "novel.csv",
                 "--knn-reference": data_dir / "train.csv", which.split()[1]: folder}
        argv = ["score", "--scorers", "knn-2", *(str(a) for item in paths.items() for a in item)]
    elif which == "train --config":
        argv = ["train", "--config", str(folder)]
    elif which == "eval --scores":
        argv = ["eval", "--scores", str(folder)]
    elif which == "dataset path":
        argv = ["train", "--config", str(train_config(tmp_path, data_dir, dataset={"path": str(folder)}))]
    else:
        images = tmp_path / "images-idx"
        images.write_bytes(struct.pack(">4I", dio.IDX_MAGIC_IMAGES, 2, 1, 2) + bytes(4))
        dataset = {"path": str(images), "format": "idx", "labels_path": str(folder)}
        argv = ["train", "--config", str(train_config(tmp_path, data_dir, dataset=dataset))]
    assert run(*argv, "--seed", "1", "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"is a directory, not a file: {folder}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "oracle"])
@pytest.mark.parametrize("where, message", [
    ("file", "output directory is a file, not a directory"),
    ("under-a-file", "cannot create output directory"),
], ids=["file", "under-a-file"])
def test_an_out_dir_that_cannot_be_a_directory_exits_2_before_any_work(
        pipeline, tmp_path, monkeypatch, capsys, command, where, message):
    _, data_dir, _ = pipeline
    work = tmp_path / "work"
    work.mkdir()
    (work / "taken").write_text("a file\n")
    out = work / "taken" if where == "file" else work / "taken" / "out"
    monkeypatch.setattr(densities, "verify_mixture_identity", lambda *args: pytest.fail("oracle ran"))
    if command == "synth":
        argv = ["synth", "--config", str(synth_config(tmp_path))]
    else:
        argv = ["oracle", "--density", str(data_dir / "density.json"), "--seed", "1"]
    assert run(*argv, "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and str(out) in err and "Traceback" not in err
    assert list(work.iterdir()) == [work / "taken"] and (work / "taken").read_text() == "a file\n"


@pytest.mark.parametrize("wide_flag", ["--data", "--knn-reference"])
def test_score_of_data_of_another_width_than_the_model_exits_2(pipeline, tmp_path, capsys, wide_flag):
    root, data_dir, model_dir = pipeline
    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,x2\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    paths = {"--data": data_dir / "novel.csv", "--knn-reference": data_dir / "train.csv", wide_flag: wide}
    assert run(
        "score", "--model", str(model_dir / "model.ndgan"), "--data", str(paths["--data"]),
        "--knn-reference", str(paths["--knn-reference"]), "--label-column", "label",
        "--scorers", "nd-gan-ratio,knn-1", "--seed", "1", "--out-dir", str(tmp_path / "out"),
    ) == 2
    err = capsys.readouterr().err
    assert f"{wide}: 3 feature columns, but the model takes 2" in err and "Traceback" not in err


def test_score_label_column_finds_a_quoted_header(pipeline, tmp_path):
    """The --label-column peek reads the header as the dataset reader does, quotes and all."""
    _, _, model_dir = pipeline
    outputs = []
    for name, header in (("quoted", '"x0","x1","label"'), ("plain", "x0,x1,label")):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{header}\n0.1,0.2,0\n0.4,0.5,1\n")
        assert run("score", "--model", str(model_dir / "model.ndgan"), "--data", str(path), "--label-column", "label",
                   "--scorers", "nd-gan-ratio", "--seed", "1", "--out-dir", str(tmp_path / name)) == 0
        outputs.append((tmp_path / name / "scores.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_holdout_with_test_data_of_another_width_exits_2_before_training(pipeline, tmp_path, monkeypatch,
                                                                              capsys):
    root, data_dir, _ = pipeline
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,x2,label\n" + "".join(f"0.1,0.2,0.3,{c}\n" for c in range(4)))
    path = _holdout_config(tmp_path, data_dir)
    doc = json.loads(path.read_text())
    doc["holdout"]["test_dataset"]["path"] = str(wide)
    path.write_text(json.dumps(doc))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "feature width mismatch: train has 2 columns, test 3" in err and "Traceback" not in err


def test_oracle_rejects_a_spec_whose_grid_outgrows_grid_points(tmp_path, capsys):
    """At least two points per axis: a 30-dimensional grid would hold 2^30 points."""
    d = 30
    spec = {"version": 1, "pi": 0.5,
            "data": {"weights": [1.0], "means": [[0.0] * d], "variances": [[1.0] * d]},
            "novel": {"weights": [1.0], "means": [[2.0] * d], "variances": [[1.0] * d]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("oracle", "--density", str(path), "--seed", "1", "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "$.grid_points" in err and "a 30-dimensional spec needs a grid of 2^30 = 1073741824 points" in err
    assert "grid_points=10000" in err and list(out.iterdir()) == []


@pytest.mark.parametrize("n_points", [100, 10_000])
def test_oracle_grid_rule_accepts_a_prefix_of_dimensions(n_points):
    """A d-dimensional grid has floor(n^(1/d)) points per axis, and a spec is rejected,
    before any grid is made, exactly when 2^d > n: so the accepted d run from 1 up."""
    accepted = []
    for d in range(1, 41):
        spec = densities.MixtureSpec(0.5, densities.gaussian([0.0] * d, 1.0), densities.gaussian([2.0] * d, 1.0))
        try:
            grid = cli._grid_for_spec(spec, n_points)
        except SchemaError as exc:
            assert 2**d > n_points and exc.json_path == "$.grid_points"
            assert f"a {d}-dimensional spec needs a grid of 2^{d} = {2**d} points" in str(exc)
            continue
        per_axis = round(len(grid) ** (1 / d))
        assert grid.shape == (per_axis**d, d) and per_axis**d <= n_points < (per_axis + 1) ** d
        accepted.append(d)
    assert accepted == list(range(1, n_points.bit_length()))  # d = 1 .. floor(log2 n)
    spec = densities.MixtureSpec(0.5, densities.gaussian([0.0] * 2, 1.0), densities.gaussian([2.0] * 2, 1.0))
    assert len(cli._grid_for_spec(spec, 399)) == 19**2  # a non-square count rounds down


def test_missing_out_dir_is_a_validation_error(tmp_path):
    cfg = synth_config(tmp_path)
    import os

    old = os.environ.pop(cli.ENV_OUT_DIR, None)
    try:
        assert run("synth", "--config", str(cfg)) == 2
    finally:
        if old is not None:
            os.environ[cli.ENV_OUT_DIR] = old


def test_env_var_supplies_default_out_dir(tmp_path, monkeypatch):
    cfg = synth_config(tmp_path)
    out = tmp_path / "env_out"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(out))
    assert run("synth", "--config", str(cfg)) == 0
    assert (out / "train.csv").exists()
