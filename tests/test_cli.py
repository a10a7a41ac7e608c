import csv
import gc
import hashlib
import json
import struct
import warnings
import weakref

import numpy as np
import pytest

from ndgan import cli, gan, scores
from ndgan import data as dio
from ndgan.errors import FormatError


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
    rerun = tmp_path / "rerun"
    assert run("train", "--config", str(model_dir / "manifest.json"), "--out-dir", str(rerun)) == 0
    assert sha256(rerun / "model.ndgan") == sha256(model_dir / "model.ndgan")
    assert sha256(rerun / "train_log.csv") == sha256(model_dir / "train_log.csv")


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


@pytest.mark.parametrize("damage", ["trailing-bytes", "non-finite-weight", "zero-layer-generator",
                                    "huge-layer-dims"])
def test_score_of_a_damaged_model_file_exits_2(pipeline, tmp_path, damage):
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
    else:  # a 2^32-1 x 2^32-1 first layer: its size in bytes overflows 64 bits
        raw[GEN_BLOCK + 4 : GEN_BLOCK + 12] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
        offset = GEN_BLOCK + 4 + struct.calcsize("<IIBBd")
    bad = tmp_path / "bad.ndgan"
    bad.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        gan.load_model(bad)
    assert err.value.offset == offset
    assert run(
        "score", "--model", str(bad), "--data", str(data_dir / "novel.csv"),
        "--scorers", "nd-gan-ratio", "--seed", "1", "--out-dir", str(tmp_path / "out"),
    ) == 2


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
        calls.append(x.data.shape)
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
    x = dio.read_csv_dataset(data_dir / "novel.csv")[0].features
    reference = dio.read_csv_dataset(data_dir / "train.csv", "label")[0].features
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
            "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label", "split_tag": "test"},
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
        "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label", "split_tag": "test"},
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


@pytest.mark.parametrize("alphas", [[0.0], [0.05, 1.0], [1.5], [True], ["0.05"], 0.05, [None]],
                         ids=["zero", "one", "above-one", "bool", "string", "not-a-list", "null"])
@pytest.mark.parametrize("mode", ["holdout", "scores"])
def test_eval_bad_alphas_fail_before_any_work(pipeline, tmp_path, monkeypatch, capsys, alphas, mode):
    root, data_dir, _ = pipeline
    monkeypatch.setattr(gan, "train_gan", lambda *args, **kwargs: pytest.fail("trained before the check"))
    monkeypatch.setattr(cli, "_load_dataset", lambda *args: pytest.fail("dataset loaded before the check"))
    monkeypatch.setattr(cli, "_read_scores_csv", lambda *args: pytest.fail("scores read before the check"))
    if mode == "holdout":
        path = _holdout_config(tmp_path, data_dir, alphas=alphas)
    else:
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"scores": [str(tmp_path / "scores.csv")], "alphas": alphas, "seed": 5}))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert "$.alphas" in capsys.readouterr().err


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
        "test_dataset": {"path": str(data_dir / "test.csv"), "label_column": "label", "split_tag": "test"},
        "arch": "2d", "train": {"total_steps": 200}, "holdout_classes": [0], "scorers": ["entropy"],
    }
    path = tmp_path / "holdout.json"
    path.write_text(json.dumps({"holdout": {**hold, **bad}, "seed": 5}))
    assert run("eval", "--config", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert trained == []


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
