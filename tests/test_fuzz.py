"""Seeded fuzzing of every file the CLI reads: IDX images and labels, numeric CSV,
density JSON, `2d` model files, scores CSV and each command's config JSON.

Each case writes one mutated file beside valid companions and runs the command
that reads it through ``cli.main``, in this process. A malformed file must end
in a structured error (exit 2); a file that still parses may also succeed
(exit 0), and the oracle may report a tolerance miss (exit 4). No case may end
in a traceback or an unstructured runtime error; only a config, whose step size
may diverge training, may end in a structured exit 3. The CLI runs with
numpy's warnings as the command line has them, not raised as errors.

Besides the random mutations, each format has crafted inputs that once
crashed, or that name a retired encoding.
"""

import json
import struct
import warnings

import numpy as np
import pytest

from ndgan import cli, data as dio, densities, gan
from ndgan import layers as nn

CASES = 40  # random mutations per format


def _run(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main([str(a) for a in argv])


_TOKENS = [b"\x00", b"\xff", b",", b"\n", b"-", b"e", b"9", b"nan", b"\"", b"]"]


def _mutate(raw: bytes, rng: np.random.Generator, head: int) -> bytes:
    """One to three byte-level edits: overwrite, truncate, insert, delete or repeat a span.
    Half the edits land in the first ``head`` bytes, where the headers are."""
    out = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        if not out:
            break
        at = int(rng.integers(0, min(head, len(out)) if rng.random() < 0.5 else len(out)))
        kind = int(rng.integers(0, 5))
        span = int(rng.integers(1, 9))
        if kind == 0:
            out[at : at + span] = rng.integers(0, 256, size=len(out[at : at + span]), dtype=np.uint8).tobytes()
        elif kind == 1:
            del out[at:]
        elif kind == 2:
            out[at:at] = _TOKENS[int(rng.integers(0, len(_TOKENS)))] * span
        elif kind == 3:
            del out[at : at + span]
        else:
            out[at:at] = out[at : at + span]
    return bytes(out)


_VALUES = [0, -1, 1, 2, 1e308, -1e308, 0.5, 1e-320, float("nan"), float("inf"), "x", None, True,
           [], [[]], [0.0], [[0.0]], [[1.0, 2.0]], {}, {"version": 1}]


def _mutate_json(doc, rng: np.random.Generator):
    """The document with one value, anywhere in it, replaced or removed."""
    doc = json.loads(json.dumps(doc))
    paths = []

    def walk(node, path):
        paths.append(path)
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            walk(child, path + [key])

    walk(doc, [])
    path = paths[int(rng.integers(1, len(paths)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _VALUES[int(rng.integers(0, len(_VALUES)))]
    return doc


def _idx(magic: int, dims, payload: bytes) -> bytes:
    return struct.pack(f">I{len(dims)}I", magic, *dims) + payload


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs of every format, the model trained on none of them."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    data = dio.Dataset(rng.normal(size=(24, 2)), np.arange(24) % 3, K=3)
    dio.write_csv_dataset(root / "train.csv", data)
    gan.save_model(root / "model.ndgan", gan.build_gan(2, 3, seed=0))
    spec = densities.MixtureSpec(0.5, densities.gaussian([2.0, 0.0], 0.3), densities.gaussian([0.0, 0.0], 0.3))
    (root / "density.json").write_text(json.dumps(densities.mixture_spec_to_json(spec)))
    pixels = rng.integers(0, 256, size=12 * 9, dtype=np.uint8).tobytes()
    (root / "images-idx").write_bytes(_idx(dio.IDX_MAGIC_IMAGES, (12, 3, 3), pixels))
    (root / "labels-idx").write_bytes(_idx(dio.IDX_MAGIC_LABELS, (12,), bytes(i % 2 for i in range(12))))
    return root


def _train_idx(root, images, labels):
    cfg = {"dataset": {"path": str(images), "format": "idx", "labels_path": str(labels)},
           "train": {"total_steps": 1, "batch_size": 4, "labeled_fraction": 0.5}, "seed": 1}
    (root / "idx.json").write_text(json.dumps(cfg))
    return _run(["train", "--config", root / "idx.json", "--out-dir", root / "out"])


def _train_csv(root, path):
    cfg = {"dataset": {"path": str(path), "label_column": "label"},
           "train": {"total_steps": 1, "batch_size": 4, "labeled_fraction": 0.5}, "seed": 1}
    (root / "csv.json").write_text(json.dumps(cfg))
    return _run(["train", "--config", root / "csv.json", "--out-dir", root / "out"])


def _score(root, model):
    return _run(["score", "--model", model, "--data", root / "train.csv", "--label-column", "label",
                 "--scorers", "nd-gan-ratio,entropy,knn-2", "--knn-reference", root / "train.csv",
                 "--seed", 1, "--out-dir", root / "out"])


def _oracle(root, density):
    return _run(["oracle", "--density", density, "--grid-points", 64, "--seed", 1, "--out-dir", root / "out"])


def _eval(root, scores):
    return _run(["eval", "--scores", scores, "--seed", 1, "--out-dir", root / "out"])


def _fuzz(files, name, reader, head, seed, allowed=(0, 2)):
    """``CASES`` mutations of ``files / name``, each read by ``reader(path)``; returns the exit codes."""
    rng = np.random.default_rng(seed)
    raw = (files / name).read_bytes()
    codes = []
    for i in range(CASES):
        path = files / f"mutant-{i}-{name}"
        path.write_bytes(_mutate(raw, rng, head))
        codes.append(reader(path))
        assert codes[-1] in allowed, f"mutant {i} of {name} exits {codes[-1]}"
    return codes


def test_mutated_idx_images_and_labels_exit_0_or_2(files, capsys):
    codes = _fuzz(files, "images-idx", lambda p: _train_idx(files, p, files / "labels-idx"), 16, 1)
    codes += _fuzz(files, "labels-idx", lambda p: _train_idx(files, files / "images-idx", p), 8, 2)
    assert 2 in codes and "Traceback" not in capsys.readouterr().err


def test_mutated_csv_exits_0_or_2(files, capsys):
    codes = _fuzz(files, "train.csv", lambda p: _train_csv(files, p), 64, 3)
    assert 2 in codes and "Traceback" not in capsys.readouterr().err


def test_mutated_model_files_exit_0_or_2(files, capsys):
    head = len(gan.MAGIC) + 5 + 14 + 4 + 18  # the file and model headers, and the first layer's header
    codes = _fuzz(files, "model.ndgan", lambda p: _score(files, p), head, 4)
    assert 2 in codes and "Traceback" not in capsys.readouterr().err


def test_mutated_scores_csv_exits_0_or_2(files, capsys):
    tables = []
    for mark in (0, 1):  # one scores table with nominal and novel rows, as eval needs
        out = files / f"scored-{mark}"
        assert _run(["score", "--model", files / "model.ndgan", "--data", files / "train.csv", "--label-column",
                     "label", "--scorers", "nd-gan-ratio,entropy", "--mark-novel", mark, "--seed", 1,
                     "--out-dir", out]) == 0
        tables.append((out / "scores.csv").read_bytes())
    header, _, novel = tables[1].partition(b"\r\n")
    (files / "scores.csv").write_bytes(tables[0] + novel)
    assert _eval(files, files / "scores.csv") == 0
    codes = _fuzz(files, "scores.csv", lambda p: _eval(files, p), len(header), 7)
    assert 2 in codes and "Traceback" not in capsys.readouterr().err


def test_mutated_density_json_exits_0_2_or_4(files, capsys):
    codes = _fuzz(files, "density.json", lambda p: _oracle(files, p), 256, 5, allowed=(0, 2, 4))
    rng = np.random.default_rng(6)
    doc = json.loads((files / "density.json").read_text())
    for i in range(CASES):  # value-level edits keep the JSON well formed
        path = files / f"value-mutant-{i}.json"
        path.write_text(json.dumps(_mutate_json(doc, rng)))
        codes.append(_oracle(files, path))
        assert codes[-1] in (0, 2, 4), f"value mutant {i} exits {codes[-1]}: {path.read_text()}"
    assert 2 in codes and "Traceback" not in capsys.readouterr().err


def _configs(files):
    """command -> (the command, a working config of it) on the fixture's files."""
    labeled = {"path": str(files / "train.csv"), "label_column": "label"}
    synth = {"kind": "ring", "n_train": 40, "n_test": 16, "components": 4, "radius": 2.0, "sigma": 0.2,
             "pi": 0.5, "seed": 1}
    train = {"dataset": labeled, "arch": "2d", "seed": 1,
             "train": {"total_steps": 2, "batch_size": 4, "labeled_fraction": 0.5, "lr": 0.001, "log_every": 1}}
    return {
        "synth-gaussian": ("synth", {**synth, "novel": {"kind": "gaussian", "n": 8, "mean": [1.0, 0.0], "sigma": 0.3}}),
        "synth-uniform": ("synth", {**synth, "novel": {"kind": "uniform", "n": 8, "bounds": [[-3, 3], [-3, 3]]}}),
        "train-learned": ("train", train),
        "train-uniform": ("train", {**train, "fake_source": {"kind": "uniform", "bounds": [[-3, 3], [-3, 3]]}}),
        "train-mixture": ("train", {**train, "fake_source": {"kind": "mixture",
                                                             "density": str(files / "density.json")}}),
        "score": ("score", {"model": str(files / "model.ndgan"), "dataset": labeled, "knn_reference": labeled,
                            "scorers": ["nd-gan-ratio", "entropy", "knn-2"], "mark_novel": 0, "seed": 1}),
        "eval-holdout": ("eval", {"holdout": {"train_dataset": labeled, "test_dataset": labeled, "arch": "2d",
                                              "train": train["train"], "holdout_classes": [1],
                                              "scorers": ["nd-gan-ratio", "knn-1"]},
                                  "alphas": [0.1], "seed": 1}),
        "oracle": ("oracle", {"density": str(files / "density.json"), "grid_points": 64, "tolerance": 1e-12,
                              "seed": 1}),
    }


@pytest.mark.parametrize("name", ["synth-gaussian", "synth-uniform", "train-learned", "train-uniform",
                                  "train-mixture", "score", "eval-holdout", "oracle"])
def test_mutated_configs_end_in_a_structured_exit(files, capsys, name):
    command, cfg = _configs(files)[name]
    (files / "config.json").write_text(json.dumps(cfg))
    assert _run([command, "--config", files / "config.json", "--out-dir", files / "out"]) == 0
    rng = np.random.default_rng(8)
    codes = []
    for i in range(CASES):
        doc = _mutate_json(cfg, rng)
        (files / "config.json").write_text(json.dumps(doc))
        codes.append(_run([command, "--config", files / "config.json", "--out-dir", files / "out"]))
        err = capsys.readouterr().err
        last = (err.strip().splitlines() or [""])[-1]
        structured = (codes[-1] in (0, 2) or codes[-1] == 4 and command == "oracle"
                      or codes[-1] == 3 and last.startswith(("training diverged:", "error:")))
        assert structured and "Traceback" not in err, f"mutant {i} exits {codes[-1]}: {json.dumps(doc)}\n{err}"
    assert 2 in codes


# ---------------------------------------------------------------------------
# crafted inputs
# ---------------------------------------------------------------------------


def _model_with(files, at: int, value: int):
    raw = bytearray((files / "model.ndgan").read_bytes())
    raw[at] = value
    path = files / f"crafted-{at}-{value}.ndgan"
    path.write_bytes(raw)
    return path


_ACT = len(gan.MAGIC) + 5 + 14 + 4 + 8  # the activation byte of the generator's first layer
_PRIOR = len(gan.MAGIC) + 5 + 12  # the z-prior byte
_WN = _ACT + 1  # the weight-norm byte of the generator's first layer
_FEATURE = len(gan.MAGIC) + 5 + 8  # the model header's feature-layer field, after K and z_dim


@pytest.mark.parametrize("at, value, message", [
    (_ACT, 2, "unknown activation code 2 in layer 0"),  # tanh, retired in 0.6.0
    (_ACT, 5, "unknown activation code 5 in layer 0"),  # softmax, retired in 0.6.0
    (_PRIOR, 1, "z-prior byte must be 0"),  # the uniform prior, retired in 0.6.0
    (_WN, 0, "weight-norm byte of layer 0 must be 1, got 0"),  # a layer without a gain, retired in 0.7.0
], ids=["tanh-code", "softmax-code", "uniform-prior", "no-gain-layer"])
def test_retired_model_encodings_exit_2(files, capsys, at, value, message):
    assert _score(files, _model_with(files, at, value)) == 2
    assert f"at byte {at}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, 1, 3])  # the `2d` discriminator's last hidden layer is 2, its output 3
def test_a_model_whose_feature_layer_is_not_the_last_hidden_layer_exits_2(files, capsys, value):
    assert _FEATURE == 19
    assert _score(files, _model_with(files, _FEATURE, value)) == 2
    assert f"at byte 19: feature layer {value} is not the last hidden layer (2)" in capsys.readouterr().err


def test_a_model_with_a_broken_layer_chain_exits_2(files, capsys):
    model = gan.load_model(files / "model.ndgan")
    model.disc[1] = nn.init_mlp([32, 64, 1], "leaky-relu", "linear", np.random.default_rng(0), noise_std=0.1)[0]
    gan.save_model(files / "broken-chain.ndgan", model)  # every array has the size its header gives
    at = (files / "broken-chain.ndgan").read_bytes().index(struct.pack("<II", 32, 64))  # layer 1's header
    assert _score(files, files / "broken-chain.ndgan") == 2
    assert f"at byte {at}: layer 1 takes 32 inputs but layer 0 gives 64" in capsys.readouterr().err


@pytest.mark.parametrize("part, component, message", [
    ("data", {"weights": [1.0], "means": [[]], "variances": [[]]}, "schema violation at $.data"),
    ("novel", {"weights": [1.0], "means": [[]], "variances": [[]]}, "schema violation at $.novel"),
    ("data", {"weights": [1.0], "means": [[0.0, float("nan")]], "variances": [[0.3, 0.3]]}, "must be finite"),
    ("novel", {"weights": [1.0], "means": [[2.0, 0.0]], "variances": [[1e308, 0.3]]}, "underflowed at every"),
], ids=["0-dim-data", "0-dim-novel", "nan-mean", "underflow"])
def test_crafted_density_specs_exit_2(files, capsys, part, component, message):
    doc = json.loads((files / "density.json").read_text())
    doc[part] = component
    (files / "crafted.json").write_text(json.dumps(doc))
    assert _oracle(files, files / "crafted.json") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_files_with_zero_items_exit_2(files, capsys, which):
    images, labels = files / "images-idx", files / "labels-idx"
    if which == "images":
        images = files / "empty-images-idx"
        images.write_bytes(_idx(dio.IDX_MAGIC_IMAGES, (0, 3, 3), b""))
    else:
        labels = files / "empty-labels-idx"
        labels.write_bytes(_idx(dio.IDX_MAGIC_LABELS, (0,), b""))
    assert _train_idx(files, images, labels) == 2
    assert "item count 0" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["nan", "inf"])
def test_a_csv_with_a_non_finite_label_exits_2(files, capsys, label):
    (files / "bad-label.csv").write_text(f"x0,x1,label\n1,2,0\n3,4,{label}\n5,6,1\n")
    assert _train_csv(files, files / "bad-label.csv") == 2
    assert "row 1: non-finite label" in capsys.readouterr().err
