"""The BLAS pin of training and scoring, the noise lane and the training and scoring lanes:
the bits they must keep, and the threads and thread counts they must give back."""

import hashlib
import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import blas, cli, gan, scores
from ndgan import data as dio
from ndgan import layers as nn
from ndgan.errors import DomainError, TrainingDiverged, ValidationError
from ndgan.rng import NoiseAhead
from ndgan.scores import UniformBaselineGenerator
from tests.conftest import run_python

needs_openblas = pytest.mark.skipif(blas.openblas() is None, reason="numpy's BLAS is not OpenBLAS")

_SHAPES = st.one_of(st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 9), st.integers(1, 9)))


@settings(max_examples=80, deadline=None)
@given(size=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       requests=st.lists(st.tuples(_SHAPES, st.sampled_from([0.1, 1.0, 2.5, 1e-3])), max_size=12))
def test_noise_ahead_gives_generator_normal_bit_for_bit(size, seed, requests):
    small = type("Small", (NoiseAhead,), {"SIZE": size})  # requests span and exceed buffers
    with blas.Lane() as lane:
        ahead, reference = small(np.random.default_rng(seed), lane), np.random.default_rng(seed)
        for shape, scale in requests:
            got, want = ahead.normal(0.0, scale, shape), reference.normal(0.0, scale, shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _lanes_alive() == 0


def test_noise_threads_under_fast_switching_keep_every_stream_exact():
    small = type("Small", (NoiseAhead,), {"SIZE": 5})  # a refill every few requests
    results = {}

    def consume(seed):
        with blas.Lane() as lane:
            ahead, reference = small(np.random.default_rng(seed), lane), np.random.default_rng(seed)
            results[seed] = all(ahead.normal(0.0, 0.5, (i % 7, 2)).tobytes()
                                == reference.normal(0.0, 0.5, (i % 7, 2)).tobytes() for i in range(2000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(seed,)) for seed in range(4)]  # 8 threads
        for t in consumers:
            t.start()
        for t in consumers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in consumers) and _lanes_alive() == 0
    assert results == {seed: True for seed in range(4)}


def test_an_error_in_the_noise_thread_reaches_every_later_call():
    error = ValueError("no draws")

    class Broken:  # fills one buffer, then fails
        fills = 0

        def standard_normal(self, out):
            self.fills += 1
            if self.fills > 1:
                raise error
            out[:] = 1.0

    class Idle(blas.Lane):  # its thread ends at once, so the caller runs every job when it joins
        def _work(self):
            pass

    for lane_type in (blas.Lane, Idle):
        raised = []
        with lane_type() as lane:
            ahead = type("Small", (NoiseAhead,), {"SIZE": 4})(Broken(), lane)
            assert ahead.normal(0.0, 2.0, (3,)).tolist() == [2.0, 2.0, 2.0]
            for shape in ((3,), (1,), (0,)):  # the first spans into the failed buffer
                with pytest.raises(ValueError) as caught:
                    ahead.normal(0.0, 1.0, shape)
                raised.append(caught.value)
        assert _lanes_alive() == 0
        assert all(e is error for e in raised) and len(raised) == 3


def _started(monkeypatch) -> list:
    """The NoiseAhead objects that train_gan makes from now on."""
    made = []

    class Spy(NoiseAhead):
        def __init__(self, gen, lane):
            super().__init__(gen, lane)
            made.append(self)

    monkeypatch.setattr(gan, "NoiseAhead", Spy)
    return made


def _lane_blocks(monkeypatch) -> list:
    """One entry per job that a lane is handed from now on, but for noise fills."""
    handed, submit = [], blas.Lane.submit

    def counting(self, fn, *args):
        if not isinstance(getattr(fn, "__self__", None), NoiseAhead):
            handed.append(args)
        return submit(self, fn, *args)

    monkeypatch.setattr(blas.Lane, "submit", counting)
    return handed


def _lanes_alive() -> int:
    return sum(t.name == "ndgan-lane" for t in threading.enumerate())


_RING = dio.gen_ring_mixture(200, 4, 2.0, 0.2, seed=1)[0]
_IMAGES = dio.Dataset(np.random.default_rng(2).uniform(size=(96, 36)), np.arange(96) % 3, K=3)
_TRAINING_BRANCHES = pytest.mark.parametrize("arch, data, train, fake", [
    ("2d", _RING, {"labeled_fraction": 0.5}, False),
    ("2d", _RING, {"generator_loss": "standard", "d_steps_per_g": 2}, False),
    ("2d", _RING, {"labeled_fraction": 0.5}, True),
    ("mnist", _IMAGES, {"labeled_fraction": 0.5}, False),
    ("mnist", _IMAGES, {"generator_loss": "standard", "d_steps_per_g": 2}, False),
    ("mnist", _IMAGES, {}, True),
], ids=["2d-fm", "2d-standard-d2", "2d-uniform", "mnist-fm", "mnist-standard-d2", "mnist-uniform"])


def _trained_files(tmp_path, monkeypatch, arch, data, train, fake, on_cpus=lambda cpus: None) -> list:
    """(model file, log file) bytes of one training run at cpu_count 1 and one at 2;
    ``on_cpus(cpus)`` is called before each."""
    fake_source = UniformBaselineGenerator([[-3.0, 3.0]] * data.dim).sample if fake else None
    config = gan.TrainConfig(total_steps=40 if arch == "2d" else 4, batch_size=32, seed=4, log_every=2, **train)
    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(blas, "cpu_count", lambda cpus=cpus: cpus)
        on_cpus(cpus)
        model, log = gan.train_gan(gan.build_gan(data.dim, data.K, arch, seed=4), data, config, fake_source)
        gan.save_model(tmp_path / "model.ndgan", model)
        log.to_csv(tmp_path / "log.csv")
        files.append(((tmp_path / "model.ndgan").read_bytes(), (tmp_path / "log.csv").read_bytes()))
    return files


@needs_openblas
@_TRAINING_BRANCHES
def test_the_noise_thread_keeps_the_trained_bits(tmp_path, monkeypatch, arch, data, train, fake):
    made = _started(monkeypatch)
    files = _trained_files(tmp_path, monkeypatch, arch, data, train, fake)  # one CPU: the stream itself; two: the thread
    assert len(made) == 1
    assert files[0] == files[1]


@needs_openblas
@_TRAINING_BRANCHES
def test_the_training_lane_keeps_the_trained_bits(tmp_path, monkeypatch, arch, data, train, fake):
    handed, counts = _lane_blocks(monkeypatch), {}
    files = _trained_files(tmp_path, monkeypatch, arch, data, train, fake,
                           on_cpus=lambda cpus: counts.setdefault(cpus, len(handed)))
    counts = {1: counts[2] - counts[1], 2: len(handed) - counts[2]}  # jobs handed at each CPU count
    assert counts[1] == 0 and bool(counts[2]) == (arch == "mnist")  # the lane runs mnist widths alone
    assert files[0] == files[1]
    assert _lanes_alive() == 0


@needs_openblas
def test_training_runs_one_lane_for_the_noise_and_one_more_at_mnist_width(monkeypatch):
    monkeypatch.setattr(blas, "cpu_count", lambda: 2)
    seen, descend = [], gan._descend

    def counting(*args, **kwargs):
        seen.append(_lanes_alive())
        return descend(*args, **kwargs)

    monkeypatch.setattr(gan, "_descend", counting)
    for arch, data, lanes in (("2d", _RING, 1), ("mnist", _IMAGES, 2)):
        seen.clear()
        gan.train_gan(gan.build_gan(data.dim, data.K, arch, seed=3), data, gan.TrainConfig(total_steps=3, batch_size=8))
        assert seen and set(seen) == {lanes}, arch
        assert _lanes_alive() == 0


def _poison_gradients(monkeypatch):
    """Adam then meets an infinite gradient at the first discriminator step, in the last
    element of its buffer: in the lane's half, where a lane checks one."""
    backward = nn.mlp_backward

    def poisoned(*args, out=None, **kwargs):
        dx = backward(*args, out=out, **kwargs)
        if out is not None:
            out[-1].b[-1] = np.inf
        return dx

    monkeypatch.setattr(nn, "mlp_backward", poisoned)


def _failed_adam_steps(monkeypatch) -> list:
    """Per adam_step call that raises from now on: whether it had a lane, and the bytes of
    the parameters, both moments and the step count before the call and after it."""
    failed, step = [], nn.adam_step

    def spy(params, grads, state, lane=None):
        def state_now():
            return params[0].v.base.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step_count

        before = state_now()
        try:
            return step(params, grads, state, lane)
        except DomainError:
            failed.append((lane is not None, before, state_now()))
            raise

    monkeypatch.setattr(nn, "adam_step", spy)
    return failed


@needs_openblas
@pytest.mark.parametrize("error", [TrainingDiverged, DomainError])
def test_a_failed_run_stops_the_noise_thread_and_restores_blas(monkeypatch, error):
    made = _started(monkeypatch)
    monkeypatch.setattr(blas, "cpu_count", lambda: 2)
    get = blas.openblas()[0]
    before = get()
    failed = _failed_adam_steps(monkeypatch)
    if error is DomainError:
        _poison_gradients(monkeypatch)
    alive = threading.active_count()
    for arch, data in (("2d", _RING), ("mnist", _IMAGES)):  # the lane runs at mnist width
        poisoned = (lambda n, rng: np.full((n, data.dim), np.nan)) if error is TrainingDiverged else None
        with pytest.raises(error):  # TrainingDiverged: a non-finite d-loss at step 1
            gan.train_gan(gan.build_gan(data.dim, data.K, arch, seed=3), data,
                          gan.TrainConfig(total_steps=5, batch_size=8), poisoned)
        assert threading.active_count() == alive and _lanes_alive() == 0
        assert get() == before
    assert len(made) == 2
    if error is DomainError:  # nothing written: the check of both halves ran first
        assert [lane for lane, _, _ in failed] == [False, True]
        assert all(was == now for _, was, now in failed)


@needs_openblas
@pytest.mark.parametrize("owner, name", [(nn, "effective_weights"), (nn.np, "matmul"), (nn.np, "isfinite"),
                                         (nn, "mlp_forward")], ids=["cache", "backward", "adam", "feature-matching"])
def test_an_error_in_the_training_lane_reaches_the_caller_and_restores_threads_and_blas(monkeypatch, owner, name):
    made = _started(monkeypatch)
    monkeypatch.setattr(blas, "cpu_count", lambda: 2)
    error = DomainError("lane", "bad job")
    _fail_in_lanes(monkeypatch, owner, name, error)
    get = blas.openblas()[0]
    before, alive = get(), threading.active_count()
    with pytest.raises(DomainError) as caught:
        gan.train_gan(gan.build_gan(_IMAGES.dim, _IMAGES.K, "mnist", seed=3), _IMAGES,
                      gan.TrainConfig(total_steps=8, batch_size=8))
    assert caught.value is error
    assert len(made) == 1
    assert threading.active_count() == alive and _lanes_alive() == 0
    assert get() == before


@needs_openblas
def test_one_thread_pins_and_restores():
    get, _ = blas.openblas()
    before = get()
    with blas.one_thread() as pinned:
        assert pinned and get() == 1
    assert get() == before


_LANE_SCORERS = ["nd-gan-ratio", "fake-prob", "entropy", "max-prob", "knn-5"]


@needs_openblas
@pytest.mark.parametrize("arch, dim", [("2d", 2), ("mnist", 196)])
def test_scores_do_not_depend_on_the_lane_count(monkeypatch, arch, dim):
    rng = np.random.default_rng(6)
    model = gan.build_gan(dim, 4, arch, seed=6)
    reference = rng.uniform(size=(300, dim))  # more rows than one block: its pass uses the lanes
    handed = _lane_blocks(monkeypatch)
    for block in (gan.FORWARD_BLOCK, scores.KNN_BLOCK):
        for n in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            x = rng.uniform(size=(n, dim))
            scored = []
            for cpus in (1, 2):
                monkeypatch.setattr(blas, "cpu_count", lambda cpus=cpus: cpus)
                handed.clear()
                got = scores.Scorer(model, _LANE_SCORERS, reference).score(x)
                assert bool(handed) == (cpus == 2)
                scored.append({name: values.tobytes() for name, values in got.items()})
            assert scored[0] == scored[1], (block, n)


def _fail_in_lanes(monkeypatch, owner, name, error):
    """``owner.name`` raises ``error`` when a lane thread calls it. A join first waits for
    the lane's thread to take every job, so that no job runs on the caller however the
    threads are scheduled."""
    real, join = getattr(owner, name), blas.Lane.join

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return real(*args, **kwargs)

    def patient(lane):
        while lane._queue:
            time.sleep(1e-4)
        return join(lane)

    monkeypatch.setattr(owner, name, failing)
    monkeypatch.setattr(blas.Lane, "join", patient)


@needs_openblas
@pytest.mark.parametrize("where", ["forward", "knn"])
@pytest.mark.parametrize("error, code", [(ValidationError("bad block"), 2), (DomainError("lane", "bad block"), 3)],
                         ids=["validation", "domain"])
def test_an_error_in_a_lane_reaches_the_caller_and_restores_threads_and_blas(tmp_path, monkeypatch, where, error,
                                                                             code):
    monkeypatch.setattr(blas, "cpu_count", lambda: 2)
    model = gan.build_gan(2, 4, "2d", seed=3)
    gan.save_model(tmp_path / "model.ndgan", model)
    dio.write_csv_dataset(tmp_path / "data.csv", _RING)
    if where == "forward":
        _fail_in_lanes(monkeypatch, nn, "mlp_forward", error)
    else:  # the forward passes have run; the kNN search's tie check fails
        _fail_in_lanes(monkeypatch, scores.np, "count_nonzero", error)
    get = blas.openblas()[0]
    before, alive = get(), threading.active_count()
    with pytest.raises(type(error)) as caught:
        scorer = scores.Scorer(model, _LANE_SCORERS, _RING.features[:100])
        scorer.score(_RING.features)
    assert caught.value is error
    assert threading.active_count() == alive and get() == before
    assert cli.main(["score", "--model", str(tmp_path / "model.ndgan"), "--data", str(tmp_path / "data.csv"),
                     "--label-column", "label", "--scorers", ",".join(_LANE_SCORERS),
                     "--knn-reference", str(tmp_path / "data.csv"), "--seed", "1",
                     "--out-dir", str(tmp_path / "out")]) == code
    assert threading.active_count() == alive and get() == before
    assert not (tmp_path / "out" / "scores.csv").exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@needs_openblas
@pytest.mark.parametrize("arch", ["2d", "mnist"])
def test_trained_files_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch, arch):
    if arch == "2d":
        data, steps = _RING, 60
    else:  # 14x14 images: the layers are wide enough for OpenBLAS to split products across threads
        data = dio.Dataset(np.random.default_rng(8).uniform(size=(256, 196)), np.arange(256) % 4, K=4)
        steps = 3
    dio.write_csv_dataset(tmp_path / "train.csv", data)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "dataset": {"path": str(tmp_path / "train.csv"), "label_column": "label"}, "arch": arch, "seed": 21,
        "train": {"total_steps": steps, "batch_size": 64, "labeled_fraction": 0.5, "log_every": 1},
    }))
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        proc = run_python(["-m", "ndgan.cli", "train", "--config", str(config), "--out-dir", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_python(["-m", "ndgan.cli", "score", "--model", str(out / "model.ndgan"),
                           "--data", str(tmp_path / "train.csv"), "--label-column", "label",
                           "--scorers", "nd-gan-ratio,fake-prob,entropy,max-prob,knn-5",
                           "--knn-reference", str(tmp_path / "train.csv"), "--seed", "21",
                           "--out-dir", str(out / "scored")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        digests.append([_sha256(out / name) for name in ("model.ndgan", "train_log.csv", "scored/scores.csv")])
    assert digests[0] == digests[1]
