"""Span tracing for the benchmark's traced run.

``Tracer.install`` replaces every public function of the ``ndgan`` modules
with a wrapper that records a span (name, start, end, enclosing span). It
patches every module-level binding of the same function object, so calls
through a ``from``-import (``scores`` binds ``discriminator_probs`` from
``gan``) are seen too. It also wraps the ``score`` method of each scorer
class, ``cli._atomic`` (every file the CLI writes), and ``Tape.record``: each
backward callable passed to ``Tape.record`` is wrapped, so backward time is
split by op. ``Tracer.uninstall`` restores the originals.

Spans are kept in flat in-memory arrays; ``save`` writes them out at the end
and ``per_layer`` reduces them to the per-layer metrics. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import time
import types
from array import array
from pathlib import Path

import numpy as np

MODULES = ("autodiff", "layers", "gan", "scores", "data", "metrics", "densities", "cli")
SKIP = {"autodiff.active_tape"}  # called inside every op; a span there measures only the tracer
FWD_OPS = ("matmul", "transpose", "add", "weight_norm_rows", "relu", "leaky_relu",
           "gaussian_noise", "softmax", "log_softmax")
SCORERS = ("nd-gan-ratio", "fake-prob", "entropy", "max-prob", "knn-5")
STAGES = ("synth", "train", "score", "eval", "oracle")


def _file_bytes(args, kwargs, out):
    return float(os.path.getsize(args[0]))


def _rows(args, kwargs, out):
    return float(len(args[1]))


# Work recorded with a span: rows, bytes, pairs, tensors or steps, per call.
WORK = {
    "data.read_csv_dataset": _file_bytes,
    "scores.score_knn": lambda a, k, o: float(np.atleast_2d(a[0]).shape[0] * np.atleast_2d(a[1]).shape[0]),
    "gan.train_gan": lambda a, k, o: float((a[2] if len(a) > 2 else k["config"]).total_steps),
    "layers.adam_step": lambda a, k, o: float(sum(len(list(p.named())) for p in a[0])),
    "autodiff.backward": lambda a, k, o: float(len(a[0].nodes)),
    "metrics.run_benchmark": lambda a, k, o: float(sum(len(sp.eval_nominal.features) + len(sp.eval_novel.features)
                                                       for sp, _ in a[0])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("d")
        self._stack = [-1]
        self._patches: list = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, work=None):
        """``fn`` recording a span per call; ``name`` may be a function of the call's args."""
        nid = None if callable(name) else self._nid(name)
        names, starts, ends, parents, works, stack = (
            self.name, self.start, self.end, self.parent, self.work, self._stack)
        clock, nid_of = time.perf_counter_ns, self._nid

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid if nid is not None else nid_of(name(args)))
            parents.append(stack[-1])
            ends.append(0)
            works.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if work is not None:
                works[i] = work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    # -- patching -----------------------------------------------------------

    def install(self, only=None):
        """Wrap every public function, or just the functions named in ``only``."""
        mods = {m: importlib.import_module(f"ndgan.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                full = f"{short}.{attr}"
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and full not in SKIP
                        and (only is None or full in only)):
                    wrappers[id(obj)] = (obj, self.wrap(full, obj, WORK.get(full)))
        if only is None:
            atomic = mods["cli"]._atomic
            wrappers[id(atomic)] = (atomic, self.wrap(
                lambda a: "cli._atomic.csv" if str(a[0]).endswith(".csv") else "cli._atomic.other",
                atomic, _file_bytes))
        for mod in mods.values():  # every binding, from-imports included
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        if only is not None:
            return

        scores = mods["scores"]
        for cls in vars(scores).values():
            if isinstance(cls, type) and issubclass(cls, scores.Scorer) and "score" in vars(cls):
                self._patch(cls, "score", self.wrap(lambda a: "scores.score." + a[0].kind,
                                                     vars(cls)["score"], _rows))

        tape_cls = mods["autodiff"].Tape
        record = vars(tape_cls)["record"]
        wrap = self.wrap

        def traced_record(tape, op, out, inputs, backward):
            if backward is not None:
                backward = wrap("autodiff.bwd." + op, backward)
            return record(tape, op, out, inputs, backward)

        self._patch(tape_cls, "record", traced_record)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path: Path):
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------


class Spans:
    """Vectorized views of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.work = a["name"], a["parent"], a["work"]
        self.start = a["start_ns"]
        self.dur = (a["end_ns"] - a["start_ns"]) / 1e9
        n = len(self.dur)
        has = self.parent >= 0
        self.self_t = self.dur - np.bincount(self.parent[has], weights=self.dur[has], minlength=n)
        # outermost: no ancestor carries the same name, so totals never double count
        self.outer = np.ones(n, dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            same = np.zeros(n, dtype=bool)
            same[live] = self.name[anc[live]] == self.name[live]
            self.outer &= ~same
            anc[live] = self.parent[anc[live]]

    def mask(self, name: str) -> np.ndarray:
        nid = self.names.index(name) if name in self.names else -2
        return self.name == nid

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name) & self.outer].sum())

    def self_time(self, name: str) -> float:
        return float(self.self_t[self.mask(name)].sum())

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def work_of(self, name: str) -> float:
        return float(self.work[self.mask(name) & self.outer].sum())

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called ``name``."""
        target = self.mask(name)
        found = np.zeros(len(self.dur), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            found[live] |= target[anc[live]]
            anc[live] = self.parent[anc[live]]
        return found

    def children(self, i: int) -> np.ndarray:
        return np.nonzero(self.parent == i)[0]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


_PHASE = {
    "gan.discriminator_loss": "d_loss",
    "gan.generator_loss_feature_matching": "g_loss",
    "gan.generator_loss_standard": "g_loss",
    "layers.adam_step": "adam",
    "gan.feature_matching_distance": "diag",
    "gan.sample_generator": "sample",
    "gan.sample_z": "sample",
}


def _train_steps(s: Spans):
    """Phase seconds and per-step durations from the children of each train_gan span."""
    phases = dict.fromkeys(("sample", "d_loss", "d_backward", "g_loss", "g_backward", "adam", "diag"), 0.0)
    step_s: list[float] = []
    steps = 0
    for t in np.nonzero(s.mask("gan.train_gan"))[0]:
        total = int(s.work[t])
        steps += total
        kids = [(s.names[s.name[c]], c) for c in s.children(t)]
        n_adam = sum(1 for name, _ in kids if name == "layers.adam_step")
        per_step = max(1, round(n_adam / total)) if total else 1
        loss, adams, bounds = "d", per_step, []
        for j, (name, c) in enumerate(kids):
            phase = _PHASE.get(name)
            if name in ("autodiff.backward", "layers.collect_grads"):
                phase = f"{loss}_backward"
            elif phase == "sample" and j + 1 < len(kids) and kids[j + 1][0] == "gan.feature_matching_distance":
                phase = "diag"
            if phase is None:
                continue
            if phase != "diag" and adams >= per_step:  # first span of a new step
                bounds.append(s.start[c])
                adams = 0
            if phase in ("d_loss", "g_loss"):
                loss = phase[0]
            adams += phase == "adam"
            phases[phase] += float(s.dur[c])
        last_end = max((s.start[c] + s.dur[c] * 1e9 for _, c in kids), default=0)
        edges = bounds + [last_end]
        step_s.extend((edges[i + 1] - edges[i]) / 1e9 for i in range(len(bounds)))
    return phases, np.asarray(step_s), steps


def per_layer(tracer: Tracer, src_dir: Path) -> dict:
    """Every per-layer metric, keyed by name; 0 where the layer saw no call."""
    s = Spans(tracer)
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"cli.{stage}_s"] = s.total(f"stage.{stage}")
    m["cli.score_self_s"] = s.self_time("cli.cmd_score")

    phases, step_s, steps = _train_steps(s)
    per = 1.0 / steps if steps else 0.0
    m["autodiff.backward_s"] = s.total("autodiff.backward")
    m["autodiff.tape_nodes_per_step"] = s.work_of("autodiff.backward") * per
    for op in FWD_OPS:
        m[f"autodiff.fwd_s.{op}"] = s.total(f"autodiff.{op}")
        m[f"autodiff.bwd_s.{op}"] = s.total(f"autodiff.bwd.{op.replace('_', '-')}")

    m["layers.mlp_forward_s"] = s.total("layers.mlp_forward")
    m["layers.adam_step_s"] = s.total("layers.adam_step")
    m["layers.adam_tensors_per_step"] = s.work_of("layers.adam_step") * per
    m["layers.collect_grads_s"] = s.total("layers.collect_grads")

    m["gan.step_ms_p50"] = float(np.percentile(step_s, 50) * 1e3) if len(step_s) else 0.0
    m["gan.step_ms_p99"] = float(np.percentile(step_s, 99) * 1e3) if len(step_s) else 0.0
    for phase, secs in phases.items():
        m[f"gan.{phase}_s"] = secs
    d_passes = s.mask("gan.discriminator_logits") & s.under("gan.discriminator_loss")
    m["gan.disc_passes_per_step"] = float(d_passes.sum()) * per
    m["gan.save_model_s"] = s.total("gan.save_model")
    m["gan.load_model_s"] = s.total("gan.load_model")

    for name in SCORERS:
        m[f"scores.rows_per_s.{name}"] = _rate(s.work_of(f"scores.score.{name}"), s.total(f"scores.score.{name}"))
    # a score call is one `ndgan score`, or one evaluation set of one holdout split
    calls = s.count("cli.cmd_score") + 2 * int((s.mask("gan.train_gan") & s.under("stage.eval")).sum())
    passes = s.mask("gan.discriminator_logits") & (s.under("cli.cmd_score") | s.under("metrics.run_benchmark"))
    m["scores.disc_passes_per_score_call"] = float(passes.sum()) / calls if calls else 0.0
    m["scores.knn_s"] = s.total("scores.score_knn")
    m["scores.knn_pairs_per_s"] = _rate(s.work_of("scores.score_knn"), m["scores.knn_s"])

    m["data.csv_read_s"] = s.total("data.read_csv_dataset")
    m["data.csv_read_mb_per_s"] = _rate(s.work_of("data.read_csv_dataset") / 1e6, m["data.csv_read_s"])
    m["data.csv_write_mb_per_s"] = _rate(s.work_of("cli._atomic.csv") / 1e6, s.total("cli._atomic.csv"))
    m["data.idx_read_s"] = s.total("data.read_idx") + s.total("data.read_idx_labels")
    m["data.downscale_s"] = s.total("data.downscale_images")
    m["data.ring_gen_s"] = s.total("data.gen_ring_mixture")

    m["metrics.roc_s"] = s.total("metrics.roc_from_arrays")
    m["metrics.holdout_splits_s"] = s.total("metrics.make_holdout_splits")
    m["metrics.run_benchmark_self_s"] = s.self_time("metrics.run_benchmark")

    m["densities.identity_s"] = s.total("densities.verify_mixture_identity")
    m["densities.lr_score_s"] = s.total("densities.likelihood_ratio_score")
    m["densities.optimal_disc_s"] = s.total("densities.optimal_discriminator")

    m["src.lines"] = float(sum(len(p.read_text().splitlines()) for p in sorted(src_dir.glob("*.py"))))
    m["gan.steps_traced"] = float(steps)
    m["gan.step_samples"] = float(len(step_s))
    return m

