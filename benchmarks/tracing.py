"""Span tracing for the benchmark's traced run.

``Tracer.install`` wraps each package function listed in ``TRACED`` at every
place it is looked up: module globals that hold the function (``evalbench``
binds ``apply_drift``, ``tokenize_sequence`` and more at import) and the
class attribute for methods. Each call records one span (name, start, end,
parent, run id) in flat in-memory arrays; ``restore`` puts every original
object back. Untraced runs never install the tracer.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer, attribute inside imutok.<layer>, whether its spans can have traced
# child spans and so get a .self_ms metric)
TRACED = [
    ("geom", "exp_so3", False),
    ("geom", "log_so3", False),
    ("geom", "angular_velocity", True),
    ("geom", "rot6d_to_matrix_batch", False),
    ("skeleton", "forward_kinematics_sequence", False),
    ("motion", "generate_synthetic_motion", True),
    ("motion", "build_motion_representation", True),
    ("motion", "track_from_motion", True),
    ("imusim", "synthesize_imu", True),
    ("imusim", "apply_drift", True),
    ("imusim", "apply_corruption", True),
    ("imusim", "normalize_acceleration", False),
    ("gradnet", "conv1d_forward", False),
    ("gradnet", "backward", False),
    ("gradnet", "AdamW.step", False),
    ("models", "MotionVQVAE.encode", True),
    ("models", "MotionVQVAE.decode", True),
    ("models", "ImuTokenizer.encode", True),
    ("models", "BaselinePoser.__call__", True),
    ("vqcodec", "quantize", False),
    ("vqcodec", "batch_token_frequency", False),
    ("vqcodec", "Codebook.from_kmeans", True),
    ("vqcodec", "Codebook.ema_update", False),
    ("vqcodec", "Codebook.refresh_dead", False),
    ("trainer", "train_motion_vqvae", True),
    ("trainer", "train_imu_tokenizer", True),
    ("evalbench", "synthesize_pairs", True),
    ("evalbench", "augment_and_normalize", True),
    ("evalbench", "train_baseline_poser", True),
    ("evalbench", "run_noise_benchmark", True),
    ("evalbench", "corrupt_sensors", True),
    ("evalbench", "joint_positions", True),
    ("evalbench", "jitter", False),
    ("stream", "push_frames", True),
    ("stream", "pipe_tokenize", True),
    ("stream", "tokenize_sequence", True),
    ("stream", "decode_tokens", True),
    ("checkpoint", "save_checkpoint", False),
    ("checkpoint", "load_checkpoint", False),
]

# counters recorded at the same boundaries: name -> (unit, better)
COUNTERS = {
    "gradnet.conv1d_forward.gflop": ("GFLOP-computed", "lower"),
    "gradnet.conv1d_forward.mb": ("MB-computed", "lower"),
    "vqcodec.quantize.distance_evals": ("count", "lower"),
    "vqcodec.Codebook.refresh_dead.entries": ("count", "lower"),
    "stream.frames_in": ("frames", "higher"),
    "stream.tokens_out": ("count", "higher"),
    "stream.frames_dropped": ("frames", "lower"),
    "stream.frames_used_ratio": ("ratio", "higher"),
    "checkpoint.save_checkpoint.bytes": ("bytes", "lower"),
    "checkpoint.load_checkpoint.bytes": ("bytes", "lower"),
}

OVERHEAD = "trace.overhead_s"
FRAMES_PER_TOKEN = 4


def _value(x):
    return getattr(x, "value", x)


def _count_conv(c, args, out):
    # computed from shapes, not measured: the forward GEMM's multiply-adds and
    # the bytes of its column matrix, weights and output
    x, w = _value(args[0]), _value(args[1])
    batch = 1 if x.ndim == 2 else x.shape[0]
    c_out, c_in, k = w.shape
    t_out = out.value.shape[-1]
    c["gradnet.conv1d_forward.gflop"] += 2.0 * batch * c_out * c_in * k * t_out / 1e9
    elems = batch * c_in * k * t_out + c_out * c_in * k + batch * c_out * t_out
    c["gradnet.conv1d_forward.mb"] += elems * x.itemsize / 1e6


def _count_quantize(c, args, out):
    table = getattr(args[1], "entries", args[1])
    c["vqcodec.quantize.distance_evals"] += len(out[0]) * len(table)


def _count_refresh(c, args, out):
    c["vqcodec.Codebook.refresh_dead.entries"] += out


def _count_stream(frames_arg: int):
    def count(c, args, out):
        c["stream.frames_in"] += len(args[frames_arg])
        c["stream.tokens_out"] += len(out)
    return count


def _count_file(name):
    def count(c, args, out):
        c[name] += os.path.getsize(args[0])
    return count


COUNT_HOOKS = {
    "gradnet.conv1d_forward": _count_conv,
    "vqcodec.quantize": _count_quantize,
    "vqcodec.Codebook.refresh_dead": _count_refresh,
    "stream.push_frames": _count_stream(1),
    "stream.tokenize_sequence": _count_stream(0),
    "checkpoint.save_checkpoint": _count_file("checkpoint.save_checkpoint.bytes"),
    "checkpoint.load_checkpoint": _count_file("checkpoint.load_checkpoint.bytes"),
}


def metric_specs() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {}
    for layer, attr, has_children in TRACED:
        name = f"{layer}.{attr}"
        specs[f"{name}.calls"] = ("count", "lower")
        specs[f"{name}.ms"] = ("ms", "lower")
        if has_children:
            specs[f"{name}.self_ms"] = ("ms", "lower")
    specs.update(COUNTERS)
    specs[OVERHEAD] = ("s", "lower")
    return specs


class Tracer:
    """In-memory span recorder; spans are appended in call order, so a
    span's parent always has a smaller index than the span itself."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._stack: list[int] = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, fn, name: str, count=None):
        nid = self._id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if count is not None:
                count(counters, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "imutok" or n.startswith("imutok.")]
        for layer, attr, _ in TRACED:
            mod = importlib.import_module(f"imutok.{layer}")
            name = f"{layer}.{attr}"
            count = COUNT_HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, count))
                else:
                    new = self.wrap(raw, name, count)
                self._patch(cls, meth, raw, new)
                continue
            original = getattr(mod, attr)
            new = self.wrap(original, name, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, original, new)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), run=np.asarray(self.run))


def self_times(start, end, parent):
    """(self, covered) per span: covered is the part of the span's interval
    that the union of its child spans covers, self the rest."""
    start, end, parent = list(start), list(end), list(parent)
    covered = [0.0] * len(start)
    reach = {}
    for i in sorted(range(len(start)), key=lambda i: (parent[i], start[i])):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [e - s - c for s, e, c in zip(start, end, covered)], covered


def top_level(parent) -> list:
    """Index of each span's top-level ancestor (itself when it has no parent)."""
    top = []
    for i, p in enumerate(parent):
        top.append(i if p < 0 else top[p])
    return top


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics over every recorded span, plus each top-level
    (phase) span's wall time, the part of it that self and child time
    account for, and its per-layer self time."""
    self_t, covered = self_times(tracer.start, tracer.end, tracer.parent)
    top = top_level(tracer.parent)
    names, name_id = tracer.names, tracer.name_id
    calls, ms, self_ms = {}, {}, {}
    phase_s, phase_accounted_s, layer_self = {}, {}, {}
    for i, nid in enumerate(name_id):
        phase = names[name_id[top[i]]]
        dur = tracer.end[i] - tracer.start[i]
        if i == top[i]:
            phase_s[phase] = phase_s.get(phase, 0.0) + dur
            phase_accounted_s[phase] = phase_accounted_s.get(phase, 0.0) + self_t[i] + covered[i]
            continue
        per_phase = layer_self.setdefault(phase, {})
        layer = names[nid].split(".")[0]
        per_phase[layer] = per_phase.get(layer, 0.0) + 1e3 * self_t[i]
        calls[nid] = calls.get(nid, 0) + 1
        ms[nid] = ms.get(nid, 0.0) + 1e3 * dur
        self_ms[nid] = self_ms.get(nid, 0.0) + 1e3 * self_t[i]

    metrics = {}
    for layer, attr, has_children in TRACED:
        name = f"{layer}.{attr}"
        nid = tracer._ids.get(name)
        metrics[f"{name}.calls"] = calls.get(nid, 0)
        metrics[f"{name}.ms"] = ms.get(nid, 0.0)
        if has_children:
            metrics[f"{name}.self_ms"] = self_ms.get(nid, 0.0)
    metrics.update(tracer.counters)
    tokens = tracer.counters["stream.tokens_out"]
    frames = tracer.counters["stream.frames_in"]
    metrics["stream.frames_dropped"] = frames - FRAMES_PER_TOKEN * tokens
    metrics["stream.frames_used_ratio"] = FRAMES_PER_TOKEN * tokens / frames if frames else 0.0
    return {"metrics": metrics, "phase_s": phase_s, "phase_self_plus_child_s": phase_accounted_s,
            "layer_self_ms": layer_self, "spans": len(tracer.start)}
