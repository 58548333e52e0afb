"""Tests of the benchmark's own logic. Run: python3 -m pytest benchmarks -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads
from imutok import evalbench, imusim, vqcodec

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_nested_spans():
    # a [0, 10] > b [1, 6] > c [2, 3]
    self_t, covered = tracing.self_times([0, 1, 2], [10, 6, 3], [-1, 0, 1])
    assert self_t == pytest.approx([5, 4, 1])
    assert covered == pytest.approx([5, 1, 0])


def test_self_time_sibling_spans():
    # a [0, 10] with children b [1, 3], c [4, 8], d [7, 9] (c and d overlap)
    self_t, covered = tracing.self_times([0, 1, 4, 7], [10, 3, 8, 9], [-1, 0, 0, 0])
    assert self_t[0] == pytest.approx(10 - 2 - 5)
    assert covered[0] == pytest.approx(7)
    assert self_t[1:] == pytest.approx([2, 4, 2])


def test_percentile_needs_ten_samples_beyond():
    assert workloads.percentile(range(1, 100), 90) is None
    assert workloads.percentile(range(1, 101), 90) == 90
    assert workloads.percentile(range(1000), 99) == 989
    assert workloads.percentile(range(999), 99) is None
    assert workloads.percentile(range(19), 50) is None
    assert workloads.percentile(range(20), 50) == 9
    assert workloads.percentile([], 50) is None


def _generated(seed):
    plan = workloads.make_plan("stream", seed)
    pairs = evalbench.synthesize_pairs(plan["stream_seeds"][:2], duration_s=1.0, fps=60.0)
    frames = np.concatenate([imu.frames for _, imu in pairs])
    wire = workloads.serialize_packets(frames, workloads.packet_bounds(len(frames),
                                                                       plan["packet_seed"]))
    return json.dumps(plan).encode(), workloads.digest_pairs(pairs), wire


def test_same_seed_same_inputs():
    assert _generated(3) == _generated(3)
    for a, b in zip(_generated(3), _generated(4)):
        assert a != b
    for name in ("train", "eval"):
        assert workloads.make_plan(name, 5) == workloads.make_plan(name, 5)
        assert workloads.make_plan(name, 5) != workloads.make_plan(name, 6)


def _slots():
    """Every module global and class attribute the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "imutok" or name.startswith("imutok."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
                if isinstance(val, type) and val.__module__.startswith("imutok"):
                    for attr, raw in vars(val).items():
                        out[(name, key, attr)] = raw
    return out


def test_traced_run_restores_every_function():
    before = _slots()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # bound at import in evalbench, looked up there: must be wrapped too
        assert evalbench.apply_drift is not before[("imutok.imusim", "apply_drift")]
        assert evalbench.apply_drift.__wrapped__ is before[("imutok.imusim", "apply_drift")]
        pairs = evalbench.synthesize_pairs([1], duration_s=0.5, fps=60.0)
        evalbench.corrupt_sensors(pairs[0][1], (0,), seed=2)
        vqcodec.Codebook.from_kmeans(np.random.default_rng(0).normal(size=(8, 2)), 2,
                                     rng=np.random.default_rng(1))
    finally:
        tracer.restore()
    after = _slots()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert isinstance(vqcodec.Codebook.__dict__["from_kmeans"], classmethod)
    names = {tracer.names[i] for i in tracer.name_id}
    assert {"imusim.apply_drift", "geom.exp_so3", "vqcodec.Codebook.from_kmeans",
            "vqcodec.quantize", "skeleton.forward_kinematics_sequence"} <= names
    # untraced calls after restore record nothing
    n = len(tracer.start)
    imusim.apply_drift(pairs[0][1], imusim.NoiseConfig(seed=1))
    assert len(tracer.start) == n


def test_phase_time_is_self_plus_child_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("phase.work"):
            pairs = evalbench.synthesize_pairs([1], duration_s=0.5, fps=60.0)
            evalbench.augment_and_normalize(pairs, seed=0)
    finally:
        tracer.restore()
    summary = tracing.summarize(tracer)
    assert summary["phase_self_plus_child_s"]["phase.work"] == pytest.approx(
        summary["phase_s"]["phase.work"], rel=1e-9)
    assert summary["metrics"]["evalbench.synthesize_pairs.calls"] == 1
    assert summary["metrics"]["imusim.apply_drift.calls"] == 1
    assert set(summary["metrics"]) | {tracing.OVERHEAD} == set(tracing.metric_specs())


def test_benchmark_json_lists_the_reported_metrics():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.metric_specs()
