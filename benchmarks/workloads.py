"""The benchmark's workloads: seeded inputs, set-up, timed units and checks.

Every input is derived from the workload seed by ``make_plan``; the package
receives only those generated inputs. Package functions are always called
through their module (``evalbench.run_noise_benchmark``, not a bound name),
so that in the traced run the wrapped functions are the ones called.
"""

from __future__ import annotations

import hashlib
import io
import math
import statistics
import struct
from time import perf_counter

import numpy as np

from imutok import checkpoint, evalbench, imusim, stream, trainer
from imutok.errors import ImutokError

DURATION_S = 8.0
FPS = 60.0
MIN_BEYOND = 10    # a percentile counts only with this many samples beyond it
MAX_UNITS = 64     # seeds drawn per workload; a run never does more units than this

# train: unit i trains stage STAGES[i % 3] from scratch for UNIT_STEPS steps;
# MIN_TRAIN_UNITS units give every stage >= 100 step samples, the fewest whose
# p90 has 10 samples beyond it
TRAIN_PAIRS = 32   # shaped like the acceptance suite's corpus: 32 pairs x 8 s at 60 fps
STAGES = ("stage1", "stage2", "baseline")
CKPT_OF = {"stage1": "motion", "stage2": "imu", "baseline": "baseline"}
UNIT_STEPS = 26
MIN_TRAIN_UNITS = 12
# eval and stream train throwaway checkpoints in set-up; inference cost does
# not depend on how well they are trained
QUICK_PAIRS = 4
QUICK_STEPS = 4
# eval: each unit is one held-out pair, synthesized and run through the noise
# benchmark at LEVELS on its own, so that every pair gives one timing sample
MIN_EVAL_UNITS = 8
LEVELS = (1, 2, 3)
# stream: each unit pushes the whole recording through push_frames, then
# through pipe_tokenize, in its own seeded packets; units repeat until at
# least MIN_PACKETS packets
STREAM_SEQS = 8    # 8 x 480 frames: 240 whole 16-frame chunks, so no frame is dropped
MAX_PACKET = 63    # packet sizes 1..63 frames, as in acceptance criterion 10
MIN_PACKETS = 1000
# reference kernels (see Reference) and their nominal times, close to their
# uncontended times on the machine where the first baseline was measured
REF_CONVS = 4
REF_GEMMS = 8
REF_LOOPS = 2500
REF_S = {"conv": 0.03, "mixed": 0.03}


def percentile(samples, p: float):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond its rank."""
    xs = sorted(samples)
    rank = math.ceil(p / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def timing(samples, p: float, unit: str = "ms") -> dict:
    return {"value": percentile(samples, p), "unit": unit, "n": len(samples)}


class Reference:
    """A fixed computation that imports nothing from imutok, timed next to
    every set-up and unit. On the shared 2-vCPU virtual machine where the
    baseline was measured, every process slows by 20-50% for tens of seconds
    at a time; the reference slows with it, so
    ``REF_S[kind] / reference time`` rescales a measured time to the speed the
    host had when the reference took REF_S[kind]. Each workload uses the kind
    that resembles its own work: "conv" is an im2col conv forward and backward
    plus an AdamW-like update at train's shapes, "mixed" a few GEMMs plus a
    Python loop of 3x3 numpy calls like geom's."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.x = rng.standard_normal((16, 128, 66)).astype(np.float32)
        self.w = rng.standard_normal((128, 512)).astype(np.float32)
        self.p = rng.standard_normal(300_000).astype(np.float32)
        self.m = np.zeros_like(self.p)
        self.a = rng.random((128, 640), dtype=np.float32)
        self.b = rng.random((640, 1024), dtype=np.float32)
        self.v = rng.random(3)

    def _conv(self) -> None:
        for _ in range(REF_CONVS):
            win = np.lib.stride_tricks.sliding_window_view(self.x, 4, axis=2)
            cols = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(16, 512, 63)
            y = np.matmul(self.w, cols)
            np.matmul(y, cols.transpose(0, 2, 1)).sum(axis=0)
            gcols = np.matmul(self.w.T, y).reshape(16, 128, 4, 63)
            gx = np.zeros_like(self.x)
            for j in range(4):
                gx[:, :, j:j + 63] += gcols[:, :, j, :]
            self.m = 0.9 * self.m + 0.1 * self.p
            self.p -= 1e-6 * (self.m / (np.sqrt(self.m * self.m) + 1e-8) + 0.01 * self.p)

    def _mixed(self) -> None:
        for _ in range(REF_GEMMS):
            self.a @ self.b
        v = self.v
        for _ in range(REF_LOOPS):
            k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
            np.linalg.norm(k @ k)

    def __call__(self) -> float:
        t0 = perf_counter()
        self._conv() if self.kind == "conv" else self._mixed()
        return perf_counter() - t0


def make_plan(workload: str, seed: int) -> dict:
    """Every generated input of a workload, as plain integers."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw(n):
        return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]

    plan = {"corpus_seeds": draw(TRAIN_PAIRS if workload == "train" else QUICK_PAIRS),
            "augment_seed": draw(1)[0], "train_seed": draw(1)[0]}
    if workload == "eval":
        plan["heldout_seeds"] = draw(MAX_UNITS)
        plan["bench_seeds"] = draw(MAX_UNITS)
    if workload == "stream":
        plan["stream_seeds"] = draw(STREAM_SEQS)
        plan["packet_seed"] = draw(1)[0]
    return plan


def packet_bounds(n_frames: int, seed) -> list:
    """(lo, hi) frame ranges of seeded random size 1..MAX_PACKET covering the stream."""
    rng = np.random.default_rng(seed)
    bounds, lo = [], 0
    while lo < n_frames:
        hi = min(n_frames, lo + int(rng.integers(1, MAX_PACKET + 1)))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def serialize_packets(frames: np.ndarray, bounds) -> bytes:
    """pipe_tokenize input: per packet a u32 frame count and float32 frames,
    then a zero-count packet that ends the stream."""
    out = io.BytesIO()
    for lo, hi in bounds:
        out.write(struct.pack("<I", hi - lo))
        out.write(frames[lo:hi].astype("<f4").tobytes())
    out.write(struct.pack("<I", 0))
    return out.getvalue()


def parse_token_packets(blob: bytes) -> list:
    """pipe_tokenize output: per packet a u32 token count and u16 token ids."""
    packets, off = [], 0
    while off < len(blob):
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        packets.append(np.frombuffer(blob, dtype="<u2", count=count, offset=off))
        off += 2 * count
    return packets


def synthesize_raw(seeds):
    return evalbench.synthesize_pairs(seeds, duration_s=DURATION_S, fps=FPS)


def digest_pairs(pairs) -> str:
    h = hashlib.sha256()
    for motion, imu in pairs:
        h.update(motion.frames.tobytes())
        h.update(imu.frames.tobytes())
    return h.hexdigest()


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def step_ms(report) -> list:
    """Per-step wall times from the cumulative wall_clock each record logs."""
    clock = [0.0] + [rec["wall_clock"] for rec in report.records]
    return [1e3 * (b - a) for a, b in zip(clock, clock[1:])]


class Workload:
    """One workload. ``setup`` builds the inputs and returns their digest (set-up
    must be deterministic); ``unit(i)`` runs one unit of timed work and returns
    the operations it attempted; ``check`` returns failure messages;
    ``rates`` gives the calibrated (ops_per_s, aux_per_s) and ``report`` the
    workload's named metrics, uncalibrated."""

    name = ""
    min_units = 1
    max_units = MAX_UNITS
    reference = "mixed"

    def __init__(self, plan: dict, out_dir):
        self.plan = plan
        self.out_dir = out_dir
        self.units = []

    def rates(self, scale) -> tuple:
        """Medians over units of each unit's two rates divided by its time scale."""
        per_unit = [self.unit_rates(i) for i in range(len(self.units))]
        return tuple(statistics.median(r[k] / s for r, s in zip(per_unit, scale)) for k in (0, 1))

    def ckpt_paths(self) -> dict:
        return {k: self.out_dir / f"{k}.mjc" for k in ("motion", "imu", "baseline")}

    def train_stage(self, stage: str, pairs, stats, cfg):
        """Train one stage, writing its checkpoint; returns its TrainReport."""
        paths = self.ckpt_paths()
        if stage == "stage1":
            return trainer.train_motion_vqvae([m for m, _ in pairs], cfg,
                                              ckpt_path=paths["motion"])[1]
        if stage == "stage2":
            return trainer.train_imu_tokenizer(pairs, paths["motion"], cfg, stats,
                                               ckpt_path=paths["imu"])[2]
        return evalbench.train_baseline_poser(pairs, cfg, stats, ckpt_path=paths["baseline"])[1]

    def quick_checkpoints(self) -> str:
        raw = synthesize_raw(self.plan["corpus_seeds"])
        pairs, stats = evalbench.augment_and_normalize(raw, seed=self.plan["augment_seed"])
        cfg = trainer.TrainConfig(total_steps=QUICK_STEPS, seed=self.plan["train_seed"])
        for stage in STAGES:
            self.train_stage(stage, pairs, stats, cfg)
        return digest_files(self.ckpt_paths().values())


class Train(Workload):
    """Stage 1, stage 2 and the baseline at the desk TrainConfig; unit i
    trains stage STAGES[i % 3] from scratch."""

    name = "train"
    min_units = MIN_TRAIN_UNITS
    reference = "conv"

    def setup(self) -> str:
        raw = synthesize_raw(self.plan["corpus_seeds"])
        self.pairs, self.stats = evalbench.augment_and_normalize(
            raw, seed=self.plan["augment_seed"])
        self.cfg = trainer.TrainConfig(total_steps=UNIT_STEPS, seed=self.plan["train_seed"])
        return digest_pairs(self.pairs)

    def unit(self, i: int) -> int:
        stage = STAGES[i % len(STAGES)]
        report = self.train_stage(stage, self.pairs, self.stats, self.cfg)
        # every unit of a stage trains the same model from the same seed:
        # keep its checkpoint digest so that check can require identical units
        path = self.ckpt_paths()[CKPT_OF[stage]]
        self.units.append((stage, report, digest_files([path])))
        return UNIT_STEPS

    def check(self) -> list:
        failures, digests = [], {}
        for i, (stage, report, digest) in enumerate(self.units):
            losses = [rec["loss"] for rec in report.records]
            if not all(math.isfinite(x) for x in losses):
                failures.append(f"unit {i} {stage}: non-finite loss")
            elif not losses[-1] < losses[0]:
                failures.append(f"unit {i} {stage}: last loss {losses[-1]} "
                                f"not below first {losses[0]}")
            if digests.setdefault(stage, digest) != digest:
                failures.append(f"unit {i}: {stage} from the same seed wrote a different checkpoint")
        try:
            ckpts = {k: checkpoint.load_checkpoint(p) for k, p in self.ckpt_paths().items()}
        except ImutokError as exc:
            return failures + [f"checkpoint does not reload: {exc!r}"]
        if (checkpoint.arrays_digest(ckpts["imu"].arrays, "motion.")
                != checkpoint.arrays_digest(ckpts["motion"].arrays, "motion.")):
            failures.append("stage 2 changed the frozen stage-1 model")
        self.digests = {k: checkpoint.arrays_digest(c.arrays).hex() for k, c in ckpts.items()}
        return failures

    def step_times(self) -> dict:
        """Per-stage lists of (unit index, step ms)."""
        out = {stage: [] for stage in STAGES}
        for i, (stage, report, _) in enumerate(self.units):
            out[stage] += [(i, t) for t in step_ms(report)]
        return out

    def rates(self, scale) -> tuple:
        """(steps per second with one step of each stage, stage-2 steps per
        second), from each stage's median scaled step time."""
        med = {stage: statistics.median(t * scale[i] for i, t in ts)
               for stage, ts in self.step_times().items()}
        return 3e3 / sum(med.values()), 1e3 / med["stage2"]

    def report(self) -> dict:
        return {f"train.{stage}_step_ms.p{p}": timing([t for _, t in ts], p)
                for stage, ts in self.step_times().items() for p in (50, 90)}


class Eval(Workload):
    """The work of `imutok bench noise`, one held-out pair per unit."""

    name = "eval"
    min_units = MIN_EVAL_UNITS

    def setup(self) -> str:
        digest = self.quick_checkpoints()
        self.ckpts = {k: checkpoint.load_checkpoint(p) for k, p in self.ckpt_paths().items()}
        return digest

    def unit(self, i: int) -> int:
        t0 = perf_counter()
        held = synthesize_raw(self.plan["heldout_seeds"][i:i + 1])
        t1 = perf_counter()
        report = evalbench.run_noise_benchmark(
            self.ckpts["imu"], self.ckpts["motion"], self.ckpts["baseline"], held,
            levels=LEVELS, seed=self.plan["bench_seeds"][i])
        t2 = perf_counter()
        cases = sum(row["cases"] for row in report.rows
                    if row["method"] == "tokenized" and row["level"] > 0)
        self.units.append((t1 - t0, t2 - t1, report, cases))
        return cases

    def check(self) -> list:
        failures = []
        combos = evalbench.COMBOS_PER_LEVEL
        want = {("ground_truth", 0): 1}
        for method in ("tokenized", "baseline"):
            want.update({(method, 0): 1, (method, 1): 6, (method, 2): combos, (method, 3): combos})
        for i, (_, _, report, _) in enumerate(self.units):
            got = {(r["method"], r["level"]): r["cases"] for r in report.rows}
            if got != want or len(report.rows) != len(want):
                failures.append(f"unit {i}: report rows and cases {got} != {want}")
            for r in report.rows:
                if not (math.isfinite(r["mpjpe_cm"]) and math.isfinite(r["jitter"])):
                    failures.append(f"unit {i}: non-finite metric in row {r}")
        return failures

    def unit_rates(self, i: int) -> tuple:
        """(corrupted cases per second, held-out pairs per second) of unit i."""
        synth_s, bench_s, _, cases = self.units[i]
        return cases / bench_s, 1.0 / synth_s

    def report(self) -> dict:
        rates = [self.unit_rates(i) for i in range(len(self.units))]
        return {"eval.cases_per_s": {"value": statistics.median(r[0] for r in rates),
                                     "unit": "1/s", "n": len(rates)},
                "eval.synth_pairs_per_s": {"value": statistics.median(r[1] for r in rates),
                                           "unit": "1/s", "n": len(rates)}}


class Stream(Workload):
    """One client streams a held-out recording through push_frames, then the
    same packets through pipe_tokenize; every pass cuts the recording into
    its own seeded packets."""

    name = "stream"

    def setup(self) -> str:
        digest = self.quick_checkpoints()
        self.pipe = stream.InferencePipeline.from_checkpoint(
            checkpoint.load_checkpoint(self.ckpt_paths()["imu"]))
        held = synthesize_raw(self.plan["stream_seeds"])
        # float32 values, so the pipe's float32 wire carries the same frames
        frames = np.concatenate([imu.frames for _, imu in held]).astype(np.float32)
        self.frames = frames.astype(np.float64)
        self.bounds = [packet_bounds(len(frames), (self.plan["packet_seed"], i))
                       for i in range(self.max_units)]
        counts = np.cumsum([len(b) for b in self.bounds])
        self.min_units = int(np.searchsorted(counts, MIN_PACKETS)) + 1
        h = hashlib.sha256(frames.tobytes() + bytes.fromhex(digest))
        h.update(np.concatenate([np.asarray(b).ravel() for b in self.bounds]).tobytes())
        return h.hexdigest()

    def unit(self, i: int) -> int:
        bounds = self.bounds[i]
        state = stream.StreamState(self.pipe)
        times, tokens = [], []
        for lo, hi in bounds:
            t0 = perf_counter()
            out = stream.push_frames(state, self.frames[lo:hi])
            times.append(perf_counter() - t0)
            tokens.append(out)
        reader, writer = io.BytesIO(serialize_packets(self.frames, bounds)), io.BytesIO()
        t0 = perf_counter()
        stream.pipe_tokenize(reader, writer, self.pipe)
        pipe_s = perf_counter() - t0
        self.units.append((times, tokens, pipe_s, writer.getvalue()))
        return 2 * len(bounds)

    def check(self) -> list:
        failures = []
        offline = stream.tokenize_sequence(imusim.InertiaSequence(frames=self.frames, fps=FPS),
                                           self.pipe, chunk_len=stream.DEFAULT_CHUNK).tokens
        for i, (_, tokens, _, wire_out) in enumerate(self.units):
            if not np.array_equal(np.concatenate(tokens), offline):
                failures.append(f"unit {i}: push_frames tokens differ from tokenize_sequence")
            packets = parse_token_packets(wire_out)
            if len(packets) != len(tokens) or not all(
                    np.array_equal(a, b) for a, b in zip(packets, tokens)):
                failures.append(f"unit {i}: pipe_tokenize packets differ from push_frames")
        return failures

    def unit_rates(self, i: int) -> tuple:
        """(push_frames packets per second, pipe_tokenize frames per second) of unit i."""
        times, _, pipe_s, _ = self.units[i]
        return len(times) / sum(times), len(self.frames) / pipe_s

    def report(self) -> dict:
        packet_ms = [1e3 * t for times, _, _, _ in self.units for t in times]
        frames_per_s = [self.unit_rates(i)[1] for i in range(len(self.units))]
        return {"stream.packet_ms.p50": timing(packet_ms, 50),
                "stream.packet_ms.p99": timing(packet_ms, 99),
                "stream.frames_per_s": {"value": statistics.median(frames_per_s), "unit": "1/s",
                                        "n": len(frames_per_s)}}


WORKLOADS = {w.name: w for w in (Train, Eval, Stream)}
