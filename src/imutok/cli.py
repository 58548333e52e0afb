"""Command-line interface.

    imutok motion gen --seed 0 --style walk --duration 10 --fps 60 --out walk.mjt1
    imutok imu simulate --motion walk.mjt1 --out walk.mji1 [--noise-profile noise.json]
    imutok imu fit-stats --imu a.mji1 b.mji1 --out stats.mjn
    imutok train motion --data DIR --out motion.mjc [--config train.cfg]
    imutok train imu --data DIR --motion-ckpt motion.mjc --out imu.mjc
    imutok train baseline --data DIR --out baseline.mjc
    imutok bench noise --imu-ckpt imu.mjc --motion-ckpt motion.mjc \
        --baseline-ckpt baseline.mjc --levels 1,2,3 --seed 0 --out report.mjr
    imutok stream tokenize --imu walk.mji1 --ckpt imu.mjc --out walk.mjt
    imutok stream decode --tokens walk.mjt --ckpt imu.mjc --out decoded.mjt1
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from . import evalbench, fileio, stream
from .errors import ImutokError
from .imusim import (DEFAULT_PLACEMENT, NoiseConfig, NormStats, SensorPlacement,
                     apply_corruption, apply_drift, fit_norm_stats, normalize_acceleration,
                     synthesize_imu)
from .motion import build_motion_representation, generate_synthetic_motion, track_from_motion
from .trainer import TrainConfig, train_imu_tokenizer, train_motion_vqvae


def parse_config_file(path) -> TrainConfig:
    """Flat ``key = value`` config; unknown keys are rejected."""
    meta = TrainConfig().as_meta()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or key not in meta:
                raise ImutokError(f"{path}:{lineno}: bad config line {line!r}")
            meta[key] = value
    return TrainConfig.from_meta(meta)


def _load_config(args) -> TrainConfig:
    cfg = parse_config_file(args.config) if args.config else TrainConfig()
    if args.steps is not None:
        cfg = dataclasses.replace(cfg, total_steps=args.steps)
    return cfg


def _load_json(path, build):
    """build(blob) for the JSON object in path; malformed JSON, a missing or
    unknown key, or a bad value is an ImutokError naming the file."""
    try:
        with open(path) as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict):
            raise ImutokError(f"{path}: expected a JSON object")
        return build(blob)
    except KeyError as exc:
        raise ImutokError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ImutokError(f"{path}: {exc}") from None


def _load_noise_profile(path) -> NoiseConfig:
    def build(blob):
        blob["corrupted_sensors"] = tuple(blob.get("corrupted_sensors", ()))
        blob["dropout"] = tuple(blob.get("dropout", (False,) * 6))
        return NoiseConfig(**blob)
    return _load_json(path, build)


def _load_placement(path) -> SensorPlacement:
    return _load_json(path, lambda blob: SensorPlacement(
        joints=tuple(blob["joints"]),
        mounts=np.asarray(blob["mounts"], dtype=np.float64),
        levers=np.asarray(blob["levers"], dtype=np.float64)))


def _scan_pairs(data_dir):
    motion_files = sorted(glob.glob(os.path.join(data_dir, "*.mjt1")))
    pairs = []
    for mf in motion_files:
        imu_f = mf[:-5] + ".mji1"
        if os.path.exists(imu_f):
            pairs.append((mf, imu_f))
    return motion_files, pairs


def cmd_motion_gen(args):
    track = generate_synthetic_motion(args.seed, args.duration, args.fps, args.style)
    seq = build_motion_representation(track)
    fileio.write_motion_file(args.out, seq.frames, seq.fps)
    print(f"wrote {len(seq)} frames ({args.style}, seed {args.seed}) to {args.out}")


def cmd_imu_simulate(args):
    seq = fileio.read_motion_file(args.motion)
    placement = _load_placement(args.placement) if args.placement else DEFAULT_PLACEMENT
    track = track_from_motion(seq, fallback=False)
    imu = synthesize_imu(track, placement)
    if args.noise_profile:
        noise = _load_noise_profile(args.noise_profile)
        imu = apply_corruption(apply_drift(imu, noise), noise)
    fileio.write_imu_file(args.out, imu.frames, imu.fps)
    print(f"wrote {len(imu)} IMU frames to {args.out}")


def cmd_imu_fit_stats(args):
    corpus = [fileio.read_imu_file(p) for p in args.imu]
    stats = fit_norm_stats(corpus)
    fileio.write_stats_file(args.out, stats.mean, stats.std)
    print(f"fitted stats over {len(corpus)} sequences -> {args.out}")


def cmd_train_motion(args):
    cfg = _load_config(args)
    motion_files, _ = _scan_pairs(args.data)
    corpus = [fileio.read_motion_file(p) for p in motion_files]
    model, report = train_motion_vqvae(corpus, cfg, ckpt_path=args.out)
    if args.report:
        report.write(args.report)
    last = report.records[-1]
    print(f"stage 1 done: {cfg.total_steps} steps, final loss {last['loss']:.6f}, "
          f"perplexity {last['perplexity']:.2f} -> {args.out}")


def _prepared_pairs(args):
    _, pair_files = _scan_pairs(args.data)
    if not pair_files:
        raise ImutokError(f"no paired *.mjt1/*.mji1 files in {args.data}")
    raw = [(fileio.read_motion_file(m), fileio.read_imu_file(i)) for m, i in pair_files]
    if args.stats:
        mean, std = fileio.read_stats_file(args.stats)
        stats = NormStats(mean=mean, std=std)
        return [(m, normalize_acceleration(i, stats)) for m, i in raw], stats
    stats = fit_norm_stats([i for _, i in raw])
    return [(m, normalize_acceleration(i, stats)) for m, i in raw], stats


def cmd_train_imu(args):
    cfg = _load_config(args)
    pairs, stats = _prepared_pairs(args)
    _, _, report = train_imu_tokenizer(pairs, args.motion_ckpt, cfg, stats,
                                       ckpt_path=args.out)
    if args.report:
        report.write(args.report)
    last = report.records[-1]
    print(f"stage 2 done: {cfg.total_steps} steps, final loss {last['loss']:.6f}, "
          f"match JS {last['dist_match']:.4f} -> {args.out}")


def cmd_train_baseline(args):
    cfg = _load_config(args)
    pairs, stats = _prepared_pairs(args)
    _, report = evalbench.train_baseline_poser(pairs, cfg, stats, ckpt_path=args.out)
    if args.report:
        report.write(args.report)
    print(f"baseline done: {cfg.total_steps} steps, final loss "
          f"{report.records[-1]['loss']:.6f} -> {args.out}")


def cmd_bench_noise(args):
    levels = tuple(int(x) for x in args.levels.split(",") if x)
    seeds = [args.corpus_seed + n for n in range(args.count)]
    pairs = evalbench.synthesize_pairs(seeds, duration_s=args.duration, fps=args.fps)
    report = evalbench.run_noise_benchmark(args.imu_ckpt, args.motion_ckpt,
                                           args.baseline_ckpt, pairs, levels=levels,
                                           seed=args.seed)
    print(evalbench.render_report(report))
    if args.out:
        evalbench.write_report_file(args.out, report)
        print(f"\nrecords -> {args.out}")


def cmd_stream_tokenize(args):
    pipe = stream.InferencePipeline.from_checkpoint(args.ckpt)
    imu = fileio.read_imu_file(args.imu)
    chunk = None if args.chunk == 0 else args.chunk
    tok = stream.tokenize_sequence(imu, pipe, chunk_len=chunk)
    stream.write_token_stream(args.out, tok)
    print(f"emitted {len(tok)} tokens (K={tok.K}, rate {tok.l}) -> {args.out}")


def cmd_stream_decode(args):
    pipe = stream.InferencePipeline.from_checkpoint(args.ckpt)
    tok = stream.read_token_stream(args.tokens)
    seq = stream.decode_tokens(tok, pipe)
    fileio.write_motion_file(args.out, seq.frames, seq.fps)
    print(f"decoded {len(seq)} motion frames -> {args.out}")


def cmd_stream_pipe(args):
    pipe = stream.InferencePipeline.from_checkpoint(args.ckpt)
    total = stream.pipe_tokenize(sys.stdin.buffer, sys.stdout.buffer, pipe,
                                 chunk_len=args.chunk)
    print(f"emitted {total} tokens", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="imutok",
                                description="jitter-reduced IMU motion tokenization")
    sub = p.add_subparsers(dest="group", required=True)

    motion = sub.add_parser("motion", help="synthetic motion data").add_subparsers(
        dest="cmd", required=True)
    g = motion.add_parser("gen", help="generate a synthetic motion file")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--style", default="walk", choices=("walk", "squat", "arm_raise", "idle_sway"))
    g.add_argument("--duration", type=float, default=10.0)
    g.add_argument("--fps", type=float, default=60.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_motion_gen)

    imu = sub.add_parser("imu", help="virtual IMU signals").add_subparsers(
        dest="cmd", required=True)
    g = imu.add_parser("simulate", help="synthesize IMU signals from a motion file")
    g.add_argument("--motion", required=True)
    g.add_argument("--placement", default=None, help="JSON sensor placement")
    g.add_argument("--noise-profile", default=None, help="JSON noise profile")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_imu_simulate)
    g = imu.add_parser("fit-stats", help="fit acceleration normalization stats")
    g.add_argument("--imu", nargs="+", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_imu_fit_stats)

    train = sub.add_parser("train", help="tokenizer training").add_subparsers(
        dest="cmd", required=True)
    for name, fn in (("motion", cmd_train_motion), ("imu", cmd_train_imu),
                     ("baseline", cmd_train_baseline)):
        g = train.add_parser(name)
        g.add_argument("--data", required=True, help="directory of .mjt1/.mji1 files")
        g.add_argument("--config", default=None, help="key = value training config")
        g.add_argument("--steps", type=int, default=None, help="override total_steps")
        g.add_argument("--out", required=True)
        g.add_argument("--report", default=None, help="JSONL per-step report path")
        if name != "motion":
            g.add_argument("--stats", default=None, help="stats sidecar (.mjn)")
        if name == "imu":
            g.add_argument("--motion-ckpt", required=True)
        g.set_defaults(func=fn)

    bench = sub.add_parser("bench", help="robustness benchmark").add_subparsers(
        dest="cmd", required=True)
    g = bench.add_parser("noise")
    g.add_argument("--imu-ckpt", required=True)
    g.add_argument("--motion-ckpt", required=True)
    g.add_argument("--baseline-ckpt", required=True)
    g.add_argument("--levels", default="1,2,3")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=16, help="held-out sequences")
    g.add_argument("--corpus-seed", type=int, default=10_000)
    g.add_argument("--duration", type=float, default=8.0)
    g.add_argument("--fps", type=float, default=60.0)
    g.add_argument("--out", default=None, help="machine-readable report (.mjr)")
    g.set_defaults(func=cmd_bench_noise)

    st = sub.add_parser("stream", help="token streams").add_subparsers(
        dest="cmd", required=True)
    g = st.add_parser("tokenize")
    g.add_argument("--imu", required=True)
    g.add_argument("--ckpt", required=True)
    g.add_argument("--chunk", type=int, default=stream.DEFAULT_CHUNK,
                   help="chunk length in frames (0 = whole sequence)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_stream_tokenize)
    g = st.add_parser("decode")
    g.add_argument("--tokens", required=True)
    g.add_argument("--ckpt", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_stream_decode)
    g = st.add_parser("pipe", help="length-prefixed frame packets on stdin, "
                                   "token packets on stdout")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--chunk", type=int, default=stream.DEFAULT_CHUNK)
    g.set_defaults(func=cmd_stream_pipe)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ImutokError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
