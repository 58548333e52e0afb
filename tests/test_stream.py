import io
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from imutok import gradnet as gn
from imutok import stream, vqcodec
from imutok.checkpoint import load_checkpoint
from imutok.errors import DigestMismatch, FormatError, InvalidArgument, StatsMissing
from imutok.evalbench import _baseline_predict, augment_and_normalize, synthesize_pairs
from imutok.imusim import IMU_WIDTH, SL_ACC, InertiaSequence
from imutok.models import WINDOW_GROUP, BaselinePoser, StackWorkspace, flatten_latents
from imutok.stream import (CRC_BYTES, HEADER_BYTES, InferencePipeline, StreamState,
                           TokenSequence, decode_tokens, push_frames,
                           read_token_stream, tokenize_sequence, write_token_stream)
from imutok.trainer import TrainConfig, train_imu_tokenizer, train_motion_vqvae


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny stage-2 checkpoint (short training run on small data)."""
    cfg = TrainConfig(K=12, d_z=16, hidden=32, batch_size=4, total_steps=8,
                      window=32, seed=2)
    raw = synthesize_pairs(range(3), duration_s=2.0, fps=60.0)
    pairs, stats = augment_and_normalize(raw, seed=4)
    d = tmp_path_factory.mktemp("stream_ckpt")
    mpath, ipath = d / "motion.mjc", d / "imu.mjc"
    train_motion_vqvae([m for m, _ in pairs], cfg, ckpt_path=mpath)
    train_imu_tokenizer(pairs, mpath, cfg, stats, ckpt_path=ipath)
    return InferencePipeline.from_checkpoint(load_checkpoint(ipath))


@pytest.fixture(scope="module")
def imu_640(pipeline):
    raw = synthesize_pairs([77], duration_s=640 / 60.0, fps=60.0)
    seq = raw[0][1]
    assert len(seq) >= 640
    return InertiaSequence(frames=seq.frames[:640], fps=seq.fps)


def _tok(n=5, K=12):
    rng = np.random.default_rng(0)
    return TokenSequence(tokens=rng.integers(0, K, size=n).astype(np.uint16),
                         l=4, fps=60.0, K=K, codebook_digest=bytes(range(32)))


class TestPushFrames:
    def test_full_chunk_emits_chunk_over_rate_tokens(self, pipeline, imu_640):
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, imu_640.frames[:16])
        assert toks.shape == (4,)

    def test_partial_chunk_buffers(self, pipeline, imu_640):
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, imu_640.frames[:3])
        assert toks.size == 0
        assert len(state.buffer) == 3

    def test_frame_by_frame_matches_offline_chunked(self, pipeline, imu_640):
        offline = tokenize_sequence(imu_640, pipeline, chunk_len=16)
        state = StreamState(pipeline, chunk_len=16)
        got = [push_frames(state, imu_640.frames[t:t + 1]) for t in range(640)]
        assert np.array_equal(np.concatenate(got), offline.tokens)

    def test_any_partition_matches_offline_chunked(self, pipeline, imu_640):
        offline = tokenize_sequence(imu_640, pipeline, chunk_len=16)
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = StreamState(pipeline, chunk_len=16)
            got = []
            lo = 0
            while lo < 640:
                n = int(rng.integers(1, 50))
                got.append(push_frames(state, imu_640.frames[lo:lo + n]))
                lo += n
            got = np.concatenate(got)
            assert np.array_equal(got, offline.tokens)

    def test_frame_width_checked(self, pipeline):
        state = StreamState(pipeline)
        with pytest.raises(FormatError):
            push_frames(state, np.zeros((4, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, pipeline, imu_640, bad):
        # one bad value in a 16-frame chunk used to turn 3 of its 4 tokens
        # into token 0 silently
        frames = imu_640.frames[:16].copy()
        frames[9, 40] = bad
        state = StreamState(pipeline, chunk_len=16)
        with pytest.raises(InvalidArgument):
            push_frames(state, frames)
        assert len(state.buffer) == 0 and state.frames_seen == 0
        seq = InertiaSequence(frames=frames, fps=imu_640.fps)
        for chunk_len in (16, None):
            with pytest.raises(InvalidArgument):
                tokenize_sequence(seq, pipeline, chunk_len=chunk_len)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["one_channel_1e37", "all_1e39"])
    def test_frames_that_overflow_the_encoder_are_rejected(self, pipeline, imu_640, case):
        # finite frames, yet the latents are not: 1e37 overflows inside the
        # convs, 1e39 in the float32 cast; both used to give tokens [0 0 0 0].
        # The push drops its pending frames, the 5 buffered ones too
        frames = imu_640.frames[:16].copy()
        if case == "one_channel_1e37":
            frames[:, 3] = 1e37
        else:
            frames[:] = 1e39
        state = StreamState(pipeline, chunk_len=16)
        push_frames(state, imu_640.frames[:5])
        with pytest.raises(InvalidArgument):
            push_frames(state, frames)
        assert len(state.buffer) == 0
        assert (state.frames_seen, state.tokens_emitted) == (5, 0)
        seq = InertiaSequence(frames=frames, fps=imu_640.fps)
        for chunk_len in (16, None):
            with pytest.raises(InvalidArgument):
                tokenize_sequence(seq, pipeline, chunk_len=chunk_len)

    def test_frames_that_overflow_in_the_buffer_fail_one_push_only(self, pipeline, imu_640):
        # the last 4 frames of a push wait in the buffer; the push that
        # completes their chunk fails and drops them with its own frames,
        # and the stream goes on from a chunk boundary. The overflow in
        # quantize's distances warns of nothing
        frames = imu_640.frames[:20].copy()
        frames[16:, 3] = 1e37
        state = StreamState(pipeline, chunk_len=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = push_frames(state, frames)
            assert len(state.buffer) == 4
            with pytest.raises(InvalidArgument):
                push_frames(state, imu_640.frames[20:36])
            assert len(state.buffer) == 0
            clean = imu_640.frames[36:100]
            got = np.concatenate([push_frames(state, clean[lo:lo + 16])
                                  for lo in range(0, len(clean), 16)])
        head = InertiaSequence(frames=imu_640.frames[:16], fps=imu_640.fps)
        assert np.array_equal(first, tokenize_sequence(head, pipeline, chunk_len=16).tokens)
        offline = tokenize_sequence(InertiaSequence(frames=clean, fps=imu_640.fps), pipeline,
                                    chunk_len=16)
        assert got.shape == (16,) and np.array_equal(got, offline.tokens)
        assert (state.frames_seen, state.tokens_emitted) == (84, 20)

    def test_non_real_frames_rejected(self, pipeline, imu_640):
        frames = imu_640.frames[:16]
        for bad in (frames + 1j, frames.astype(object), frames.astype(str)):
            state = StreamState(pipeline, chunk_len=16)
            with pytest.raises(FormatError):
                push_frames(state, bad)
            assert len(state.buffer) == 0 and state.frames_seen == 0
            with pytest.raises(FormatError):
                tokenize_sequence(InertiaSequence(frames=bad, fps=imu_640.fps), pipeline)

    def test_tokens_equal_the_tensor_path(self, pipeline, imu_640):
        x = pipeline.stats.normalize(imu_640.frames).astype(np.float32)
        blocks = np.ascontiguousarray(x.reshape(40, 1, 16, IMU_WIDTH).swapaxes(-1, -2))
        z = flatten_latents(pipeline.imu_model.encode(gn.Tensor(blocks))).value
        want, _ = vqcodec.quantize(z, pipeline.imu_model.codebook)
        state = StreamState(pipeline, chunk_len=16)
        got = np.concatenate([push_frames(state, imu_640.frames[lo:lo + 37])
                              for lo in range(0, 640, 37)])
        assert np.array_equal(got, want)

    def test_a_push_that_completes_chunks_builds_no_tensor(self, pipeline, imu_640,
                                                            monkeypatch):
        built = []
        init = gn.Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(gn.Tensor, "__init__", counted)
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, imu_640.frames[:37])
        assert toks.shape == (8,) and built == []

    def test_one_push_of_several_chunks_keeps_the_remainder(self, pipeline, imu_640):
        frames = imu_640.frames[:37]
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, frames)
        assert toks.shape == (8,)
        want = pipeline.stats.normalize(frames[32:]).astype(np.float32)
        assert state.buffer.dtype == np.float32 and np.array_equal(state.buffer, want)
        assert (state.frames_seen, state.tokens_emitted) == (37, 8)
        one_by_one = StreamState(pipeline, chunk_len=16)
        got = np.concatenate([push_frames(one_by_one, f[None]) for f in frames])
        assert np.array_equal(toks, got)
        offline = tokenize_sequence(InertiaSequence(frames, imu_640.fps), pipeline, chunk_len=16)
        assert np.array_equal(toks, offline.tokens)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float16, np.float32,
                                       np.float64])
    def test_buffered_frames_are_the_float64_normalization_rounded_once(self, pipeline,
                                                                          imu_640, dtype):
        frames = imu_640.frames[:11]
        if dtype is np.int64:
            # 2^60 + 2^36 + 1 rounds up in a direct cast to float32, but to
            # 2^60 + 2^36 in float64 and then down to 2^60, half to even
            big = np.array([2**60 + 2**36 + 1])
            assert big.astype(np.float32) != big.astype(np.float64).astype(np.float32)
            frames = np.round(100 * frames).astype(np.int64)
            frames[:, ::5] = big
        else:
            frames = frames.astype(dtype)
        want = np.array(frames, dtype=np.float64)
        want[:, SL_ACC] = (want[:, SL_ACC] - pipeline.stats.mean) / pipeline.stats.std
        assert np.array_equal(pipeline.stats.normalize(frames).view(np.uint64),
                              want.view(np.uint64))
        state = StreamState(pipeline, chunk_len=16)
        for part in (frames[:4], frames[4:]):
            assert push_frames(state, part).size == 0
        assert state.buffer.dtype == np.float32
        assert np.array_equal(state.buffer.view(np.uint32), want.astype(np.float32).view(np.uint32))

    def test_a_push_that_completes_no_chunk_runs_no_encoder(self, pipeline, imu_640,
                                                            monkeypatch):
        calls = []
        tokenize = stream.tokenize_windows

        def spy(*args):
            calls.append(len(args[1]))
            return tokenize(*args)

        monkeypatch.setattr(stream, "tokenize_windows", spy)
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, imu_640.frames[:15])
        assert toks.dtype == np.uint16 and toks.shape == (0,)
        assert calls == [] and (state.frames_seen, state.tokens_emitted) == (15, 0)
        assert push_frames(state, imu_640.frames[15:33]).shape == (8,)
        assert calls == [2] and state.frames_seen == 33

    def test_a_stream_computes_the_entry_norms_once(self, pipeline, imu_640, monkeypatch):
        cb = pipeline.imu_model.codebook
        cb.entries = cb.entries.copy()  # a table whose norms no quantize has computed yet
        norms = []
        einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            if any(op is cb.entries for op in operands):
                norms.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        for _ in range(2):
            state = StreamState(pipeline, chunk_len=16)
            toks = [push_frames(state, imu_640.frames[lo:lo + 37]) for lo in range(0, 640, 37)]
            assert np.concatenate(toks).shape == (160,)
        assert norms == ["ij,ij->i"]

    def test_non_finite_packet_leaves_a_partial_buffer_alone(self, pipeline, imu_640):
        state = StreamState(pipeline, chunk_len=16)
        push_frames(state, imu_640.frames[:21])
        before = state.buffer.copy()
        bad = imu_640.frames[21:40].copy()
        bad[3, 10] = np.nan
        with pytest.raises(InvalidArgument):
            push_frames(state, bad)
        assert np.array_equal(state.buffer, before) and len(before) == 5
        assert (state.frames_seen, state.tokens_emitted) == (21, 4)

    def test_one_max_size_packet_matches_offline_chunked(self, pipeline, imu_640):
        # 4096 chunks, WINDOW_GROUP per encoder call; chunks are independent,
        # so a tiled recording gives its offline tokens tiled
        reps = -(-stream.MAX_PACKET_FRAMES // len(imu_640))
        frames = np.tile(imu_640.frames, (reps, 1))[:stream.MAX_PACKET_FRAMES]
        offline = tokenize_sequence(imu_640, pipeline, chunk_len=16).tokens
        state = StreamState(pipeline, chunk_len=16)
        tracemalloc.start()
        try:
            toks = push_frames(state, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(toks, np.tile(offline, reps)[:stream.MAX_PACKET_FRAMES // 4])
        assert len(state.buffer) == 0
        # the stacked encoder's temporaries stay a small multiple of the packet
        assert peak < 2 * frames.nbytes

    def test_seeded_packets_match_offline_and_pipe_tokens(self, pipeline, imu_640):
        # packets of 1..63 frames, float32 values so the pipe carries the same
        # frames; the state keeps one workspace per block count it completes
        frames = imu_640.frames.astype(np.float32).astype(np.float64)
        offline = tokenize_sequence(InertiaSequence(frames, imu_640.fps), pipeline,
                                    chunk_len=16).tokens
        rng = np.random.default_rng(25)
        for _ in range(5):
            cuts = np.cumsum(rng.integers(1, 64, size=40))
            packets = np.split(frames, cuts[cuts < len(frames)])
            state = StreamState(pipeline, chunk_len=16)
            pushed = [push_frames(state, p) for p in packets]
            assert np.array_equal(np.concatenate(pushed), offline)
            assert set(state.workspaces) <= {(g, 16, IMU_WIDTH) for g in range(1, WINDOW_GROUP + 1)}
            payload = io.BytesIO()
            for p in packets:
                payload.write(struct.pack("<I", len(p)) + p.astype("<f4").tobytes())
            payload.write(struct.pack("<I", 0))
            payload.seek(0)
            out = io.BytesIO()
            stream.pipe_tokenize(payload, out, pipeline, chunk_len=16)
            out.seek(0)
            for want in pushed:
                (n,) = struct.unpack("<I", out.read(4))
                assert np.array_equal(np.frombuffer(out.read(2 * n), dtype="<u2"), want)
            assert out.read() == b""

    def test_a_max_size_packet_leaves_bounded_workspaces(self, pipeline, imu_640):
        # the 4096 chunks go WINDOW_GROUP to a call, so the state keeps one
        # workspace of WINDOW_GROUP chunks, not one sized to the packet
        reps = -(-stream.MAX_PACKET_FRAMES // len(imu_640))
        frames = np.tile(imu_640.frames, (reps, 1))[:stream.MAX_PACKET_FRAMES]
        state = StreamState(pipeline, chunk_len=16)
        tracemalloc.start()
        try:
            one = StackWorkspace(pipeline.imu_model.encoder, (1, 1, IMU_WIDTH, 16), np.float32)
            one_chunk = tracemalloc.get_traced_memory()[0]
            del one
            before = tracemalloc.get_traced_memory()[0]
            toks = push_frames(state, frames)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert list(state.workspaces) == [(WINDOW_GROUP, 16, IMU_WIDTH)]
        # what the push leaves allocated: its tokens and the workspace
        assert held < toks.nbytes + WINDOW_GROUP * one_chunk + (64 << 10)
        assert held < frames.nbytes // 100

    def test_chunk_must_be_multiple_of_rate(self, pipeline):
        with pytest.raises(InvalidArgument):
            StreamState(pipeline, chunk_len=10)

    @pytest.mark.parametrize("chunk_len", [16.0, 0, -16, "16"])
    def test_chunk_must_be_a_positive_integer(self, pipeline, imu_640, chunk_len):
        # 16.0 used to pass both chunk checks and fail on slicing with a TypeError
        with pytest.raises(InvalidArgument):
            StreamState(pipeline, chunk_len=chunk_len)
        with pytest.raises(InvalidArgument):
            tokenize_sequence(imu_640, pipeline, chunk_len=chunk_len)

    def test_numpy_integer_chunk_is_an_integer(self, pipeline, imu_640):
        tok = tokenize_sequence(imu_640, pipeline, chunk_len=np.int64(16))
        state = StreamState(pipeline, chunk_len=np.int64(16))
        assert np.array_equal(push_frames(state, imu_640.frames), tok.tokens)
        assert np.array_equal(tok.tokens,
                              tokenize_sequence(imu_640, pipeline, chunk_len=16).tokens)

    def test_missing_stats_raises(self, pipeline):
        import dataclasses
        broken = dataclasses.replace(pipeline, stats=None)
        with pytest.raises(StatsMissing):
            StreamState(broken)


class TestLoadedModels:
    def test_encode_and_decode_record_no_graph(self, pipeline):
        # restored parameters are frozen, so inference builds no backward graph
        x = gn.Tensor(np.ones((1, IMU_WIDTH, 16), dtype=np.float32))
        z = pipeline.imu_model.encode(x)
        out = pipeline.motion_model.decode(z)
        # and a (chunks, 1, 72, 16) stack, as push_frames encodes
        stacked = pipeline.imu_model.encode(
            gn.Tensor(np.ones((3, 1, IMU_WIDTH, 16), dtype=np.float32)))
        flat = flatten_latents(stacked)
        assert stacked.value.shape == (3, 1, pipeline.cfg.d_z, 4)
        assert flat.value.shape == (12, pipeline.cfg.d_z)
        for t in (z, out, stacked, flat):
            assert not t.requires_grad
            assert t._parents == ()


class TestArrayInference:
    def test_inference_builds_no_tensor(self, pipeline, imu_640, monkeypatch):
        # tokenizing, decoding and the baseline run on plain arrays only
        base = BaselinePoser(pipeline.cfg, rng=np.random.default_rng(0))
        state = StreamState(pipeline, chunk_len=16)

        def no_tensor(self, *args, **kwargs):
            raise AssertionError("inference built an autodiff Tensor")

        monkeypatch.setattr(gn.Tensor, "__init__", no_tensor)
        with pytest.raises(AssertionError):
            gn.Tensor(np.zeros(1))
        for n in (3, 16, 45):  # a push may complete no chunk, one, or several
            push_frames(state, imu_640.frames[:n])
        for chunk_len in (16, None):
            tok = tokenize_sequence(imu_640, pipeline, chunk_len=chunk_len)
        assert len(decode_tokens(tok, pipeline)) == 640
        assert len(_baseline_predict(base, pipeline.stats, imu_640)) == 640


class TestEncodeChunks:
    def test_latents_equal_each_chunk_encoded_alone(self, pipeline, imu_640, monkeypatch):
        # 40 chunks in stacked encoder calls of WINDOW_GROUP, and 5 frames left out
        x = pipeline.stats.normalize(imu_640.frames[:645]).astype(np.float32)
        seen = []
        quantize_finite = vqcodec.quantize_finite

        def spy(latents, codebook):
            seen.append(latents)
            return quantize_finite(latents, codebook)

        monkeypatch.setattr(vqcodec, "quantize_finite", spy)
        ids = stream._encode_chunks(pipeline, x, 16)
        assert len(seen) == -(-40 // WINDOW_GROUP)
        latents = np.concatenate(seen)
        alone = [flatten_latents(pipeline.imu_model.encode(
            gn.Tensor(np.ascontiguousarray(x[lo:lo + 16].T)[None]))).value
            for lo in range(0, 640, 16)]
        assert np.array_equal(latents, np.concatenate(alone))
        assert ids.shape == (160,)


class TestDecode:
    def test_token_count_to_frame_count(self, pipeline, imu_640):
        tok = tokenize_sequence(InertiaSequence(imu_640.frames[:16], imu_640.fps),
                                pipeline, chunk_len=16)
        assert len(tok) == 4
        seq = decode_tokens(tok, pipeline)
        assert len(seq) == 16

    def test_zero_tokens_decode_to_zero_frames(self, pipeline, imu_640):
        # a recording shorter than one chunk tokenizes to an empty stream
        tok = tokenize_sequence(InertiaSequence(imu_640.frames[:3], imu_640.fps),
                                pipeline, chunk_len=None)
        assert len(tok) == 0
        seq = decode_tokens(tok, pipeline)
        one = decode_tokens(tokenize_sequence(
            InertiaSequence(imu_640.frames[:4], imu_640.fps), pipeline, chunk_len=None),
            pipeline)
        assert seq.frames.shape == (0, 271) and seq.fps == tok.fps
        assert seq.frames.dtype == one.frames.dtype

    def test_identical_tokens_decode_bitwise_identically(self, pipeline, imu_640):
        tok = tokenize_sequence(imu_640, pipeline, chunk_len=16)
        a = decode_tokens(tok, pipeline)
        b = decode_tokens(tok, pipeline)
        assert np.array_equal(a.frames, b.frames)

    def test_digest_mismatch_rejected(self, pipeline):
        tok = _tok(K=pipeline.cfg.K)
        with pytest.raises(DigestMismatch):
            decode_tokens(tok, pipeline)

    def test_other_frames_per_token_rejected(self, pipeline, imu_640):
        tok = tokenize_sequence(imu_640, pipeline, chunk_len=16)
        tok.l = 8
        with pytest.raises(InvalidArgument):
            decode_tokens(tok, pipeline)

    def test_noise_cannot_pass_through_identical_tokens(self, pipeline, imu_640):
        # two inputs quantizing to the same ids give byte-identical motion
        tok = tokenize_sequence(imu_640, pipeline, chunk_len=16)
        jiggled = InertiaSequence(imu_640.frames + 1e-9, imu_640.fps)
        tok2 = tokenize_sequence(jiggled, pipeline, chunk_len=16)
        if np.array_equal(tok.tokens, tok2.tokens):
            assert np.array_equal(decode_tokens(tok, pipeline).frames,
                                  decode_tokens(tok2, pipeline).frames)


class TestPipeMode:
    def test_packets_match_offline_chunked(self, pipeline, imu_640):
        import io
        import struct
        payload = io.BytesIO()
        frames32 = imu_640.frames.astype("<f4")
        for lo in range(0, 640, 37):  # uneven packet sizes
            part = frames32[lo:lo + 37]
            payload.write(struct.pack("<I", part.shape[0]))
            payload.write(part.tobytes())
        payload.write(struct.pack("<I", 0))
        payload.seek(0)
        out = io.BytesIO()
        total = stream.pipe_tokenize(payload, out, pipeline, chunk_len=16)
        out.seek(0)
        got = []
        while True:
            head = out.read(4)
            if len(head) < 4:
                break
            (n,) = struct.unpack("<I", head)
            got.append(np.frombuffer(out.read(2 * n), dtype="<u2"))
        got = np.concatenate(got)
        # the byte pipe carries float32 frames, so compare against offline
        # tokenization of the same float32-quantized input
        offline = tokenize_sequence(
            InertiaSequence(frames32.astype(np.float64), imu_640.fps),
            pipeline, chunk_len=16)
        assert total == got.size == len(offline)
        assert np.array_equal(got, offline.tokens)

    def test_truncated_packet_raises(self, pipeline):
        import io
        import struct
        blob = io.BytesIO(struct.pack("<I", 4) + b"\x00" * 10)
        with pytest.raises(FormatError):
            stream.pipe_tokenize(blob, io.BytesIO(), pipeline)

    @pytest.mark.parametrize("tail", [b"\x01", b"\x00\x00", b"\x10\x00\x00"])
    def test_torn_packet_header_raises(self, pipeline, imu_640, tail):
        # 1-3 bytes where a header should be used to end the stream cleanly
        import io
        import struct
        packet = struct.pack("<I", 16) + imu_640.frames[:16].astype("<f4").tobytes()
        for blob in (tail, packet + tail):
            with pytest.raises(FormatError, match="truncated packet header"):
                stream.pipe_tokenize(io.BytesIO(blob), io.BytesIO(), pipeline)

    def test_eof_at_a_packet_boundary_ends_the_stream(self, pipeline, imu_640):
        import io
        import struct
        packet = struct.pack("<I", 16) + imu_640.frames[:16].astype("<f4").tobytes()
        assert stream.pipe_tokenize(io.BytesIO(b""), io.BytesIO(), pipeline) == 0
        assert stream.pipe_tokenize(io.BytesIO(packet), io.BytesIO(), pipeline) == 4

    def test_oversized_packet_rejected_before_reading_payload(self, pipeline):
        import io
        import struct

        class RecordingReader(io.BytesIO):
            def __init__(self, data):
                super().__init__(data)
                self.requests = []

            def read(self, n=-1):
                self.requests.append(n)
                return super().read(n)

        for count in (0xFFFFFFFF, stream.MAX_PACKET_FRAMES + 1):
            reader = RecordingReader(struct.pack("<I", count) + b"\x00" * 64)
            with pytest.raises(FormatError):
                stream.pipe_tokenize(reader, io.BytesIO(), pipeline)
            assert reader.requests == [4]


class TestWireFormat:
    def test_round_trip(self, tmp_path):
        tok = _tok(n=1000)
        path = tmp_path / "t.mjt"
        write_token_stream(path, tok)
        back = read_token_stream(path)
        assert np.array_equal(back.tokens, tok.tokens)
        assert back.l == tok.l and back.fps == tok.fps and back.K == tok.K
        assert back.codebook_digest == tok.codebook_digest
        assert back.start_offset == tok.start_offset

    def test_empty_stream_round_trips(self, tmp_path):
        tok = TokenSequence(tokens=np.empty(0, np.uint16), l=4, fps=50.0, K=8,
                            codebook_digest=bytes(32))
        path = tmp_path / "e.mjt"
        write_token_stream(path, tok)
        back = read_token_stream(path)
        assert len(back) == 0

    def test_file_size_arithmetic(self, tmp_path):
        tok = _tok(n=1000)
        path = tmp_path / "t.mjt"
        write_token_stream(path, tok)
        assert path.stat().st_size == HEADER_BYTES + 2000 + CRC_BYTES

    def test_corrupted_payload_byte_fails_checksum(self, tmp_path):
        tok = _tok(n=100)
        path = tmp_path / "t.mjt"
        write_token_stream(path, tok)
        blob = bytearray(path.read_bytes())
        blob[HEADER_BYTES + 37] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_token_stream(path)

    def test_other_frames_per_token_rejected(self, tmp_path):
        tok = _tok(n=15)
        tok.l = 8
        path = tmp_path / "l8.mjt"
        write_token_stream(path, tok)
        with pytest.raises(FormatError):
            read_token_stream(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mjt"
        path.write_bytes(b"WHAT" + bytes(HEADER_BYTES))
        with pytest.raises(FormatError):
            read_token_stream(path)

    def test_out_of_range_token_rejected(self, tmp_path):
        tok = _tok(n=10, K=12)
        path = tmp_path / "t.mjt"
        write_token_stream(path, tok)
        blob = bytearray(path.read_bytes())
        # overwrite one token with id 4000 and re-stamp the checksum
        struct.pack_into("<H", blob, HEADER_BYTES + 4, 4000)
        crc = zlib.crc32(bytes(blob[:-CRC_BYTES])) & 0xFFFFFFFF
        struct.pack_into("<I", blob, len(blob) - CRC_BYTES, crc)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_token_stream(path)

    @pytest.mark.parametrize("K", [0, 1, 70000, (1 << 32) - 1])
    def test_header_codebook_size_out_of_range_rejected(self, tmp_path, K):
        path = tmp_path / "t.mjt"
        write_token_stream(path, TokenSequence(tokens=np.empty(0, np.uint16), l=4, fps=60.0,
                                               K=12, codebook_digest=bytes(32)))
        blob = bytearray(path.read_bytes())
        # the u32 K after the magic, the version, the fps and the u16 l, and
        # a fresh checksum: no id and no other field is out of range
        struct.pack_into("<I", blob, 14, K)
        struct.pack_into("<I", blob, len(blob) - CRC_BYTES, zlib.crc32(blob[:-CRC_BYTES]))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="declares codebook size"):
            read_token_stream(path)

    def test_token_sequence_validates_ids(self):
        with pytest.raises(InvalidArgument):
            TokenSequence(tokens=np.array([99], dtype=np.uint16), l=4, fps=60.0,
                          K=12, codebook_digest=bytes(32))

    def test_token_ids_checked_before_the_u16_cast(self):
        # 65539 and -1 would wrap to 3 and 65535 under a uint16 cast, and
        # under K=70000 ids 65536 and 65537 would be stored as 0 and 1
        for ids, K in (([1, 65539], 12), ([-1], 1 << 16), ([0, -5], 12),
                       ([65536, 65537], 70000), ([0], 70000), ([0], 1), ([], 0),
                       ([0], 12.0), ([0], 1 << 32)):
            with pytest.raises(InvalidArgument):
                TokenSequence(tokens=np.array(ids, dtype=np.int64), l=4, fps=60.0,
                              K=K, codebook_digest=bytes(32))
        # the u64 and u16 header fields: a negative offset or l made the
        # writer raise a bare struct.error
        for offset, l in ((-1, 4), (1 << 64, 4), (3.0, 4), (0, -1), (0, 0), (0, 4.5)):
            with pytest.raises(InvalidArgument, match="start_offset" if l == 4 else "l must"):
                TokenSequence(tokens=np.array([0]), l=l, fps=60.0, K=12,
                              codebook_digest=bytes(32), start_offset=offset)
        with pytest.raises(InvalidArgument):
            # fractional ids used to be truncated to [1, 2]
            TokenSequence(tokens=np.array([1.7, 2.2]), l=4, fps=60.0, K=12,
                          codebook_digest=bytes(32))
        tok = TokenSequence(tokens=np.array([0, 65535]), l=4, fps=60.0, K=1 << 16,
                            codebook_digest=bytes(32))
        assert tok.tokens.dtype == np.uint16 and tok.tokens.tolist() == [0, 65535]
        tok = TokenSequence(tokens=np.array([1]), l=4, fps=60.0, K=np.int64(2),
                            codebook_digest=bytes(32), start_offset=(1 << 64) - 1)
        assert tok.K == 2 and tok.start_offset == (1 << 64) - 1
