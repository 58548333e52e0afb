import numpy as np
import pytest

from imutok import gradnet as gn
from imutok import stream
from imutok.checkpoint import load_checkpoint
from imutok.errors import DigestMismatch, FormatError, InvalidArgument, StatsMissing
from imutok.evalbench import augment_and_normalize, synthesize_pairs
from imutok.imusim import IMU_WIDTH, InertiaSequence
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

    def test_one_push_of_several_chunks_keeps_the_remainder(self, pipeline, imu_640):
        frames = imu_640.frames[:37]
        state = StreamState(pipeline, chunk_len=16)
        toks = push_frames(state, frames)
        assert toks.shape == (8,)
        assert np.array_equal(state.buffer, frames[32:])
        assert (state.frames_seen, state.tokens_emitted) == (37, 8)
        one_by_one = StreamState(pipeline, chunk_len=16)
        got = np.concatenate([push_frames(one_by_one, f[None]) for f in frames])
        assert np.array_equal(toks, got)
        offline = tokenize_sequence(InertiaSequence(frames, imu_640.fps), pipeline, chunk_len=16)
        assert np.array_equal(toks, offline.tokens)

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

    def test_chunk_must_be_multiple_of_rate(self, pipeline):
        with pytest.raises(InvalidArgument):
            StreamState(pipeline, chunk_len=10)

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
        for t in (z, out):
            assert not t.requires_grad
            assert t._parents == ()


class TestDecode:
    def test_token_count_to_frame_count(self, pipeline, imu_640):
        tok = tokenize_sequence(InertiaSequence(imu_640.frames[:16], imu_640.fps),
                                pipeline, chunk_len=16)
        assert len(tok) == 4
        seq = decode_tokens(tok, pipeline)
        assert len(seq) == 16

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
        import struct
        import zlib
        struct.pack_into("<H", blob, HEADER_BYTES + 4, 4000)
        crc = zlib.crc32(bytes(blob[:-CRC_BYTES])) & 0xFFFFFFFF
        struct.pack_into("<I", blob, len(blob) - CRC_BYTES, crc)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_token_stream(path)

    def test_token_sequence_validates_ids(self):
        with pytest.raises(InvalidArgument):
            TokenSequence(tokens=np.array([99], dtype=np.uint16), l=4, fps=60.0,
                          K=12, codebook_digest=bytes(32))

    def test_token_ids_checked_before_the_u16_cast(self):
        # 65539 and -1 would wrap to 3 and 65535 under a uint16 cast
        for ids, K in (([1, 65539], 12), ([-1], 1 << 16), ([0, -5], 12)):
            with pytest.raises(InvalidArgument):
                TokenSequence(tokens=np.array(ids, dtype=np.int64), l=4, fps=60.0,
                              K=K, codebook_digest=bytes(32))
        with pytest.raises(InvalidArgument):
            # fractional ids used to be truncated to [1, 2]
            TokenSequence(tokens=np.array([1.7, 2.2]), l=4, fps=60.0, K=12,
                          codebook_digest=bytes(32))
        tok = TokenSequence(tokens=np.array([0, 65535]), l=4, fps=60.0, K=1 << 16,
                            codebook_digest=bytes(32))
        assert tok.tokens.dtype == np.uint16 and tok.tokens.tolist() == [0, 65535]
