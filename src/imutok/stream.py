"""Online chunked tokenization of IMU streams, token decoding, and the
binary token wire format ("MJT2").

Chunks are encoded independently (no cross-chunk context), so any partition
of a frame stream into push_frames calls yields the same token list as
offline tokenization of the stream in chunk-sized blocks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import gradnet as gn
from . import vqcodec as vq
from .checkpoint import Checkpoint, load_checkpoint
from .errors import DigestMismatch, FormatError, InvalidArgument, StatsMissing
from .imusim import IMU_WIDTH, SL_ACC, InertiaSequence, NormStats
from .models import flatten_latents, unflatten_latents
from .motion import MotionSequence
from .trainer import build_imu_model

TOKEN_MAGIC = b"MJT2"
TOKEN_VERSION = 1
DEFAULT_CHUNK = 16

_HEADER = struct.Struct("<4sIfHI32sQQ")  # magic, version, fps, l, K, digest, offset, count
HEADER_BYTES = _HEADER.size
CRC_BYTES = 4

# largest frame count one pipe packet may declare (18.9 MB of float32)
MAX_PACKET_FRAMES = 65536


@dataclass
class TokenSequence:
    """Ordered token ids with provenance: compression rate, fps, and the
    digest of the codebook that produced them."""

    tokens: np.ndarray
    l: int
    fps: float
    K: int
    codebook_digest: bytes
    start_offset: int = 0

    def __post_init__(self):
        if len(self.codebook_digest) != 32:
            raise InvalidArgument("codebook digest must be 32 bytes")
        # range-check before the uint16 cast, which would wrap ids >= 2^16
        # and negative ids silently
        tokens = np.asarray(self.tokens)
        if tokens.size and (int(tokens.min()) < 0 or int(tokens.max()) >= self.K):
            raise InvalidArgument("token id out of codebook range")
        self.tokens = tokens.astype(np.uint16)

    def __len__(self) -> int:
        return self.tokens.size


@dataclass
class InferencePipeline:
    """Loaded stage-2 model bundle: IMU encoder + codebook, frozen motion
    decoder, and the acceleration normalization stats baked at training."""

    imu_model: object
    motion_model: object
    cfg: object
    stats: NormStats

    @classmethod
    def from_checkpoint(cls, ckpt) -> "InferencePipeline":
        if not isinstance(ckpt, Checkpoint):
            ckpt = load_checkpoint(ckpt)
        imu_model, motion_model, cfg, stats = build_imu_model(ckpt)
        return cls(imu_model, motion_model, cfg, stats)

    def codebook_digest(self) -> bytes:
        return self.imu_model.codebook.digest()


def _prepare_frames(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    """Normalize acceleration channels and cast to the model dtype."""
    x = np.asarray(frames, dtype=np.float64).copy()
    x[:, SL_ACC] = (x[:, SL_ACC] - stats.mean) / stats.std
    return x.astype(np.float32)


def _encode_chunk(pipe: InferencePipeline, chunk: np.ndarray) -> np.ndarray:
    """Raw (n, 72) frames -> token ids for one chunk."""
    x = _prepare_frames(chunk, pipe.stats)
    z = pipe.imu_model.encode(gn.Tensor(np.ascontiguousarray(x.T)[None]))
    flat = flatten_latents(z).value
    indices, _ = vq.quantize(flat, pipe.imu_model.codebook)
    return indices.astype(np.uint16)


@dataclass
class StreamState:
    """Single-consumer online tokenizer state."""

    pipeline: InferencePipeline
    chunk_len: int = DEFAULT_CHUNK
    buffer: list = field(default_factory=list)
    frames_seen: int = 0
    tokens_emitted: int = 0

    def __post_init__(self):
        if self.pipeline.stats is None:
            raise StatsMissing("stream state needs normalization stats")
        if self.chunk_len % 4 != 0 or self.chunk_len < 4:
            raise InvalidArgument("chunk length must be a positive multiple of 4")


def push_frames(state: StreamState, frames: np.ndarray) -> np.ndarray:
    """Buffer incoming (n, 72) frames; emit chunk_len/4 tokens per full chunk."""
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != IMU_WIDTH:
        raise FormatError(f"stream frames must be (n, {IMU_WIDTH}), got {frames.shape}")
    state.buffer.extend(np.asarray(f, dtype=np.float64) for f in frames)
    state.frames_seen += frames.shape[0]
    out = []
    while len(state.buffer) >= state.chunk_len:
        chunk = np.stack(state.buffer[:state.chunk_len])
        del state.buffer[:state.chunk_len]
        out.append(_encode_chunk(state.pipeline, chunk))
    if not out:
        return np.empty(0, dtype=np.uint16)
    tokens = np.concatenate(out)
    state.tokens_emitted += tokens.size
    return tokens


def tokenize_sequence(seq: InertiaSequence, pipe: InferencePipeline,
                      chunk_len: int | None = DEFAULT_CHUNK) -> TokenSequence:
    """Offline tokenization.

    With a chunk_len, frames are encoded in independent chunk-sized blocks
    (identical to the online path; trailing frames short of a chunk are
    dropped). With chunk_len=None the whole sequence is encoded in one
    convolutional pass.
    """
    frames = np.asarray(seq.frames, dtype=np.float64)
    if chunk_len is None:
        ids = _encode_chunk(pipe, frames) if frames.shape[0] >= 4 else np.empty(0, np.uint16)
    else:
        if chunk_len % 4 != 0 or chunk_len < 4:
            raise InvalidArgument("chunk length must be a positive multiple of 4")
        parts = [
            _encode_chunk(pipe, frames[lo:lo + chunk_len])
            for lo in range(0, frames.shape[0] - chunk_len + 1, chunk_len)
        ]
        ids = np.concatenate(parts) if parts else np.empty(0, np.uint16)
    return TokenSequence(tokens=ids, l=4, fps=seq.fps, K=pipe.imu_model.K,
                         codebook_digest=pipe.codebook_digest())


def decode_tokens(tok: TokenSequence, pipe: InferencePipeline) -> MotionSequence:
    """Gather code vectors and run the motion decoder: 4 frames per token."""
    if tok.codebook_digest != pipe.codebook_digest():
        raise DigestMismatch("token stream was produced by a different codebook")
    ids = tok.tokens.astype(np.int64)
    codes = pipe.imu_model.codebook.entries[ids]
    z = unflatten_latents(codes, 1, pipe.imu_model.d_z)
    frames = pipe.motion_model.decode(gn.Tensor(z)).value[0].T
    return MotionSequence(frames=np.ascontiguousarray(frames), fps=tok.fps)


# ---------------------------------------------------------------------------
# wire format

def write_token_stream(path, tok: TokenSequence) -> None:
    header = _HEADER.pack(TOKEN_MAGIC, TOKEN_VERSION, tok.fps, tok.l, tok.K,
                          tok.codebook_digest, tok.start_offset, tok.tokens.size)
    payload = tok.tokens.astype("<u2").tobytes()
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def pipe_tokenize(reader, writer, pipe: InferencePipeline,
                  chunk_len: int = DEFAULT_CHUNK) -> int:
    """Streaming mode over byte pipes (stdin/stdout style).

    Input packets: u32 little-endian frame count, then count*72 float32
    values, at most MAX_PACKET_FRAMES frames per packet. A zero-length packet
    (or EOF) ends the stream; frames short of a full chunk at that point are
    dropped. Output packets mirror the input: u32 token count followed by
    little-endian u16 token ids, one packet per input packet (possibly
    zero-count). Returns the total token count.
    """
    state = StreamState(pipe, chunk_len=chunk_len)
    total = 0
    while True:
        header = reader.read(4)
        if len(header) < 4:
            break
        (count,) = struct.unpack("<I", header)
        if count == 0:
            break
        if count > MAX_PACKET_FRAMES:
            raise FormatError(f"packet declares {count} frames, more than {MAX_PACKET_FRAMES}")
        payload = reader.read(count * IMU_WIDTH * 4)
        if len(payload) != count * IMU_WIDTH * 4:
            raise FormatError("truncated frame packet")
        frames = np.frombuffer(payload, dtype="<f4").reshape(count, IMU_WIDTH)
        tokens = push_frames(state, frames.astype(np.float64))
        writer.write(struct.pack("<I", tokens.size))
        writer.write(tokens.astype("<u2").tobytes())
        writer.flush()
        total += tokens.size
    return total


def read_token_stream(path) -> TokenSequence:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < HEADER_BYTES + CRC_BYTES:
        raise FormatError("token stream too short for header")
    magic, version, fps, l, K, digest, offset, count = _HEADER.unpack(blob[:HEADER_BYTES])
    if magic != TOKEN_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TOKEN_MAGIC!r}")
    if version != TOKEN_VERSION:
        raise FormatError(f"unsupported token stream version {version}")
    expected = HEADER_BYTES + 2 * count + CRC_BYTES
    if len(blob) != expected:
        raise FormatError(f"token stream length {len(blob)} != expected {expected}")
    (crc_stored,) = struct.unpack("<I", blob[-CRC_BYTES:])
    if zlib.crc32(blob[:-CRC_BYTES]) & 0xFFFFFFFF != crc_stored:
        raise FormatError("token stream checksum mismatch")
    tokens = np.frombuffer(blob[HEADER_BYTES:-CRC_BYTES], dtype="<u2").copy()
    if tokens.size and int(tokens.max()) >= K:
        raise FormatError("token id out of range for the declared codebook size")
    return TokenSequence(tokens=tokens, l=l, fps=fps, K=K, codebook_digest=digest,
                         start_offset=offset)
