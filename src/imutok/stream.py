"""Online chunked tokenization of IMU streams, token decoding, and the
binary token wire format ("MJT2").

Chunks are encoded independently (no cross-chunk context), so any partition
of a frame stream into push_frames calls yields the same token list as
offline tokenization of the stream in chunk-sized blocks. The chunks one
call completes go through one ``models.tokenize_windows`` call, which keeps
every chunk's latents and ids bitwise those of encoding it alone. A
``StreamState`` keeps the encoder workspace of each group of chunks it
encodes, so a push allocates no encoder buffers once the stream has seen
its chunk count. Decoding runs ``MotionVQVAE.decode_array``: no step of
tokenizing or decoding builds an autodiff Tensor.
"""

from __future__ import annotations

import numbers
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DigestMismatch, FormatError, InvalidArgument, StatsMissing
from .fileio import header_fps
from .imusim import IMU_WIDTH, InertiaSequence, NormStats
from .models import COMPRESSION, tokenize_windows
from .motion import MOTION_WIDTH, MotionSequence, check_fps
from .trainer import MAX_CODEBOOK_SIZE, load_trained

TOKEN_MAGIC = b"MJT2"
TOKEN_VERSION = 1
DEFAULT_CHUNK = 16

_HEADER = struct.Struct("<4sIfHI32sQQ")  # magic, version, fps, l, K, digest, offset, count
HEADER_BYTES = _HEADER.size
CRC_BYTES = 4

# largest frame count one pipe packet may declare (18.9 MB of float32)
MAX_PACKET_FRAMES = 65536


def _is_int_in(value, lo: int, hi: int) -> bool:
    return isinstance(value, numbers.Integral) and lo <= value <= hi


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
        check_fps(self.fps)
        # the header's u16 l, u32 K and u64 offset fields; a K above 2^16
        # would also let ids past the u16 range reach the cast below
        if not _is_int_in(self.l, 1, 0xFFFF):
            raise InvalidArgument(f"frames per token l must be an integer in [1, 65535], "
                                  f"got {self.l!r}")
        if not _is_int_in(self.K, 2, MAX_CODEBOOK_SIZE):
            raise InvalidArgument(f"codebook size K must be an integer in "
                                  f"[2, {MAX_CODEBOOK_SIZE}], got {self.K!r}")
        if not _is_int_in(self.start_offset, 0, (1 << 64) - 1):
            raise InvalidArgument(f"start_offset must be an integer in [0, 2^64), "
                                  f"got {self.start_offset!r}")
        # dtype- and range-check before the uint16 cast, which would truncate
        # fractional ids and wrap ids >= 2^16 and negative ids silently
        tokens = np.asarray(self.tokens)
        if tokens.dtype.kind not in "iu":
            raise InvalidArgument(f"token ids must be integers, got dtype {tokens.dtype}")
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
        """From a stage-2 ``Checkpoint`` or its path."""
        (imu_model, motion_model), cfg, stats = load_trained(ckpt, "imu_tokenizer")
        return cls(imu_model, motion_model, cfg, stats)

    def codebook_digest(self) -> bytes:
        return self.imu_model.codebook.digest()


def _check_frames(frames: np.ndarray) -> None:
    """FormatError unless the frames are real numbers (a complex frame would
    lose its imaginary part in the float cast, an object or string frame
    fail in numpy), InvalidArgument unless they are all finite."""
    if frames.dtype.kind not in "biuf":
        raise FormatError(f"IMU frames must be real numbers, got dtype {frames.dtype}")
    # argmin over a NaN distance row returns 0, so a non-finite frame would
    # silently become token 0 for every latent step that sees it
    if not np.isfinite(frames).all():
        raise InvalidArgument("IMU frames contain NaN or infinite values")


def _check_chunk_len(chunk_len) -> None:
    """InvalidArgument unless ``chunk_len`` is a positive integer multiple of COMPRESSION."""
    if not (isinstance(chunk_len, numbers.Integral) and chunk_len > 0
            and chunk_len % COMPRESSION == 0):
        raise InvalidArgument(f"chunk length must be a positive integer multiple of "
                              f"{COMPRESSION}, got {chunk_len!r}")


def _encode_chunks(pipe: InferencePipeline, x: np.ndarray, chunk_len: int,
                   workspaces: dict | None = None) -> np.ndarray:
    """The u16 token ids of (n, 72) normalized float32 frames encoded in
    independent chunk_len-frame blocks by ``tokenize_windows``, on the
    workspaces of ``workspaces`` (a ``StreamState``'s) when given; frames
    short of a block are left out."""
    n = len(x) // chunk_len
    blocks = x[:n * chunk_len].reshape(n, chunk_len, IMU_WIDTH)
    return tokenize_windows(pipe.imu_model, blocks, workspaces)[1].reshape(-1).astype(np.uint16)


@dataclass
class StreamState:
    """Single-consumer online tokenizer state. It keeps the encoder
    workspaces of the groups of chunks its pushes complete (at most
    ``models.WINDOW_GROUP`` of them, whatever the packet size; see
    ``models.tokenize_windows``), so it must not be shared between threads."""

    pipeline: InferencePipeline
    chunk_len: int = DEFAULT_CHUNK
    # run-time state, set by push_frames only
    buffer: np.ndarray = field(
        init=False, default_factory=lambda: np.empty((0, IMU_WIDTH), dtype=np.float32))
    frames_seen: int = field(init=False, default=0)
    tokens_emitted: int = field(init=False, default=0)
    workspaces: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.pipeline.stats is None:
            raise StatsMissing("stream state needs normalization stats")
        _check_chunk_len(self.chunk_len)


def push_frames(state: StreamState, frames: np.ndarray) -> np.ndarray:
    """Buffer incoming (n, 72) frames; emit chunk_len/4 tokens per full chunk.

    Each incoming frame is normalized in float64 and rounded to float32
    once, on arrival, straight into the push's pending buffer; pending
    frames wait in that model-ready form. The chunks a push completes are
    quantized in one call, and a push that completes none runs no encoder.
    Raises FormatError for frames that are not real numbers and
    InvalidArgument for frames that are not finite, in both cases leaving
    the buffer as it was. Raises InvalidArgument, too, when a completed
    chunk's latents are not finite; such a push drops all its pending
    frames, the buffered ones and its own, so that the stream goes on from
    a chunk boundary: frames that overflow while they wait in the buffer
    cannot fail every later push. The frames of a push that raises are not
    counted in ``frames_seen``.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != IMU_WIDTH:
        raise FormatError(f"stream frames must be (n, {IMU_WIDTH}), got {frames.shape}")
    _check_frames(frames)
    held = len(state.buffer)
    pending = np.empty((held + len(frames), IMU_WIDTH), np.float32)
    pending[:held] = state.buffer
    state.pipeline.stats.normalize(frames, out=pending[held:])
    done = len(pending) - len(pending) % state.chunk_len
    if done:
        try:
            tokens = _encode_chunks(state.pipeline, pending[:done], state.chunk_len,
                                    state.workspaces)
        except InvalidArgument:
            state.buffer = pending[:0].copy()
            raise
        pending = pending[done:].copy()  # hold the remainder, not the packet
    else:
        tokens = np.empty(0, np.uint16)
    state.buffer = pending
    state.frames_seen += frames.shape[0]
    state.tokens_emitted += tokens.size
    return tokens


def tokenize_sequence(seq: InertiaSequence, pipe: InferencePipeline,
                      chunk_len: int | None = DEFAULT_CHUNK) -> TokenSequence:
    """Offline tokenization.

    With a chunk_len, frames are encoded in independent chunk-sized blocks
    (identical to the online path; trailing frames short of a chunk are
    dropped). With chunk_len=None the whole sequence is encoded in one
    convolutional pass. Raises FormatError for frames that are not real
    numbers and InvalidArgument for frames that are not finite or whose
    latents are not.
    """
    _check_frames(seq.frames)
    if chunk_len is None:
        chunk_len = max(len(seq), 4)  # one block; under 4 frames make no token
    else:
        _check_chunk_len(chunk_len)
    x = pipe.stats.normalize(seq.frames, out=np.empty(seq.frames.shape, np.float32))
    ids = _encode_chunks(pipe, x, chunk_len)
    return TokenSequence(tokens=ids, l=COMPRESSION, fps=seq.fps, K=pipe.cfg.K,
                         codebook_digest=pipe.codebook_digest())


def decode_tokens(tok: TokenSequence, pipe: InferencePipeline) -> MotionSequence:
    """Gather code vectors and run the motion decoder: 4 frames per token,
    so 0 tokens decode to 0 frames."""
    if tok.l != COMPRESSION:
        raise InvalidArgument(f"token stream has {tok.l} frames per token, the decoder "
                              f"{COMPRESSION}")
    if tok.codebook_digest != pipe.codebook_digest():
        raise DigestMismatch("token stream was produced by a different codebook")
    entries = pipe.imu_model.codebook.entries
    if tok.K != len(entries):
        raise DigestMismatch(f"token stream declares a codebook of {tok.K} entries, "
                             f"the checkpoint's has {len(entries)}")
    if len(tok) == 0:  # the decoder's convs need at least one latent step
        return MotionSequence(frames=np.empty((0, MOTION_WIDTH), dtype=entries.dtype),
                              fps=tok.fps)
    codes = entries[tok.tokens.astype(np.int64)]
    frames = pipe.motion_model.decode_array(codes.T[None])[0].T
    return MotionSequence(frames=np.ascontiguousarray(frames), fps=tok.fps)


# ---------------------------------------------------------------------------
# wire format

def write_token_stream(path, tok: TokenSequence) -> None:
    header = _HEADER.pack(TOKEN_MAGIC, TOKEN_VERSION, header_fps(tok.fps), tok.l, tok.K,
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
    (or EOF where a header would start) ends the stream; frames short of a
    full chunk at that point are dropped. A header or payload cut short by
    EOF raises FormatError. Output packets mirror the input: u32 token count
    followed by little-endian u16 token ids, one packet per input packet
    (possibly zero-count). Returns the total token count.
    """
    state = StreamState(pipe, chunk_len=chunk_len)
    total = 0
    while True:
        header = reader.read(4)
        if not header:
            break
        if len(header) < 4:
            raise FormatError("truncated packet header")
        (count,) = struct.unpack("<I", header)
        if count == 0:
            break
        if count > MAX_PACKET_FRAMES:
            raise FormatError(f"packet declares {count} frames, more than {MAX_PACKET_FRAMES}")
        payload = reader.read(count * IMU_WIDTH * 4)
        if len(payload) != count * IMU_WIDTH * 4:
            raise FormatError("truncated frame packet")
        frames = np.frombuffer(payload, dtype="<f4").reshape(count, IMU_WIDTH)
        tokens = push_frames(state, frames)
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
    if l != COMPRESSION:
        raise FormatError(f"token stream declares {l} frames per token, expected {COMPRESSION}")
    if not 0.0 < fps < np.inf:  # NaN fails too, as in fileio's frame files
        raise FormatError(f"fps must be positive and finite, got {fps}")
    if not 2 <= K <= MAX_CODEBOOK_SIZE:
        raise FormatError(f"token stream declares codebook size {K}, "
                          f"outside [2, {MAX_CODEBOOK_SIZE}]")
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
