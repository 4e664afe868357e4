"""Frozen "expert encoder" abstraction with a deterministic stub implementation.

Real expert models (speech, image, and graph encoders) are replaced here by a
stub that hashes the payload into a 64-bit key and expands the key into a
pseudo-random unit vector. The hash is splitmix64 over the UTF-8 payload
bytes; the expansion is numpy's counter-based Philox generator keyed by the
hash, drawing d standard normals in float32, scaled to unit length in float64.
A frame's payload is its video id and its time in 10 ms buckets, taken with
``round``, so a time on an exact half bucket rounds to the even one. Same
payload + seed gives bitwise-identical vectors on every platform numpy
supports.

Each modality encodes a list of payloads (``StubEncoders.encode_captions``)
into (n, d) rows: ``hash_many`` keys them, and one generator per thread,
kept across calls and re-keyed for every row, draws them. The single-payload
methods (``StubEncoders.encode_caption``) are one-row calls of the list
methods. ``hash_many`` takes the scalar ``hash_bytes`` per payload for a list
shorter than ``_FOLD_MIN`` and folds the hash over every payload at once with
numpy for a longer one; the fold's fixed cost outweighs the per-payload cost
below that length.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .scene_graph import SceneGraph, linearize

DEFAULT_DIM = 768

MODALITIES = ("frame", "caption", "scene_graph", "question")
MODALITY_IDS = {name: i for i, name in enumerate(MODALITIES)}

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """64-bit hash of a byte string: splitmix64 folded over 8-byte chunks."""
    h = splitmix64(seed & _MASK64)
    for i in range(0, len(data), 8):
        chunk = int.from_bytes(data[i : i + 8], "little")
        h = splitmix64(h ^ chunk)
    # fold in the length so "a\x00" and "a" differ
    return splitmix64(h ^ len(data))


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each uint64; array arithmetic wraps modulo 2**64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# Lists of fewer payloads than this are hashed one payload at a time
_FOLD_MIN = 16


def hash_many(payloads: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """``hash_bytes`` of every payload, as uint64. A list of ``_FOLD_MIN`` or
    more is folded over all of them at once: each payload is read as
    zero-padded little-endian 8-byte chunks, and its hash stops taking chunks
    after its last one."""
    if len(payloads) < _FOLD_MIN:
        return np.array([hash_bytes(p, seed) for p in payloads], dtype=np.uint64)
    lengths = np.fromiter(map(len, payloads), dtype=np.uint64, count=len(payloads))
    width = -(-int(lengths.max(initial=0)) // 8)
    chunks = np.frombuffer(b"".join(p.ljust(8 * width, b"\0") for p in payloads), dtype="<u8")
    h = np.full(len(payloads), splitmix64(seed & _MASK64), dtype=np.uint64)
    for j, column in enumerate(chunks.reshape(len(payloads), width).T):
        h = np.where(lengths > 8 * j, _splitmix64_array(h ^ column), h)
    return _splitmix64_array(h ^ lengths)


@dataclass(frozen=True)
class Embedding:
    """What a single-payload encode method returns; ``_unit_rows`` checked it."""
    values: np.ndarray   # float32, shape (d,)
    modality: str        # one of MODALITIES


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||2, computed in float64 then cast back to the input dtype."""
    v = np.asarray(v)
    x = v.astype(np.float64)
    flat = x.ravel()
    # the sum of squares np.linalg.norm takes, without its dispatch
    norm = math.sqrt(flat.dot(flat))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    x /= norm
    return x.astype(v.dtype)


_philox = threading.local()   # per thread, on first use: (Philox, Generator, fresh state)


def _unit_rows(payloads: Sequence[bytes], d: int, seed: int) -> np.ndarray:
    """One float32 row per payload: d standard normals from Philox keyed by
    the payload's hash, scaled to unit length by ``l2_normalize``."""
    rows = np.empty((len(payloads), d), dtype=np.float32)
    if not payloads:
        return rows
    if not hasattr(_philox, "kept"):
        bitgen = np.random.Philox(key=0)
        _philox.kept = bitgen, np.random.Generator(bitgen), bitgen.state
    bitgen, gen, fresh = _philox.kept
    # A fresh state (counter 0, an empty buffer, no spare 32-bit word) set with
    # a key gives the stream a new Philox(key=key) gives, without building one.
    for i, key in enumerate(hash_many(payloads, seed).tolist()):
        fresh["state"]["key"][0] = key
        bitgen.state = fresh
        gen.standard_normal(dtype=np.float32, out=rows[i])
        rows[i] = l2_normalize(rows[i])
    if not np.isfinite(rows).all():
        raise ConfigError("embedding has non-finite entries")
    return rows


def _frame_payload(video_id: str, time_s: float) -> bytes:
    """The video id and the time in 10 ms buckets; ``round`` takes an exact
    half bucket to the even one."""
    return f"{video_id}\x1f{round(time_s * 100)}".encode("utf-8")


@dataclass
class StubEncoders:
    """Bundle of stub experts sharing one dimension and corpus seed."""
    d: int = DEFAULT_DIM
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.d < 2**32:   # a store's header: a u32, and 0 means "no encoders"
            raise ValueError(f"dimension must be >= 1 and below 2**32, got {self.d}")

    # One method per modality for a list of payloads: (n, d) float32 rows.

    def encode_captions(self, texts: Sequence[str]) -> np.ndarray:
        return _unit_rows([t.encode("utf-8") for t in texts], self.d, self.seed)

    encode_questions = encode_captions

    def encode_graphs(self, graphs: Sequence[SceneGraph]) -> np.ndarray:
        return self.encode_captions([linearize(g) for g in graphs])

    def encode_frames(self, frames: Sequence[tuple[str, float]]) -> np.ndarray:
        """One row per (video_id, time_s) pair."""
        payloads = [_frame_payload(video_id, time_s) for video_id, time_s in frames]
        return _unit_rows(payloads, self.d, self.seed)

    # One payload: a one-row call of the list method, as an Embedding

    def encode_caption(self, text: str) -> Embedding:
        return Embedding(self.encode_captions([text])[0], "caption")

    def encode_question(self, text: str) -> Embedding:
        return Embedding(self.encode_questions([text])[0], "question")

    def encode_graph(self, graph: SceneGraph) -> Embedding:
        return Embedding(self.encode_graphs([graph])[0], "scene_graph")

    def encode_frame(self, video_id: str, time_s: float) -> Embedding:
        """Frame stub keyed on (video_id, time quantized to 10 ms buckets)."""
        return Embedding(self.encode_frames([(video_id, time_s)])[0], "frame")
