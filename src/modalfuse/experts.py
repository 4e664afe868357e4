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

Each modality encodes one payload (``StubEncoders.encode_caption``) or a list
of them (``StubEncoders.encode_captions``), with bitwise-equal rows. A list
hashes every payload at once with numpy (``hash_many``) and draws every row
from one generator, re-keyed per row; a single payload keeps the scalar
``hash_bytes``, which is faster for one.
"""

from __future__ import annotations

import math
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


def hash_many(payloads: Sequence[bytes], seed: int = 0) -> np.ndarray:
    """``hash_bytes`` of every payload, as uint64, folded over all of them at
    once: each payload is read as zero-padded little-endian 8-byte chunks,
    and its hash stops taking chunks after its last one."""
    lengths = np.fromiter(map(len, payloads), dtype=np.uint64, count=len(payloads))
    width = -(-int(lengths.max(initial=0)) // 8)
    chunks = np.frombuffer(b"".join(p.ljust(8 * width, b"\0") for p in payloads), dtype="<u8")
    h = np.full(len(payloads), splitmix64(seed & _MASK64), dtype=np.uint64)
    for j, column in enumerate(chunks.reshape(len(payloads), width).T):
        h = np.where(lengths > 8 * j, _splitmix64_array(h ^ column), h)
    return _splitmix64_array(h ^ lengths)


@dataclass(frozen=True)
class Embedding:
    values: np.ndarray   # float32, shape (d,)
    modality: str

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 1:
            raise ConfigError(f"embedding must be 1-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ConfigError("embedding has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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


def _unit_rows(keys: Sequence[int], d: int) -> np.ndarray:
    """One float32 row per key: d standard normals from Philox keyed by it,
    scaled to unit length by ``l2_normalize``."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rows = np.empty((len(keys), d), dtype=np.float32)
    if not keys:
        return rows
    bitgen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bitgen)
    # A fresh generator's state: counter 0, an empty buffer, no spare 32-bit
    # word. Set with another key, it gives the stream a new Philox(key=key)
    # gives, for a fifth of the cost of building one. A one-row call, the
    # single-payload path, skips reading it.
    fresh = bitgen.state if len(keys) > 1 else None
    for i, key in enumerate(keys):
        if i:
            fresh["state"]["key"][0] = key
            bitgen.state = fresh
        gen.standard_normal(dtype=np.float32, out=rows[i])
        rows[i] = l2_normalize(rows[i])
    if not np.isfinite(rows).all():
        raise ConfigError("embedding has non-finite entries")
    return rows


def _text_rows(texts: Sequence[str], d: int, seed: int) -> np.ndarray:
    return _unit_rows(hash_many([t.encode("utf-8") for t in texts], seed).tolist(), d)


def _frame_payload(video_id: str, time_s: float) -> bytes:
    """The video id and the time in 10 ms buckets; ``round`` takes an exact
    half bucket to the even one."""
    return f"{video_id}\x1f{round(time_s * 100)}".encode("utf-8")


def stub_encode_text(text: str, d: int = DEFAULT_DIM, seed: int = 0,
                     modality: str = "caption") -> Embedding:
    key = hash_bytes(text.encode("utf-8"), seed=seed)
    return Embedding(_unit_rows([key], d)[0], modality)


def stub_encode_frame(video_id: str, time_s: float, d: int = DEFAULT_DIM,
                      seed: int = 0) -> Embedding:
    """Frame stub keyed on (video_id, time quantized to 10 ms buckets)."""
    key = hash_bytes(_frame_payload(video_id, time_s), seed=seed)
    return Embedding(_unit_rows([key], d)[0], "frame")


@dataclass(frozen=True)
class FusedInput:
    """Stacked modality rows: (frame rows..., caption-or-question row, graph row).

    Ablated modalities are removed entirely, never zero-filled, so row count
    varies: k frames + 2 when everything is present.
    """
    rows: np.ndarray          # float32, shape (m, d)
    modalities: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[0] != len(self.modalities):
            raise ConfigError(
                f"rows shape {rows.shape} inconsistent with {len(self.modalities)} modality tags"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "modalities", tuple(self.modalities))

    @property
    def modality_ids(self) -> np.ndarray:
        return np.array([MODALITY_IDS[m] for m in self.modalities], dtype=np.int64)


def fuse(frames: list[Embedding], text: Embedding | None,
         graph: Embedding | None = None) -> FusedInput:
    """Stack present modality rows in canonical order. Pass None to ablate."""
    parts: list[Embedding] = list(frames)
    if text is not None:
        parts.append(text)
    if graph is not None:
        parts.append(graph)
    if not parts:
        raise ValueError("all modalities ablated; nothing to fuse")
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ConfigError(f"mixed embedding dimensions: {sorted(dims)}")
    rows = np.stack([p.values for p in parts])
    return FusedInput(rows, tuple(p.modality for p in parts))


@dataclass
class StubEncoders:
    """Bundle of stub experts sharing one dimension and corpus seed."""
    d: int = DEFAULT_DIM
    seed: int = 0

    def encode_caption(self, text: str) -> Embedding:
        return stub_encode_text(text, self.d, self.seed, modality="caption")

    def encode_question(self, text: str) -> Embedding:
        return stub_encode_text(text, self.d, self.seed, modality="question")

    def encode_graph(self, graph: SceneGraph) -> Embedding:
        return stub_encode_text(linearize(graph), self.d, self.seed, modality="scene_graph")

    def encode_frame(self, video_id: str, time_s: float) -> Embedding:
        return stub_encode_frame(video_id, time_s, self.d, self.seed)

    # One method per modality for a list of payloads: the (n, d) float32
    # rows of the single-payload method's vectors, bitwise equal to them.

    def encode_captions(self, texts: Sequence[str]) -> np.ndarray:
        return _text_rows(texts, self.d, self.seed)

    def encode_questions(self, texts: Sequence[str]) -> np.ndarray:
        return _text_rows(texts, self.d, self.seed)

    def encode_graphs(self, graphs: Sequence[SceneGraph]) -> np.ndarray:
        return _text_rows([linearize(g) for g in graphs], self.d, self.seed)

    def encode_frames(self, frames: Sequence[tuple[str, float]]) -> np.ndarray:
        """One row per (video_id, time_s) pair."""
        payloads = [_frame_payload(video_id, time_s) for video_id, time_s in frames]
        return _unit_rows(hash_many(payloads, self.seed).tolist(), self.d)
