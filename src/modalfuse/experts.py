"""Frozen "expert encoder" abstraction with a deterministic stub implementation.

Real expert models (speech, image, and graph encoders) are replaced here by a
stub that hashes the payload into a 64-bit key and expands the key into a
pseudo-random unit vector. The hash is splitmix64 over the UTF-8 payload
bytes; the expansion is numpy's counter-based Philox generator keyed by the
hash, drawing d standard normals in float32. Same payload + seed gives
bitwise-identical vectors on every platform numpy supports.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not np.all(np.isfinite(v)):
            raise ConfigError("embedding has non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||2, computed in float64 then cast back to the input dtype."""
    v = np.asarray(v)
    norm = float(np.linalg.norm(v.astype(np.float64)))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return (v.astype(np.float64) / norm).astype(v.dtype)


def _vector_from_key(key: int, d: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key))
    v = rng.standard_normal(d, dtype=np.float32)
    return l2_normalize(v)


def stub_encode_text(text: str, d: int = DEFAULT_DIM, seed: int = 0,
                     modality: str = "caption") -> Embedding:
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    key = hash_bytes(text.encode("utf-8"), seed=seed)
    return Embedding(_vector_from_key(key, d), modality)


def stub_encode_frame(video_id: str, time_s: float, d: int = DEFAULT_DIM,
                      seed: int = 0) -> Embedding:
    """Frame stub keyed on (video_id, time quantized to 10 ms buckets)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    bucket = round(time_s * 100)
    payload = f"{video_id}\x1f{bucket}".encode("utf-8")
    key = hash_bytes(payload, seed=seed)
    return Embedding(_vector_from_key(key, d), "frame")


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
