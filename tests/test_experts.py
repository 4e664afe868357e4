import itertools

import numpy as np
import pytest

from modalfuse.errors import ConfigError
from modalfuse.experts import (Embedding, StubEncoders, fuse, hash_bytes,
                               l2_normalize, stub_encode_frame, stub_encode_text)


class TestStubText:
    def test_deterministic(self):
        a = stub_encode_text("the same string", 768, seed=7)
        b = stub_encode_text("the same string", 768, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_vector(self):
        a = stub_encode_text("x", 64, seed=0)
        b = stub_encode_text("x", 64, seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_near_orthogonal_pair(self):
        a = stub_encode_text("", 768)
        b = stub_encode_text("a", 768)
        cos = float(a.values @ b.values)
        assert abs(cos) < 0.2

    def test_unit_norm(self):
        for text in ("", "a", "some longer caption text with many words"):
            v = stub_encode_text(text, 768).values
            assert abs(np.linalg.norm(v.astype(np.float64)) - 1.0) < 1e-6

    def test_mean_pairwise_cosine_small(self):
        # random unit vectors in R^768 concentrate near orthogonality
        vecs = np.stack([
            stub_encode_text(f"text {i}", 768).values for i in range(1000)
        ]).astype(np.float64)
        gram = np.abs(vecs @ vecs.T)
        n = len(vecs)
        mean_offdiag = (gram.sum() - n) / (n * (n - 1))
        assert mean_offdiag < 0.1

    def test_float32(self):
        assert stub_encode_text("x", 16).values.dtype == np.float32


class TestStubFrame:
    def test_deterministic(self):
        a = stub_encode_frame("vid", 1.23, 64)
        b = stub_encode_frame("vid", 1.23, 64)
        assert np.array_equal(a.values, b.values)

    def test_quantization_bucket(self):
        a = stub_encode_frame("vid", 1.234, 64)
        b = stub_encode_frame("vid", 1.2341, 64)
        assert np.array_equal(a.values, b.values)

    def test_distinct_times(self):
        a = stub_encode_frame("vid", 1.23, 64)
        b = stub_encode_frame("vid", 7.89, 64)
        assert not np.array_equal(a.values, b.values)

    def test_distinct_videos(self):
        a = stub_encode_frame("vid1", 1.0, 64)
        b = stub_encode_frame("vid2", 1.0, 64)
        assert not np.array_equal(a.values, b.values)


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_fixed_point(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.allclose(l2_normalize(v), v)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(4))


class TestFuse:
    def setup_method(self):
        self.enc = StubEncoders(d=768, seed=0)

    def test_canonical_shape(self):
        fused = fuse(
            [self.enc.encode_frame("v", 1.0)],
            self.enc.encode_caption("hello there"),
            stub_encode_text("dog near cat", 768, modality="scene_graph"),
        )
        assert fused.rows.shape == (3, 768)
        assert fused.modalities == ("frame", "caption", "scene_graph")

    def test_graph_ablated(self):
        fused = fuse([self.enc.encode_frame("v", 1.0)],
                     self.enc.encode_caption("hello"), None)
        assert fused.rows.shape == (2, 768)

    def test_many_frames(self):
        frames = [self.enc.encode_frame("v", t) for t in (0.5, 1.5, 2.5, 3.5)]
        fused = fuse(frames, self.enc.encode_caption("x"),
                     stub_encode_text("g", 768, modality="scene_graph"))
        assert fused.rows.shape == (6, 768)

    def test_rows_preserved_exactly(self):
        frame = self.enc.encode_frame("v", 1.0)
        caption = self.enc.encode_caption("abc")
        fused = fuse([frame], caption, None)
        assert np.array_equal(fused.rows[0], frame.values)
        assert np.array_equal(fused.rows[1], caption.values)

    def test_all_ablated(self):
        with pytest.raises(ValueError):
            fuse([], None, None)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            fuse([stub_encode_frame("v", 0.0, 64)],
                 stub_encode_text("x", 128), None)


class TestHash:
    def test_distinct_inputs(self):
        keys = [hash_bytes(bytes([i, j])) for i, j in itertools.product(range(40), range(40))]
        assert len(set(keys)) == len(keys)

    def test_length_sensitivity(self):
        assert hash_bytes(b"a") != hash_bytes(b"a\x00")
