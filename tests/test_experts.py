import hashlib
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse.errors import ConfigError
from modalfuse.experts import (_FOLD_MIN, MODALITIES, StubEncoders, hash_bytes, hash_many,
                               l2_normalize)
from modalfuse.objectives import fused_input
from modalfuse.scene_graph import SceneGraph


def row_modalities(fused):
    """The modality name of each of ``fused``'s rows."""
    return tuple(MODALITIES[i] for i in fused.modality_ids)


def text_vector(text, d, seed=0):
    return StubEncoders(d, seed).encode_caption(text)


def frame_vector(video_id, time_s, d, seed=0):
    return StubEncoders(d, seed).encode_frame(video_id, time_s)


class TestStubText:
    def test_deterministic(self):
        a = text_vector("the same string", 768, seed=7)
        b = text_vector("the same string", 768, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_vector(self):
        a = text_vector("x", 64, seed=0)
        b = text_vector("x", 64, seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_near_orthogonal_pair(self):
        a = text_vector("", 768)
        b = text_vector("a", 768)
        cos = float(a.values @ b.values)
        assert abs(cos) < 0.2

    def test_unit_norm(self):
        for text in ("", "a", "some longer caption text with many words"):
            v = text_vector(text, 768).values
            assert abs(np.linalg.norm(v.astype(np.float64)) - 1.0) < 1e-6

    def test_mean_pairwise_cosine_small(self):
        # random unit vectors in R^768 concentrate near orthogonality
        vecs = np.stack([
            text_vector(f"text {i}", 768).values for i in range(1000)
        ]).astype(np.float64)
        gram = np.abs(vecs @ vecs.T)
        n = len(vecs)
        mean_offdiag = (gram.sum() - n) / (n * (n - 1))
        assert mean_offdiag < 0.1

    def test_float32(self):
        assert text_vector("x", 16).values.dtype == np.float32


class TestStubFrame:
    def test_deterministic(self):
        a = frame_vector("vid", 1.23, 64)
        b = frame_vector("vid", 1.23, 64)
        assert np.array_equal(a.values, b.values)

    def test_quantization_bucket(self):
        a = frame_vector("vid", 1.234, 64)
        b = frame_vector("vid", 1.2341, 64)
        assert np.array_equal(a.values, b.values)

    def test_distinct_times(self):
        a = frame_vector("vid", 1.23, 64)
        b = frame_vector("vid", 7.89, 64)
        assert not np.array_equal(a.values, b.values)

    def test_distinct_videos(self):
        a = frame_vector("vid1", 1.0, 64)
        b = frame_vector("vid2", 1.0, 64)
        assert not np.array_equal(a.values, b.values)

    def test_half_bucket_rounds_to_even(self):
        # 0.125 s and 0.375 s are exact halves of a 10 ms bucket
        for half, even in ((0.125, 0.12), (0.375, 0.38)):
            assert np.array_equal(frame_vector("vid", half, 64).values,
                                  frame_vector("vid", even, 64).values)


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
    """``objectives.fused_input``, the one assembler of every example's rows."""

    def setup_method(self):
        self.enc = StubEncoders(d=768, seed=0)

    def test_canonical_shape(self):
        fused = fused_input(
            [self.enc.encode_frame("v", 1.0).values],
            self.enc.encode_caption("hello there").values, "caption",
            self.enc.encode_captions(["dog near cat"])[0],
        )
        assert fused.rows.shape == (3, 768)
        assert row_modalities(fused) == ("frame", "caption", "scene_graph")

    def test_graph_ablated(self):
        fused = fused_input([self.enc.encode_frame("v", 1.0).values],
                            self.enc.encode_caption("hello").values, "caption", None)
        assert fused.rows.shape == (2, 768)

    def test_many_frames(self):
        frames = self.enc.encode_frames([("v", t) for t in (0.5, 1.5, 2.5, 3.5)])
        fused = fused_input(frames, self.enc.encode_question("x").values, "question",
                            self.enc.encode_captions(["g"])[0])
        assert fused.rows.shape == (6, 768)
        assert row_modalities(fused) == ("frame",) * 4 + ("question", "scene_graph")

    def test_rows_preserved_exactly(self):
        frame = self.enc.encode_frame("v", 1.0)
        caption = self.enc.encode_caption("abc")
        fused = fused_input([frame.values], caption.values, "caption", None)
        assert np.array_equal(fused.rows[0], frame.values)
        assert np.array_equal(fused.rows[1], caption.values)

    def test_all_ablated(self):
        # the text row is never ablated: with no frame and no graph it stands alone
        text = self.enc.encode_caption("abc").values
        fused = fused_input([], text, "caption", None)
        assert row_modalities(fused) == ("caption",)
        assert fused.rows.tobytes() == text.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match=r"mixed embedding dimensions: \[64, 128\]"):
            fused_input([frame_vector("v", 0.0, 64).values],
                        text_vector("x", 128).values, "caption", None)

    def test_non_finite_row_rejected(self):
        frame = np.full(768, np.nan, dtype=np.float32)
        with pytest.raises(ConfigError, match="non-finite"):
            fused_input([frame], self.enc.encode_caption("x").values, "caption", None)


class TestHash:
    def test_distinct_inputs(self):
        keys = [hash_bytes(bytes([i, j])) for i, j in itertools.product(range(40), range(40))]
        assert len(set(keys)) == len(keys)

    def test_length_sensitivity(self):
        assert hash_bytes(b"a") != hash_bytes(b"a\x00")


# Hashes and vectors as the scalar stubs gave them before the list path
# existed. Every store, checkpoint and seeded result depends on them, so a
# change to the hash or the expansion must show here. ``hash_many`` is checked
# on a short list, hashed per payload, and a long one, folded.
PINNED_HASHES = [
    (b"", 0, 12035550249420947055),
    (b"a", 0, 10443419574614846231),
    (b"abcdefgh", 0, 18089155871505213322),
    (b"abcdefghi", 0, 14566769619556341339),
    ("h\u00e9llo w\u00f6rld \u2713".encode("utf-8"), 0, 2800731209447450752),
    (b"", 7, 13309476754707697221),
    (b"abcdefghi", 7, 18040997079340505285),
]

PINNED_VECTORS = [   # (encode, sha256 of the float32 bytes)
    (lambda: text_vector("", 64),
     "e93257fd6906f913b872245b3bf0ff5870ba092252420ae27b7cef66523f810e"),
    (lambda: text_vector("a dog chases a cat", 64),
     "7b0deec008009e380afa460033cd824622aabccda35d9d6dc86dda403ddb6df4"),
    (lambda: text_vector("a dog chases a cat", 768),
     "30bfa2ab8c30004f77eca8284129f877a0be721f389c3f42b0a73ef6f06cea87"),
    (lambda: StubEncoders(768, seed=3).encode_question("is there a dog"),
     "3b68e251d217ab41d1d7b32cc3cd0ce7452ea6e24334a9eb034bd186ca65636d"),
    (lambda: frame_vector("vid000", 1.5, 64),
     "41cf68a79186bb680ea8cbdadae94977317512bc73775cfab3c5031d197eba33"),
    (lambda: frame_vector("vid000", 1.5, 768),
     "16855f31b95f36401cdab27e391765322d505db0a9b154cc6cc117b8f0a4c90b"),
    (lambda: frame_vector("img0003", 0.0, 64, seed=5),
     "574749b05ddbaa78cc16f294d3fd6e3bac7fe25849ac772d72a75b7b62da7458"),
]


class TestPinned:
    @pytest.mark.parametrize("payload, seed, expected", PINNED_HASHES)
    def test_hash_bytes(self, payload, seed, expected):
        assert hash_bytes(payload, seed) == expected

    def test_hash_many(self):
        for seed in (0, 7):
            payloads = [p for p, s, _ in PINNED_HASHES if s == seed]
            expected = [h for _, s, h in PINNED_HASHES if s == seed]
            assert len(payloads) < _FOLD_MIN
            assert hash_many(payloads, seed).tolist() == expected
            assert hash_many(payloads * _FOLD_MIN, seed).tolist() == expected * _FOLD_MIN

    @pytest.mark.parametrize("encode, digest", PINNED_VECTORS)
    def test_vector(self, encode, digest):
        assert hashlib.sha256(encode().values.tobytes()).hexdigest() == digest


TEXT = st.text(st.characters(codec="utf-8"), max_size=30)
GRAPHS = [SceneGraph(("dog", "cat"), ((0, "chasing", 1),)), SceneGraph((), ()),
          SceneGraph(("tree",), ())]


class TestListEncode:
    # list lengths on both sides of _FOLD_MIN, the fold's and per payload
    @given(st.integers(0, 3 * _FOLD_MIN).flatmap(
               lambda n: st.lists(st.binary(max_size=40), min_size=n, max_size=n)),
           st.integers(-(2 ** 63), 2 ** 64 - 1))
    def test_hash_many_equals_hash_bytes(self, payloads, seed):
        hashes = hash_many(payloads, seed)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [hash_bytes(p, seed) for p in payloads]

    @settings(max_examples=40, deadline=None)
    @given(texts=st.lists(TEXT, max_size=6),
           frames=st.lists(st.tuples(TEXT, st.floats(-1e6, 1e6)), max_size=6),
           graphs=st.lists(st.sampled_from(GRAPHS), max_size=4),
           d=st.integers(1, 80), seed=st.integers(0, 2 ** 32))
    def test_list_rows_equal_single_rows(self, texts, frames, graphs, d, seed):
        enc = StubEncoders(d=d, seed=seed)
        for rows, singles in (
                (enc.encode_captions(texts), [enc.encode_caption(t) for t in texts]),
                (enc.encode_questions(texts), [enc.encode_question(t) for t in texts]),
                (enc.encode_frames(frames), [enc.encode_frame(v, t) for v, t in frames]),
                (enc.encode_graphs(graphs), [enc.encode_graph(g) for g in graphs])):
            assert rows.dtype == np.float32 and rows.shape == (len(singles), d)
            assert all(row.tobytes() == e.values.tobytes() for row, e in zip(rows, singles))

    def test_row_after_an_encode_equals_a_fresh_generator_draw(self):
        d, seed = 65, 3
        spent = np.random.Philox(key=hash_bytes(b"a list", seed))
        np.random.Generator(spent).standard_normal(d, dtype=np.float32)
        assert spent.state["has_uint32"] == 1   # an odd d leaves a spare 32-bit word
        enc = StubEncoders(d=d, seed=seed)
        enc.encode_caption("a list")   # leaves the spare word in this thread's generator
        fresh = np.random.Generator(np.random.Philox(key=hash_bytes(b"after", seed)))
        expected = l2_normalize(fresh.standard_normal(d, dtype=np.float32))
        assert enc.encode_caption("after").values.tobytes() == expected.tobytes()

    def test_threads_encoding_at_once_get_their_serial_rows(self):
        enc = StubEncoders(d=33, seed=1)
        lists = [[f"thread {t} row {i}" for i in range(40)] for t in range(2)]
        serial = [enc.encode_captions(texts).tobytes() for texts in lists]
        start = threading.Barrier(2)

        def encode(texts):
            start.wait()
            return [enc.encode_captions(texts).tobytes() for _ in range(30)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # the threads take turns within every row
        try:
            with ThreadPoolExecutor(2) as pool:
                rows = list(pool.map(encode, lists))
        finally:
            sys.setswitchinterval(interval)
        assert [set(r) for r in rows] == [{serial[0]}, {serial[1]}]

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            StubEncoders(d=0).encode_captions(["x"])
