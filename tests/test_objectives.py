import io
import json

import numpy as np
import pytest

from modalfuse import tokenizer
from modalfuse.backbone import Model, ModelConfig, cross_entropy_loss
from modalfuse.errors import ConfigError, NotFoundError, ValidationError
from modalfuse.experts import StubEncoders
from modalfuse.objectives import (TrainConfig, build_full_caption_example,
                                  build_split_half_example, build_vqa_example,
                                  collate, corpus_loss, split_caption, train)
from modalfuse.scene_graph import SceneGraph
from modalfuse.segmentation import Segment, with_frame_times
from modalfuse.synthetic import make_leakage_corpus, make_mini_vqa, \
    write_vqa_image_store
from modalfuse.store import Store

D = 32
SMALL = ModelConfig(d_model=D, n_heads=4, n_encoder_layers=1,
                    n_decoder_layers=1, d_ff=64, max_target_len=32)


@pytest.fixture
def encoders():
    return StubEncoders(d=D, seed=0)


def make_segment(caption, video_id="v1"):
    n = len(caption.split(" "))
    seg = Segment(video_id, 0, n, caption, 0.0, 20.0)
    return with_frame_times(seg, 1)


GRAPH = SceneGraph(("dog", "grass"), ((0, "on", 1),))


class TestSplitCaption:
    def test_fifteen_words(self):
        words = [f"w{i}" for i in range(15)]
        first, second = split_caption(words)
        assert first == words[:8]
        assert second == words[8:]

    def test_two_words(self):
        assert split_caption(["a", "b"]) == (["a"], ["b"])

    def test_one_word_rejected(self):
        with pytest.raises(ValueError):
            split_caption(["solo"])

    def test_reconstruction(self):
        words = "the quick brown fox jumps over the lazy dog".split()
        first, second = split_caption(words)
        assert first + second == words


class TestFullCaptionExample:
    def test_canonical_shape(self, encoders):
        seg = make_segment(" ".join(f"w{i}" for i in range(15)))
        ex = build_full_caption_example(seg, encoders, graph=GRAPH, max_target_len=128)
        assert ex.fused.rows.shape == (3, D)
        n_bytes = len(seg.caption.encode())
        toks = ex.target
        assert toks[0] == tokenizer.BOS
        assert toks[n_bytes + 1] == tokenizer.EOS

    def test_graph_ablated(self, encoders):
        seg = make_segment("a b c")
        ex = build_full_caption_example(seg, encoders, graph=None)
        assert ex.fused.rows.shape == (2, D)

    def test_deterministic(self, encoders):
        seg = make_segment("a b c")
        a = build_full_caption_example(seg, encoders, graph=GRAPH)
        b = build_full_caption_example(seg, encoders, graph=GRAPH)
        assert np.array_equal(a.fused.rows, b.fused.rows)
        assert np.array_equal(a.target, b.target)

    def test_caption_row_matches_target_text(self, encoders):
        seg = make_segment("hello world")
        ex = build_full_caption_example(seg, encoders)
        expected = encoders.encode_caption("hello world").values
        assert np.array_equal(ex.fused.rows[1], expected)
        assert tokenizer.detokenize(ex.target) == "hello world"


class TestFrameRows:
    """Pretraining examples get one frame row per time the segment lists."""

    def test_every_frame_time_becomes_a_row(self, encoders):
        seg = with_frame_times(Segment("v1", 0, 3, "a b c", 0.0, 20.0), 3)
        for build in (build_full_caption_example, build_split_half_example):
            ex = build(seg, encoders, graph=GRAPH)
            assert ex.fused.rows.shape == (5, D)
            for row, t in zip(ex.fused.rows, seg.frame_times):
                assert np.array_equal(row, encoders.encode_frame("v1", t).values)

    def test_segment_without_frame_times_rejected(self, encoders):
        seg = Segment("v1", 4, 7, "a b c", 0.0, 20.0)
        for build in (build_full_caption_example, build_split_half_example):
            with pytest.raises(ValidationError, match="'v1:4' lists no frame times"):
                build(seg, encoders)


class TestSplitHalfExample:
    def test_fifteen_word_split(self, encoders):
        caption = " ".join(f"w{i}" for i in range(15))
        ex = build_split_half_example(make_segment(caption), encoders, graph=GRAPH,
                                      max_target_len=64)
        first_text = " ".join(f"w{i}" for i in range(8))
        second_text = " ".join(f"w{i}" for i in range(8, 15))
        assert np.array_equal(ex.fused.rows[1], encoders.encode_caption(first_text).values)
        assert tokenizer.detokenize(ex.target) == second_text

    def test_two_words(self, encoders):
        ex = build_split_half_example(make_segment("in out"), encoders)
        assert tokenizer.detokenize(ex.target) == "out"

    def test_single_word_rejected(self, encoders):
        with pytest.raises(ValueError):
            build_split_half_example(make_segment("solo"), encoders)

    def test_halves_disjoint_and_complete(self, encoders):
        caption = " ".join(f"w{i}" for i in range(11))
        ex = build_split_half_example(make_segment(caption), encoders)
        target_words = tokenizer.detokenize(ex.target).split(" ")
        all_words = caption.split(" ")
        assert all_words[-len(target_words):] == target_words


class TestVqaExample:
    @pytest.fixture
    def image_store(self, tmp_path, encoders):
        records = make_mini_vqa(4, seed=0)
        path = tmp_path / "img.store"
        write_vqa_image_store(records, encoders, path)
        with Store(path) as s:
            yield s

    def test_unanimous_answers(self, image_store, encoders):
        rng = np.random.default_rng(0)
        ex = build_vqa_example(image_store, "img0000", GRAPH, "is it a dog",
                               ["yes"] * 10, rng, encoders)
        assert tokenizer.detokenize(ex.target) == "yes"

    def test_seeded_choice_reproducible(self, image_store, encoders):
        answers = [str(i) for i in range(10)]
        picks = [
            tokenizer.detokenize(build_vqa_example(image_store, "img0001", None, "q", answers,
                                                   np.random.default_rng(42), encoders).target)
            for _ in range(2)
        ]
        assert picks[0] == picks[1]

    def test_target_length_fixed(self, image_store, encoders):
        ex = build_vqa_example(image_store, "img0000", None, "q", ["no"] * 10,
                               np.random.default_rng(0), encoders, max_target_len=128)
        assert len(ex.target) == 128

    def test_missing_image_key(self, image_store, encoders):
        with pytest.raises(NotFoundError):
            build_vqa_example(image_store, "img9999", None, "q", ["no"] * 10,
                              np.random.default_rng(0), encoders)

    def test_answer_count_enforced(self, image_store, encoders):
        with pytest.raises(ValueError):
            build_vqa_example(image_store, "img0000", None, "q", ["no"] * 9,
                              np.random.default_rng(0), encoders)

    def test_graph_ablation_drops_row(self, image_store, encoders):
        with_g = build_vqa_example(image_store, "img0000", GRAPH, "q", ["no"] * 10,
                                   np.random.default_rng(0), encoders, include_graph=True)
        without = build_vqa_example(image_store, "img0000", GRAPH, "q", ["no"] * 10,
                                    np.random.default_rng(0), encoders, include_graph=False)
        assert with_g.fused.rows.shape == (3, D)
        assert without.fused.rows.shape == (2, D)


class TestTrain:
    def make_examples(self, encoders, n=8):
        corpus = make_leakage_corpus(n_segments=n, variants_per_group=2, seed=0)
        return [build_full_caption_example(s, encoders, graph=g, max_target_len=32)
                for s, g in corpus]

    def test_zero_steps(self, encoders):
        examples = self.make_examples(encoders)
        model = Model(SMALL, seed=0)
        before = [p.value.copy() for p in model.params()]
        metrics = train(examples, model, TrainConfig(steps=0))
        assert metrics == []
        for p, b in zip(model.params(), before):
            assert np.array_equal(p.value, b)

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("batch_size", -3, "batch_size must be >= 1, got -3"),
        ("steps", -1, "steps must be >= 0, got -1"),
        ("checkpoint_every", -1, "checkpoint_every must be >= 0, got -1"),
        ("lr", float("nan"), "lr must be finite, got nan"),
        ("lr", float("inf"), "lr must be finite, got inf"),
    ])
    def test_config_ranges(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{field: value})

    def test_seeded_runs_identical(self, encoders):
        examples = self.make_examples(encoders)
        losses = []
        for _ in range(2):
            model = Model(SMALL, seed=1)
            metrics = train(examples, model,
                            TrainConfig(steps=5, batch_size=4, lr=1e-3, seed=3))
            losses.append([m["loss"] for m in metrics])
        assert losses[0] == losses[1]

    def test_initial_loss_near_uniform(self, encoders):
        examples = self.make_examples(encoders)
        model = Model(SMALL, seed=0)
        metrics = train(examples, model, TrainConfig(steps=1, batch_size=4))
        expected = np.log(tokenizer.VOCAB_SIZE)
        assert metrics[0]["loss"] == pytest.approx(expected, rel=0.10)

    def test_metrics_stream_and_fields(self, encoders):
        examples = self.make_examples(encoders)
        model = Model(SMALL, seed=0)
        buf = io.StringIO()
        metrics = train(examples, model,
                        TrainConfig(steps=3, batch_size=4, lr=1e-3), metrics_fp=buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(lines) == 3
        for i, rec in enumerate(lines):
            assert rec["step"] == i
            assert set(rec) >= {"step", "loss", "lr", "examples_seen", "tokens",
                                "grad_norm", "wall_ms"}
        assert lines[-1]["examples_seen"] == 12
        assert metrics[-1]["loss"] == lines[-1]["loss"]

    def test_metrics_tokens_and_grad_norm(self, encoders):
        """One step over the whole dataset: the batch is a permutation of it."""
        examples = self.make_examples(encoders)
        metrics = train(examples, Model(SMALL, seed=0),
                        TrainConfig(steps=1, batch_size=len(examples), seed=5))
        assert metrics[0]["tokens"] == sum(
            int((e.target[1:] != tokenizer.PAD).sum()) for e in examples)
        order = np.random.default_rng([5, 0]).permutation(len(examples))
        rows, ids, targets = collate([examples[i] for i in order])
        model = Model(SMALL, seed=0)
        model.loss_and_grads(rows, ids, targets)
        expected = np.sqrt(sum((p.grad ** 2).sum() for p in model.params()))
        assert metrics[0]["grad_norm"] == pytest.approx(expected, rel=1e-12)
        assert metrics[0]["grad_norm"] > 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], Model(SMALL, seed=0), TrainConfig(steps=1))

    def test_checkpointing(self, encoders, tmp_path):
        examples = self.make_examples(encoders)
        model = Model(SMALL, seed=0)
        ckpt = tmp_path / "ckpt.store"
        train(examples, model,
              TrainConfig(steps=2, batch_size=4, checkpoint_every=1,
                          checkpoint_path=str(ckpt)))
        assert ckpt.exists()

    def test_collate_rejects_mixed_row_counts(self, encoders):
        seg = make_segment("a b c d")
        with_graph = build_full_caption_example(seg, encoders, graph=GRAPH)
        without = build_full_caption_example(seg, encoders, graph=None)
        with pytest.raises(ValueError):
            collate([with_graph, without])


class TestTrimmedBatch:
    """collate cuts targets to the batch's longest target; nothing else moves."""

    @pytest.fixture
    def vqa_batch(self, tmp_path, encoders):
        path = tmp_path / "img.store"
        write_vqa_image_store(make_mini_vqa(4, seed=0), encoders, path)
        with Store(path) as store:
            return [build_vqa_example(store, f"img{i:04d}", GRAPH, "q", [answer] * 10,
                                      np.random.default_rng(0), encoders,
                                      max_target_len=SMALL.max_target_len)
                    for i, answer in enumerate(["yes", "no", "2", "no"])]

    @staticmethod
    def full_width(examples):
        return np.stack([e.target for e in examples])

    def test_width_is_longest_vqa_target(self, vqa_batch):
        _, _, targets = collate(vqa_batch)
        assert targets.shape == (4, 5)          # BOS y e s EOS
        assert np.array_equal(targets, self.full_width(vqa_batch)[:, :5])

    def test_width_is_longest_split_half_target(self, encoders):
        corpus = make_leakage_corpus(n_segments=6, variants_per_group=2, seed=0)
        examples = [build_split_half_example(s, encoders, graph=g, max_target_len=64)
                    for s, g in corpus]
        _, _, targets = collate(examples)
        longest = max(int((e.target != tokenizer.PAD).sum()) for e in examples)
        assert targets.shape == (len(examples), longest)
        assert longest < 64

    def test_loss_and_grads_match_full_width(self, vqa_batch):
        rows, ids, targets = collate(vqa_batch)
        trimmed = Model(SMALL, seed=0)
        loss = trimmed.loss_and_grads(rows, ids, targets)
        full = Model(SMALL, seed=0)
        full_loss = full.loss_and_grads(rows, ids, self.full_width(vqa_batch))
        assert loss == pytest.approx(full_loss, rel=1e-12)
        # relative to each gradient's norm: single entries that nearly cancel
        # carry rounding far above 1e-12 of their own size
        for p, q in zip(trimmed.params(), full.params()):
            assert np.linalg.norm(p.grad - q.grad) <= 1e-12 * np.linalg.norm(q.grad)

    def test_corpus_loss_matches_full_width(self, vqa_batch):
        model = Model(SMALL, seed=0)
        total = n_tokens = 0
        for lo in (0, 2):
            batch = vqa_batch[lo:lo + 2]
            rows, ids, _ = collate(batch)
            full = self.full_width(batch)
            tokens = int((full[:, 1:] != tokenizer.PAD).sum())
            total += cross_entropy_loss(model.forward(rows, ids, full[:, :-1]),
                                        full[:, 1:]) * tokens
            n_tokens += tokens
        assert corpus_loss(model, vqa_batch, batch_size=2) == pytest.approx(
            total / n_tokens, rel=1e-12)
