import io
import json
import math

import numpy as np
import pytest

from modalfuse import objectives, tokenizer
from modalfuse.backbone import (AdamW, Model, ModelConfig, _float64_copy, cross_entropy_loss,
                                load_checkpoint, save_checkpoint)
from modalfuse.errors import ConfigError, NotFoundError, ValidationError, json_records
from modalfuse.experts import StubEncoders
from modalfuse.objectives import (OBJECTIVES, TrainConfig, build_split_half_example,
                                  build_vqa_example, collate, corpus_loss, pretrain_examples,
                                  split_caption, train, vqa_examples)
from modalfuse.scene_graph import SceneGraph
from modalfuse.segmentation import Segment, with_frame_times
from modalfuse.synthetic import make_leakage_corpus, make_mini_vqa, \
    write_vqa_image_store
from modalfuse.store import EmbeddingRecord, Store, write_store

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


def full_caption_example(segment, encoders, graph=None,
                         max_target_len=ModelConfig.max_target_len):
    return pretrain_examples("full_caption", [(segment, graph)], encoders, max_target_len)[0]


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
        ex = full_caption_example(seg, encoders, graph=GRAPH, max_target_len=128)
        assert ex.fused.rows.shape == (3, D)
        n_bytes = len(seg.caption.encode())
        toks = ex.target
        assert toks[0] == tokenizer.BOS
        assert toks[n_bytes + 1] == tokenizer.EOS

    def test_graph_ablated(self, encoders):
        seg = make_segment("a b c")
        ex = full_caption_example(seg, encoders, graph=None)
        assert ex.fused.rows.shape == (2, D)

    def test_deterministic(self, encoders):
        seg = make_segment("a b c")
        a = full_caption_example(seg, encoders, graph=GRAPH)
        b = full_caption_example(seg, encoders, graph=GRAPH)
        assert np.array_equal(a.fused.rows, b.fused.rows)
        assert np.array_equal(a.target, b.target)

    def test_caption_row_matches_target_text(self, encoders):
        seg = make_segment("hello world")
        ex = full_caption_example(seg, encoders)
        expected = encoders.encode_caption("hello world").values
        assert np.array_equal(ex.fused.rows[1], expected)
        assert tokenizer.detokenize(ex.target) == "hello world"


class TestFrameRows:
    """Pretraining examples get one frame row per time the segment lists."""

    def test_every_frame_time_becomes_a_row(self, encoders):
        seg = with_frame_times(Segment("v1", 0, 3, "a b c", 0.0, 20.0), 3)
        for objective in OBJECTIVES:
            ex = pretrain_examples(objective, [(seg, GRAPH)], encoders)[0]
            assert ex.fused.rows.shape == (5, D)
            for row, t in zip(ex.fused.rows, seg.frame_times):
                assert np.array_equal(row, encoders.encode_frame("v1", t).values)

    def test_segment_without_frame_times_rejected(self, encoders):
        seg = Segment("v1", 4, 7, "a b c", 0.0, 20.0)
        for objective in OBJECTIVES:
            with pytest.raises(ValidationError, match="'v1:4' lists no frame times"):
                pretrain_examples(objective, [(seg, None)], encoders)


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


class TestPretrainExamples:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_list_equals_one_row_builds(self, encoders, objective):
        """Frame counts of 1 to 3 and graphs on every other segment."""
        corpus = [(with_frame_times(Segment(f"v{i}", 0, 3, f"a b{i} c", 0.0, 20.0), 1 + i % 3),
                   GRAPH if i % 2 else None) for i in range(7)]
        got = pretrain_examples(objective, corpus, encoders, 32)
        expect = [pretrain_examples(objective, [pair], encoders, 32)[0] for pair in corpus]
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g.fused.modalities == e.fused.modalities
            assert g.fused.rows.tobytes() == e.fused.rows.tobytes()
            assert g.caption == e.caption and np.array_equal(g.target, e.target)

    def test_split_half_is_the_one_row_builder(self, encoders):
        seg = make_segment("a b c d")
        got = build_split_half_example(seg, encoders, graph=GRAPH, max_target_len=32)
        expect = pretrain_examples("split_half", [(seg, GRAPH)], encoders, 32)[0]
        assert got.fused.rows.tobytes() == expect.fused.rows.tobytes()
        assert np.array_equal(got.target, expect.target)

    def test_unknown_objective_rejected(self, encoders):
        with pytest.raises(ConfigError, match="objective must be one of"):
            pretrain_examples("whole_caption", [(make_segment("a b"), None)], encoders)

    def test_empty_corpus(self, encoders):
        assert pretrain_examples("split_half", [], encoders) == []


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

    @pytest.mark.parametrize("arrays", [(), (("caption", np.ones(D)), ("frame", np.ones(D)))],
                             ids=["empty", "caption-first"])
    def test_image_record_must_start_with_a_frame(self, tmp_path, encoders, arrays):
        path = tmp_path / "bad.store"
        write_store([EmbeddingRecord("img0000", arrays)], path)
        record = {"image_key": "img0000", "question": "q", "answers": ["no"] * 10}
        with Store(path) as s, pytest.raises(
                ValidationError, match="image record 'img0000' does not start with a frame"):
            vqa_examples([record], s, encoders, np.random.default_rng(0))

    def test_embeddings_store_record_gives_its_frame_row(self, tmp_path, encoders):
        path = tmp_path / "emb.store"
        frame = np.full(D, 0.5, dtype=np.float32)
        write_store([EmbeddingRecord("vid0:0", (("frame", frame), ("caption", np.ones(D)),
                                                ("raw", np.ones(3))))], path)
        with Store(path) as s:
            ex = build_vqa_example(s, "vid0:0", None, "q", ["no"] * 10,
                                   np.random.default_rng(0), encoders)
        assert np.array_equal(ex.fused.rows[0], frame)

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
        return [full_caption_example(s, encoders, graph=g, max_target_len=32)
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
        ("weight_decay", float("nan"), "weight_decay must be finite, got nan"),
        ("weight_decay", float("-inf"), "weight_decay must be finite, got -inf"),
        ("lr", -0.01, "lr must be >= 0, got -0.01"),
        ("weight_decay", -5.0, "weight_decay must be >= 0, got -5.0"),
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
        # in float64: pytest.approx of a float32 expected value compares in float32
        metrics = train(examples, _float64_copy(Model(SMALL, seed=0)),
                        TrainConfig(steps=1, batch_size=len(examples), seed=5))
        assert metrics[0]["tokens"] == sum(
            int((e.target[1:] != tokenizer.PAD).sum()) for e in examples)
        order = np.random.default_rng([5, 0]).permutation(len(examples))
        rows, ids, targets = collate([examples[i] for i in order])
        model = _float64_copy(Model(SMALL, seed=0))
        model.loss_and_grads(rows, ids, targets)
        expected = np.sqrt(sum((p.grad ** 2).sum() for p in model.params()))
        assert metrics[0]["grad_norm"] == pytest.approx(expected, rel=1e-12)
        assert metrics[0]["grad_norm"] > 0

    def test_gradient_left_in_the_model_is_cleared_first(self, encoders):
        examples = self.make_examples(encoders)
        cfg = TrainConfig(steps=3, batch_size=4, lr=1e-3, seed=3)
        clean, dirty = Model(SMALL, seed=1), Model(SMALL, seed=1)
        dirty.grad[...] = np.random.default_rng(0).normal(size=dirty.grad.size)
        dirty.grad[::7] = np.nan
        runs = [train(examples, m, cfg) for m in (clean, dirty)]
        assert [(r["loss"], r["grad_norm"]) for r in runs[0]] \
            == [(r["loss"], r["grad_norm"]) for r in runs[1]]
        assert clean.value.tobytes() == dirty.value.tobytes()
        assert not clean.grad.any() and not dirty.grad.any()

    def test_non_finite_grad_norm_written_as_null(self, encoders, monkeypatch):
        class Overflowing(AdamW):   # as a finite gradient whose float32 norm overflows
            def step(self):
                super().step()
                return math.inf

        monkeypatch.setattr(objectives, "AdamW", Overflowing)
        buf = io.StringIO()
        metrics = train(self.make_examples(encoders), Model(SMALL, seed=0),
                        TrainConfig(steps=2, batch_size=4, lr=1e-3), metrics_fp=buf)
        lines = [rec for _, rec in json_records(buf.getvalue().splitlines(), "metrics")]
        assert lines == metrics and len(lines) == 2   # training goes on
        for rec in lines:
            assert rec["grad_norm"] is None and rec["error"] == "non-finite grad_norm: inf"
            assert math.isfinite(rec["loss"])

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

    def test_reloaded_checkpoint_trains_bit_identically(self, encoders, tmp_path):
        examples = self.make_examples(encoders)
        model = Model(SMALL, seed=2)
        save_checkpoint(model, tmp_path / "ckpt.store")
        reloaded = load_checkpoint(tmp_path / "ckpt.store")
        cfg = TrainConfig(steps=5, batch_size=4, lr=1e-3, seed=3)
        runs = [train(examples, m, cfg) for m in (model, reloaded)]
        assert [r["loss"] for r in runs[0]] == [r["loss"] for r in runs[1]]
        assert [r["grad_norm"] for r in runs[0]] == [r["grad_norm"] for r in runs[1]]

    def test_collate_rejects_mixed_row_counts(self, encoders):
        seg = make_segment("a b c d")
        with_graph = full_caption_example(seg, encoders, graph=GRAPH)
        without = full_caption_example(seg, encoders, graph=None)
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
        # in float64, where the two widths' rounding stays below 1e-12
        trimmed = _float64_copy(Model(SMALL, seed=0))
        loss = trimmed.loss_and_grads(rows, ids, targets)
        full = _float64_copy(Model(SMALL, seed=0))
        full_loss = full.loss_and_grads(rows, ids, self.full_width(vqa_batch))
        assert loss == pytest.approx(full_loss, rel=1e-12)
        # relative to each gradient's norm: single entries that nearly cancel
        # carry rounding far above 1e-12 of their own size
        for p, q in zip(trimmed.params(), full.params()):
            assert np.linalg.norm(p.grad - q.grad) <= 1e-12 * np.linalg.norm(q.grad)

    def test_corpus_loss_matches_full_width(self, vqa_batch):
        model = _float64_copy(Model(SMALL, seed=0))
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
