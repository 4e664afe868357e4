import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse import tokenizer
from modalfuse.backbone import Model, ModelConfig
from modalfuse.evaluation import (DECODE_CHUNK, AblationRow, collapse_report,
                                  default_ablation_grid, evaluate, is_yes_no,
                                  normalize_answer, run_ablation, vqa_accuracy,
                                  write_ablation_table)
from modalfuse.experts import StubEncoders
from modalfuse.objectives import TrainConfig, build_vqa_example, train
from modalfuse.store import Store
from modalfuse.synthetic import (make_leakage_corpus, make_mini_vqa,
                                 write_vqa_image_store)

D = 32
SMALL = ModelConfig(d_model=D, n_heads=4, n_encoder_layers=1,
                    n_decoder_layers=1, d_ff=64, max_target_len=32)


class TestNormalizeAnswer:
    @pytest.mark.parametrize("raw,expected", [
        ("Yes", "yes"),
        ("  yes  ", "yes"),
        ("yes.", "yes"),
        ("a dog", "dog"),
        ("The  red   car", "red car"),
        ("an apple!", "apple"),
        ("", ""),
        ("THE", ""),
        ("a", ""),
        ("dog's", "dogs"),
    ])
    def test_cases(self, raw, expected):
        assert normalize_answer(raw) == expected

    def test_only_leading_article_dropped(self):
        assert normalize_answer("the man and the dog") == "man and the dog"

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        once = normalize_answer(text)
        assert normalize_answer(once) == once


class TestVqaAccuracy:
    def test_zero_matches(self):
        assert vqa_accuracy("blue", ["red"] * 10) == 0.0

    def test_one_match_is_one_third(self):
        answers = ["red"] * 9 + ["blue"]
        assert vqa_accuracy("blue", answers) == pytest.approx(1 / 3)

    def test_two_matches_is_two_thirds(self):
        answers = ["red"] * 8 + ["blue"] * 2
        assert vqa_accuracy("blue", answers) == pytest.approx(2 / 3)

    def test_three_matches_saturates(self):
        answers = ["red"] * 7 + ["blue"] * 3
        assert vqa_accuracy("blue", answers) == 1.0

    def test_ten_matches_still_one(self):
        assert vqa_accuracy("blue", ["blue"] * 10) == 1.0

    def test_normalization_applied_both_sides(self):
        answers = ["A DOG."] * 3 + ["cat"] * 7
        assert vqa_accuracy("the dog", answers) == 1.0

    def test_wrong_answer_count(self):
        with pytest.raises(ValueError):
            vqa_accuracy("x", ["y"] * 9)

    @given(st.integers(0, 10))
    @settings(max_examples=11, deadline=None)
    def test_formula(self, k):
        answers = ["hit"] * k + ["miss"] * (10 - k)
        assert vqa_accuracy("hit", answers) == pytest.approx(min(k / 3, 1.0))


class TestCollapseReport:
    def test_uniform_two_answers(self):
        rep = collapse_report(["yes", "no"] * 5)
        assert rep.top_share == 0.5
        assert not rep.collapsed
        assert rep.entropy_nats == pytest.approx(math.log(2))

    def test_total_collapse(self):
        rep = collapse_report(["yes"] * 10)
        assert rep.top_share == 1.0
        assert rep.collapsed
        assert rep.entropy_nats == 0.0
        assert rep.histogram == {"yes": 10}

    def test_just_over_threshold(self):
        rep = collapse_report(["yes"] * 6 + ["no"] * 4)
        assert rep.top_share == pytest.approx(0.6)
        assert rep.collapsed

    def test_normalized_before_counting(self):
        rep = collapse_report(["Yes", "yes.", " yes ", "no"])
        assert rep.histogram == {"yes": 3, "no": 1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collapse_report([])

    def test_custom_threshold(self):
        preds = ["a"] * 4 + ["b"] * 3 + ["c"] * 3
        assert not collapse_report(preds).collapsed


@pytest.fixture(scope="module")
def vqa_setup(tmp_path_factory):
    encoders = StubEncoders(d=D, seed=0)
    records = make_mini_vqa(16, seed=0)
    path = tmp_path_factory.mktemp("vqa") / "img.store"
    write_vqa_image_store(records, encoders, path)
    store = Store(path)
    rng = np.random.default_rng(0)
    examples = [
        build_vqa_example(store, r["image_key"], r["graph"], r["question"],
                          r["answers"], rng, encoders, max_target_len=32)
        for r in records
    ]
    yield records, store, examples, encoders
    store.close()


@pytest.fixture(scope="module")
def mixed_setup(tmp_path_factory):
    """40 examples, 34 with a graph row (3 rows, so 3 decode chunks) and 6
    without (2 rows), interleaved, and a model trained briefly on the graph
    examples so decodes differ in length and text."""
    encoders = StubEncoders(d=D, seed=0)
    records = make_mini_vqa(40, seed=1)
    path = tmp_path_factory.mktemp("mixed") / "img.store"
    write_vqa_image_store(records, encoders, path)
    rng = np.random.default_rng(0)
    with Store(path) as store:
        examples = [
            build_vqa_example(store, r["image_key"], r["graph"], r["question"], r["answers"],
                              rng, encoders, include_graph=i % 7 != 3, max_target_len=32)
            for i, r in enumerate(records)
        ]
    assert sum(e.fused.rows.shape[0] == 3 for e in examples) == 34
    model = Model(SMALL, seed=0)
    train([e for e in examples if e.fused.rows.shape[0] == 3], model,
          TrainConfig(steps=60, batch_size=8, lr=3e-3, seed=0))
    return model, examples


class TestEvaluate:
    def test_fresh_model_scores_in_range(self, vqa_setup):
        _, _, examples, _ = vqa_setup
        model = Model(SMALL, seed=0)
        result = evaluate(model, examples, max_decode_len=8)
        assert 0.0 <= result.mean_accuracy <= 1.0
        assert len(result.per_example) == len(examples)
        assert result.n_errors == 0
        assert all(s in (0.0, 1 / 3, 2 / 3, 1.0) or 0 <= s <= 1
                   for s in result.per_example)

    def test_failed_example_is_recorded(self, vqa_setup):
        _, _, examples, _ = vqa_setup
        bad = examples[2]
        wrong_d = dataclasses.replace(bad, fused=dataclasses.replace(
            bad.fused, rows=np.zeros((bad.fused.rows.shape[0], D + 1))))
        result = evaluate(Model(SMALL, seed=0), [*examples[:2], wrong_d, *examples[3:]],
                          max_decode_len=8)
        assert result.n_errors == 1
        assert len(result.per_example) == len(examples) - 1
        (err,) = result.errors
        assert (err.index, err.type) == (2, "ConfigError")
        assert f"dimension {D + 1}" in err.message
        with pytest.raises(ValueError, match="no example decoded.*example 0: ConfigError"):
            evaluate(Model(SMALL, seed=0), [wrong_d], max_decode_len=8)

    def test_batched_decode_matches_greedy_decode(self, mixed_setup):
        model, examples = mixed_setup
        result = evaluate(model, examples)
        expected = [tokenizer.detokenize(model.greedy_decode(e.fused.rows, e.fused.modality_ids))
                    for e in examples]
        assert result.errors == ()
        assert result.predictions == tuple(expected)
        assert len(set(expected)) > 1
        assert result.per_example == tuple(
            vqa_accuracy(p, list(e.human_answers)) for p, e in zip(expected, examples))

    def test_failed_chunks_recorded_per_example(self, mixed_setup, monkeypatch):
        model, examples = mixed_setup
        graph_rows = [i for i, e in enumerate(examples) if e.fused.rows.shape[0] == 3]
        # calls: graph chunks of 16, 16 and 2 examples, then the 6 without a graph
        failing = sorted(graph_rows[DECODE_CHUNK:2 * DECODE_CHUNK]
                         + [i for i in range(len(examples)) if i not in graph_rows])
        real = model.greedy_decode_batch
        calls = []

        def chunks_2_and_4_fail(rows, ids, max_len=None):
            calls.append(len(rows))
            if len(calls) in (2, 4):
                raise RuntimeError(f"boom {len(calls)}")
            return real(rows, ids, max_len)

        monkeypatch.setattr(model, "greedy_decode_batch", chunks_2_and_4_fail)
        result = evaluate(model, examples, max_decode_len=8)
        assert calls == [16, 16, 2, 6]
        assert [(e.index, e.type) for e in result.errors] == [
            (i, "RuntimeError") for i in failing]
        assert [e.message for e in result.errors if e.index in graph_rows] == ["boom 2"] * 16
        kept = [i for i in range(len(examples)) if i not in failing]
        monkeypatch.undo()
        assert result.predictions == tuple(
            tokenizer.detokenize(model.greedy_decode(examples[i].fused.rows,
                                                     examples[i].fused.modality_ids, 8))
            for i in kept)

    def test_fresh_model_collapses(self, vqa_setup):
        # an untrained decoder emits the same argmax path for every input,
        # so the collapse diagnostic must fire
        _, _, examples, _ = vqa_setup
        model = Model(SMALL, seed=0)
        result = evaluate(model, examples, max_decode_len=8)
        assert result.collapse.collapsed
        assert result.collapse.top_share > 0.9

    def test_deterministic(self, vqa_setup):
        _, _, examples, _ = vqa_setup
        a = evaluate(Model(SMALL, seed=3), examples, max_decode_len=8)
        b = evaluate(Model(SMALL, seed=3), examples, max_decode_len=8)
        assert a.predictions == b.predictions
        assert a.mean_accuracy == b.mean_accuracy

    def test_is_yes_no(self, vqa_setup):
        records, _, examples, _ = vqa_setup
        for rec, ex in zip(records, examples):
            expected = all(a in ("yes", "no") for a in rec["answers"])
            assert is_yes_no(ex) == expected
        assert any(is_yes_no(e) for e in examples)
        assert any(not is_yes_no(e) for e in examples)


class TestAblationGrid:
    def test_eight_rows(self):
        grid = default_ablation_grid()
        assert len(grid) == 8
        assert len({c.label for c in grid}) == 8

    def test_axes_covered(self):
        grid = default_ablation_grid()
        combos = {(c.pretrain, c.include_graph, c.yes_no_only) for c in grid}
        assert len(combos) == 8

    def test_labels_reflect_flags(self):
        for c in default_ablation_grid():
            assert ("pretrain" in c.label) == c.pretrain
            assert ("no-graph" in c.label) == (not c.include_graph)
            assert ("yes-no-only" in c.label) == c.yes_no_only


class TestRunAblation:
    def test_grid_runs_and_is_deterministic(self, vqa_setup):
        records, store, _, encoders = vqa_setup
        corpus = make_leakage_corpus(n_segments=8, variants_per_group=2, seed=0)
        runs = [
            run_ablation(default_ablation_grid(), SMALL, corpus, records, store, encoders,
                         pretrain_steps=2, finetune_steps=2, seed=0, batch_size=4, lr=1e-4)
            for _ in range(2)
        ]
        for rows in runs:
            assert len(rows) == 8
            for row in rows:
                assert row.status == "ok"
                assert 0.0 <= row.accuracy <= 1.0
                assert row.iterations in (2, 4)
        assert runs[0] == runs[1]

    def test_failure_becomes_row(self, vqa_setup):
        records, store, _, encoders = vqa_setup
        bad = [dict(r, image_key="missing") for r in records]
        rows = run_ablation(default_ablation_grid()[:1], SMALL, [], bad, store, encoders,
                            pretrain_steps=1, finetune_steps=1, seed=0, batch_size=4)
        assert rows[0].accuracy is None
        assert rows[0].status.startswith("failed:")

    def test_yes_no_only_without_yes_no_questions(self, vqa_setup):
        records, store, _, encoders = vqa_setup
        counting = [r for r in records if r["question"].startswith("how many")]
        grid = [c for c in default_ablation_grid() if not c.pretrain]
        rows = run_ablation(grid, SMALL, [], counting, store, encoders,
                            pretrain_steps=1, finetune_steps=1, seed=0, batch_size=4)
        assert [r.status for r in rows if "yes-no-only" in r.label] == [
            f"failed: yes-no-only: the question set ({len(counting)} questions) "
            "has no yes/no questions"] * 2
        assert all(r.status == "ok" for r in rows if "all-questions" in r.label)


class TestWriteTable:
    def test_tsv_layout(self):
        rows = [
            AblationRow("scratch+graph+all-questions", 0.25, 50),
            AblationRow("broken", None, 10, status="failed: boom"),
        ]
        buf = io.StringIO()
        write_ablation_table(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "label\taccuracy\titerations\tstatus"
        assert lines[1] == "scratch+graph+all-questions\t0.2500\t50\tok"
        assert lines[2] == "broken\t\t10\tfailed: boom"
