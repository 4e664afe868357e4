"""Top-level acceptance gate, one test per release criterion.

Each test is self-contained and pinned to the stated tolerance; together they
exercise the exact-gradient backbone, the training loop, the leak-vs-no-leak
loss ordering, the answer-accuracy metric, the binary store's integrity
guarantees, segmentation arithmetic, the ablation harness, and the collapse
diagnostic. The suite is CPU-only, deterministic, and network-free.
"""

import json
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from modalfuse import tokenizer
from modalfuse.backbone import (AdamW, Model, ModelConfig, cross_entropy_loss,
                                gradient_check)
from modalfuse.cli import main
from modalfuse.evaluation import (evaluate, is_yes_no, normalize_answer,
                                  vqa_accuracy)
from modalfuse.experts import StubEncoders
from modalfuse.objectives import (TrainConfig, build_vqa_example, collate, corpus_loss,
                                  pretrain_examples, train)
from modalfuse.segmentation import (TimedTranscript, TimedWord, filter_segments,
                                    sample_frame_times, segment_transcript,
                                    word_density)
from modalfuse.store import EmbeddingRecord, Store, write_store
from modalfuse.synthetic import (make_leakage_corpus, make_mini_vqa,
                                 write_vqa_image_store)

TINY = ModelConfig(d_model=16, n_heads=2, n_encoder_layers=1,
                   n_decoder_layers=1, d_ff=32, max_target_len=16)


# ---------------------------------------------------------------------------
# 1. Gradient oracle
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    """Analytic gradients match 64-bit central differences (h=1e-4) to a max
    relative error < 1e-4 over >= 200 coordinates sampled across every layer
    type, in under 60 seconds."""
    t0 = time.monotonic()
    model = Model(TINY, seed=0)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(2, 3, TINY.d_model))
    ids = np.array([[0, 1, 2], [0, 1, 2]])
    targets = np.stack([tokenizer.tokenize("ab", 8), tokenizer.tokenize("cd", 8)])
    max_rel = gradient_check(model, rows, ids, targets, n_samples=200, h=1e-4)
    elapsed = time.monotonic() - t0
    assert max_rel < 1e-4, f"max relative gradient error {max_rel:.3e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. Overfit sanity
# ---------------------------------------------------------------------------

def test_criterion_2_overfit_and_exact_decode():
    """A 4-example batch reaches cross-entropy < 0.05 within 2000 steps at
    lr 1e-3, and greedy decoding then reproduces all 4 targets exactly.
    Under 5 minutes CPU."""
    t0 = time.monotonic()
    cfg = ModelConfig(d_model=32, n_heads=4, n_encoder_layers=1,
                      n_decoder_layers=1, d_ff=64, max_target_len=16)
    enc = StubEncoders(d=32, seed=0)
    texts = ["yes", "no", "two", "red"]
    rows = np.stack([
        np.stack([enc.encode_frame(f"img{i}", 0.0).values,
                  enc.encode_question(f"question {i}").values])
        for i in range(4)
    ]).astype(np.float64)
    ids = np.tile(np.array([0, 3]), (4, 1))
    targets = np.stack([tokenizer.tokenize(t, 16) for t in texts])

    model = Model(cfg, seed=0)
    opt = AdamW(model, lr=1e-3)
    loss = np.inf
    steps = 0
    for steps in range(1, 2001):
        model.zero_grad()
        loss = model.loss_and_grads(rows, ids, targets)
        if loss < 0.05:
            break
        opt.step()
    assert loss < 0.05, f"loss {loss:.4f} after {steps} steps"

    for i, text in enumerate(texts):
        decoded = tokenizer.detokenize(model.greedy_decode(rows[i], ids[i]))
        assert decoded == text, f"decoded {decoded!r}, expected {text!r}"
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 3. Leakage ordering
# ---------------------------------------------------------------------------

def _leakage_final_loss(seed: int, name: str) -> float:
    """corpus_loss after one 500-step d=64 training of objective ``name``."""
    d = 64
    cfg = ModelConfig(d_model=d, n_heads=4, n_encoder_layers=1,
                      n_decoder_layers=1, d_ff=128, max_target_len=64)
    enc = StubEncoders(d=d, seed=0)
    corpus = make_leakage_corpus(n_segments=256, seed=0)
    examples = pretrain_examples(name, corpus, enc, max_target_len=64)
    model = Model(cfg, seed=seed)
    train(examples, model, TrainConfig(steps=500, batch_size=16, lr=3e-3, seed=seed))
    return corpus_loss(model, examples)


def test_criterion_3_leakage_ordering(monkeypatch):
    """On a 256-segment synthetic corpus, for 3 seeds at 500 steps each, the
    final training loss of the leaky full-caption objective is strictly below
    the split-half loss. Direction only: the input of full_caption fully
    determines its target, while split-half groups share first halves across
    several continuations and so carry an irreducible entropy floor.

    The six trainings are independent and Python-bound, so they run in two
    spawned processes, each with one BLAS thread so that the two do not
    oversubscribe the CPUs."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")   # read by the children's numpy
    runs = [(seed, name) for seed in (0, 1, 2) for name in ("full_caption", "split_half")]
    with ProcessPoolExecutor(max_workers=2, mp_context=mp.get_context("spawn")) as pool:
        losses = list(pool.map(_leakage_final_loss, *zip(*runs)))
    results = {}
    for (seed, name), loss in zip(runs, losses):
        results.setdefault(seed, {})[name] = loss

    for seed, finals in results.items():
        assert finals["full_caption"] < finals["split_half"], (
            f"seed {seed}: full_caption {finals['full_caption']:.4f} "
            f">= split_half {finals['split_half']:.4f} (all: {results})")


# ---------------------------------------------------------------------------
# 4. Metric exactness
# ---------------------------------------------------------------------------

def test_criterion_4_metric_exactness():
    """vqa_accuracy returns exactly 0, 1/3, 2/3, 1.0 for 0-3 agreeing humans;
    normalization and the yes/no filter behave per their unit contracts."""
    for k, expected in ((0, 0.0), (1, 1 / 3), (2, 2 / 3), (3, 1.0), (10, 1.0)):
        answers = ["hit"] * k + ["miss"] * (10 - k)
        got = vqa_accuracy("hit", answers)
        assert got == expected, (k, got)
    assert vqa_accuracy("The Dog.", ["dog"] * 3 + ["cat"] * 7) == 1.0
    assert normalize_answer("The Dog.") == "dog"
    assert normalize_answer("  A  red CAR! ") == "red car"

    class _Ex:
        def __init__(self, answers):
            self.human_answers = tuple(answers)
    assert is_yes_no(_Ex(["Yes", "no", "YES."] + ["no"] * 7))
    assert not is_yes_no(_Ex(["yes"] * 9 + ["two"]))


# ---------------------------------------------------------------------------
# 5. Store integrity
# ---------------------------------------------------------------------------

def test_criterion_5_store_integrity(tmp_path):
    """10,000-record bitwise roundtrip; 100 simulated pre-rename truncation
    crashes never corrupt a committed store; the instrumented reader's
    bytes-read for get(i) is independent of i. Under 2 minutes."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    payloads = rng.normal(size=(10_000, 8)).astype(np.float32)
    recs = [EmbeddingRecord(f"k{i:05d}", (("frame", payloads[i]),))
            for i in range(10_000)]
    path = tmp_path / "big.store"
    write_store(recs, path)
    with Store(path) as s:
        assert len(s) == 10_000
        for i in (0, 1, 4_999, 9_998, 9_999, *rng.integers(0, 10_000, size=200)):
            got = s.get(int(i))
            assert got.key == f"k{int(i):05d}"
            assert got.arrays[0][1].tobytes() == payloads[int(i)].tobytes()
        s.bytes_read = 0
        s.get(0)
        first = s.bytes_read
        s.bytes_read = 0
        s.get(9_999)
        assert s.bytes_read == first

    committed = path.read_bytes()
    staged = tmp_path / "staged.store"
    write_store([EmbeddingRecord(f"n{i}", (("frame", payloads[i]),))
                 for i in range(50)], staged)
    blob = staged.read_bytes()
    for cut in rng.integers(0, len(blob), size=100):
        (tmp_path / ".big.store.crash.tmp").write_bytes(blob[: int(cut)])
        assert path.read_bytes() == committed
        with Store(path) as s:
            assert s.get(0).key == "k00000"

    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 6. Segmentation suite
# ---------------------------------------------------------------------------

def test_criterion_6_segmentation_properties():
    """Window/stride arithmetic, the inclusive 30-wpm boundary, frame-time
    containment, and determinism (the full property suite lives in
    test_segmentation.py; this pins the headline contracts)."""
    words = tuple(TimedWord(f"w{i}", i * 1.0, i * 1.0 + 0.5) for i in range(47))
    t = TimedTranscript("vid", words)

    segs = segment_transcript(t, window=15)
    assert [s.word_start for s in segs] == [0, 15, 30]   # remainder dropped
    assert all(s.word_end - s.word_start == 15 for s in segs)

    overlapped = segment_transcript(t, window=15, stride=5)
    assert [s.word_start for s in overlapped] == [0, 5, 10, 15, 20, 25, 30]

    assert segment_transcript(t, window=15) == segment_transcript(t, window=15)

    # 15 words spanning exactly 30 s -> exactly 30 wpm -> kept (inclusive)
    boundary = TimedTranscript("b", tuple(
        TimedWord(f"w{i}", i * (30.0 / 14), i * (30.0 / 14)) for i in range(15)))
    seg = segment_transcript(boundary, window=15)[0]
    assert word_density(seg) == pytest.approx(30.0)
    assert filter_segments([seg], min_wpm=30.0) == [seg]
    assert filter_segments([seg], min_wpm=30.0 + 1e-9) == []

    for k in (1, 2, 5):
        times = sample_frame_times(segs[0], k)
        assert len(times) == k
        assert all(segs[0].t_start <= x <= segs[0].t_end for x in times)
    assert sample_frame_times(segs[0], 1)[0] == pytest.approx(
        (segs[0].t_start + segs[0].t_end) / 2)


# ---------------------------------------------------------------------------
# 7. Ablation harness
# ---------------------------------------------------------------------------

def test_criterion_7_ablation_bit_identical(tmp_path):
    """`ablate` over {pretrain on/off} x {graph on/off} x {yes/no-only on/off}
    emits a complete 8-row table, and a rerun with identical seeds is
    bit-identical."""
    args = ["ablate", "--n-segments", "16", "--n-vqa", "16",
            "--pretrain-steps", "2", "--finetune-steps", "2",
            "--batch-size", "4", "--d-model", "32", "--n-heads", "4",
            "--enc-layers", "1", "--dec-layers", "1", "--d-ff", "64",
            "--max-target-len", "32"]
    tables = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([*args, "--out-dir", str(out)]) == 0
        tables.append((out / "ablation.tsv").read_bytes())
    assert tables[0] == tables[1]

    lines = tables[0].decode().splitlines()
    assert lines[0].split("\t") == ["label", "accuracy", "iterations", "status"]
    rows = [l.split("\t") for l in lines[1:]]
    assert len(rows) == 8
    assert len({r[0] for r in rows}) == 8
    for label, acc, iters, status in rows:
        assert status == "ok", f"{label}: {status}"
        assert 0.0 <= float(acc) <= 1.0


# ---------------------------------------------------------------------------
# 8. Collapse diagnostic
# ---------------------------------------------------------------------------

def test_criterion_8_collapse_flag_on_fresh_model(tmp_path):
    """An untrained model evaluated on the mini question-answering set emits
    one dominant answer, and the collapse flag (top share > 0.5) fires."""
    enc = StubEncoders(d=32, seed=0)
    records = make_mini_vqa(32, seed=0)
    path = tmp_path / "img.store"
    write_vqa_image_store(records, enc, path)
    rng = np.random.default_rng(0)
    with Store(path) as store:
        examples = [
            build_vqa_example(store, r["image_key"], r["graph"], r["question"],
                              r["answers"], rng, enc, max_target_len=32)
            for r in records
        ]
    model = Model(ModelConfig(d_model=32, n_heads=4, n_encoder_layers=1,
                              n_decoder_layers=1, d_ff=64, max_target_len=32),
                  seed=0)
    result = evaluate(model, examples, max_decode_len=8)
    assert result.collapse.top_share > 0.5
    assert result.collapse.collapsed
