import json
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse import backbone, store, tokenizer
from modalfuse.backbone import (AdamW, Linear, Model, ModelConfig, Parameter, _float64_copy,
                                _gelu, _gelu_grad, cross_entropy_loss, cross_entropy_with_grad,
                                gradient_check, load_checkpoint, save_checkpoint)
from modalfuse.cli import main
from modalfuse.errors import ConfigError, CorruptionError, NotFoundError
from modalfuse.experts import StubEncoders
from modalfuse.objectives import TrainConfig, pretrain_examples, train
from modalfuse.store import EmbeddingRecord, Store, row_text, text_row, write_store
from modalfuse.synthetic import make_leakage_corpus

TINY = ModelConfig(d_model=16, n_heads=2, n_encoder_layers=1,
                   n_decoder_layers=1, d_ff=32, max_target_len=16)


def tiny_batch(seed=0, b=2, m=3, t=9):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(b, m, TINY.d_model))
    ids = np.tile(np.arange(m) % 3, (b, 1))
    texts = ["ab", "xyz", "hello", "q"][:b]
    targets = np.stack([tokenizer.tokenize(s, t) for s in texts])
    return rows, ids, targets


class TestTokenizer:
    def test_basic(self):
        toks = tokenizer.tokenize("ab", 8)
        assert toks.tolist() == [tokenizer.BOS, 97, 98, tokenizer.EOS] + [tokenizer.PAD] * 4

    def test_empty(self):
        toks = tokenizer.tokenize("", 6)
        assert toks.tolist() == [tokenizer.BOS, tokenizer.EOS] + [tokenizer.PAD] * 4

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, text):
        toks = tokenizer.tokenize(text, max_len=40)
        assert tokenizer.detokenize(toks) == text

    def test_truncation(self):
        toks = tokenizer.tokenize("abcdefgh", 6)
        assert len(toks) == 6
        assert toks[-1] == tokenizer.EOS

    def test_utf8_roundtrip(self):
        s = "café ♞"
        assert tokenizer.detokenize(tokenizer.tokenize(s, 40)) == s

    def test_list_and_integer_arrays_decode_alike(self):
        toks = tokenizer.tokenize("café ♞", 16).tolist()
        texts = {tokenizer.detokenize(t) for t in (toks, np.array(toks, np.int64),
                                                   np.array(toks, np.int32))}
        assert texts == {"café ♞"}


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=3)

    @pytest.mark.parametrize("field, value, match", [
        ("n_heads", "2", "n_heads must be an int"),
        ("d_model", 64.0, "d_model must be an int"),
        ("n_encoder_layers", True, "n_encoder_layers must be an int"),
        ("n_heads", 0, "n_heads must be >= 1"),
        ("d_model", 0, "d_model must be >= 1"),
        ("d_ff", 0, "d_ff must be >= 1"),
        ("max_target_len", 0, "max_target_len must be >= 2, got 0"),
        ("max_target_len", 1, "max_target_len must be >= 2, got 1"),   # no room for BOS and EOS
        ("n_decoder_layers", -1, "n_decoder_layers must be >= 0"),
    ])
    def test_field_types_and_ranges(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            ModelConfig(**{field: value})

    def test_zero_layers_allowed(self):
        cfg = ModelConfig(d_model=16, n_heads=2, n_encoder_layers=0, n_decoder_layers=0,
                          d_ff=32, max_target_len=16)
        rows, ids, targets = tiny_batch()
        assert math.isfinite(Model(cfg).loss_and_grads(rows, ids, targets))


def make_linear(d_in, d_out, seed=1):
    """A float32 Linear with its own random W and zeroed gradient."""
    rng = np.random.default_rng(seed)

    def make(name, shape, ones=False):
        return Parameter(name, shape, ones, rng.normal(size=shape).astype(np.float32),
                         np.zeros(shape, np.float32))

    return Linear(d_in, d_out, make, "lin")


@pytest.fixture
def worker(monkeypatch):
    """A fresh executor in place of the module's worker, so that a test sees
    whether its thread starts; shut down afterwards."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(store, "_worker", pool)
    yield pool
    pool.shutdown()


def always_beside(monkeypatch):
    """Send every product pair, AdamW step and model draw to the worker
    thread, whatever its size and however many CPUs the machine has. The
    split gate of ``Linear.forward`` stays: it is an exactness bound."""
    monkeypatch.setattr(backbone, "_PAIR_MACS", 0)
    monkeypatch.setattr(backbone, "_SPLIT_ELEMENTS", 0)
    two_cpus(monkeypatch)


def two_cpus(monkeypatch):
    monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: {0, 1})


class TestLinear:
    def test_batched_rows_match_flattened_rows_bitwise(self):
        # a shape at which numpy's stacked matmul, one BLAS call per batch
        # entry, gave dx other bits than one GEMM over all 40 rows (OpenBLAS)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 5, 96)).astype(np.float32)
        dy = rng.normal(size=(8, 5, 80)).astype(np.float32)
        batched, flat = make_linear(96, 80), make_linear(96, 80)
        y, dx = batched.forward(x), batched.backward(dy)
        y_flat, dx_flat = flat.forward(x.reshape(40, 96)), flat.backward(dy.reshape(40, 80))
        assert y.shape == (8, 5, 80) and dx.shape == (8, 5, 96)
        assert np.array_equal(y.reshape(40, 80), y_flat)
        assert np.array_equal(dx.reshape(40, 96), dx_flat)
        assert np.array_equal(batched.W.grad, flat.W.grad)

    def test_backward_accumulates_into_grad(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 16)).astype(np.float32)
        dy = rng.normal(size=(2, 3, 8)).astype(np.float32)
        lin = make_linear(16, 8)
        lin.forward(x)
        lin.backward(dy)
        once = lin.W.grad.copy()
        lin.backward(dy)
        assert np.array_equal(lin.W.grad, 2 * once)

    def test_backward_on_the_worker_matches_inline_bitwise(self, monkeypatch, worker):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7, 48)).astype(np.float32)
        dy = rng.normal(size=(4, 7, 40)).astype(np.float32)

        def backward():
            lin = make_linear(48, 40)
            lin.W.grad[...] = 0.5   # the product adds to what is there
            lin.forward(x)
            return lin.backward(dy), lin.W.grad

        threads = threading.active_count()
        dx, grad = backward()
        assert threading.active_count() == threads   # 13k multiply-adds stay inline
        always_beside(monkeypatch)
        dx2, grad2 = backward()
        assert threading.active_count() == threads + 1
        assert dx.tobytes() == dx2.tobytes() and grad.tobytes() == grad2.tobytes()

    # the d=768 pipeline's products: a training batch of 8 x 45 rows, the
    # eval's encoder and decode steps, through the attention, FFN and LM head
    @pytest.mark.parametrize("rows, d_in, d_out", [
        (360, 768, 768), (360, 768, 1024), (360, 1024, 768), (360, 768, 259),
        (192, 768, 768), (64, 768, 768), (64, 768, 1024), (64, 1024, 768)])
    def test_split_forward_matches_one_product_bitwise(self, monkeypatch, worker,
                                                       rows, d_in, d_out):
        x = np.random.default_rng(rows + d_in + d_out).normal(size=(rows, d_in))
        x = x.astype(np.float32).reshape(-1, 8, d_in)
        lin = make_linear(d_in, d_out)
        whole = x.reshape(rows, d_in) @ lin.W.value
        two_cpus(monkeypatch)   # at the real split gate: each half reaches it
        threads = threading.active_count()
        y = lin.forward(x)
        assert threading.active_count() == threads + 1
        assert y.shape == (rows // 8, 8, d_out) and y.dtype == np.float32
        assert y.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("answers", [[{0, 1}, {0}], [{0}, {0, 1}]])
    def test_split_decided_once_as_cpus_change(self, monkeypatch, worker, answers):
        # the affinity can change between two looks at it; the product looks once
        x = np.random.default_rng(4).normal(size=(64, 768)).astype(np.float32)
        lin = make_linear(768, 768)
        whole = x @ lin.W.value
        seen = iter(answers)
        monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: next(seen))
        assert lin.forward(x).tobytes() == whole.tobytes()
        assert next(seen) == answers[1]

    # decode-long's q|k|v rows, 1..32 at d=64, and the d=768 eval's, through the split
    @pytest.mark.parametrize("rows, d", [(1, 64), (2, 64), (17, 64), (32, 64), (100, 64),
                                         (64, 768), (192, 768)])
    @pytest.mark.parametrize("cpus", ["two", "one"])
    def test_stacked_qkv_product_matches_the_three_bitwise(self, monkeypatch, worker, rows, d,
                                                           cpus):
        rng = np.random.default_rng(rows + d)
        ws = [(0.02 * rng.normal(size=(d, d))).astype(np.float32) for _ in range(3)]
        x = rng.normal(size=(rows, d)).astype(np.float32)
        if cpus == "two":
            always_beside(monkeypatch)   # _SPLIT_MACS stays: it is an exactness bound
        else:
            monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: {0})
        stacked = backbone._product(x, np.stack(ws))
        assert stacked.shape == (3, rows, d)
        for got, w in zip(stacked, ws):
            assert got.tobytes() == (x @ w).tobytes()

    def test_no_d64_forward_hands_off(self, monkeypatch, worker):
        # a half of at most 128 columns reaches 2^24 multiply-adds at d=64 only
        # from 2048 rows; train-small's batch holds 16 x 63, decode-long's 32
        two_cpus(monkeypatch)
        small = ModelConfig(d_model=64, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                            d_ff=128, max_target_len=64)
        model, rng = Model(small, seed=0), np.random.default_rng(0)
        threads = threading.active_count()
        model.forward(rng.normal(size=(16, 4, 64)), np.zeros((16, 4), int),
                      rng.integers(0, 259, size=(16, 63)))
        model.greedy_decode_batch(rng.normal(size=(32, 4, 64)), np.zeros((32, 4), int))
        for d_in, d_out in ((64, 259), (64, 128), (128, 64)):
            make_linear(d_in, d_out).forward(np.ones((2047, d_in), np.float32))
        assert threading.active_count() == threads

    def test_2d_input_keeps_shape_and_dtype(self):
        x = np.random.default_rng(0).normal(size=(5, 16)).astype(np.float32)
        lin = make_linear(16, 8)
        y = lin.forward(x)
        dx = lin.backward(np.ones_like(y))
        assert y.shape == (5, 8) and y.dtype == np.float32
        assert dx.shape == (5, 16) and dx.dtype == np.float32


class TestEncoder:
    def test_attention_rows_sum_to_one(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch()
        m.encoder_forward(rows, ids)
        w = m.enc_blocks[0].attn._cache[3]   # _attend's weights
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        # no positional signal: permuting rows (with their type tags) permutes outputs
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch(b=1)
        perm = np.array([2, 0, 1])
        out = m.encoder_forward(rows, ids)
        out_p = m.encoder_forward(rows[:, perm], ids[:, perm])
        assert np.allclose(out[:, perm], out_p, atol=1e-10)

    def test_zero_input_finite(self):
        m = Model(TINY, seed=0)
        rows = np.zeros((1, 3, TINY.d_model))
        out = m.encoder_forward(rows, np.zeros((1, 3), dtype=int))
        assert np.all(np.isfinite(out))

    def test_dimension_mismatch(self):
        m = Model(TINY, seed=0)
        with pytest.raises(ConfigError):
            m.encoder_forward(np.zeros((1, 3, 8)), np.zeros((1, 3), dtype=int))


class TestDecoder:
    def test_causality_bitwise(self):
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch(b=1)
        enc = m.encoder_forward(rows, ids)
        toks = targets[:, :-1].copy()
        logits = m.decoder_forward(toks, enc)
        j = 4
        toks2 = toks.copy()
        toks2[0, j] = 65
        logits2 = m.decoder_forward(toks2, m.encoder_forward(rows, ids))
        assert np.array_equal(logits[0, :j], logits2[0, :j])
        assert not np.array_equal(logits[0, j:], logits2[0, j:])

    def test_cross_attention_rows_sum_to_one(self):
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch(b=1)
        m.decoder_forward(targets[:, :-1], m.encoder_forward(rows, ids))
        w = m.dec_blocks[0].cross_attn._cache[3]   # _attend's weights
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("causal", [False, True])
    def test_attention_weights_match_row_wise_max_bitwise(self, causal):
        # _attend takes the softmax shift from a transposed copy; max is
        # exact, so the weights are those of the row-wise max, bit for bit
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(3, 2, 6, 4)).astype(np.float32) for _ in range(3))
        q[0, 0, 1] = 0.0   # a row of zero scores: its max is a zero
        ctx, weights = backbone._attend(q, k, v, 0.5, causal)
        scores = (q @ k.transpose(0, 1, 3, 2)) * 0.5
        if causal:
            scores = scores + np.triu(np.full((6, 6), -np.inf, np.float32), k=1)
        expected = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        assert weights.tobytes() == expected.tobytes()
        assert ctx.tobytes() == (expected @ v).tobytes()

    def test_finite_logits(self):
        m = Model(TINY, seed=3)
        rows, ids, targets = tiny_batch(seed=3)
        logits = m.forward(rows, ids, targets[:, :-1])
        assert np.all(np.isfinite(logits))

    def test_length_overflow(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch(b=1)
        enc = m.encoder_forward(rows, ids)
        with pytest.raises(ValueError):
            m.decoder_forward(np.zeros((1, 17), dtype=int), enc)


class TestCrossEntropy:
    def test_uniform_logits(self):
        v = tokenizer.VOCAB_SIZE
        logits = np.zeros((1, 5, v))
        targets = np.array([[1, 2, 3, tokenizer.EOS, tokenizer.PAD]])
        assert cross_entropy_loss(logits, targets) == pytest.approx(math.log(v))

    def test_confident_correct_logits(self):
        v = tokenizer.VOCAB_SIZE
        targets = np.array([[5, 6, tokenizer.PAD]])
        logits = np.full((1, 3, v), -50.0)
        logits[0, 0, 5] = 50.0
        logits[0, 1, 6] = 50.0
        assert cross_entropy_loss(logits, targets) < 1e-6

    def test_pad_suffix_irrelevant(self):
        v = tokenizer.VOCAB_SIZE
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 8, v))
        t1 = np.array([[3, 4, 5] + [tokenizer.PAD] * 5])
        loss1 = cross_entropy_loss(logits[:, :5], np.array([[3, 4, 5, tokenizer.PAD, tokenizer.PAD]]))
        loss2 = cross_entropy_loss(logits, t1)
        assert loss1 == pytest.approx(loss2)

    def test_all_pad_rejected(self):
        logits = np.zeros((1, 2, tokenizer.VOCAB_SIZE))
        with pytest.raises(ValueError):
            cross_entropy_loss(logits, np.full((1, 2), tokenizer.PAD))

    def test_grad_sums_to_zero_per_position(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(2, 4, 10))
        targets = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
        _, dlogits = cross_entropy_with_grad(logits, targets, pad_id=9)
        assert np.allclose(dlogits.sum(axis=-1), 0.0, atol=1e-12)

    def test_grad_scaling_matches_float64_mask_bitwise(self):
        # the gradient is scaled by a float64 1/n, then PAD rows by 0.0: the
        # product with the float64 mask / n, bit for bit, signed zeros too
        rng = np.random.default_rng(3)
        logits = (4.0 * rng.normal(size=(3, 6, 11))).astype(np.float32)
        targets = np.array([[1, 2, 0, 0, 0, 0], [3, 4, 5, 6, 7, 0], [8, 9, 1, 2, 0, 0]])
        _, dlogits = cross_entropy_with_grad(logits, targets, pad_id=0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        expected.reshape(-1, 11)[np.arange(18), targets.reshape(-1)] -= 1.0
        mask = targets != 0
        expected *= mask[..., None] / mask.sum()
        assert np.signbit(dlogits[~mask]).any()
        assert dlogits.tobytes() == expected.tobytes()

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(2)
        logits = 3.0 * rng.normal(size=(2, 5, 7))
        targets = np.array([[1, 2, 6, 0, 0], [3, 3, 4, 5, 0]])   # 0 = PAD
        before = logits.copy()
        _, dlogits = cross_entropy_with_grad(logits, targets, pad_id=0)
        assert np.array_equal(logits, before)
        assert np.all(dlogits[targets == 0] == 0.0)
        h = 1e-5
        fd = np.zeros_like(logits)
        for i in np.ndindex(logits.shape):
            bumped = logits.copy()
            bumped[i] += h
            lp = cross_entropy_with_grad(bumped, targets, pad_id=0)[0]
            bumped[i] -= 2 * h
            lm = cross_entropy_with_grad(bumped, targets, pad_id=0)[0]
            fd[i] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(dlogits, fd, rtol=0, atol=1e-9)


class TestGelu:
    GRID = np.linspace(-8.0, 8.0, 4001)

    def test_matches_pow_reference(self):
        x = self.GRID
        ref_t = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3))
        y, t = _gelu(x)
        np.testing.assert_allclose(t, ref_t, rtol=1e-14, atol=0)
        # for x << 0, 1 + t cancels: one ulp of t moves the reference itself
        # by 0.5 * |x| * eps, so the output gets that absolute floor
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(y, 0.5 * x * (1.0 + ref_t), rtol=1e-14, atol=8 * eps)
        np.testing.assert_array_equal(y, 0.5 * x * (1.0 + t))

    def test_grad_matches_central_differences(self):
        x = self.GRID
        h = 1e-5
        fd = (_gelu(x + h)[0] - _gelu(x - h)[0]) / (2 * h)
        np.testing.assert_allclose(_gelu_grad(x, _gelu(x)[1]), fd, rtol=0, atol=1e-9)


class TestGradients:
    def test_gradient_check_tiny_config(self):
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch()
        err = gradient_check(m, rows, ids, targets, n_samples=200, seed=1)
        assert err < 1e-4

    def test_ablated_modality_not_in_graph(self):
        # type-embedding rows for absent modalities get exactly zero gradient
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch()  # uses modality ids {0, 1, 2}
        m.zero_grad()
        m.loss_and_grads(rows, ids, targets)
        assert np.all(m.type_emb.grad[3] == 0.0)
        assert np.any(m.type_emb.grad[0] != 0.0)

    def test_near_zero_loss_small_gradients(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch(b=1)
        target = np.array([[tokenizer.BOS, 97, tokenizer.EOS, tokenizer.PAD]])
        opt = AdamW(m, lr=1e-2)
        for _ in range(300):
            m.zero_grad()
            loss = m.loss_and_grads(rows, ids, target)
            opt.step()
        assert loss < 1e-3
        m.zero_grad()
        m.loss_and_grads(rows, ids, target)
        gnorm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in m.params()))
        assert gnorm < 0.1

    def test_loss_and_grads_match_public_cross_entropy_bitwise(self):
        # loss_and_grads runs the cross-entropy in place on its own logits;
        # the public function copies first. Both must give the same bits.
        rows, ids, targets = tiny_batch(seed=6, b=4)   # PAD-padded rows
        assert (targets == tokenizer.PAD).any()
        in_place = Model(TINY, seed=6)
        loss = in_place.loss_and_grads(rows, ids, targets)
        public = Model(TINY, seed=6)
        logits = public.forward(rows, ids, targets[:, :-1])
        expected_loss, dlogits = cross_entropy_with_grad(logits, targets[:, 1:])
        public.backward(dlogits)
        assert loss.hex() == expected_loss.hex()
        assert in_place.grad.tobytes() == public.grad.tobytes()

    @pytest.mark.parametrize("n_ids", [4, tokenizer.VOCAB_SIZE])
    def test_flat_embedding_scatter_matches_row_wise_add_at(self, n_ids):
        # the modality-id and token-id cases: ids repeat within and across rows
        rng = np.random.default_rng(n_ids)
        ids = rng.integers(0, n_ids, size=(16, 28))
        ids[:, ::7] = 1
        rows = rng.normal(size=(16, 28, 64)).astype(np.float32)
        grad = rng.normal(size=(n_ids, 64)).astype(np.float32)
        expected = grad.copy()
        np.add.at(expected, ids, rows)
        backbone._add_rows_at(grad, ids, rows)
        assert grad.tobytes() == expected.tobytes()

    def test_loss_bit_reproducible(self):
        losses = []
        for _ in range(2):
            m = Model(TINY, seed=4)
            rows, ids, targets = tiny_batch(seed=4)
            m.zero_grad()
            losses.append(m.loss_and_grads(rows, ids, targets))
        assert losses[0] == losses[1]


def adamw_step(param, grad, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """Functional AdamW oracle; returns (param, m, v) for step number t (1-based)."""
    b1, b2 = betas
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    param = param - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * param)
    return param, m, v


class TestAdamW:
    def test_first_step_magnitude(self):
        # t=1, g=1: m_hat = 1, v_hat = 1 -> step of lr/(1 + eps)
        p, m, v = adamw_step(np.array([1.0]), np.array([1.0]),
                             np.zeros(1), np.zeros(1), t=1, lr=0.1, eps=1e-12)
        assert p[0] == pytest.approx(1.0 - 0.1, abs=1e-9)

    def test_zero_grad_no_decay(self):
        p, _, _ = adamw_step(np.array([2.0]), np.array([0.0]),
                             np.zeros(1), np.zeros(1), t=1, lr=0.1)
        assert p[0] == 2.0

    def test_decoupled_decay(self):
        p, _, _ = adamw_step(np.array([2.0]), np.array([0.0]),
                             np.zeros(1), np.zeros(1), t=1, lr=0.1, weight_decay=0.01)
        assert p[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_nonfinite_grad_refused(self):
        # 2e19 and 1e21 are finite, but their squares overflow v / bc2 (and at 1e21 v),
        # which would stop the parameter for good
        for bad in (np.nan, np.inf, -np.inf, 2e19, -2e19, 1e21):
            m = Model(TINY, seed=0)
            opt = AdamW(m)
            p = m.params()[5]
            p.grad[0] = bad
            before, grad = m.value.copy(), m.grad.tobytes()
            with pytest.raises(FloatingPointError, match=f"non-finite gradient for {p.name}"):
                opt.step()
            assert np.array_equal(m.value, before)   # nothing updates before the check
            assert opt.t == 0 and not opt.m.any() and not opt.v.any()
            assert m.grad.tobytes() == grad   # nor is the gradient cleared

    def check_step_returns_norm_and_clears(self, cfg: ModelConfig, beside: bool):
        threads = threading.active_count()
        m = Model(cfg, seed=0)
        assert (m.value.size >= backbone._SPLIT_ELEMENTS) == beside
        opt = AdamW(m, lr=1e-3, weight_decay=0.01)
        rng = np.random.default_rng(1)
        for _ in range(2):
            m.grad[...] = rng.normal(size=m.grad.size)
            norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in m.params()))
            before = m.value.copy()
            assert opt.step().hex() == norm.hex()
            assert not m.grad.any() and not np.array_equal(m.value, before)
        assert threading.active_count() == threads + beside

    def test_step_returns_the_norm_and_clears_the_gradient(self, worker):
        self.check_step_returns_norm_and_clears(TINY, beside=False)

    def test_step_on_the_worker_returns_the_norm_and_clears_the_gradient(self, monkeypatch,
                                                                          worker):
        # a model that reaches the real hand-off size, so half of the blocks,
        # and their clearing, run on the worker
        two_cpus(monkeypatch)
        cfg = ModelConfig(d_model=256, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                          d_ff=512, max_target_len=16)
        self.check_step_returns_norm_and_clears(cfg, beside=True)

    def test_finite_gradient_with_an_overflowing_norm_accepted(self):
        # 1e19 squared is a float32, but a sum of four of them is not, so every
        # parameter's norm is inf; the update still moves each value by lr
        m = Model(TINY, seed=0)
        opt = AdamW(m, lr=1e-3)
        m.grad[...] = 1e19
        assert all(math.isinf(np.vdot(p.grad, p.grad)) for p in m.params())
        before = m.value.copy()
        expected = [adamw_step(p.value.copy(), p.grad.copy(), np.zeros_like(p.value),
                               np.zeros_like(p.value), t=1, lr=1e-3)[0] for p in m.params()]
        assert opt.step() == math.inf
        assert opt.t == 1 and not m.grad.any() and (m.value != before).all()
        for p, value in zip(m.params(), expected):
            assert np.array_equal(p.value, value), p.name

    def check_matches_functional(self, monkeypatch, beside):
        # a small odd block size, so that blocks straddle parameter boundaries
        monkeypatch.setattr(backbone, "_ADAM_BLOCK", 37)
        if beside:   # half of the blocks on the worker thread, the other half here
            always_beside(monkeypatch)
        threads = threading.active_count()
        m = Model(TINY, seed=0)
        sizes = [p.value.size for p in m.params()]
        assert any(np.cumsum(sizes) % 37 != 0)
        expected = [(p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value))
                    for p in m.params()]
        opt = AdamW(m, lr=1e-3, weight_decay=0.01)
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            m.grad[...] = rng.normal(size=m.grad.size)
            expected = [adamw_step(value, p.grad.copy(), mom, var, t=t, lr=1e-3,
                                   weight_decay=0.01)
                        for p, (value, mom, var) in zip(m.params(), expected)]
            opt.step()
            ends = np.cumsum([p.value.size for p in m.params()])
            for p, lo, hi, (value, mom, var) in zip(m.params(), [0, *ends], ends, expected):
                assert value.dtype == mom.dtype == var.dtype == np.float32
                assert np.array_equal(p.value, value), p.name
                assert opt.m[lo:hi].tobytes() == mom.tobytes(), p.name
                assert opt.v[lo:hi].tobytes() == var.tobytes(), p.name
        assert threading.active_count() == threads + beside

    def test_optimizer_matches_functional(self, monkeypatch, worker):
        self.check_matches_functional(monkeypatch, beside=False)

    def test_optimizer_on_the_worker_matches_functional(self, monkeypatch, worker):
        self.check_matches_functional(monkeypatch, beside=True)

    @pytest.mark.parametrize("beside", [False, True])
    def test_step_allocates_no_array(self, monkeypatch, worker, beside):
        if beside:
            always_beside(monkeypatch)
        m = Model(TINY, seed=0)
        opt = AdamW(m, lr=1e-3, weight_decay=0.01)
        m.grad[...] = 0.5
        opt.step()   # the worker thread, if any, starts here
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block of 13,584 float32 is 54 KB; the step's Python objects are far smaller
        assert peak < m.value.nbytes // 4

    @pytest.mark.parametrize("split_elements, pairs", [(None, 1), (0, 2)])
    def test_one_work_pair_per_thread_that_updates(self, monkeypatch, split_elements, pairs):
        if split_elements is not None:
            monkeypatch.setattr(backbone, "_SPLIT_ELEMENTS", split_elements)
        m = Model(TINY, seed=0)
        assert (m.value.size < backbone._SPLIT_ELEMENTS) == (pairs == 1)
        work = AdamW(m)._work
        assert work.shape == (pairs, 2, m.value.size) and work.dtype == np.float32


def train_run(cfg, steps, batch_size, n_segments=16):
    """(loss and grad_norm hex of every step, parameter bytes) of seeded
    split-half training of a fresh ``cfg`` model."""
    encoders = StubEncoders(d=cfg.d_model, seed=0)
    examples = pretrain_examples("split_half", make_leakage_corpus(n_segments, seed=0),
                                 encoders, cfg.max_target_len)
    model = Model(cfg, seed=3)
    records = train(examples, model, TrainConfig(steps=steps, batch_size=batch_size, lr=3e-3,
                                                 seed=3, weight_decay=0.01))
    return [(r["loss"].hex(), r["grad_norm"].hex()) for r in records], model.value.tobytes()


class TestWorkerThread:
    """The second thread gives every bit the one-thread path gives, and it
    starts only where the work pays for the hand-off."""

    def test_train_steps_on_the_worker_match_inline(self, monkeypatch, worker):
        threads = threading.active_count()
        inline = train_run(TINY, steps=5, batch_size=4)
        assert threading.active_count() == threads
        always_beside(monkeypatch)
        assert train_run(TINY, steps=5, batch_size=4) == inline
        assert threading.active_count() == threads + 1

    def test_draws_match_rng_normal_bitwise(self):
        # the draws go through a float64 buffer the caller allocates, as
        # standard normals times 0.02; rng.normal(0.0, 0.02) is the reference
        cfg = ModelConfig(d_model=64, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                          d_ff=128, max_target_len=64)
        model, rng = Model(cfg, seed=8), np.random.default_rng(8)
        for p in model.params():
            expected = np.ones(p.shape) if p.ones else rng.normal(0.0, 0.02, size=p.shape)
            assert p.value.tobytes() == expected.astype(np.float32).tobytes(), p.name

    def test_a_job_error_raises_in_the_caller(self, monkeypatch, worker):
        always_beside(monkeypatch)
        pending = backbone._beside(1, 0, np.add, np.ones(2), np.ones(3))
        with pytest.raises(ValueError, match="broadcast"):
            pending.result(timeout=60)

    @pytest.mark.parametrize("work, cpus", [(0, {0, 1}), (1, {0})])
    def test_a_job_run_here_gives_its_value_through_the_handle(self, monkeypatch, worker,
                                                               work, cpus):
        # below the threshold, or on one CPU, the job runs before _beside returns
        monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: cpus)
        threads, ran = threading.active_count(), []

        def job(x):
            ran.append(threading.current_thread())
            return x + 1

        handle = backbone._beside(work, 1, job, 41)
        assert ran == [threading.current_thread()]
        assert handle.result() == 42 and handle.result() == 42
        assert threading.active_count() == threads

    def test_one_cpu_starts_no_thread(self, monkeypatch, worker):
        always_beside(monkeypatch)
        monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: {0})
        threads = threading.active_count()
        train_run(TINY, steps=2, batch_size=4)
        assert threading.active_count() == threads

    def test_small_model_starts_no_thread_at_the_real_thresholds(self, monkeypatch, worker):
        # the benchmark's train-small shape: d=64, batch 16, 256 segments
        two_cpus(monkeypatch)
        small = ModelConfig(d_model=64, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                            d_ff=128, max_target_len=64)
        threads = threading.active_count()
        train_run(small, steps=2, batch_size=16, n_segments=256)
        assert threading.active_count() == threads


class TestGreedyDecode:
    def test_deterministic(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch(b=1)
        a = m.greedy_decode(rows[0], ids[0])
        b = m.greedy_decode(rows[0], ids[0])
        assert np.array_equal(a, b)

    def test_length_bound(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch(b=1)
        out = m.greedy_decode(rows[0], ids[0], max_len=2)
        assert out[0] == tokenizer.BOS
        assert len(out) <= 2

    def test_overfit_single_pair_decodes_target(self):
        m = Model(TINY, seed=1)
        rows, ids, _ = tiny_batch(b=1)
        target = tokenizer.tokenize("yes", 8)[None]
        opt = AdamW(m, lr=1e-2)
        for _ in range(200):
            m.zero_grad()
            loss = m.loss_and_grads(rows, ids, target)
            opt.step()
            if loss < 0.01:
                break
        out = m.greedy_decode(rows[0], ids[0], max_len=8)
        assert tokenizer.detokenize(out) == "yes"


DECODE_CFG = ModelConfig(d_model=32, n_heads=4, n_encoder_layers=1,
                         n_decoder_layers=2, d_ff=64, max_target_len=32)


@pytest.fixture(scope="module")
def decode_setup():
    """A d=32 model with 2 decoder layers trained briefly on 12 inputs, so
    its decodes stop at different lengths, some only at max_target_len."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(12, 3, DECODE_CFG.d_model))
    ids = np.tile([0, 1, 2], (12, 1))
    texts = ["yes", "no", "two", "a red ball", "x" * 28, "", "blue", "cat on mat",
             "z", "qq", "hello world", "3"]
    targets = np.stack([tokenizer.tokenize(s, DECODE_CFG.max_target_len) for s in texts])
    m = Model(DECODE_CFG, seed=1)
    opt = AdamW(m, lr=3e-3)
    for _ in range(50):
        m.zero_grad()
        m.loss_and_grads(rows, ids, targets)
        opt.step()
    return m, rows, ids


class TestGreedyDecodeBatch:
    @pytest.mark.parametrize("max_len", [1, 2, None])
    def test_matches_greedy_decode(self, decode_setup, max_len):
        m, rows, ids = decode_setup
        batch = m.greedy_decode_batch(rows, ids, max_len)
        expected = [m.greedy_decode(rows[i], ids[i], max_len) for i in range(len(rows))]
        assert len(batch) == len(expected)
        for got, want in zip(batch, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        if max_len is None:
            # rows stop at different lengths, so rows leave the batch mid-decode
            lengths = {len(t) for t in expected}
            assert len(lengths) > 2 and DECODE_CFG.max_target_len in lengths

    @pytest.mark.parametrize("max_len", [1, 2, None])
    def test_matches_greedy_decode_when_every_row_ends_at_once(self, decode_setup, max_len):
        _, rows, ids = decode_setup
        m = Model(DECODE_CFG, seed=2)   # trained to answer the empty string
        opt = AdamW(m, lr=3e-3)
        targets = np.stack([tokenizer.tokenize("", DECODE_CFG.max_target_len)] * len(rows))
        for _ in range(20):
            m.zero_grad()
            m.loss_and_grads(rows, ids, targets)
            opt.step()
        batch = m.greedy_decode_batch(rows, ids, max_len)
        expected = [m.greedy_decode(rows[i], ids[i], max_len) for i in range(len(rows))]
        first = [tokenizer.BOS] if max_len == 1 else [tokenizer.BOS, tokenizer.EOS]
        assert [e.tolist() for e in expected] == [first] * len(rows)
        assert [t.tolist() for t in batch] == [first] * len(rows)
        assert {t.dtype for t in batch} == {np.dtype(np.int64)}

    def test_wqkv_views_the_model_weights_and_refuses_apart_ones(self, decode_setup, monkeypatch):
        m = decode_setup[0]
        for block in m.dec_blocks:
            a = block.self_attn
            assert [np.shares_memory(w, p.W.value) and np.array_equal(w, p.W.value)
                    for w, p in zip(block.wqkv, (a.wq, a.wk, a.wv))] == [True] * 3
        init = backbone.MultiHeadAttention.__init__

        def init_with_a_gap(self, d, h, make, name):   # declares a parameter between q and k
            def make_gap(pname, shape, ones=False):
                p = make(pname, shape, ones)
                if pname.endswith("/q/W"):
                    make(f"{pname}/gap", (1,))
                return p
            init(self, d, h, make_gap, name)

        monkeypatch.setattr(backbone.MultiHeadAttention, "__init__", init_with_a_gap)
        with pytest.raises(ValueError, match="do not lie one after another"):
            Model(DECODE_CFG)

    def test_max_len_over_limit_raises_like_greedy_decode(self, decode_setup):
        m, rows, ids = decode_setup
        too_long = DECODE_CFG.max_target_len + 1
        with pytest.raises(ValueError) as single:
            m.greedy_decode(rows[0], ids[0], too_long)
        with pytest.raises(ValueError) as batch:
            m.greedy_decode_batch(rows, ids, too_long)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_raises_like_greedy_decode(self, decode_setup, max_len):
        m, rows, ids = decode_setup
        with pytest.raises(ValueError, match=f"max_len must be >= 1, got {max_len}"):
            m.greedy_decode(rows[0], ids[0], max_len)
        with pytest.raises(ValueError, match=f"max_len must be >= 1, got {max_len}"):
            m.greedy_decode_batch(rows, ids, max_len)

    @pytest.mark.parametrize("max_len", [2, 5, None])
    def test_decode_cache_bytes_matches_caches(self, decode_setup, monkeypatch, max_len):
        # the caches each decoder layer holds at the first step, before any
        # row leaves the batch
        m, rows, ids = decode_setup
        held = []
        for block in m.dec_blocks:
            def recording_step(x, t, cache, step=block.step):
                if t == 0:
                    held.append(sum(c.nbytes for c in cache))
                return step(x, t, cache)
            monkeypatch.setattr(block, "step", recording_step)
        m.greedy_decode_batch(rows, ids, max_len)
        assert len(held) == DECODE_CFG.n_decoder_layers
        assert sum(held) == len(rows) * m.decode_cache_bytes(rows.shape[1], max_len)

    def test_cached_step_logits_match_full_decoder(self, decode_setup, monkeypatch):
        m, rows, ids = decode_setup
        m = _float64_copy(m)   # the two paths round differently; in float64 to 1e-12
        steps = []
        head = m.lm_head.forward

        def recording_head(x):
            steps.append(head(x))
            return steps[-1]

        monkeypatch.setattr(m.lm_head, "forward", recording_head)
        decoded = m.greedy_decode_batch(rows, ids)
        monkeypatch.undo()
        assert len(steps) == DECODE_CFG.max_target_len - 1
        for t, logits in enumerate(steps):
            # the rows still decoding at step t, in index order
            live = [i for i, out in enumerate(decoded) if len(out) > t + 1]
            assert logits.shape == (len(live), tokenizer.VOCAB_SIZE)
            for j, i in enumerate(live):
                enc = m.encoder_forward(rows[i:i + 1], ids[i:i + 1])
                full = m.decoder_forward(decoded[i][None, :t + 1], enc)[0, -1]
                assert np.max(np.abs(logits[j] - full)) <= 1e-12 * np.max(np.abs(full))


class TestDtypeFlow:
    """The model computes in its parameters' float32: nothing upcasts."""

    def test_training_step_stays_float32(self):
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch()   # float64 rows are cast on the way in
        logits = m.forward(rows, ids, targets[:, :-1])
        assert logits.dtype == np.float32
        assert cross_entropy_with_grad(logits, targets[:, 1:])[1].dtype == np.float32
        m.zero_grad()
        m.loss_and_grads(rows, ids, targets)
        opt = AdamW(m, lr=1e-3, weight_decay=0.01)
        opt.step()
        buffers = (m.value, m.grad, opt.m, opt.v)
        assert [b.dtype for b in buffers] == [np.float32] * 4
        assert len({b.shape for b in buffers}) == 1
        for p in m.params():
            assert (p.value.dtype, p.grad.dtype) == (np.float32, np.float32), p

    def test_decode_caches_stay_float32(self, decode_setup, monkeypatch):
        m, rows, ids = decode_setup
        seen = []
        for block in m.dec_blocks:
            def recording_step(x, t, cache, step=block.step):
                seen.extend(c.dtype for c in cache)
                out = step(x, t, cache)
                seen.append(out.dtype)
                return out
            monkeypatch.setattr(block, "step", recording_step)
        decoded = m.greedy_decode_batch(rows, ids)
        # rows left the batch, so _keep_rows built some of the caches
        assert len({len(out) for out in decoded}) > 2
        assert seen and set(seen) == {np.dtype(np.float32)}


class TestFlatBuffers:
    """Every parameter's value and gradient are views into the model's two
    flat buffers, which they tile once, in ``params()`` order."""

    @staticmethod
    def check_layout(m):
        params = m.params()
        assert m.value.ndim == m.grad.ndim == 1
        assert sum(p.value.size for p in params) == m.value.size == m.grad.size
        for p in params:
            assert np.shares_memory(p.value, m.value) and np.shares_memory(p.grad, m.grad)
            assert p.value.shape == p.grad.shape == p.shape
        saved = m.value.copy()
        for buf, of in ((m.value, lambda p: p.value), (m.grad, lambda p: p.grad)):
            buf[...] = np.arange(buf.size)
            assert np.array_equal(np.concatenate([of(p).ravel() for p in params]),
                                  np.arange(buf.size))
        m.value[...] = saved

    def test_new_model(self):
        self.check_layout(Model(TINY, seed=0))

    def test_loaded_checkpoint(self, tmp_path):
        save_checkpoint(Model(TINY, seed=0), tmp_path / "ckpt.store")
        self.check_layout(load_checkpoint(tmp_path / "ckpt.store"))

    def test_float64_copy(self):
        m = Model(TINY, seed=0)
        copy = _float64_copy(m)
        assert copy.value.dtype == copy.grad.dtype == np.float64
        assert np.array_equal(copy.value, m.value) and not np.shares_memory(copy.value, m.value)
        self.check_layout(copy)

    def test_zero_grad_clears_every_parameter(self):
        m = Model(TINY, seed=0)
        m.zero_grad()
        m.loss_and_grads(*tiny_batch())
        assert all(p.grad.any() for p in (m.type_emb, m.tok_emb, m.lm_head.W))
        m.zero_grad()
        assert all(not p.grad.any() for p in m.params())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = Model(TINY, seed=0)
        rows, ids, targets = tiny_batch()
        path = tmp_path / "ckpt.store"
        save_checkpoint(m, path)
        m2 = load_checkpoint(path)
        assert m2.config == m.config
        logits_a = m2.forward(rows, ids, targets[:, :-1])
        # reload once more: identical parameters, identical outputs
        m3 = load_checkpoint(path)
        logits_b = m3.forward(rows, ids, targets[:, :-1])
        assert np.array_equal(logits_a, logits_b)
        # float32 parameters are stored as float32 and come back bitwise
        for pa, pb in zip(m.params(), m2.params()):
            assert np.array_equal(pb.value, pa.value)

    @staticmethod
    def rewrite(path, edit):
        """Rewrite the checkpoint at ``path`` with ``edit`` applied to its
        list of records."""
        with Store(path) as s:
            records = [s.get(i) for i in range(len(s))]
        write_store(edit(records), path)

    @classmethod
    def rewrite_layout(cls, path, edit):
        """Rewrite the checkpoint at ``path`` with its layout, {name: shape},
        and its flat values replaced by ``edit(layout, values)``."""
        def apply(recs):
            config, layout, params = recs
            assert [r.key for r in recs] == ["__model_config__", "__param_layout__", "params"]
            shapes, values = edit(json.loads(row_text(layout.arrays[0][1], layout.key)),
                                  params.arrays[0][1].copy())
            return [config, EmbeddingRecord(layout.key, (("raw", text_row(json.dumps(shapes))),)),
                    EmbeddingRecord(params.key, (("raw", values),))]

        cls.rewrite(path, apply)

    @staticmethod
    def span(model, name):
        """The slice of ``name``'s values in the model's flat buffer."""
        lo = 0
        for p in model.params():
            if p.name == name:
                return slice(lo, lo + p.value.size)
            lo += p.value.size
        raise KeyError(name)

    def test_wrong_shape_record_names_parameter(self, tmp_path):
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)
        self.rewrite_layout(path, lambda layout, values: (
            {**layout, "enc0/ff/in/W": [32, 16]}, values))
        with pytest.raises(ConfigError, match=r"\(32, 16\) for enc0/ff/in/W does not match"):
            load_checkpoint(path)

    def test_transposed_parameter_names_both_shapes(self, tmp_path):
        path = tmp_path / "ckpt.store"
        m = Model(TINY, seed=1)
        save_checkpoint(m, path)
        at = self.span(m, "dec0/ff/in/W")

        def transpose(layout, values):   # a checkpoint of the parameter's transpose
            values[at] = values[at].reshape(16, 32).T.reshape(-1)
            return {**layout, "dec0/ff/in/W": [32, 16]}, values

        self.rewrite_layout(path, transpose)
        with pytest.raises(ConfigError, match=re.escape(
                "checkpoint shape (32, 16) for dec0/ff/in/W does not match (16, 32)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("beside", [False, True])
    def test_flipped_payload_byte_raises_corruption(self, tmp_path, monkeypatch, worker, beside):
        path = tmp_path / "ckpt.store"
        m = Model(TINY, seed=2)
        save_checkpoint(m, path)
        with Store(path) as s:
            number = s._by_key["params"]
            _, off, _ = s._entries[number]
        data = bytearray(path.read_bytes())
        # the parameter's last payload byte, after the params array's 8-byte head
        data[off + 8 + 4 * self.span(m, "enc0/ff/in/W").stop - 1] ^= 0x01
        path.write_bytes(bytes(data))
        if beside:   # the same error with every job of the run on the worker
            always_beside(monkeypatch)
        with pytest.raises(CorruptionError, match=f"CRC mismatch in record {number}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cpus", ["two", "one"])
    @pytest.mark.parametrize("half", ["first", "second"])
    def test_flipped_byte_in_either_half_of_a_split_record(self, tmp_path, monkeypatch, worker,
                                                         half, cpus):
        # a params record of at least store._SPLIT_BYTES is read and checked in halves
        path = tmp_path / "ckpt.store"
        monkeypatch.setattr(store.os, "sched_getaffinity", lambda pid: {0})   # saved inline
        save_checkpoint(Model(ModelConfig(d_model=128, n_heads=2, n_encoder_layers=1,
                                          n_decoder_layers=1, d_ff=256, max_target_len=16)), path)
        with Store(path) as s:
            number = s._by_key["params"]
            _, off, length = s._entries[number]
        assert length >= store._SPLIT_BYTES
        data = bytearray(path.read_bytes())
        data[off + (length // 4 if half == "first" else 3 * length // 4)] ^= 0x10
        path.write_bytes(bytes(data))
        if cpus == "two":
            always_beside(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(CorruptionError, match=f"CRC mismatch in record {number}$"):
            load_checkpoint(path)
        # the first half went to the worker, whose thread stays; on one CPU none starts
        assert threading.active_count() == threads + (cpus == "two")

    def test_loaded_values_are_the_params_record_uncopied(self, tmp_path, monkeypatch):
        m = Model(TINY, seed=4)
        path = tmp_path / "ckpt.store"
        save_checkpoint(m, path)
        records, real_get = [], Store.get

        def get(s, i):
            records.append(real_get(s, i))
            return records[-1]

        monkeypatch.setattr(Store, "get", get)
        loaded = load_checkpoint(path)
        [params] = [r.arrays[0][1] for r in records if r.key == "params"]
        assert loaded.value is params
        assert loaded.value.flags.aligned and loaded.value.flags.writeable
        assert all(np.shares_memory(p.value, loaded.value) for p in loaded.params())
        assert loaded.value.tobytes() == m.value.tobytes()

    def test_per_parameter_checkpoint_refused_with_a_rerun_hint(self, tmp_path, capsys):
        # the layout before the flat params record: one record per parameter
        m, path = Model(TINY), tmp_path / "old.store"
        write_store([EmbeddingRecord("__model_config__",
                                     (("raw", text_row(json.dumps(asdict(TINY)))),))]
                    + [EmbeddingRecord(f"param:{p.name}", (("raw", p.value),))
                       for p in m.params()], path)
        with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*re-run pretrain or "
                                              "finetune"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--vqa", "x", "--image-store", "y",
                     "--out-dir", str(tmp_path / "ev")]) == 1
        assert "re-run pretrain or finetune" in capsys.readouterr().err

    @pytest.mark.parametrize("char, bad", [("o", 367.0), ("d", 100.7)])
    def test_config_text_that_is_not_bytes_refused(self, tmp_path, char, bad):
        # a cast to uint8 would read ``bad`` as ``char`` and load the model
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)

        def edit(recs):
            text = recs[0].arrays[0][1].copy()
            text[text.tolist().index(ord(char))] = bad
            return [EmbeddingRecord(recs[0].key, (("raw", text),)), *recs[1:]]

        self.rewrite(path, edit)
        with pytest.raises(CorruptionError, match="record '__model_config__': text values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, add, problems", [
        ("d_ff", {}, "lacks keys ['d_ff']"),
        (None, {"dropout": 0.0}, "has unknown keys ['dropout']"),
        ("d_ff", {"dropout": 0.0}, "has unknown keys ['dropout'] and lacks keys ['d_ff']"),
    ], ids=["lacks", "unknown", "both"])
    def test_config_keys_must_be_the_model_configs(self, tmp_path, drop, add, problems):
        # the message names only the side that is not empty
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)
        cfg = {k: v for k, v in asdict(TINY).items() if k != drop} | add
        config = EmbeddingRecord("__model_config__", (("raw", text_row(json.dumps(cfg))),))
        self.rewrite(path, lambda recs: [config, *recs[1:]])
        with pytest.raises(ConfigError, match=re.escape(f"checkpoint config {problems}") + "$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n", [0, 2])
    def test_config_record_without_one_array_exits_one(self, tmp_path, capsys, n):
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)
        text = text_row(json.dumps(asdict(TINY)))
        config = EmbeddingRecord("__model_config__", (("raw", text),) * n)
        self.rewrite(path, lambda recs: [config, *recs[1:]])
        assert main(["eval", "--checkpoint", str(path), "--vqa", "x", "--image-store", "y",
                     "--out-dir", str(tmp_path / "ev")]) == 1
        assert (f"error: {path}: checkpoint config holds {n} arrays, not 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, why", [
        ("5", "record must be a JSON object, got 5"),
        ('[{"d_model": 16}]', "record must be a JSON object"),
        (json.dumps(asdict(TINY)).replace("16", "NaN", 1), "NaN is not a JSON number"),
    ], ids=["number", "list", "nan"])
    def test_config_text_that_is_no_json_object_exits_one(self, tmp_path, capsys, text, why):
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)
        config = EmbeddingRecord("__model_config__", (("raw", text_row(text)),))
        self.rewrite(path, lambda recs: [config, *recs[1:]])
        assert main(["eval", "--checkpoint", str(path), "--vqa", "x", "--image-store", "y",
                     "--out-dir", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path} checkpoint config" in err and why in err

    def test_missing_record_raises_and_eval_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "ckpt.store"
        m = Model(TINY)
        save_checkpoint(m, path)
        at = self.span(m, "dec0/norm2/g")
        self.rewrite_layout(path, lambda layout, values: (
            {k: v for k, v in layout.items() if k != "dec0/norm2/g"},
            np.delete(values, np.arange(at.start, at.stop))))
        with pytest.raises(NotFoundError, match="dec0/norm2/g"):
            load_checkpoint(path)
        rc = main(["eval", "--checkpoint", str(path), "--vqa", "x", "--image-store", "y",
                   "--out-dir", str(tmp_path / "ev")])
        assert rc == 1
        assert "dec0/norm2/g" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda layout, values: (dict(reversed(layout.items())), values),
         "checkpoint layout lists other parameters than the model"),
        (lambda layout, values: ({**layout, "extra": [2]}, np.append(values, [1.0, 2.0])),
         "checkpoint layout lists other parameters than the model"),
        (lambda layout, values: (layout, values[:-1]),
         "checkpoint params are not one array (13584,)")], ids=["order", "extra", "size"])
    def test_layout_and_values_must_be_the_models(self, tmp_path, edit, message):
        # names and shapes that match, in another order, would misplace every value
        path = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY), path)
        self.rewrite_layout(path, edit)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        m = Model(TINY, seed=3)
        path = tmp_path / "ckpt.store"
        save_checkpoint(m, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_checkpoint(path)
        assert [p.name for p in loaded.params()] == [p.name for p in m.params()]
        for pa, pb in zip(m.params(), loaded.params()):
            assert pb.value.dtype == np.float32
            assert np.array_equal(pb.value, pa.value)
