import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalfuse import tokenizer
from modalfuse.backbone import (AdamW, Model, ModelConfig, _gelu, _gelu_grad,
                                cross_entropy_loss, cross_entropy_with_grad,
                                gradient_check, load_checkpoint, save_checkpoint)
from modalfuse.errors import ConfigError

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
        ("max_target_len", 0, "max_target_len must be >= 1"),
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


class TestEncoder:
    def test_attention_rows_sum_to_one(self):
        m = Model(TINY, seed=0)
        rows, ids, _ = tiny_batch()
        m.encoder_forward(rows, ids)
        w = m.enc_blocks[0].attn.last_weights
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
        w = m.dec_blocks[0].cross_attn.last_weights
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)

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
        opt = AdamW(m.params(), lr=1e-2)
        for _ in range(300):
            m.zero_grad()
            loss = m.loss_and_grads(rows, ids, target)
            opt.step()
        assert loss < 1e-3
        m.zero_grad()
        m.loss_and_grads(rows, ids, target)
        gnorm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in m.params()))
        assert gnorm < 0.1

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
        m = Model(TINY, seed=0)
        opt = AdamW(m.params())
        m.params()[0].grad[0] = np.nan
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_optimizer_matches_functional(self):
        m = Model(TINY, seed=0)
        p0 = m.params()[0]
        p0.grad[...] = 0.5
        expected, _, _ = adamw_step(p0.value.copy(), p0.grad.copy(),
                                    np.zeros_like(p0.value), np.zeros_like(p0.value),
                                    t=1, lr=1e-4, weight_decay=0.01)
        opt = AdamW([p0], lr=1e-4, weight_decay=0.01)
        opt.step()
        assert np.allclose(p0.value, expected, atol=1e-12)


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
        opt = AdamW(m.params(), lr=1e-2)
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
    opt = AdamW(m.params(), lr=3e-3)
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

    def test_cached_step_logits_match_full_decoder(self, decode_setup, monkeypatch):
        m, rows, ids = decode_setup
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
        # parameters are stored as float32 and come back exactly as stored
        for pa, pb in zip(m.params(), m2.params()):
            assert np.array_equal(pb.value, pa.value.astype(np.float32))
