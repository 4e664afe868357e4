"""Encoder-decoder transformer over fused embedding rows, with exact
hand-written backpropagation.

The encoder consumes modality embedding rows directly (no token lookup) with
full bidirectional attention; learned modality-type embeddings mark row roles
since the rows are an unordered set. The decoder is a standard causal
transformer with sinusoidal absolute positions, cross-attention to the
encoder output, and an LM head over the byte-level vocabulary. Blocks are
pre-norm with RMS normalization.

The model computes in float32, its parameters' dtype; ``gradient_check``
checks the gradients on a float64 copy against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tokenizer
from .errors import ConfigError
from .experts import MODALITIES
from .store import EmbeddingRecord, Store, row_text, text_row, write_store
from .worker import _beside


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 768
    n_heads: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_ff: int = 1024
    max_target_len: int = 128

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise ConfigError(f"{f.name} must be an int, got {value!r}")
        # a target holds BOS and EOS, so it needs at least 2 tokens
        for name, least in (("d_model", 1), ("n_heads", 1), ("d_ff", 1), ("max_target_len", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("n_encoder_layers", "n_decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@dataclass(eq=False)
class Parameter:
    """A named parameter; ``value`` and ``grad`` are views set by ``Model._build``."""
    name: str
    shape: tuple
    ones: bool   # an RMSNorm gain, initialised to 1
    value: np.ndarray = field(default=None, repr=False)
    grad: np.ndarray = field(default=None, repr=False)


_PAIR_MACS = 1 << 24   # multiply-adds of a backward product pair that pay for a hand-off
_SPLIT_MACS = 1 << 24   # multiply-adds of each column half from which a split product is exact


def _product(rows: np.ndarray, W: np.ndarray) -> np.ndarray:
    """rows @ W, W [..., d_in, d_out]; in column halves, the left one handed to the worker,
    when each half has at least ``_SPLIT_MACS`` multiply-adds: bit for bit (see worker._beside)."""
    h = W.shape[-1] // 128 * 64   # the left half's columns, a multiple of 64
    macs = rows.shape[0] * W.shape[-2] * h   # of the left half, the smaller one
    if macs < _SPLIT_MACS:
        return rows @ W
    y = np.empty((*W.shape[:-2], rows.shape[0], W.shape[-1]), np.result_type(rows, W))
    left = _beside(macs, _SPLIT_MACS, np.matmul, rows, W[..., :h], y[..., :h])
    np.matmul(rows, W[..., h:], out=y[..., h:])
    left.result()
    return y


class Linear:
    """x @ W, no bias (T5-style projections), as one 2-D GEMM over all leading
    rows: a stacked matmul calls BLAS, which repacks W, once per batch entry."""

    def __init__(self, d_in: int, d_out: int, make, name: str):
        self.W = make(f"{name}/W", (d_in, d_out))
        self._x = None   # the input's rows, [N, d_in]

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows = self._x = x.reshape(-1, x.shape[-1])
        return _product(rows, self.W.value).reshape(*x.shape[:-1], self.W.shape[1])

    def backward(self, dy: np.ndarray) -> np.ndarray:
        rows = dy.reshape(-1, dy.shape[-1])
        x, g = self._x, self.W.grad
        pending = _beside(rows.size * x.shape[1], _PAIR_MACS, lambda: np.add(g, x.T @ rows, out=g))
        dx = rows @ self.W.value.T
        pending.result()
        return dx.reshape(*dy.shape[:-1], self.W.shape[0])


_RMS_EPS = 1e-6


def _rms_norm(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * r * g, r = 1 / sqrt(mean(x * x) + eps) over the last axis; returns both."""
    # ufunc reduces: ndarray.sum and .max reduce the same way, through one more Python call
    r = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + _RMS_EPS)
    return x * r * g, r


class RMSNorm:
    def __init__(self, d: int, make, name: str):
        self.g = make(f"{name}/g", (d,), ones=True)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, r = _rms_norm(x, self.g.value)
        self._cache = (x, r)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, r = self._cache
        t = dy * x
        self.g.grad += np.sum(np.multiply(t, r, out=t), axis=tuple(range(x.ndim - 1)))
        h = np.multiply(dy, self.g.value, out=np.empty_like(x))   # dy can be a scalar 0.0
        s = np.sum(np.multiply(h, x, out=t), axis=-1, keepdims=True) * (r * r * r) / x.shape[-1]
        return np.subtract(np.multiply(h, r, out=h), np.multiply(x, s, out=t), out=h)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(x):
    """GELU (tanh approximation) of ``x`` and its tanh term, for _gelu_grad.

    The cube is ``x * x * x``: ``x**3`` goes through ``pow``, which costs
    about 50 times as much. Both GELU functions keep the dtype of ``x`` and
    work in place on one fresh array, which is faster and holds fewer
    hidden-sized temporaries than the same formula written as one expression.
    """
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5
    return y, t


def _gelu_grad(x, t):
    """d GELU/dx at ``x``, given the tanh term ``t`` that _gelu returned."""
    dt = x * x
    dt *= 3 * 0.044715
    dt += 1.0
    dt *= _GELU_C
    dt *= 1.0 - t * t
    dt *= x
    dt += t
    dt += 1.0
    dt *= 0.5
    return dt


class FeedForward:
    def __init__(self, d_model: int, d_ff: int, make, name: str):
        self.w_in = Linear(d_model, d_ff, make, f"{name}/in")
        self.w_out = Linear(d_ff, d_model, make, f"{name}/out")
        self._cache = None

    def forward(self, x):
        pre = self.w_in.forward(x)
        h, t = _gelu(pre)
        self._cache = (pre, t)
        return self.w_out.forward(h)

    def backward(self, dy):
        dh = self.w_out.backward(dy)
        dh *= _gelu_grad(*self._cache)
        return self.w_in.backward(dh)


def _attend(q, k, v, scale: float, causal: bool = False):
    """Softmax attention of q [B, H, Tq, dh] over k, v [B, H, Tk, dh]; returns
    the context [B, H, Tq, dh] and the weights [B, H, Tq, Tk]."""
    scores = q @ k.transpose(0, 1, 3, 2)   # a new array: scaled, masked and shifted in place
    scores *= scale
    if causal:
        tq, tk = scores.shape[-2:]
        if tq != tk:
            raise ValueError("causal attention needs square score matrix")
        scores += np.triu(np.full((tq, tk), -np.inf, scores.dtype), k=1)
    # max is exact; over a transposed copy numpy takes it in whole rows, 3-7x faster
    rows = scores.reshape(-1, scores.shape[-1])
    rows -= np.maximum.reduce(rows.T.copy(), axis=0)[:, None]
    weights = np.exp(scores)   # out=scores would make a train-small round fault 6% more pages
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights @ v, weights


class MultiHeadAttention:
    """Scaled dot-product attention; optionally causal (requires Tq == Tk)."""

    def __init__(self, d_model: int, n_heads: int, make, name: str):
        self.h = n_heads
        self.dh = d_model // n_heads
        self.wq = Linear(d_model, d_model, make, f"{name}/q")
        self.wk = Linear(d_model, d_model, make, f"{name}/k")
        self.wv = Linear(d_model, d_model, make, f"{name}/v")
        self.wo = Linear(d_model, d_model, make, f"{name}/o")
        self._cache = None
        self.last_weights = None   # [B, H, Tq, Tk], for inspection/tests

    def _split(self, x):
        b, t, d = x.shape
        return x.reshape(b, t, self.h, self.dh).transpose(0, 2, 1, 3)

    def _merge(self, x):
        b, h, t, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)

    def forward(self, xq: np.ndarray, xkv: np.ndarray, causal: bool = False) -> np.ndarray:
        q = self._split(self.wq.forward(xq))
        k, v = self.keys_values(xkv)
        scale = 1.0 / math.sqrt(self.dh)
        ctx, weights = _attend(q, k, v, scale, causal)
        self._cache = (q, k, v, weights, scale)
        self.last_weights = weights
        return self.wo.forward(self._merge(ctx))

    def keys_values(self, xkv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values [B, H, T, dh] of ``xkv`` [B, T, d]."""
        return self._split(self.wk.forward(xkv)), self._split(self.wv.forward(xkv))

    def step(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Attention output [B, d] of one new query per row, ``q`` [B, d], over
        keys and values k, v [B, H, T, dh]."""
        b = q.shape[0]
        ctx, _ = _attend(q.reshape(b, self.h, 1, self.dh), k, v, 1.0 / math.sqrt(self.dh))
        return _product(ctx.reshape(b, self.h * self.dh), self.wo.W.value)

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (d_xq, d_xkv)."""
        q, k, v, weights, scale = self._cache
        dctx = self._split(self.wo.backward(dy))
        dw = dctx @ v.transpose(0, 1, 3, 2)
        dv = weights.transpose(0, 1, 3, 2) @ dctx
        dw -= np.sum(dw * weights, axis=-1, keepdims=True)
        dw *= weights   # in place: dw is now the score gradient
        dq = (dw @ k) * scale
        dk = (dw.transpose(0, 1, 3, 2) @ q) * scale
        d_xq = self.wq.backward(self._merge(dq))
        d_xkv = self.wk.backward(self._merge(dk)) + self.wv.backward(self._merge(dv))
        return d_xq, d_xkv


class EncoderBlock:
    def __init__(self, cfg: ModelConfig, make, name: str):
        self.norm1 = RMSNorm(cfg.d_model, make, f"{name}/norm1")
        self.attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, make, f"{name}/attn")
        self.norm2 = RMSNorm(cfg.d_model, make, f"{name}/norm2")
        self.ff = FeedForward(cfg.d_model, cfg.d_ff, make, f"{name}/ff")

    def forward(self, x):
        h = self.norm1.forward(x)
        x = x + self.attn.forward(h, h)
        x = x + self.ff.forward(self.norm2.forward(x))
        return x

    def backward(self, dy):
        dx = dy + self.norm2.backward(self.ff.backward(dy))
        dq, dkv = self.attn.backward(dx)
        return np.add(dx, self.norm1.backward(np.add(dq, dkv, out=dq)), out=dx)


class DecoderBlock:
    def __init__(self, cfg: ModelConfig, make, name: str):
        self.norm1 = RMSNorm(cfg.d_model, make, f"{name}/norm1")
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, make, f"{name}/self")
        self.norm2 = RMSNorm(cfg.d_model, make, f"{name}/norm2")
        self.cross_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, make, f"{name}/cross")
        self.norm3 = RMSNorm(cfg.d_model, make, f"{name}/norm3")
        self.ff = FeedForward(cfg.d_model, cfg.d_ff, make, f"{name}/ff")
        self.wqkv = None   # self_attn's q|k|v weights as one [3, d, d] view, set by Model._build

    def forward(self, x, enc_hidden):
        h = self.norm1.forward(x)
        x = x + self.self_attn.forward(h, h, causal=True)
        x = x + self.cross_attn.forward(self.norm2.forward(x), enc_hidden)
        x = x + self.ff.forward(self.norm3.forward(x))
        return x

    def step(self, x: np.ndarray, t: int, cache: list[np.ndarray]) -> np.ndarray:
        """``forward`` for the one new position t per row, ``x`` [B, d], which
        it overwrites with the output.

        ``cache`` holds this block's self-attention keys and values
        [B, H, L, dh], L > t, filled for positions 0..t-1 (step fills t), then
        its cross-attention keys and values of the encoder output.
        """
        self_k, self_v, cross_k, cross_v = cache
        a, c, ff, b = self.self_attn, self.cross_attn, self.ff, x.shape[0]
        qkv = _product(_rms_norm(x, self.norm1.g.value)[0], self.wqkv)   # [3, B, d], bit for bit
        self_k[:, :, t], self_v[:, :, t] = qkv[1:].reshape(2, b, a.h, a.dh)
        x += a.step(qkv[0], self_k[:, :, :t + 1], self_v[:, :, :t + 1])
        x += c.step(_product(_rms_norm(x, self.norm2.g.value)[0], c.wq.W.value), cross_k, cross_v)
        h = _product(_rms_norm(x, self.norm3.g.value)[0], ff.w_in.W.value)
        x += _product(_gelu(h)[0], ff.w_out.W.value)
        return x

    def backward(self, dy):
        """Returns (dx, d_enc_hidden)."""
        dx = self.norm3.backward(self.ff.backward(dy))
        dx += dy
        dq, d_enc = self.cross_attn.backward(dx)
        dx += self.norm2.backward(dq)
        dq, dkv = self.self_attn.backward(dx)
        return np.add(dx, self.norm1.backward(np.add(dq, dkv, out=dq)), out=dx), d_enc


def _add_rows_at(grad: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(grad, ids, rows)`` on flat indices id * d + j: the same order, 3x faster."""
    d = grad.shape[1]
    np.add.at(grad.reshape(-1), (ids[..., None] * d + np.arange(d)).reshape(-1), rows.reshape(-1))


def sinusoidal_positions(n: int, d: int, dtype) -> np.ndarray:
    pos = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    angles = pos / np.power(10000.0, 2 * i / d)
    enc = np.zeros((n, d), dtype)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : d - d // 2])
    return enc


class Model:
    """The trainable backbone. One instance = one set of parameters."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self._build(config, np.float32)
        self._draw(seed).result()

    def _draw(self, seed: int):   # the seeded draws of the parameters, as a handle to join
        def draw(buf):   # = rng.normal(0, 0.02), in the caller's buf, not the worker's heap
            rng = np.random.default_rng(seed)
            for p in self._params:
                z = buf[:p.value.size].reshape(p.shape)
                p.value[...] = 1.0 if p.ones else np.multiply(rng.standard_normal(out=z), 0.02,
                                                              out=z)
        return _beside(self.value.size, _SPLIT_ELEMENTS, draw,
                       np.empty(max(p.value.size for p in self._params)))

    def _build(self, config: ModelConfig, dtype) -> Model:
        """Build the layers and return the model. Layers declare parameters with
        ``make(name, shape, ones=False)``; their values and gradients are views,
        in ``params()`` order, into a flat ``value`` buffer, which the caller
        fills, and a zeroed flat ``grad`` buffer, both of ``dtype``."""
        self.config = c = config
        self._params = []

        def make(name, shape, ones=False):
            self._params.append(Parameter(name, shape, ones))
            return self._params[-1]

        self.type_emb = make("type_emb", (len(MODALITIES), c.d_model))
        self.tok_emb = make("tok_emb", (tokenizer.VOCAB_SIZE, c.d_model))
        self.enc_blocks = [EncoderBlock(c, make, f"enc{i}") for i in range(c.n_encoder_layers)]
        self.enc_norm = RMSNorm(c.d_model, make, "enc_norm")
        self.dec_blocks = [DecoderBlock(c, make, f"dec{i}") for i in range(c.n_decoder_layers)]
        self.dec_norm = RMSNorm(c.d_model, make, "dec_norm")
        self.lm_head = Linear(c.d_model, tokenizer.VOCAB_SIZE, make, "lm_head")
        self.pos = sinusoidal_positions(c.max_target_len, c.d_model, dtype)
        ends = np.cumsum([math.prod(p.shape) for p in self._params])
        self.value, self.grad = np.empty(ends[-1], dtype), np.zeros(ends[-1], dtype)
        for p, lo, hi in zip(self._params, [0, *ends], ends):
            p.value, p.grad = self.value[lo:hi].reshape(p.shape), self.grad[lo:hi].reshape(p.shape)
        at = dict(zip(self._params, [0, *ends]))
        for block in self.dec_blocks:   # q, k and v are declared one after another: one view
            q, k, v = (w.W for w in (block.self_attn.wq, block.self_attn.wk, block.self_attn.wv))
            if (at[k] - at[q], at[v] - at[q]) != (q.value.size, 2 * q.value.size):
                raise ValueError("the q, k and v weights do not lie one after another")
            block.wqkv = self.value[at[q]:at[v] + v.value.size].reshape(3, *q.shape)
        return self

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> list[Parameter]:
        return list(self._params)

    def zero_grad(self):
        self.grad.fill(0.0)

    # -- forward ------------------------------------------------------------

    def encoder_forward(self, rows: np.ndarray, modality_ids: np.ndarray) -> np.ndarray:
        """rows: [B, m, d_model] fused embedding rows; modality_ids: [B, m]."""
        rows = np.asarray(rows, dtype=self.type_emb.value.dtype)
        if rows.shape[-1] != self.config.d_model:
            raise ConfigError(
                f"fused rows have dimension {rows.shape[-1]}, model expects {self.config.d_model}"
            )
        modality_ids = np.asarray(modality_ids, dtype=np.int64)
        x = rows + self.type_emb.value[modality_ids]
        for block in self.enc_blocks:
            x = block.forward(x)
        x = self.enc_norm.forward(x)
        self._enc_modality_ids = modality_ids
        return x

    def encoder_backward(self, d_hidden: np.ndarray) -> np.ndarray:
        dx = self.enc_norm.backward(d_hidden)
        for block in reversed(self.enc_blocks):
            dx = block.backward(dx)
        _add_rows_at(self.type_emb.grad, self._enc_modality_ids, dx)
        return dx

    def decoder_forward(self, tokens: np.ndarray, enc_hidden: np.ndarray) -> np.ndarray:
        """tokens: [B, T] target-prefix ids; returns logits [B, T, vocab]."""
        tokens = np.array(tokens, dtype=np.int64, ndmin=2)
        t = tokens.shape[1]
        if t > self.config.max_target_len:
            raise ValueError(
                f"prefix length {t} exceeds max_target_len {self.config.max_target_len}"
            )
        x = self.tok_emb.value[tokens] + self.pos[:t]
        for block in self.dec_blocks:
            x = block.forward(x, enc_hidden)
        x = self.dec_norm.forward(x)
        self._dec_tokens = tokens
        return self.lm_head.forward(x)

    def decoder_backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Returns d_enc_hidden accumulated over all cross-attention layers."""
        dx = self.dec_norm.backward(self.lm_head.backward(dlogits))
        d_enc = 0.0
        for block in reversed(self.dec_blocks):
            dx, de = block.backward(dx)
            d_enc = d_enc + de
        _add_rows_at(self.tok_emb.grad, self._dec_tokens, dx)
        return d_enc

    def forward(self, rows, modality_ids, dec_tokens) -> np.ndarray:
        enc = self.encoder_forward(rows, modality_ids)
        return self.decoder_forward(dec_tokens, enc)

    def backward(self, dlogits: np.ndarray):
        """Full backward pass after ``forward``; accumulates into .grad."""
        self.encoder_backward(self.decoder_backward(dlogits))

    # -- training-step helpers ----------------------------------------------

    def loss_and_grads(self, rows, modality_ids, targets) -> float:
        """Teacher-forced step: decoder reads BOS..target[:-1], loss on targets.

        Gradients accumulate into ``grad``; AdamW.step and zero_grad clear it.
        """
        targets = np.array(targets, dtype=np.int64, ndmin=2)
        logits = self.forward(rows, modality_ids, targets[:, :-1])
        # the logits are this step's own, so the softmax overwrites them: no copy
        loss, dlogits = _cross_entropy_in_place(logits, targets[:, 1:], tokenizer.PAD)
        self.backward(dlogits)
        return loss

    def _decode_len(self, max_len: int | None) -> int:
        """``max_len`` (default max_target_len), checked to lie in 1..max_target_len."""
        limit = self.config.max_target_len
        if max_len is None:
            max_len = limit
        if max_len > limit:
            raise ValueError(f"max_len {max_len} exceeds max_target_len {limit}")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        return max_len

    def greedy_decode(self, rows, modality_ids, max_len: int | None = None) -> np.ndarray:
        """Argmax decoding from BOS until EOS or max_len tokens (ties → lowest id)."""
        max_len = self._decode_len(max_len)
        rows = np.asarray(rows)
        if rows.ndim == 2:
            rows = rows[None]
            modality_ids = np.asarray(modality_ids)[None]
        enc = self.encoder_forward(rows, modality_ids)
        out = [tokenizer.BOS]
        while len(out) < max_len:
            logits = self.decoder_forward(np.array([out]), enc)
            nxt = int(np.argmax(logits[0, -1]))
            out.append(nxt)
            if nxt == tokenizer.EOS:
                break
        return np.array(out, dtype=np.int64)

    def decode_cache_bytes(self, n_rows: int, max_len: int | None = None) -> int:
        """Bytes of the decoder caches ``greedy_decode_batch`` holds per example
        of ``n_rows`` encoder rows: per decoder layer, self-attention keys and
        values over ``max_len - 1`` positions and cross-attention keys and
        values over the ``n_rows`` rows. ``max_len`` is resolved and checked as
        ``greedy_decode_batch`` does."""
        steps = self._decode_len(max_len) - 1
        c = self.config
        return c.n_decoder_layers * 2 * (steps + n_rows) * c.d_model * self.value.itemsize

    def greedy_decode_batch(self, rows, modality_ids,
                            max_len: int | None = None) -> list[np.ndarray]:
        """Greedy decoding of a batch: rows [B, m, d_model], modality_ids [B, m].

        Entry i of the result equals ``greedy_decode(rows[i], modality_ids[i],
        max_len)``: the same ``max_len`` checks, ties broken toward the lowest
        id, and each row cut after its first EOS. ``greedy_decode`` stays the
        reference; this path gets the same tokens with less work. It runs the
        encoder once, projects each layer's cross-attention keys and values
        once, keeps each layer's self-attention keys and values in a
        [B, H, max_len - 1, dh] cache, and runs only the newest position
        through the decoder at each step. Rows that emit EOS leave the batch.
        """
        max_len = self._decode_len(max_len)
        enc = self.encoder_forward(rows, modality_ids)
        b = enc.shape[0]
        steps = max_len - 1   # positions run: BOS up to the last token but one
        toks = np.full((b, max_len), tokenizer.BOS, np.int64)   # row i is toks[i, :ends[i]]
        ends = np.full(b, max_len)
        live = np.arange(b)
        caches = []
        for block in self.dec_blocks:
            shape = (b, block.self_attn.h, steps, block.self_attn.dh)
            # np.empty: positions not reached yet are never written or paged in
            caches.append([*np.empty((2, *shape), enc.dtype), *block.cross_attn.keys_values(enc)])
        last = np.full(b, tokenizer.BOS)
        for t in range(steps):
            x = self.tok_emb.value[last] + self.pos[t]
            for block, cache in zip(self.dec_blocks, caches):
                x = block.step(x, t, cache)
            nxt = self.lm_head.forward(_rms_norm(x, self.dec_norm.g.value)[0]).argmax(axis=-1)
            toks[live, t + 1] = nxt
            going = nxt != tokenizer.EOS
            if not going.all():
                ends[live[~going]] = t + 2   # BOS and t + 1 tokens, the last one EOS
                if not going.any():
                    break
                live, nxt = live[going], nxt[going]
                caches = [[_keep_rows(c, going, t + 1) for c in cache[:2]]
                          + [c[going] for c in cache[2:]] for cache in caches]
            last = nxt
        return [row[:n] for row, n in zip(toks, ends.tolist())]


def _keep_rows(cache: np.ndarray, keep: np.ndarray, filled: int) -> np.ndarray:
    """A new self-attention cache holding the ``keep`` rows of ``cache``; only
    the first ``filled`` positions are copied."""
    new = np.empty((int(keep.sum()),) + cache.shape[1:], cache.dtype)
    new[:, :, :filled] = cache[keep, :, :filled]
    return new


def cross_entropy_with_grad(logits: np.ndarray, targets: np.ndarray,
                            pad_id: int = tokenizer.PAD) -> tuple[float, np.ndarray]:
    """Mean NLL over non-PAD positions, plus d(loss)/d(logits); ``logits`` stays as it is."""
    return _cross_entropy_in_place(np.array(logits), targets, pad_id)


def _cross_entropy_in_place(logits: np.ndarray, targets, pad_id: int) -> tuple[float, np.ndarray]:
    """``cross_entropy_with_grad`` that overwrites C-contiguous ``logits`` with the gradient."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"logits {logits.shape} do not match targets {targets.shape}")
    mask = targets != pad_id
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("all target positions are PAD")
    tgt = targets.clip(0)
    logits -= logits.max(axis=-1, keepdims=True)
    tgt_logit = np.take_along_axis(logits, tgt[..., None], axis=-1)[..., 0]
    # one exp pass: the shifted logits become exp(shifted), then the softmax
    dlogits = np.exp(logits, out=logits)
    z = dlogits.sum(axis=-1, keepdims=True)
    log_z = np.log(z[..., 0])
    nll = (log_z - tgt_logit) * mask
    loss = float(nll.sum() / n_valid)

    dlogits /= z
    flat = dlogits.reshape(-1, dlogits.shape[-1])
    flat[np.arange(flat.shape[0]), tgt.reshape(-1)] -= 1.0
    dlogits *= np.float64(1.0 / n_valid)   # in float64, rounded once to float32
    dlogits[~mask] *= 0.0   # PAD rows: x * 0.0, a zero with the sign of x
    return loss, dlogits


def cross_entropy_loss(logits, targets, pad_id: int = tokenizer.PAD) -> float:
    return cross_entropy_with_grad(logits, targets, pad_id)[0]


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_BLOCK = 1 << 16   # elements per AdamW update block: temporaries stay small
_SPLIT_ELEMENTS = 8 * _ADAM_BLOCK   # flat size from which AdamW and the draws use the worker
_GRAD_LIMIT = math.sqrt(np.finfo(np.float32).max)   # larger gradient elements overflow v / bc2


class AdamW:
    """Decoupled weight decay Adam with bias correction on ``model.value``."""

    def __init__(self, model: Model, lr: float = 1e-4, weight_decay: float = 0.0):
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        # np.zeros takes already-zeroed pages, where zeros_like writes every zero
        self.m = np.zeros(model.value.shape, model.value.dtype)
        self.v = np.zeros(model.value.shape, model.value.dtype)
        pairs = 1 + (model.value.size >= _SPLIT_ELEMENTS)   # one per thread that updates blocks
        self._work = np.empty((pairs, 2, min(_ADAM_BLOCK, model.value.size)), model.value.dtype)

    def step(self) -> float:
        """Apply ``model.grad``, clear it and return its L2 norm. An element that is
        not finite, or whose square overflows float32, raises before anything
        changes; a norm that overflows on smaller elements passes."""
        value, params = self.model.value, self.model.params()
        norms = [float(np.vdot(p.grad, p.grad)) for p in params]
        for p, norm in zip(params, norms):
            # "not <=" refuses NaN too
            if not math.isfinite(norm) and not np.abs(p.grad).max() <= _GRAD_LIMIT:
                raise FloatingPointError(
                    f"non-finite gradient for {p.name}, or one whose square overflows float32")
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        blocks = [slice(lo, lo + _ADAM_BLOCK) for lo in range(0, value.size, _ADAM_BLOCK)]
        half = len(blocks) // 2
        first = _beside(value.size, _SPLIT_ELEMENTS, self._update, blocks[:half], bc1, bc2,
                        self._work[0])
        self._update(blocks[half:], bc1, bc2, self._work[-1])
        first.result()
        return math.sqrt(sum(norms))

    def _update(self, blocks: list[slice], bc1: float, bc2: float, work: np.ndarray) -> None:
        for b in blocks:
            p, g, m, v = self.model.value[b], self.model.grad[b], self.m[b], self.v[b]
            w, u = work[:, :p.size]   # written with out=, in the order of the formulas
            m *= _BETA1
            m += np.multiply(g, 1.0 - _BETA1, out=w)
            v *= _BETA2
            v += np.multiply(np.multiply(g, 1.0 - _BETA2, out=w), g, out=w)
            np.sqrt(np.divide(v, bc2, out=u), out=u)
            u += _ADAM_EPS
            np.divide(np.divide(m, bc1, out=w), u, out=w)   # the update
            if self.weight_decay:
                w += np.multiply(p, self.weight_decay, out=u)
            p -= np.multiply(w, self.lr, out=w)
            g.fill(0.0)


def _float64_copy(model: Model) -> Model:
    """A copy of ``model`` whose parameters, and so its computation, are float64."""
    copy = Model.__new__(Model)._build(model.config, np.float64)
    copy.value[...] = model.value
    return copy


def gradient_check(model: Model, rows, modality_ids, targets,
                   n_samples: int = 200, h: float = 1e-4, seed: int = 0,
                   floor: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Both are computed on a float64 copy of ``model``, which stays untouched.
    Samples coordinates uniformly across the flat parameter buffer so all
    layer types get exercised. The relative-error denominator is floored at
    ``floor``: central differences of an O(1) loss carry ~eps*L/h ≈ 1e-11
    absolute roundoff, so coordinates whose true gradient sits below that
    noise cannot be compared in purely relative terms. The default floor is
    five orders of magnitude above the noise.
    """
    targets = np.array(targets, dtype=np.int64, ndmin=2)
    model = _float64_copy(model)
    model.loss_and_grads(rows, modality_ids, targets)   # the analytic gradients

    def loss_only():
        logits = model.forward(rows, modality_ids, targets[:, :-1])
        return cross_entropy_loss(logits, targets[:, 1:])

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for i in rng.choice(model.value.size, size=min(n_samples, model.value.size), replace=False):
        orig = model.value[i]
        model.value[i] = orig + h
        lp = loss_only()
        model.value[i] = orig - h
        lm = loss_only()
        model.value[i] = orig
        fd = (lp - lm) / (2 * h)
        an = model.grad[i]
        rel = abs(an - fd) / max(abs(an), abs(fd), floor)
        max_rel = max(max_rel, rel)
    return max_rel


# -- checkpoints ------------------------------------------------------------

_CONFIG_KEY = "__model_config__"


def save_checkpoint(model: Model, path) -> None:
    """Write parameters + config into a store-format container (atomic)."""
    config = text_row(json.dumps(asdict(model.config)))
    records = [EmbeddingRecord(_CONFIG_KEY, (("raw", config),))]
    records += [EmbeddingRecord(f"param:{p.name}", (("raw", p.value),)) for p in model.params()]
    write_store(records, path)


def load_checkpoint(path) -> Model:
    with Store(path) as store:
        cfg = json.loads(row_text(store.get_by_key(_CONFIG_KEY).arrays[0][1], _CONFIG_KEY))
        expected = {f.name for f in fields(ModelConfig)}
        unknown, lacks = sorted(set(cfg) - expected), sorted(expected - set(cfg))
        problems = [f"has unknown keys {unknown}"] if unknown else []
        problems += [f"lacks keys {lacks}"] if lacks else []
        if problems:
            raise ConfigError(f"{path}: checkpoint config {' and '.join(problems)}")

        # the parameters come from the store, copied into the flat buffer: no random draws
        model = Model.__new__(Model)._build(ModelConfig(**cfg), np.float32)
        for p in model.params():
            arrays = [arr for _, arr in store.get_by_key(f"param:{p.name}").arrays]
            stored = tuple(arr.shape for arr in arrays)
            if stored != (p.shape,):
                raise ConfigError(f"checkpoint shape {stored[0] if len(stored) == 1 else stored}"
                                  f" for {p.name} does not match {p.shape}")
            p.value[...] = arrays[0]
        return model
