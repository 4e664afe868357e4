"""Encoder-decoder transformer over fused embedding rows, with exact
hand-written backpropagation.

The encoder consumes modality embedding rows directly (no token lookup) with
full bidirectional attention; learned modality-type embeddings mark row roles
since the rows are an unordered set. The decoder is a standard causal
transformer with sinusoidal absolute positions, cross-attention to the
encoder output, and an LM head over the byte-level vocabulary. Blocks are
pre-norm with RMS normalization.

Everything runs in float64 numpy so analytic gradients can be validated
against central finite differences to tight tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tokenizer
from .errors import ConfigError
from .experts import MODALITIES
from .store import EmbeddingRecord, Store, write_store


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
        for name in ("d_model", "n_heads", "d_ff", "max_target_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("n_encoder_layers", "n_decoder_layers"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


class Parameter:
    def __init__(self, value: np.ndarray, name: str):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


def _init(rng: np.random.Generator, shape, scale: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, scale, size=shape)


class Linear:
    """x @ W, no bias (T5-style projections)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name: str):
        self.W = Parameter(_init(rng, (d_in, d_out)), f"{name}/W")
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.W.grad += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
        return dy @ self.W.value.T

    def params(self):
        return [self.W]


_RMS_EPS = 1e-6


class RMSNorm:
    def __init__(self, d: int, name: str):
        self.g = Parameter(np.ones(d), f"{name}/g")
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        r = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _RMS_EPS)
        self._cache = (x, r)
        return x * r * self.g.value

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, r = self._cache
        n = x.shape[-1]
        self.g.grad += np.sum(dy * x * r, axis=tuple(range(x.ndim - 1)))
        h = dy * self.g.value
        return h * r - x * (np.sum(h * x, axis=-1, keepdims=True) * (r * r * r) / n)

    def params(self):
        return [self.g]


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(x):
    """GELU (tanh approximation) of ``x`` and its tanh term, for _gelu_grad.

    The cube is ``x * x * x``: on float64 ``x**3`` goes through ``pow``,
    which costs about 50 times as much. Both GELU functions work in place on
    one fresh array, which is faster and holds fewer hidden-sized
    temporaries than the same formula written as one expression.
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
    def __init__(self, d_model: int, d_ff: int, rng, name: str):
        self.w_in = Linear(d_model, d_ff, rng, f"{name}/in")
        self.w_out = Linear(d_ff, d_model, rng, f"{name}/out")
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

    def params(self):
        return self.w_in.params() + self.w_out.params()


def _attend(q, k, v, scale: float, causal: bool = False):
    """Softmax attention of q [B, H, Tq, dh] over k, v [B, H, Tk, dh]; returns
    the context [B, H, Tq, dh] and the weights [B, H, Tq, Tk]."""
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    if causal:
        tq, tk = scores.shape[-2:]
        if tq != tk:
            raise ValueError("causal attention needs square score matrix")
        scores = scores + np.triu(np.full((tq, tk), -np.inf), k=1)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights @ v, weights


class MultiHeadAttention:
    """Scaled dot-product attention; optionally causal (requires Tq == Tk)."""

    def __init__(self, d_model: int, n_heads: int, rng, name: str):
        self.h = n_heads
        self.dh = d_model // n_heads
        self.wq = Linear(d_model, d_model, rng, f"{name}/q")
        self.wk = Linear(d_model, d_model, rng, f"{name}/k")
        self.wv = Linear(d_model, d_model, rng, f"{name}/v")
        self.wo = Linear(d_model, d_model, rng, f"{name}/o")
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

    def step(self, xq: np.ndarray, k: np.ndarray, v: np.ndarray, t: int | None = None):
        """Attention output [B, d] of one new position per row, ``xq`` [B, d].

        It attends over the keys and values k, v [B, H, T, dh]. With ``t``,
        k and v are a self-attention cache: the keys and values of ``xq`` are
        written at position t, and the query attends over positions 0..t.
        """
        b = xq.shape[0]
        if t is not None:
            k[:, :, t] = self.wk.forward(xq).reshape(b, self.h, self.dh)
            v[:, :, t] = self.wv.forward(xq).reshape(b, self.h, self.dh)
            k, v = k[:, :, :t + 1], v[:, :, :t + 1]
        q = self.wq.forward(xq).reshape(b, self.h, 1, self.dh)
        ctx, _ = _attend(q, k, v, 1.0 / math.sqrt(self.dh))
        return self.wo.forward(ctx.reshape(b, self.h * self.dh))

    def backward(self, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (d_xq, d_xkv)."""
        q, k, v, weights, scale = self._cache
        dctx = self._split(self.wo.backward(dy))
        dw = dctx @ v.transpose(0, 1, 3, 2)
        dv = weights.transpose(0, 1, 3, 2) @ dctx
        ds = weights * (dw - np.sum(dw * weights, axis=-1, keepdims=True))
        dq = (ds @ k) * scale
        dk = (ds.transpose(0, 1, 3, 2) @ q) * scale
        d_xq = self.wq.backward(self._merge(dq))
        d_xkv = self.wk.backward(self._merge(dk)) + self.wv.backward(self._merge(dv))
        return d_xq, d_xkv

    def params(self):
        return self.wq.params() + self.wk.params() + self.wv.params() + self.wo.params()


class EncoderBlock:
    def __init__(self, cfg: ModelConfig, rng, name: str):
        self.norm1 = RMSNorm(cfg.d_model, f"{name}/norm1")
        self.attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng, f"{name}/attn")
        self.norm2 = RMSNorm(cfg.d_model, f"{name}/norm2")
        self.ff = FeedForward(cfg.d_model, cfg.d_ff, rng, f"{name}/ff")

    def forward(self, x):
        h = self.norm1.forward(x)
        x = x + self.attn.forward(h, h)
        x = x + self.ff.forward(self.norm2.forward(x))
        return x

    def backward(self, dy):
        dx = dy + self.norm2.backward(self.ff.backward(dy))
        dq, dkv = self.attn.backward(dx)
        return dx + self.norm1.backward(dq + dkv)

    def params(self):
        return self.norm1.params() + self.attn.params() + self.norm2.params() + self.ff.params()


class DecoderBlock:
    def __init__(self, cfg: ModelConfig, rng, name: str):
        self.norm1 = RMSNorm(cfg.d_model, f"{name}/norm1")
        self.self_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng, f"{name}/self")
        self.norm2 = RMSNorm(cfg.d_model, f"{name}/norm2")
        self.cross_attn = MultiHeadAttention(cfg.d_model, cfg.n_heads, rng, f"{name}/cross")
        self.norm3 = RMSNorm(cfg.d_model, f"{name}/norm3")
        self.ff = FeedForward(cfg.d_model, cfg.d_ff, rng, f"{name}/ff")

    def forward(self, x, enc_hidden):
        h = self.norm1.forward(x)
        x = x + self.self_attn.forward(h, h, causal=True)
        x = x + self.cross_attn.forward(self.norm2.forward(x), enc_hidden)
        x = x + self.ff.forward(self.norm3.forward(x))
        return x

    def step(self, x: np.ndarray, t: int, cache: list[np.ndarray]) -> np.ndarray:
        """``forward`` for the one new position t per row, ``x`` [B, d].

        ``cache`` holds this block's self-attention keys and values
        [B, H, L, dh], L > t, filled for positions 0..t-1, then its
        cross-attention keys and values of the encoder output.
        """
        self_k, self_v, cross_k, cross_v = cache
        x = x + self.self_attn.step(self.norm1.forward(x), self_k, self_v, t)
        x = x + self.cross_attn.step(self.norm2.forward(x), cross_k, cross_v)
        return x + self.ff.forward(self.norm3.forward(x))

    def backward(self, dy):
        """Returns (dx, d_enc_hidden)."""
        dx = dy + self.norm3.backward(self.ff.backward(dy))
        dq, d_enc = self.cross_attn.backward(dx)
        dx = dx + self.norm2.backward(dq)
        dq, dkv = self.self_attn.backward(dx)
        return dx + self.norm1.backward(dq + dkv), d_enc

    def params(self):
        return (self.norm1.params() + self.self_attn.params() + self.norm2.params()
                + self.cross_attn.params() + self.norm3.params() + self.ff.params())


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n)[:, None]
    i = np.arange(d // 2)[None, :]
    angles = pos / np.power(10000.0, 2 * i / d)
    enc = np.zeros((n, d))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles[:, : d - d // 2])
    return enc


class Model:
    """The trainable backbone. One instance = one set of parameters."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        self.type_emb = Parameter(_init(rng, (len(MODALITIES), c.d_model)), "type_emb")
        self.tok_emb = Parameter(_init(rng, (tokenizer.VOCAB_SIZE, c.d_model)), "tok_emb")
        self.enc_blocks = [EncoderBlock(c, rng, f"enc{i}") for i in range(c.n_encoder_layers)]
        self.enc_norm = RMSNorm(c.d_model, "enc_norm")
        self.dec_blocks = [DecoderBlock(c, rng, f"dec{i}") for i in range(c.n_decoder_layers)]
        self.dec_norm = RMSNorm(c.d_model, "dec_norm")
        self.lm_head = Linear(c.d_model, tokenizer.VOCAB_SIZE, rng, "lm_head")
        self.pos = sinusoidal_positions(c.max_target_len, c.d_model)

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> list[Parameter]:
        out = [self.type_emb, self.tok_emb]
        for b in self.enc_blocks:
            out += b.params()
        out += self.enc_norm.params()
        for b in self.dec_blocks:
            out += b.params()
        out += self.dec_norm.params()
        out += self.lm_head.params()
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    # -- forward ------------------------------------------------------------

    def encoder_forward(self, rows: np.ndarray, modality_ids: np.ndarray) -> np.ndarray:
        """rows: [B, m, d_model] fused embedding rows; modality_ids: [B, m]."""
        rows = np.asarray(rows, dtype=np.float64)
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
        np.add.at(self.type_emb.grad, self._enc_modality_ids, dx)
        return dx

    def decoder_forward(self, tokens: np.ndarray, enc_hidden: np.ndarray) -> np.ndarray:
        """tokens: [B, T] target-prefix ids; returns logits [B, T, vocab]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
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
        np.add.at(self.tok_emb.grad, self._dec_tokens, dx)
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

        Gradients accumulate into the parameters; call zero_grad first.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim == 1:
            targets = targets[None, :]
        logits = self.forward(rows, modality_ids, targets[:, :-1])
        loss, dlogits = cross_entropy_with_grad(logits, targets[:, 1:])
        self.backward(dlogits)
        return loss

    def greedy_decode(self, rows, modality_ids, max_len: int | None = None) -> np.ndarray:
        """Argmax decoding from BOS until EOS or max_len tokens (ties → lowest id)."""
        if max_len is None:
            max_len = self.config.max_target_len
        if max_len > self.config.max_target_len:
            raise ValueError("max_len exceeds max_target_len")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        rows = np.asarray(rows, dtype=np.float64)
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
        if max_len is None:
            max_len = self.config.max_target_len
        if max_len > self.config.max_target_len:
            raise ValueError("max_len exceeds max_target_len")
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        enc = self.encoder_forward(rows, modality_ids)
        b = enc.shape[0]
        steps = max_len - 1   # positions run: BOS up to the last token but one
        out = [[tokenizer.BOS] for _ in range(b)]
        live = np.arange(b)
        caches = []
        for block in self.dec_blocks:
            shape = (b, block.self_attn.h, steps, block.self_attn.dh)
            # np.empty: positions not reached yet are never written or paged in
            caches.append([np.empty(shape), np.empty(shape), *block.cross_attn.keys_values(enc)])
        last = np.full(b, tokenizer.BOS)
        for t in range(steps):
            x = self.tok_emb.value[last] + self.pos[t]
            for block, cache in zip(self.dec_blocks, caches):
                x = block.step(x, t, cache)
            logits = self.lm_head.forward(self.dec_norm.forward(x))
            nxt = np.argmax(logits, axis=-1)
            for i, tok in zip(live, nxt.tolist()):
                out[i].append(tok)
            going = nxt != tokenizer.EOS
            if not going.all():
                if not going.any():
                    break
                live, nxt = live[going], nxt[going]
                caches = [[_keep_rows(c, going, t + 1) for c in cache[:2]]
                          + [c[going] for c in cache[2:]] for cache in caches]
            last = nxt
        return [np.array(o, dtype=np.int64) for o in out]


def _keep_rows(cache: np.ndarray, keep: np.ndarray, filled: int) -> np.ndarray:
    """A new self-attention cache holding the ``keep`` rows of ``cache``; only
    the first ``filled`` positions are copied."""
    new = np.empty((int(keep.sum()),) + cache.shape[1:])
    new[:, :, :filled] = cache[keep, :, :filled]
    return new


def cross_entropy_with_grad(logits: np.ndarray, targets: np.ndarray,
                            pad_id: int = tokenizer.PAD) -> tuple[float, np.ndarray]:
    """Mean NLL over non-PAD positions, plus d(loss)/d(logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"logits {logits.shape} do not match targets {targets.shape}")
    mask = targets != pad_id
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise ValueError("all target positions are PAD")
    tgt = targets.clip(0)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    tgt_logit = np.take_along_axis(shifted, tgt[..., None], axis=-1)[..., 0]
    # one exp pass: the shifted logits become exp(shifted), then the softmax
    dlogits = np.exp(shifted, out=shifted)
    z = dlogits.sum(axis=-1, keepdims=True)
    log_z = np.log(z[..., 0])
    nll = (log_z - tgt_logit) * mask
    loss = float(nll.sum() / n_valid)

    dlogits /= z
    flat = dlogits.reshape(-1, dlogits.shape[-1])
    flat[np.arange(flat.shape[0]), tgt.reshape(-1)] -= 1.0
    dlogits *= (mask[..., None] / n_valid)
    return loss, dlogits


def cross_entropy_loss(logits, targets, pad_id: int = tokenizer.PAD) -> float:
    return cross_entropy_with_grad(logits, targets, pad_id)[0]


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Decoupled weight decay Adam with bias correction."""

    def __init__(self, params: list[Parameter], lr: float = 1e-4,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise FloatingPointError(f"non-finite gradient for {p.name}")
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.value
            p.value -= self.lr * update


def gradient_check(model: Model, rows, modality_ids, targets,
                   n_samples: int = 200, h: float = 1e-4, seed: int = 0,
                   floor: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples coordinates uniformly across every parameter tensor so all layer
    types get exercised. The relative-error denominator is floored at
    ``floor``: central differences of an O(1) loss carry ~eps*L/h ≈ 1e-11
    absolute roundoff, so coordinates whose true gradient sits below that
    noise cannot be compared in purely relative terms. The default floor is
    five orders of magnitude above the noise.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim == 1:
        targets = targets[None, :]
    model.zero_grad()
    base_params = model.params()
    model.loss_and_grads(rows, modality_ids, targets)
    analytic = [p.grad.copy() for p in base_params]

    def loss_only():
        logits = model.forward(rows, modality_ids, targets[:, :-1])
        return cross_entropy_loss(logits, targets[:, 1:])

    rng = np.random.default_rng(seed)
    sizes = np.array([p.value.size for p in base_params])
    cum = np.cumsum(sizes)
    picks = rng.choice(int(cum[-1]), size=min(n_samples, int(cum[-1])), replace=False)
    max_rel = 0.0
    for flat_idx in picks:
        pi = int(np.searchsorted(cum, flat_idx, side="right"))
        local = int(flat_idx - (cum[pi - 1] if pi else 0))
        p = base_params[pi]
        orig = p.value.flat[local]
        p.value.flat[local] = orig + h
        lp = loss_only()
        p.value.flat[local] = orig - h
        lm = loss_only()
        p.value.flat[local] = orig
        fd = (lp - lm) / (2 * h)
        an = analytic[pi].flat[local]
        rel = abs(an - fd) / max(abs(an), abs(fd), floor)
        max_rel = max(max_rel, rel)
    return max_rel


# -- checkpoints ------------------------------------------------------------

_CONFIG_KEY = "__model_config__"


def save_checkpoint(model: Model, path) -> None:
    """Write parameters + config into a store-format container (atomic)."""
    cfg_bytes = json.dumps(asdict(model.config)).encode("utf-8")
    cfg_arr = np.frombuffer(cfg_bytes, dtype=np.uint8).astype(np.float32)
    records = [EmbeddingRecord(_CONFIG_KEY, (("raw", cfg_arr),))]
    for p in model.params():
        records.append(EmbeddingRecord(f"param:{p.name}",
                                       (("raw", p.value.astype(np.float32)),)))
    write_store(records, path)


def load_checkpoint(path) -> Model:
    with Store(path) as store:
        cfg_arr = store.get_by_key(_CONFIG_KEY).arrays[0][1]
        cfg = json.loads(bytes(cfg_arr.astype(np.uint8)).decode("utf-8"))
        expected = {f.name for f in fields(ModelConfig)}
        if set(cfg) != expected:
            raise ConfigError(
                f"{path}: checkpoint config has unknown keys {sorted(set(cfg) - expected)}"
                f" and lacks keys {sorted(expected - set(cfg))}"
            )
        model = Model(ModelConfig(**cfg), seed=0)
        for p in model.params():
            arr = store.get_by_key(f"param:{p.name}").arrays[0][1]
            if arr.shape != p.value.shape:
                raise ConfigError(
                    f"checkpoint shape {arr.shape} for {p.name} does not match {p.value.shape}"
                )
            p.value[...] = arr.astype(np.float64)
    return model
