"""Training-example construction for the two pretraining objectives and the
question-answering finetune, plus the teacher-forced training loop.

Objective "full_caption": the caption embedding goes in as an encoder row and
the same caption text is the decoder target. The target is therefore fully
determined by the input (the leaky variant). Objective "split_half": the
encoder sees only the first ceil(n/2) words; the decoder predicts the rest,
so nothing about the target leaks through the caption row.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tokenizer
from .backbone import AdamW, Model, ModelConfig, cross_entropy_loss, save_checkpoint
from .errors import ConfigError, ValidationError
from .experts import Embedding, FusedInput, fuse
from .scene_graph import SceneGraph
from .segmentation import Segment

OBJECTIVES = ("full_caption", "split_half")


@dataclass(frozen=True)
class PretrainExample:
    fused: FusedInput
    target: np.ndarray        # token ids, PAD-padded to max_target_len; collate trims per batch
    caption: str
    truncated: bool           # the target text was cut to fit max_target_len


@dataclass(frozen=True)
class VqaExample:
    fused: FusedInput
    human_answers: tuple[str, ...]
    target: np.ndarray        # one of the human answers, drawn by build_vqa_example's rng
    truncated: bool           # the drawn answer was cut to fit max_target_len


def split_caption(words: list[str]) -> tuple[list[str], list[str]]:
    """First ceil(n/2) words vs the rest; concatenation reconstructs the input."""
    if len(words) < 2:
        raise ValueError("split-half needs a caption of at least 2 words")
    cut = math.ceil(len(words) / 2)
    return words[:cut], words[cut:]


def caption_halves(caption: str) -> tuple[str, str]:
    """The two halves of ``split_caption`` over the caption's words, as text."""
    first, second = split_caption(caption.split(" "))
    return " ".join(first), " ".join(second)


def segment_frames(segment: Segment) -> list[tuple[str, float]]:
    """(video_id, time) of each frame row, in ``segment.frame_times`` order."""
    if not segment.frame_times:
        key = f"{segment.video_id}:{segment.word_start}"
        raise ValidationError(f"segment {key!r} lists no frame times")
    return [(segment.video_id, t) for t in segment.frame_times]


def frame_rows(segment: Segment, encoders) -> list[Embedding]:
    """One frame row per time in ``segment.frame_times``, in order."""
    return [encoders.encode_frame(video_id, t) for video_id, t in segment_frames(segment)]


def _graph_row(graph: SceneGraph | None, encoders) -> Embedding | None:
    return None if graph is None else encoders.encode_graph(graph)


def build_pretrain_example(objective: str, frames: list[Embedding], caption: str,
                           text_row: Embedding, graph_row: Embedding | None,
                           max_target_len: int = ModelConfig.max_target_len) -> PretrainExample:
    """Apply ``objective`` to ready-made rows.

    ``text_row`` is the encoded text the encoder sees: the whole caption for
    "full_caption", its first ``caption_halves`` half for "split_half".
    """
    if objective == "full_caption":
        target_text = caption
    elif objective == "split_half":
        target_text = caption_halves(caption)[1]
    else:
        raise ConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    return PretrainExample(
        fused=fuse(frames, text_row, graph_row),
        target=tokenizer.tokenize(target_text, max_target_len),
        caption=caption,
        truncated=tokenizer.truncates(target_text, max_target_len),
    )


def build_full_caption_example(segment: Segment, encoders, graph: SceneGraph | None = None,
                               max_target_len: int = ModelConfig.max_target_len) -> PretrainExample:
    return build_pretrain_example(
        "full_caption", frame_rows(segment, encoders), segment.caption,
        encoders.encode_caption(segment.caption), _graph_row(graph, encoders), max_target_len)


def build_split_half_example(segment: Segment, encoders, graph: SceneGraph | None = None,
                             max_target_len: int = ModelConfig.max_target_len) -> PretrainExample:
    return build_pretrain_example(
        "split_half", frame_rows(segment, encoders), segment.caption,
        encoders.encode_caption(caption_halves(segment.caption)[0]),
        _graph_row(graph, encoders), max_target_len)


def build_vqa_example(image_store, image_key: str, graph: SceneGraph | None,
                      question: str, answers: list[str], rng: np.random.Generator,
                      encoders, include_graph: bool = True,
                      max_target_len: int = ModelConfig.max_target_len) -> VqaExample:
    """Image row + question row (+ graph row), target drawn from the answers."""
    return vqa_example_from_rows(
        image_store, image_key, encoders.encode_question(question),
        _graph_row(graph if include_graph else None, encoders), answers, rng, max_target_len)


def vqa_example_from_rows(image_store, image_key: str, question_row: Embedding,
                          graph_row: Embedding | None, answers: list[str],
                          rng: np.random.Generator,
                          max_target_len: int = ModelConfig.max_target_len) -> VqaExample:
    """``build_vqa_example`` with the question and graph already encoded."""
    if len(answers) != 10:
        raise ValueError(f"expected 10 human answers, got {len(answers)}")
    record = image_store.get_by_key(image_key)   # raises NotFoundError if absent
    image = Embedding(record.arrays[0][1].reshape(-1), "frame")
    fused = fuse([image], question_row, graph_row)
    chosen = answers[int(rng.integers(len(answers)))]
    return VqaExample(
        fused=fused,
        human_answers=tuple(answers),
        target=tokenizer.tokenize(chosen, max_target_len),
        truncated=tokenizer.truncates(chosen, max_target_len),
    )


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def collate(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack fused rows, modality ids and targets; row counts must agree.

    Each example's target is PAD-padded to max_target_len; the stacked
    targets are trimmed to the batch's longest non-PAD target. PAD only
    trails, and causal attention keeps every real position blind to later
    ones, so the trim changes no loss or gradient beyond rounding.
    """
    ms = {e.fused.rows.shape[0] for e in examples}
    if len(ms) != 1:
        raise ValueError(f"cannot batch examples with differing row counts: {sorted(ms)}")
    rows = np.stack([e.fused.rows for e in examples])
    ids = np.stack([e.fused.modality_ids for e in examples])
    targets = np.stack([e.target for e in examples])
    width = int((targets != tokenizer.PAD).sum(axis=1).max())
    return rows, ids, targets[:, :width]


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 16
    lr: float = 1e-4
    weight_decay: float = 0.0
    seed: int = 0
    checkpoint_every: int = 0     # 0 = never
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("steps", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def train(examples: list, model: Model, cfg: TrainConfig,
          metrics_fp=None) -> list[dict]:
    """Seeded teacher-forced training; returns one metrics record per step.

    Batches follow per-epoch seeded permutations of the example list. Each
    record is {step, loss, lr, examples_seen, tokens, grad_norm, wall_ms}:
    ``tokens`` counts the batch's non-PAD target tokens the loss averages
    over, and ``grad_norm`` is the global L2 norm of the gradients before the
    update. Records stream to ``metrics_fp`` (line-delimited JSON), one write
    per step as it happens, so crashed runs stay parseable.
    """
    if not examples:
        raise ValueError("empty dataset")
    opt = AdamW(model, lr=cfg.lr, weight_decay=cfg.weight_decay)
    metrics: list[dict] = []
    examples_seen = 0
    epoch = 0
    order: list[int] = []
    t0 = time.monotonic()

    for step in range(cfg.steps):
        while len(order) < cfg.batch_size:
            rng = np.random.default_rng([cfg.seed, epoch])
            order.extend(int(i) for i in rng.permutation(len(examples)))
            epoch += 1
        batch_idx, order = order[:cfg.batch_size], order[cfg.batch_size:]
        rows, ids, targets = collate([examples[i] for i in batch_idx])

        model.zero_grad()
        loss = model.loss_and_grads(rows, ids, targets)
        record = {
            "step": step,
            "loss": loss,
            "lr": cfg.lr,
            "examples_seen": examples_seen,
            "tokens": int((targets[:, 1:] != tokenizer.PAD).sum()),
            "grad_norm": math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in model.params())),
            "wall_ms": (time.monotonic() - t0) * 1000.0,
        }
        if not math.isfinite(loss):
            record["error"] = "non-finite loss"
            metrics.append(record)
            if metrics_fp is not None:
                metrics_fp.write(json.dumps(record) + "\n")
            raise FloatingPointError(f"non-finite loss at step {step}")
        opt.step()
        examples_seen += cfg.batch_size
        record["examples_seen"] = examples_seen
        metrics.append(record)
        if metrics_fp is not None:
            metrics_fp.write(json.dumps(record) + "\n")
        if (cfg.checkpoint_every and cfg.checkpoint_path
                and (step + 1) % cfg.checkpoint_every == 0):
            save_checkpoint(model, cfg.checkpoint_path)

    if cfg.checkpoint_path:
        save_checkpoint(model, cfg.checkpoint_path)
    return metrics


def corpus_loss(model: Model, examples: list, batch_size: int = 32) -> float:
    """Token-weighted mean cross-entropy over the whole dataset, inference mode.

    A single minibatch loss is a noisy estimate of training progress; this
    walks every example once (no shuffling, no updates) and weights each
    batch by its number of non-padding target tokens so the result is the
    exact dataset-level mean.
    """
    if not examples:
        raise ValueError("empty dataset")
    total = 0.0
    n_tokens = 0
    for lo in range(0, len(examples), batch_size):
        rows, ids, targets = collate(examples[lo:lo + batch_size])
        logits = model.forward(rows, ids, targets[:, :-1])
        loss = cross_entropy_loss(logits, targets[:, 1:])
        batch_tokens = int((targets[:, 1:] != tokenizer.PAD).sum())
        total += loss * batch_tokens
        n_tokens += batch_tokens
    return total / n_tokens
