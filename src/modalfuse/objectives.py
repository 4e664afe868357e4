"""Fusion of expert rows into encoder inputs, training-example construction
for the two pretraining objectives and the question-answering finetune, plus
the teacher-forced training loop.

Objective "full_caption": the caption embedding goes in as an encoder row and
the same caption text is the decoder target. The target is therefore fully
determined by the input (the leaky variant). Objective "split_half": the
encoder sees only the first ceil(n/2) words; the decoder predicts the rest,
so nothing about the target leaks through the caption row.

Examples are built from lists (``pretrain_examples``, ``vqa_examples``), which
encode each modality as one list; every example's rows are stacked by
``fused_input``. The one-example builders are one-row calls of the lists.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import tokenizer
from .backbone import AdamW, Model, ModelConfig, cross_entropy_loss, save_checkpoint
from .errors import ConfigError, ValidationError
from .experts import MODALITY_IDS
from .scene_graph import SceneGraph
from .segmentation import Segment

OBJECTIVES = ("full_caption", "split_half")


@dataclass(frozen=True)
class FusedInput:
    """Stacked modality rows: (frame rows..., caption-or-question row, graph row),
    as ``fused_input`` builds them.

    Ablated modalities are removed entirely, never zero-filled, so row count
    varies: k frames + 2 when everything is present.
    """
    rows: np.ndarray          # float32, finite, shape (m, d)
    modality_ids: np.ndarray  # int64, read-only: each row's MODALITY_IDS entry


def fused_input(frames, text: np.ndarray, text_modality: str,
                graph: np.ndarray | None) -> FusedInput:
    """Stack the frame rows, the text row and the graph row (None to ablate
    it) in canonical order; every row must have the same dimension and be finite."""
    parts = [*frames, text] if graph is None else [*frames, text, graph]
    dims = {len(p) for p in parts}
    if len(dims) != 1:
        raise ConfigError(f"mixed embedding dimensions: {sorted(dims)}")
    rows = np.asarray(np.stack(parts), dtype=np.float32)
    if not np.isfinite(rows).all():
        raise ConfigError("embedding has non-finite entries")
    tags = ("frame",) * len(frames) + (text_modality,) + ("scene_graph",) * (graph is not None)
    ids = np.array([MODALITY_IDS[m] for m in tags], dtype=np.int64)
    ids.flags.writeable = False
    return FusedInput(rows, ids)


@dataclass(frozen=True)
class PretrainExample:
    fused: FusedInput
    target: np.ndarray        # token ids, PAD-padded to max_target_len; collate trims per batch
    truncated: bool           # the target text was cut to fit max_target_len


@dataclass(frozen=True)
class VqaExample:
    fused: FusedInput
    human_answers: tuple[str, ...]
    target: np.ndarray        # one of the human answers, drawn by vqa_examples' rng
    truncated: bool           # the drawn answer was cut to fit max_target_len


def split_caption(words: list[str]) -> tuple[list[str], list[str]]:
    """First ceil(n/2) words vs the rest; concatenation reconstructs the input."""
    if len(words) < 2:
        raise ValueError("split-half needs a caption of at least 2 words")
    cut = math.ceil(len(words) / 2)
    return words[:cut], words[cut:]


def objective_texts(objective: str, caption: str) -> tuple[str, str]:
    """(text the encoder sees, target text): the whole caption twice for
    "full_caption", the two ``split_caption`` halves for "split_half"."""
    if objective == "full_caption":
        return caption, caption
    if objective == "split_half":
        first, second = split_caption(caption.split(" "))
        return " ".join(first), " ".join(second)
    raise ConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def segment_frames(segment: Segment) -> list[tuple[str, float]]:
    """(video_id, time) of each frame row, in ``segment.frame_times`` order."""
    if not segment.frame_times:
        key = f"{segment.video_id}:{segment.word_start}"
        raise ValidationError(f"segment {key!r} lists no frame times")
    return [(segment.video_id, t) for t in segment.frame_times]


def pretrain_example(objective: str, caption: str, fused: FusedInput,
                     max_target_len: int = ModelConfig.max_target_len) -> PretrainExample:
    """``objective``'s target for ``caption`` beside the fused rows; the text
    row among them is the encoded first ``objective_texts`` text."""
    target_text = objective_texts(objective, caption)[1]
    return PretrainExample(
        fused=fused,
        target=tokenizer.tokenize(target_text, max_target_len),
        truncated=tokenizer.truncates(target_text, max_target_len),
    )


def corpus_rows(corpus: list[tuple[Segment, SceneGraph | None]], texts: list[str], encoders
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """(frame rows, text row, graph row or None) of each (segment, graph or
    None) pair, ``texts`` holding each pair's caption text; every modality is
    encoded as one list."""
    frames = [segment_frames(seg) for seg, _ in corpus]
    frame_rows = encoders.encode_frames([f for fs in frames for f in fs])
    text_rows = encoders.encode_captions(texts)
    graph_rows = iter(encoders.encode_graphs([g for _, g in corpus if g is not None]))
    lo = 0
    for (_, graph), fs, text_row in zip(corpus, frames, text_rows):
        yield frame_rows[lo:lo + len(fs)], text_row, None if graph is None else next(graph_rows)
        lo += len(fs)


def pretrain_examples(objective: str, corpus: list[tuple[Segment, SceneGraph | None]],
                      encoders, max_target_len: int = ModelConfig.max_target_len
                      ) -> list[PretrainExample]:
    """One example per (segment, graph or None) pair: a frame row per frame
    time, the row of the text the encoder sees, and the graph row."""
    texts = [objective_texts(objective, seg.caption)[0] for seg, _ in corpus]
    rows = corpus_rows(corpus, texts, encoders)
    return [pretrain_example(objective, seg.caption,
                             fused_input(frames, text, "caption", graph), max_target_len)
            for (seg, _), (frames, text, graph) in zip(corpus, rows)]


def build_split_half_example(segment: Segment, encoders, graph: SceneGraph | None = None,
                             max_target_len: int = ModelConfig.max_target_len) -> PretrainExample:
    return pretrain_examples("split_half", [(segment, graph)], encoders, max_target_len)[0]


def vqa_examples(records: list[dict], image_store, encoders, rng: np.random.Generator,
                 include_graph: bool = True,
                 max_target_len: int = ModelConfig.max_target_len) -> list[VqaExample]:
    """One example per {image_key, question, answers, graph} record: the image
    row, the question row and, with ``include_graph``, the graph row when the
    record has one. Each target is drawn from the answers by ``rng``, in
    record order."""
    graphs = [r.get("graph") if include_graph else None for r in records]
    question_rows = encoders.encode_questions([r["question"] for r in records])
    graph_rows = iter(encoders.encode_graphs([g for g in graphs if g is not None]))
    out = []
    for r, question_row, graph in zip(records, question_rows, graphs):
        answers = r["answers"]
        image = image_store.get_by_key(r["image_key"])   # raises NotFoundError if absent
        if not image.arrays or image.arrays[0][0] != "frame":
            raise ValidationError(f"image record {r['image_key']!r} does not start with a frame")
        fused = fused_input([image.arrays[0][1].reshape(-1)], question_row, "question",
                            None if graph is None else next(graph_rows))
        chosen = answers[int(rng.integers(len(answers)))]
        out.append(VqaExample(
            fused=fused,
            human_answers=tuple(answers),
            target=tokenizer.tokenize(chosen, max_target_len),
            truncated=tokenizer.truncates(chosen, max_target_len),
        ))
    return out


def build_vqa_example(image_store, image_key: str, graph: SceneGraph | None,
                      question: str, answers: list[str], rng: np.random.Generator,
                      encoders, include_graph: bool = True,
                      max_target_len: int = ModelConfig.max_target_len) -> VqaExample:
    """Image row + question row (+ graph row), target drawn from the answers."""
    record = {"image_key": image_key, "question": question, "answers": answers, "graph": graph}
    return vqa_examples([record], image_store, encoders, rng, include_graph, max_target_len)[0]


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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("steps", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def train(examples: Sequence, model: Model, cfg: TrainConfig,
          metrics_fp=None) -> list[dict]:
    """Seeded teacher-forced training on a sequence of examples; returns one
    metrics record per step.

    Batches follow per-epoch seeded permutations of the example indexes, and
    ``examples`` is only indexed and measured, so it may build each example
    when indexed. Each record is {step, loss, lr, examples_seen, tokens,
    grad_norm, wall_ms}: ``tokens`` counts the batch's non-PAD target tokens
    the loss averages over, ``grad_norm`` is what ``AdamW.step`` returns, and
    ``wall_ms`` ends after the update. A non-finite loss or grad_norm is null, beside an
    ``error`` that names it; a non-finite loss is not stepped on, and raises
    after its record. Records stream to ``metrics_fp`` (line-delimited JSON),
    one write per step as it happens, so crashed runs stay parseable.
    """
    if not examples:
        raise ValueError("empty dataset")
    opt = AdamW(model, lr=cfg.lr, weight_decay=cfg.weight_decay)
    metrics: list[dict] = []
    epoch = 0
    order: list[int] = []
    t0 = time.monotonic()
    model.zero_grad()

    for step in range(cfg.steps):
        while len(order) < cfg.batch_size:
            rng = np.random.default_rng([cfg.seed, epoch])
            order.extend(int(i) for i in rng.permutation(len(examples)))
            epoch += 1
        batch_idx, order = order[:cfg.batch_size], order[cfg.batch_size:]
        rows, ids, targets = collate([examples[i] for i in batch_idx])

        loss = model.loss_and_grads(rows, ids, targets)
        stepped = math.isfinite(loss)   # a non-finite loss is recorded, not stepped on
        grad_norm = opt.step() if stepped else None
        record = {
            "step": step,
            "loss": loss,
            "lr": cfg.lr,
            "examples_seen": (step + stepped) * cfg.batch_size,   # of the batches stepped on
            "tokens": int((targets[:, 1:] != tokenizer.PAD).sum()),
            "grad_norm": grad_norm,
            "wall_ms": (time.monotonic() - t0) * 1000.0,
        }
        bad = {k: record[k] for k in ("loss", "grad_norm")
               if record[k] is not None and not math.isfinite(record[k])}
        if bad:   # JSON has no NaN or infinity
            record.update(dict.fromkeys(bad),
                          error=", ".join(f"non-finite {k}: {v}" for k, v in bad.items()))
        metrics.append(record)
        if metrics_fp is not None:
            metrics_fp.write(json.dumps(record) + "\n")
        if not stepped:
            raise FloatingPointError(f"non-finite loss at step {step}")
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
