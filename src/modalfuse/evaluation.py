"""Question-answering accuracy metric, collapse diagnostics, and the
ablation harness.

The accuracy metric is min(#agreeing humans / 3, 1) per example, averaged.
Both prediction and human answers are normalized before comparison (the
normalization rules are frozen here: lowercase, trim, collapse whitespace,
drop ASCII punctuation, drop one leading article).

The collapse report detects the degenerate regime where one answer dominates
the prediction distribution, which is exactly what an untrained or collapsed
model produces.
"""

from __future__ import annotations

import csv
import itertools
import math
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tokenizer
from .backbone import Model, ModelConfig
from .errors import ValidationError
# build_vqa_example is unused here but stays importable as
# evaluation.build_vqa_example, where the benchmark's call tracer patches it.
from .objectives import (TrainConfig, VqaExample, build_vqa_example,  # noqa: F401
                         collate, pretrain_examples, train, vqa_examples)

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> str:
    words = text.lower().translate(_PUNCT_TABLE).split()
    if words and words[0] in _ARTICLES:
        words = words[1:]
    return " ".join(words)


def vqa_accuracy(prediction: str, human_answers: list[str]) -> float:
    """min(#humans agreeing with the prediction / 3, 1), post-normalization."""
    if len(human_answers) != 10:
        raise ValueError(f"expected 10 human answers, got {len(human_answers)}")
    pred = normalize_answer(prediction)
    matches = sum(1 for a in human_answers if normalize_answer(a) == pred)
    return min(matches / 3.0, 1.0)


def is_yes_no(example: VqaExample) -> bool:
    return all(normalize_answer(a) in ("yes", "no") for a in example.human_answers)


def yes_no_examples(examples: list[VqaExample]) -> list[VqaExample]:
    """The examples whose human answers are all yes or no; ValidationError if
    there are none."""
    kept = [e for e in examples if is_yes_no(e)]
    if not kept:
        raise ValidationError(f"yes-no-only: the question set ({len(examples)} questions) "
                              "has no yes/no questions")
    return kept


@dataclass(frozen=True)
class CollapseReport:
    histogram: dict[str, int]
    entropy_nats: float
    top_share: float
    collapsed: bool


def collapse_report(predictions: list[str]) -> CollapseReport:
    """Collapsed: one normalized answer is more than half the predictions."""
    if not predictions:
        raise ValueError("no predictions to analyze")
    counts = Counter(normalize_answer(p) for p in predictions)
    total = sum(counts.values())
    entropy = -sum((c / total) * math.log(c / total) for c in counts.values())
    top_share = max(counts.values()) / total
    return CollapseReport(
        histogram=dict(counts),
        entropy_nats=entropy,
        top_share=top_share,
        collapsed=top_share > 0.5,
    )


@dataclass(frozen=True)
class ExampleError:
    """Why one example could not be decoded."""
    index: int       # position in the list passed to ``evaluate``
    type: str        # exception class name
    message: str


@dataclass(frozen=True)
class EvalResult:
    per_example: tuple[float, ...]
    mean_accuracy: float
    collapse: CollapseReport
    predictions: tuple[str, ...]
    errors: tuple[ExampleError, ...]

    @property
    def n_errors(self) -> int:
        return len(self.errors)


# Decoder cache bytes one decode chunk may hold. A decode step's fixed costs
# (weight reads, per-step numpy dispatch) shrink per example as the chunk
# grows, while the cache grows with it; this keeps a d=768, 128-token decode
# at about 20 examples per chunk.
_DECODE_CACHE_BYTES = 32 << 20

# Decode length, BOS included, of ``modalfuse eval`` and the ablation harness
EVAL_DECODE_LEN = 16


def _decode_chunk(model: Model, n_rows: int, max_len: int | None) -> int:
    """Examples per ``greedy_decode_batch`` call whose decoder caches fit in
    ``_DECODE_CACHE_BYTES``. A decoder with no layers holds no cache and
    decodes a group in one chunk."""
    return max(1, _DECODE_CACHE_BYTES // max(1, model.decode_cache_bytes(n_rows, max_len)))


def evaluate(model: Model, examples: list[VqaExample],
             max_decode_len: int | None = None) -> EvalResult:
    """Greedy-decode every example, score it, and aggregate.

    Examples with the same row shape are decoded together with
    ``Model.greedy_decode_batch``, in the largest chunks whose decoder caches
    fit in ``_DECODE_CACHE_BYTES`` (``_decode_chunk``). A chunk whose decode
    raises records that error against each of its examples, which are left
    out of the scores; the evaluation fails only when no example decodes.
    Predictions and scores keep the order of ``examples``.
    """
    groups: dict[tuple, list[int]] = {}
    for i, ex in enumerate(examples):
        groups.setdefault(ex.fused.rows.shape, []).append(i)
    decoded: dict[int, str] = {}
    errors: list[ExampleError] = []
    for shape, group in groups.items():
        size = _decode_chunk(model, shape[0], max_decode_len)
        for lo in range(0, len(group), size):
            chunk = group[lo:lo + size]
            try:
                rows, ids, _ = collate([examples[i] for i in chunk])
                texts = [tokenizer.detokenize(t)
                         for t in model.greedy_decode_batch(rows, ids, max_len=max_decode_len)]
            except Exception as e:
                errors.extend(ExampleError(i, type(e).__name__, str(e)) for i in chunk)
                continue
            decoded.update(zip(chunk, texts))
    errors.sort(key=lambda e: e.index)
    done = sorted(decoded)
    predictions = [decoded[i] for i in done]
    scores = [vqa_accuracy(decoded[i], list(examples[i].human_answers)) for i in done]
    if not scores:
        why = ""
        if errors:
            why = f"; example {errors[0].index}: {errors[0].type}: {errors[0].message}"
        raise ValueError(f"no example decoded successfully{why}")
    return EvalResult(
        per_example=tuple(scores),
        mean_accuracy=float(np.mean(scores)),
        collapse=collapse_report(predictions),
        predictions=tuple(predictions),
        errors=tuple(errors),
    )


# ---------------------------------------------------------------------------
# Ablation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationConfig:
    """One grid row: whether to pretrain, feed the scene-graph row and keep
    only the yes/no questions."""
    pretrain: bool
    include_graph: bool
    yes_no_only: bool

    @property
    def label(self) -> str:
        return "+".join(["pretrain" if self.pretrain else "scratch",
                         "graph" if self.include_graph else "no-graph",
                         "yes-no-only" if self.yes_no_only else "all-questions"])


@dataclass(frozen=True)
class AblationRow:
    label: str
    accuracy: float | None
    iterations: int
    status: str = "ok"


def default_ablation_grid() -> list[AblationConfig]:
    """{pretrain off/on} x {graph on/off} x {yes/no-only off/on}, in that
    order, the first axis slowest."""
    return [AblationConfig(*flags)
            for flags in itertools.product((False, True), (True, False), (False, True))]


def run_ablation(grid: list[AblationConfig], model_config: ModelConfig,
                 corpus: list, vqa_records: list[dict], image_store, encoders, *,
                 pretrain_steps: int, finetune_steps: int, seed: int,
                 batch_size: int = 16, lr: float = 1e-4) -> list[AblationRow]:
    """One row per config; each run is independent and fully seeded.

    Each run starts from ``Model(model_config, seed=seed)``. A pretraining
    run first trains ``pretrain_steps`` split-half steps, training seed
    ``seed``, on ``corpus``, a list of (segment, graph) pairs. Every run then
    finetunes ``finetune_steps`` steps, training seed ``seed + 1``, on
    ``vqa_records``, raw {image_key, question, answers, graph} dicts rebuilt
    per config, and is scored on the same examples. A run that raises gives
    a row whose status names the error.
    """
    def accuracy(cfg: AblationConfig) -> float:
        model = Model(model_config, seed=seed)
        if cfg.pretrain:
            pairs = [(seg, graph if cfg.include_graph else None) for seg, graph in corpus]
            examples = pretrain_examples("split_half", pairs, encoders,
                                         model_config.max_target_len)
            train(examples, model,
                  TrainConfig(steps=pretrain_steps, batch_size=batch_size, lr=lr, seed=seed))
        examples = vqa_examples(vqa_records, image_store, encoders, np.random.default_rng(seed),
                                cfg.include_graph, model_config.max_target_len)
        if cfg.yes_no_only:
            examples = yes_no_examples(examples)
        train(examples, model,
              TrainConfig(steps=finetune_steps, batch_size=batch_size, lr=lr, seed=seed + 1))
        return evaluate(model, examples, max_decode_len=EVAL_DECODE_LEN).mean_accuracy

    rows: list[AblationRow] = []
    for cfg in grid:
        iterations = finetune_steps + (pretrain_steps if cfg.pretrain else 0)
        try:
            rows.append(AblationRow(cfg.label, accuracy(cfg), iterations))
        except Exception as e:
            rows.append(AblationRow(cfg.label, None, iterations, status=f"failed: {e}"))
    return rows


def write_ablation_table(rows: list[AblationRow], fp) -> None:
    """Tab-separated (label, accuracy, iterations, status), header included."""
    writer = csv.writer(fp, delimiter="\t", lineterminator="\n")
    writer.writerow(["label", "accuracy", "iterations", "status"])
    for row in rows:
        acc = "" if row.accuracy is None else f"{row.accuracy:.4f}"
        writer.writerow([row.label, acc, row.iterations, row.status])
