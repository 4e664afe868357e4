"""Synthetic corpora for desk-scale experiments.

Two generators:

* a caption corpus whose segments come in groups sharing the same first-half
  words, frame-sample keys, and scene graph, but differing in the second
  half. Under the split-half objective the encoder input is then genuinely
  ambiguous (several valid continuations), giving an irreducible loss floor,
  while the full-caption objective stays fully determined by its input. This
  makes the leak-vs-no-leak loss ordering a structural property of the data
  rather than an accident of memorization speed.

* a templated mini question-answering set (yes/no and counting questions
  over stub image keys) with 10 human answers per question.
"""

from __future__ import annotations

import numpy as np

from .experts import StubEncoders
from .scene_graph import SceneGraph
from .segmentation import Segment, with_frame_times
from .store import EmbeddingRecord, write_store

_NOUNS = ["dog", "cat", "bird", "car", "tree", "house", "river", "plate",
          "chair", "clock", "lamp", "kite", "boat", "horse", "apple", "stone"]
_VERBS = ["watching", "chasing", "painting", "lifting", "holding", "pushing",
          "passing", "touching"]
_FILLER = ["the", "a", "near", "beside", "under", "over", "with", "and",
           "slowly", "quickly", "quietly", "gently"]


# Short words keep captions compact (roughly 60 bytes at 15 words), so a
# small model memorizes the deterministic full-caption targets well within a
# 500-step budget; longer captions push that point past the budget and the
# loss ordering becomes a race instead of a structural property.
_SHORT_WORDS = ["dog", "cat", "fox", "owl", "ant", "bee", "elk", "ram",
                "run", "sit", "eat", "fly", "dig", "hop", "nap", "paw"]
_WORDS_PER_SEGMENT = 15


def _words(rng: np.random.Generator, n: int) -> list[str]:
    pool = _NOUNS + _VERBS + _FILLER
    return [pool[int(i)] for i in rng.integers(len(pool), size=n)]


def _short_words(rng: np.random.Generator, n: int) -> list[str]:
    return [_SHORT_WORDS[int(i)] for i in rng.integers(len(_SHORT_WORDS), size=n)]


def make_leakage_corpus(n_segments: int = 256, variants_per_group: int = 8,
                        seed: int = 0) -> list[tuple[Segment, SceneGraph]]:
    """15-word segments in groups of ``variants_per_group`` sharing first
    half, frame keys and graph; second halves differ within each group.

    With 8 variants per group the split-half objective faces an entropy floor
    of ln(8) nats spread over the second-half tokens, while the full-caption
    target stays a deterministic function of its caption row."""
    for name, value in (("n_segments", n_segments), ("variants_per_group", variants_per_group)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if n_segments % variants_per_group != 0:
        raise ValueError(f"n_segments {n_segments} must be a multiple of "
                         f"variants_per_group {variants_per_group}")
    rng = np.random.default_rng(seed)
    first_len = -(-_WORDS_PER_SEGMENT // 2)
    out: list[tuple[Segment, SceneGraph]] = []
    for g in range(n_segments // variants_per_group):
        first = _short_words(rng, first_len)
        subj, obj = (int(i) for i in rng.choice(len(_NOUNS), size=2, replace=False))
        graph = SceneGraph(
            objects=(_NOUNS[subj], _NOUNS[obj]),
            relations=((0, _VERBS[int(rng.integers(len(_VERBS)))], 1),),
        )
        seconds: set[tuple[str, ...]] = set()
        for v in range(variants_per_group):
            while True:
                second = tuple(_short_words(rng, _WORDS_PER_SEGMENT - first_len))
                if second not in seconds:
                    seconds.add(second)
                    break
            seg = Segment(
                video_id=f"vid{g:04d}",
                word_start=0,
                word_end=_WORDS_PER_SEGMENT,
                caption=" ".join([*first, *second]),
                t_start=0.0,
                t_end=20.0,
            )
            out.append((with_frame_times(seg, 1), graph))
    return out


def make_transcript_words(rng: np.random.Generator, n: int, wpm: float = 45.0,
                          ) -> list[tuple[str, float, float]]:
    """(word, start, end) triples at a constant speaking rate."""
    dt = 60.0 / wpm
    words = _words(rng, n)
    return [(w, i * dt, i * dt + 0.8 * dt) for i, w in enumerate(words)]


# ---------------------------------------------------------------------------
# Mini question-answering set
# ---------------------------------------------------------------------------

def make_mini_vqa(n_examples: int = 64, seed: int = 0) -> list[dict]:
    """Records {image_key, question, answers (10), graph: SceneGraph}.

    Half the questions are yes/no ("is there a dog in the picture"), half are
    counting ("how many dogs are there"). Majorities agree with the scene
    graph; a couple of dissenting answers keep the accuracy metric non-binary.
    """
    if n_examples < 1:
        raise ValueError(f"n_examples must be >= 1, got {n_examples}")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_examples):
        subj, obj = (int(x) for x in rng.choice(len(_NOUNS), size=2, replace=False))
        verb = _VERBS[int(rng.integers(len(_VERBS)))]
        graph = SceneGraph(
            objects=(_NOUNS[subj], _NOUNS[obj]),
            relations=((0, verb, 1),),
        )
        if i % 2 == 0:
            probe = _NOUNS[int(rng.integers(len(_NOUNS)))]
            truth = "yes" if probe in graph.objects else "no"
            other = "no" if truth == "yes" else "yes"
            n_dissent = int(rng.integers(0, 3))
            answers = [truth] * (10 - n_dissent) + [other] * n_dissent
            question = f"is there a {probe} in the picture"
        else:
            count = int(rng.integers(1, 4))
            n_dissent = int(rng.integers(0, 3))
            answers = [str(count)] * (10 - n_dissent) + [str(count + 1)] * n_dissent
            question = f"how many {_NOUNS[subj]}s are there"
        perm = rng.permutation(10)
        records.append({
            "image_key": f"img{i:04d}",
            "question": question,
            "answers": [answers[int(j)] for j in perm],
            "graph": graph,
        })
    return records


def write_vqa_image_store(records: list[dict], encoders: StubEncoders, path):
    """Stub image embeddings keyed by image_key, one store record each."""
    rows = encoders.encode_frames([(rec["image_key"], 0.0) for rec in records])
    return write_store((EmbeddingRecord(rec["image_key"], (("frame", row),))
                        for rec, row in zip(records, rows)), path, encoders)
