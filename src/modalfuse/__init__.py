"""Desk-scale multimodal embedding-fusion pipeline.

Transcript segmentation, deterministic frozen-expert embedding stubs, a
crash-safe binary embedding store, a from-scratch encoder-decoder backbone
with exact gradients, two caption pretraining objectives, and a
question-answering evaluation harness with collapse diagnostics.
"""

from .backbone import AdamW, Model, ModelConfig, cross_entropy_loss, gradient_check
from .errors import (ConfigError, CorruptionError, ModalfuseError, NotFoundError,
                     RecordParseError, ValidationError)
from .evaluation import (EvalResult, collapse_report, evaluate, is_yes_no,
                         normalize_answer, run_ablation, vqa_accuracy)
from .experts import Embedding, StubEncoders, l2_normalize
from .objectives import (FusedInput, PretrainExample, TrainConfig, VqaExample,
                         build_split_half_example, build_vqa_example, corpus_loss,
                         fused_input, pretrain_examples, train, vqa_examples)
from .synthetic import make_leakage_corpus, make_mini_vqa
from .scene_graph import SceneGraph, linearize
from .segmentation import (Segment, TimedTranscript, TimedWord, filter_segments,
                           sample_frame_times, segment_transcript, word_density)
from .store import EmbeddingRecord, Store, write_store

__version__ = "0.1.0"
