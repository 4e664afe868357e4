"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and then repeats a
*round*: one closed-loop call into the program, made only after the previous
one returned. A round is

* ``train-small``: one ``objectives.train`` call of ``STEPS`` steps on a fresh
  seeded d=64 model;
* ``decode-long``: one ``evaluation.evaluate`` call over the whole example
  list, with a fresh-init d=64 model and 64-token decodes;
* ``paper-pipeline``: the CLI chain segment -> encode-pack -> pretrain ->
  finetune -> eval through ``cli.main``, at the CLI's d=768 model shape.

Program entry points are looked up on their modules at call time
(``objectives.train``, not a name imported here) so that a traced round sees
the wrappers ``tracing.install`` puts there.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from modalfuse import cli, evaluation, objectives, segmentation, synthetic, tokenizer
from modalfuse.backbone import Model, ModelConfig
from modalfuse.experts import StubEncoders
from modalfuse.scene_graph import read_graph_manifest, serialize_scene_graph
from modalfuse.store import Store

_perf = time.perf_counter

# The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "items_per_s": "1/s"}


class Outcome:
    """Operations and output checks, counted against the number attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = ""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} failed: {what}")

    def check(self, ok: bool, what: str):
        self.ops(1, 0 if ok else 1, what)


def _param_count(model: Model) -> int:
    return sum(p.value.size for p in model.params())


class _StepClock:
    """File-like sink for ``train``'s per-step metrics records that notes
    when each step finished; the step's record is written after its update."""

    def __init__(self):
        self.times: list[float] = []

    def write(self, _text):
        self.times.append(_perf())


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, out: Outcome):
        self.seed = seed
        self.workdir = workdir
        self.out = out
        self.round_s: list[float] = []

    def setup(self):
        """Generate the inputs from the seed. It is called several times and
        must give the same inputs each time; the last set-up is the one used."""
        raise NotImplementedError

    def run_round(self, i: int) -> float:
        """One round; returns its measured wall time in seconds."""
        raise NotImplementedError

    def after_round(self, i: int):
        """Output checks for round ``i``, made outside the measured and
        traced region."""

    def final_checks(self):
        """Output checks across all rounds, made after the last one."""

    def items_per_s(self) -> float:
        """Items per second of measured time; the item depends on the workload."""
        raise NotImplementedError

    def named_metrics(self) -> dict[str, tuple[float, str]]:
        """The workload's metrics under its own names, as (value, unit)."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Measured properties of the inputs that explain the figures."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-small
# ---------------------------------------------------------------------------

SMALL = ModelConfig(d_model=64, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                    d_ff=128, max_target_len=64)


class TrainSmall(Workload):
    name = "train-small"
    STEPS = 50
    BATCH = 16
    LR = 3e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.step_ms: list[float] = []
        self.final_losses: list[float] = []

    def setup(self):
        corpus = synthetic.make_leakage_corpus(n_segments=256, seed=self.seed)
        enc = StubEncoders(d=SMALL.d_model, seed=self.seed)
        self.examples = [objectives.build_split_half_example(
            seg, enc, graph=graph, max_target_len=SMALL.max_target_len)
            for seg, graph in corpus]
        self.tokens_per_example = statistics.median(
            [int((e.target[1:] != tokenizer.PAD).sum()) for e in self.examples])

    def run_round(self, i):
        model = Model(SMALL, seed=self.seed)
        clock = _StepClock()
        cfg = objectives.TrainConfig(steps=self.STEPS, batch_size=self.BATCH,
                                     lr=self.LR, seed=self.seed)
        t0 = _perf()
        records = objectives.train(self.examples, model, cfg, metrics_fp=clock)
        elapsed = _perf() - t0
        ends = [t0, *clock.times]
        self.step_ms += [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
        losses = [r["loss"] for r in records]
        self.out.ops(self.STEPS, self.STEPS - len(records), "training steps")
        self.out.check(all(math.isfinite(x) for x in losses), "every logged loss is finite")
        self.final_losses.append(losses[-1])
        return elapsed

    def final_checks(self):
        self.out.check(len({x.hex() for x in self.final_losses}) == 1,
                       "final loss is bit-identical in every round")

    def _tokens_per_s(self):
        return self.tokens_per_example * self.BATCH * self.STEPS * len(self.round_s) \
            / sum(self.round_s)

    def items_per_s(self):
        return self._tokens_per_s()

    def named_metrics(self):
        q = statistics.quantiles(self.step_ms, n=10, method="inclusive")
        return {
            "train_tokens_per_s": (self._tokens_per_s(), "1/s"),
            "train_step_ms.p50": (statistics.median(self.step_ms), "ms"),
            "train_step_ms.p90": (q[8], "ms"),
            "train_loss_final": (self.final_losses[-1], "nats"),
        }

    def properties(self):
        return {"params": _param_count(Model(SMALL)), "examples": len(self.examples),
                "steps_per_round": self.STEPS, "batch_size": self.BATCH,
                "target_tokens_per_example": self.tokens_per_example,
                "train_steps_timed": len(self.step_ms),
                "train_loss_final_hex": self.final_losses[-1].hex()}


# ---------------------------------------------------------------------------
# decode-long
# ---------------------------------------------------------------------------

class DecodeLong(Workload):
    name = "decode-long"
    EXAMPLES = 32
    MAX_DECODE = 64
    CHECKED = 4
    # The model is part of the workload, not an input: some seeds give a
    # fresh model that emits EOS after about 17 tokens, and this one decodes
    # all 63 tokens on every input seed tried.
    MODEL_SEED = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.predictions = None

    def setup(self):
        records = synthetic.make_mini_vqa(self.EXAMPLES, seed=self.seed)
        enc = StubEncoders(d=SMALL.d_model, seed=self.seed)
        images = self.workdir / "images.store"
        synthetic.write_vqa_image_store(records, enc, images)
        rng = np.random.default_rng(self.seed)
        with Store(images) as store:
            self.examples = [objectives.build_vqa_example(
                store, r["image_key"], r["graph"], r["question"], r["answers"], rng, enc,
                max_target_len=SMALL.max_target_len) for r in records]
        self.model = Model(SMALL, seed=self.MODEL_SEED)

    def run_round(self, i):
        t0 = _perf()
        result = evaluation.evaluate(self.model, self.examples, max_decode_len=self.MAX_DECODE)
        elapsed = _perf() - t0
        self.out.ops(len(self.examples), result.n_errors, "examples decoded (EvalResult.n_errors)")
        if self.predictions is None:
            self.predictions = result.predictions
        else:
            self.out.check(result.predictions == self.predictions,
                           "predictions repeat exactly in every round")
        return elapsed

    def final_checks(self):
        """evaluate's predictions equal per-example greedy_decode followed by
        detokenize on a seeded sample; a batched or cached decoder must keep
        this."""
        if len(self.predictions) != len(self.examples):
            self.out.check(False, "every example has a prediction")
            return
        picks = np.random.default_rng(self.seed).choice(
            len(self.examples), size=self.CHECKED, replace=False)
        for j in sorted(int(p) for p in picks):
            ex = self.examples[j]
            tokens = self.model.greedy_decode(ex.fused.rows, ex.fused.modality_ids,
                                              max_len=self.MAX_DECODE)
            self.out.check(tokenizer.detokenize(tokens) == self.predictions[j],
                           f"example {j}: evaluate matches greedy_decode")

    def items_per_s(self):
        return len(self.examples) * len(self.round_s) / sum(self.round_s)

    def named_metrics(self):
        return {"eval_examples_per_s": (self.items_per_s(), "1/s")}

    def properties(self):
        return {"params": _param_count(self.model), "examples": len(self.examples),
                "max_decode_len": self.MAX_DECODE}


# ---------------------------------------------------------------------------
# paper-pipeline
# ---------------------------------------------------------------------------

# the CLI's default model shape, passed explicitly so the workload stays put
PAPER = ModelConfig(d_model=768, n_heads=8, n_encoder_layers=2, n_decoder_layers=2,
                    d_ff=1024, max_target_len=128)
_PAPER_SHAPE = ["--d-model", str(PAPER.d_model), "--n-heads", str(PAPER.n_heads),
                "--enc-layers", str(PAPER.n_encoder_layers),
                "--dec-layers", str(PAPER.n_decoder_layers), "--d-ff", str(PAPER.d_ff),
                "--max-target-len", str(PAPER.max_target_len)]
_OBJECTS = ("dog", "cat", "bird", "car", "tree", "house", "river", "plate",
            "chair", "clock", "lamp", "kite", "boat", "horse", "apple", "stone")
_PREDICATES = ("watching", "chasing", "holding", "pushing", "near", "under")


class PaperPipeline(Workload):
    name = "paper-pipeline"
    VIDEOS = 27
    WINDOWS_PER_VIDEO = 100     # 15-word windows
    SLOW_PER_VIDEO = 25         # below the 30 wpm filter, so 27 * 75 segments are kept
    WINDOW = 15
    QA = 64
    STEPS = 2
    BATCH = 8
    MAX_DECODE = 8
    D = PAPER.d_model
    STUB_SEED = 0
    SAMPLED_KEYS = 16
    STAGE_KEYS = ("segment", "encode_pack", "pretrain", "finetune", "eval")

    def __init__(self, *args):
        super().__init__(*args)
        self.stage_s = {k: [] for k in self.STAGE_KEYS}
        self.store_info = None

    def setup(self):
        inputs = self.workdir / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        with open(inputs / "transcripts.jsonl", "w", encoding="utf-8") as tf, \
                open(inputs / "graphs.jsonl", "w", encoding="utf-8") as gf:
            for v in range(self.VIDEOS):
                vid = f"vid{v:03d}"
                tf.write(json.dumps({"video_id": vid, "lang": "en"}) + "\n")
                # a fixed share of slow windows, so every seed packs as many records
                slow = rng.permutation(self.WINDOWS_PER_VIDEO) < self.SLOW_PER_VIDEO
                t0 = 0.0
                for w in range(self.WINDOWS_PER_VIDEO):
                    wpm = float(rng.uniform(15.0, 25.0) if slow[w] else rng.uniform(35.0, 60.0))
                    for word, s, e in synthetic.make_transcript_words(rng, self.WINDOW, wpm):
                        tf.write(json.dumps({"w": word, "s": t0 + s, "e": t0 + e}) + "\n")
                    t0 += self.WINDOW * 60.0 / wpm
                    subj, obj = rng.choice(len(_OBJECTS), size=2, replace=False)
                    gf.write(json.dumps({
                        "key": f"{vid}:{w * self.WINDOW}",
                        "objects": [_OBJECTS[subj], _OBJECTS[obj]],
                        "relations": [[0, _PREDICATES[rng.integers(len(_PREDICATES))], 1]],
                    }) + "\n")
        records = synthetic.make_mini_vqa(self.QA, seed=self.seed)
        with open(inputs / "vqa.jsonl", "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps({**r, "graph": json.loads(serialize_scene_graph(r["graph"]))})
                        + "\n")
        synthetic.write_vqa_image_store(records, StubEncoders(d=self.D, seed=self.STUB_SEED),
                                        inputs / "images.store")
        self.inputs = inputs

    def _stages(self, rd: Path):
        i = self.inputs
        return [
            ("segment", ["segment", "--transcripts", str(i / "transcripts.jsonl"),
                         "--out", str(rd / "segments.jsonl")],
             [rd / "segments.jsonl"]),
            ("encode_pack", ["encode-pack", "--segments", str(rd / "segments.jsonl"),
                             "--graphs", str(i / "graphs.jsonl"),
                             "--out", str(rd / "embeddings.store"),
                             "--d", str(self.D), "--seed", str(self.STUB_SEED)],
             [rd / "embeddings.store"]),
            ("pretrain", ["pretrain", "--store", str(rd / "embeddings.store"),
                          "--out-dir", str(rd / "pretrain"), "--steps", str(self.STEPS),
                          "--batch-size", str(self.BATCH), *_PAPER_SHAPE],
             [rd / "pretrain" / n for n in ("checkpoint.store", "metrics.jsonl", "summary.json")]),
            ("finetune", ["finetune", "--vqa", str(i / "vqa.jsonl"),
                          "--image-store", str(i / "images.store"),
                          "--checkpoint-in", str(rd / "pretrain" / "checkpoint.store"),
                          "--out-dir", str(rd / "finetune"), "--steps", str(self.STEPS),
                          "--batch-size", str(self.BATCH)],
             [rd / "finetune" / n for n in ("checkpoint.store", "metrics.jsonl", "summary.json")]),
            ("eval", ["eval", "--checkpoint", str(rd / "finetune" / "checkpoint.store"),
                      "--vqa", str(i / "vqa.jsonl"), "--image-store", str(i / "images.store"),
                      "--out-dir", str(rd / "eval"),
                      "--max-decode-len", str(self.MAX_DECODE)],
             [rd / "eval" / "eval.json"]),
        ]

    def run_round(self, i):
        rd = self.workdir / f"round{i}"
        elapsed = 0.0
        for key, argv, artifacts in self._stages(rd):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = _perf()
                rc = cli.main(argv)
                dt = _perf() - t0
            elapsed += dt
            self.stage_s[key].append(dt)
            if rc != 0:
                raise RuntimeError(f"stage {key} exited {rc}: {captured.getvalue()[-300:]}")
            self.out.ops(1)
            self.out.check(all(p.is_file() for p in artifacts), f"stage {key} wrote its artifacts")
        return elapsed

    def after_round(self, i):
        rd = self.workdir / f"round{i}"
        for stage in ("pretrain", "finetune"):
            with open(rd / stage / "metrics.jsonl", encoding="utf-8") as f:
                losses = [json.loads(line)["loss"] for line in f]
            self.out.check(len(losses) == self.STEPS and all(map(math.isfinite, losses)),
                           f"{stage}: every logged loss is finite")
        with open(rd / "eval" / "eval.json", encoding="utf-8") as f:
            ev = json.load(f)
        self.out.ops(self.QA, ev["n_errors"], "eval examples (EvalResult.n_errors)")
        self.out.check(ev["n_examples"] == self.QA, "eval scored every example")
        self._check_store(rd)
        shutil.rmtree(rd)

    def _check_store(self, rd: Path):
        """A seeded sample of get_by_key lookups returns the requested key with
        arrays bitwise equal to a fresh stub encode of the same input."""
        with open(rd / "segments.jsonl", encoding="utf-8") as f:
            segments = {f"{s.video_id}:{s.word_start}": s for s in segmentation.read_segments(f)}
        with open(self.inputs / "graphs.jsonl", encoding="utf-8") as f:
            graphs = read_graph_manifest(f)
        enc = StubEncoders(d=self.D, seed=self.STUB_SEED)
        keys = sorted(segments)
        picks = np.random.default_rng(self.seed).choice(len(keys), size=self.SAMPLED_KEYS,
                                                        replace=False)
        with Store(rd / "embeddings.store") as store:
            self.store_info = {"records": len(store),
                               "file_bytes": (rd / "embeddings.store").stat().st_size}
            for p in sorted(int(p) for p in picks):
                key = keys[p]
                seg = segments[key]
                rec = store.get_by_key(key)
                expect = [("frame", enc.encode_frame(seg.video_id, seg.frame_times[0]).values),
                          ("caption", enc.encode_caption(seg.caption).values),
                          ("scene_graph", enc.encode_graph(graphs[key]).values),
                          ("raw", np.frombuffer(seg.caption.encode("utf-8"),
                                                dtype=np.uint8).astype(np.float32))]
                same = rec.key == key and len(rec.arrays) == len(expect) and all(
                    tag == etag and arr.shape == e.shape and arr.tobytes() == e.tobytes()
                    for (tag, arr), (etag, e) in zip(rec.arrays, expect))
                self.out.check(same, f"get_by_key({key!r}) matches a fresh encode")

    def items_per_s(self):
        return self.QA * len(self.stage_s["eval"]) / sum(self.stage_s["eval"])

    def named_metrics(self):
        m = {"pipeline_s": (statistics.median(self.round_s), "s")}
        for key in self.STAGE_KEYS[1:]:
            m[f"{key}_s"] = (statistics.median(self.stage_s[key]), "s")
        m["eval_examples_per_s"] = (self.items_per_s(), "1/s")
        return m

    def properties(self):
        return {"params": _param_count(Model(PAPER)), "store": self.store_info,
                "qa_examples": self.QA, "steps_per_stage": self.STEPS,
                "batch_size": self.BATCH, "max_decode_len": self.MAX_DECODE,
                "segment_s": statistics.median(self.stage_s["segment"])}


WORKLOADS = {w.name: w for w in (TrainSmall, DecodeLong, PaperPipeline)}
