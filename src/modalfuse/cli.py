"""Command-line surface: segment -> encode-pack -> pretrain -> finetune ->
eval -> ablate -> inspect.

One binary, subcommand style. Each subcommand accepts ``--config FILE`` (JSON
whose keys mirror the long flag names, path arguments included); explicit
flags win over the file, the file wins over defaults. A config key that names
no flag, or whose value does not fit the flag's type, is rejected. Every run
writes its fully resolved configuration, each key of which it reads, next to
its outputs; passed back as ``--config``, that file alone reproduces the run.
``finetune`` starts from ``--checkpoint-in``, and ``pretrain --steps 0`` writes
a fresh seeded model. File outputs are committed with a temp-file + rename so
partial results never appear at final paths.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, objectives, segmentation, synthetic
# save_checkpoint is unused here but stays importable as cli.save_checkpoint,
# where the benchmark's call tracer patches it.
from .backbone import Model, ModelConfig, load_checkpoint, save_checkpoint  # noqa: F401
from .errors import (JSON_TYPE_NAMES, STRICT_JSON, ModalfuseError, RecordParseError,
                     ValidationError, check_fields, is_json_type, json_records)
from .experts import StubEncoders
from .scene_graph import read_graph_manifest, scene_graph_from_dict
from .store import EmbeddingRecord, Store, atomic_commit, row_text, text_row, write_store


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_commit(path) as f:
        f.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Settings: one table per subcommand, flag name -> default. A setting's type is
# the type of its default; a type in place of a default means the default is
# None and a value has that type. The tables build the parser, check --config
# values and list the resolved config.
# ---------------------------------------------------------------------------

# flag -> ModelConfig field; the default model shape is ModelConfig's
_MODEL_FIELDS = {
    "d-model": "d_model", "n-heads": "n_heads", "enc-layers": "n_encoder_layers",
    "dec-layers": "n_decoder_layers", "d-ff": "d_ff", "max-target-len": "max_target_len",
}
_MODEL_DEFAULTS = {flag: getattr(ModelConfig, name) for flag, name in _MODEL_FIELDS.items()}
# flag -> TrainConfig field; the default training settings are TrainConfig's
_TRAIN_FIELDS = {"steps": "steps", "batch-size": "batch_size", "lr": "lr",
                 "weight-decay": "weight_decay", "seed": "seed",
                 "checkpoint-every": "checkpoint_every"}
_TRAIN_DEFAULTS = {**{flag: getattr(objectives.TrainConfig, name)
                      for flag, name in _TRAIN_FIELDS.items()}, "svg": False}
_CHOICES = {"objective": objectives.OBJECTIVES}


def _setting_type(default) -> type:
    return default if isinstance(default, type) else type(default)


def _check_config_value(key: str, value, default, required: bool = False) -> None:
    """SystemExit unless ``value`` fits the setting declared by ``default``.

    An int is accepted for a float setting and kept as written; null only for
    a setting whose default is None and that is not a required path.
    """
    kind = _setting_type(default)
    nullable = kind is default and not required
    if not ((value is None and nullable) or is_json_type(value, kind)):
        expected = JSON_TYPE_NAMES[kind] + (" or null" if nullable else "")
        raise SystemExit(f"config key {key!r} must be {expected}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise SystemExit(f"config key {key!r} must be one of {_CHOICES[key]}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict, paths: dict) -> dict:
    """Merge defaults < config file < explicit flags over the settings and the
    path arguments (strings); reject unknown keys, values that do not fit
    their setting's type and required paths given nowhere."""
    settings = {**defaults, **{flag: str for flag in paths}}
    cfg = {key: None if isinstance(d, type) else d for key, d in settings.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                file_cfg = STRICT_JSON.decode(f.read())
            except ValueError as e:
                raise SystemExit(f"config file {args.config}: {e}") from e
        if not isinstance(file_cfg, dict):
            raise SystemExit(f"config file {args.config} must hold a JSON object, "
                             f"got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(settings)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_value(key, value, settings[key], paths.get(key, False))
        cfg.update(file_cfg)
    for key in settings:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            cfg[key] = val
    missing = [f"--{flag}" for flag, required in paths.items() if required and cfg[flag] is None]
    if missing:
        raise SystemExit(f"the following arguments are required: {', '.join(missing)}")
    return cfg


def _write_resolved(cfg: dict) -> None:
    """The resolved settings and paths, into --out-dir as resolved_config.json
    or beside the --out file as FILE.config.json."""
    target = (Path(cfg["out-dir"]) / "resolved_config.json" if "out-dir" in cfg
              else Path(cfg["out"] + ".config.json"))
    atomic_write_text(target, json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**{name: cfg[flag] for flag, name in _MODEL_FIELDS.items()})


def _loss_chart_svg(metrics: list[dict]) -> str:
    width, height = 640, 360
    losses = [m["loss"] for m in metrics]
    if not losses:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"/>'
    lo, hi = min(losses), max(losses)
    span = (hi - lo) or 1.0
    pts = " ".join(
        f"{10 + i * (width - 20) / max(len(losses) - 1, 1):.1f},"
        f"{height - 10 - (v - lo) / span * (height - 20):.1f}"
        for i, v in enumerate(losses)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        f'<text x="12" y="16" font-size="12">loss: {losses[0]:.3f} -> {losses[-1]:.3f}'
        f' (min {lo:.3f})</text></svg>'
    )


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

_SEGMENT_DEFAULTS = {"window": segmentation.DEFAULT_WINDOW, "stride": int,
                     "min-wpm": segmentation.DEFAULT_MIN_WPM, "k-frames": 1}


def cmd_segment(cfg: dict) -> int:
    # each setting is checked before any read, by the call that takes it, on no data
    segmentation.segment_transcript(segmentation.TimedTranscript("-", ()), cfg["window"],
                                    cfg["stride"])
    segmentation.filter_segments((), cfg["min-wpm"])
    segmentation.sample_frame_times(segmentation.Segment("-", 0, 0, "", 0.0, 0.0),
                                    cfg["k-frames"])
    kept = dropped = 0
    buf = io.StringIO()
    with open(cfg["transcripts"], "rb") as f:
        for transcript in segmentation.read_transcripts(f):
            segs = segmentation.segment_transcript(
                transcript, window=cfg["window"], stride=cfg["stride"])
            keep = segmentation.filter_segments(segs, min_wpm=cfg["min-wpm"])
            dropped += len(segs) - len(keep)
            keep = [segmentation.with_frame_times(s, cfg["k-frames"]) for s in keep]
            kept += segmentation.write_segments(keep, buf)
    atomic_write_text(cfg["out"], buf.getvalue())
    print(f"kept {kept} segments, dropped {dropped} below {cfg['min-wpm']} wpm")
    return 0


# ---------------------------------------------------------------------------
# encode-pack
# ---------------------------------------------------------------------------

# the store's rows feed a model of the default width
_ENCODE_DEFAULTS = {"d": _MODEL_DEFAULTS["d-model"], "seed": 0}

# Segments encoded as one list per modality. A list pays a fixed cost per
# 8 bytes of its longest payload (``experts.hash_many``), spread over the
# segments; its rows are live until their records are written.
_ENCODE_CHUNK = 256


def _chunks(items, n: int):
    """Lists of up to ``n`` consecutive items."""
    it = iter(items)
    while chunk := list(itertools.islice(it, n)):
        yield chunk


def cmd_encode_pack(cfg: dict) -> int:
    encoders = StubEncoders(d=cfg["d"], seed=cfg["seed"])
    graphs = {}
    if cfg["graphs"]:
        with open(cfg["graphs"], "rb") as f:
            graphs = read_graph_manifest(f)
    missing_graphs = 0

    def records():
        nonlocal missing_graphs
        with open(cfg["segments"], "rb") as f:
            for chunk in _chunks(segmentation.read_segments(f), _ENCODE_CHUNK):
                keys = [f"{seg.video_id}:{seg.word_start}" for seg in chunk]
                corpus = [(seg, graphs.get(key)) for seg, key in zip(chunk, keys)]
                rows = objectives.corpus_rows(corpus, [seg.caption for seg in chunk], encoders)
                for seg, key, (frame_rows, caption_row, graph_row) in zip(chunk, keys, rows):
                    arrays = [("frame", row) for row in frame_rows]
                    arrays.append(("caption", caption_row))
                    if graph_row is None:
                        missing_graphs += 1
                    else:
                        arrays.append(("scene_graph", graph_row))
                    arrays.append(("raw", text_row(seg.caption)))
                    yield EmbeddingRecord(key, tuple(arrays))

    summary = write_store(records(), cfg["out"], encoders)
    print(f"packed {summary.count} records into {summary.path} "
          f"({summary.file_bytes} bytes); {missing_graphs} segments without a scene graph")
    return 0


class _StoreExamples:
    """The pretraining examples of an encode-pack store, one per record
    ``objective`` trains on, each built from its record when indexed: a
    store read, then, for split_half, the first half encoded as a one-row list
    with the encoders the store names. Construction reads and checks every
    record once, so a bad record raises before any step; it counts the
    records skipped (split_half skips one-word captions) and the targets cut
    to fit max_target_len, and keeps the indexes of the rest."""

    def __init__(self, store: Store, objective: str, model_cfg: ModelConfig):
        self.store, self.objective, self.max_len = store, objective, model_cfg.max_target_len
        self.encoders, self.indexes = store.encoders(model_cfg.d_model), []
        self.skipped = self.truncated = 0
        for i in range(len(store)):
            frames, caption, rows = self._read(i)
            if objective == "split_half" and len(caption.split(" ")) < 2:
                self.skipped += 1
            else:   # the stored caption row stands in for the split_half text row
                self.truncated += self._example(frames, caption, rows, rows["caption"]).truncated
                self.indexes.append(i)

    def _read(self, i: int):
        rec = self.store.get(i)
        frames = [arr.reshape(-1) for tag, arr in rec.arrays if tag == "frame"]
        rows = {tag: arr.reshape(-1) for tag, arr in rec.arrays if tag != "frame"}
        if "caption" not in rows or "raw" not in rows:
            raise ValidationError(f"record {rec.key!r} has no caption row or caption text")
        return frames, row_text(rows["raw"], rec.key), rows

    def _example(self, frames, caption: str, rows: dict, text_row) -> objectives.PretrainExample:
        fused = objectives.fused_input(frames, text_row, "caption", rows.get("scene_graph"))
        return objectives.pretrain_example(self.objective, caption, fused, self.max_len)

    def __len__(self) -> int:
        return len(self.indexes)

    def __getitem__(self, i: int) -> objectives.PretrainExample:
        frames, caption, rows = self._read(self.indexes[i])
        text_row = rows["caption"]
        if self.objective == "split_half":
            first = objectives.objective_texts(self.objective, caption)[0]
            text_row = self.encoders.encode_captions([first])[0]
        return self._example(frames, caption, rows, text_row)


# ---------------------------------------------------------------------------
# pretrain / finetune
# ---------------------------------------------------------------------------

_PRETRAIN_DEFAULTS = {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS, "objective": "split_half"}


def cmd_pretrain(cfg: dict) -> int:
    run_dir = Path(cfg["out-dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = _model_config(cfg)
    model = Model.__new__(Model)._build(model_cfg, np.float32)
    with Store(cfg["store"]) as store:   # open until training ends: it builds each batch
        drawing = model._draw(cfg["seed"])   # on the worker, for a large model, during the check
        try:
            examples = _StoreExamples(store, cfg["objective"], model_cfg)
        finally:
            drawing.result()
        skipped = examples.skipped
        if skipped:
            if not examples:
                raise ValidationError(f"split_half needs captions of at least 2 words; "
                                      f"all {skipped} records have one")
            print(f"warning: skipped {skipped} of {skipped + len(examples)} records whose "
                  f"caption has one word (split_half needs at least 2)", file=sys.stderr)
        final_loss = _run_training(model, examples, cfg, run_dir, examples.truncated, skipped)
    print(f"pretrained {cfg['steps']} steps{final_loss}")
    return 0


def _run_training(model, examples, cfg, run_dir: Path, truncated: int, skipped: int = 0) -> str:
    """Train, write the run's files, and return "; final loss X" ("" for 0 steps);
    ``truncated`` counts the examples whose target was cut, ``skipped`` the
    input records that gave no example."""
    ckpt = run_dir / "checkpoint.store"
    train_cfg = objectives.TrainConfig(
        **{name: cfg[flag] for flag, name in _TRAIN_FIELDS.items()}, checkpoint_path=str(ckpt))
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as mf:
        metrics = objectives.train(examples, model, train_cfg, metrics_fp=mf)
    final_loss = metrics[-1]["loss"] if metrics else None
    if truncated:
        n = model.config.max_target_len
        print(f"warning: {truncated} of {len(examples)} targets cut to max-target-len {n}"
              f" ({n - 2} bytes of text)", file=sys.stderr)
    summary = {"steps": cfg["steps"], "final_loss": final_loss, "checkpoint": str(ckpt),
               "truncated_targets": truncated, "skipped_records": skipped}
    atomic_write_text(run_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    if cfg["svg"]:
        atomic_write_text(run_dir / "loss.svg", _loss_chart_svg(metrics))
    return "" if final_loss is None else f"; final loss {final_loss:.4f}"


_VQA_FIELDS = {"image_key": str, "question": str, "answers": [str]}


def _load_vqa_records(path: str) -> list[dict]:
    """The {image_key, question, answers, graph} records of a VQA JSONL file."""
    records = []
    with open(path, "rb") as f:
        for lineno, rec in json_records(f, "VQA"):
            if not _VQA_FIELDS.keys() <= rec.keys():
                raise RecordParseError("VQA record needs 'image_key', 'question' and 'answers'",
                                       line=lineno)
            check_fields(rec, _VQA_FIELDS, "VQA", lineno)
            if len(rec["answers"]) != 10:
                raise RecordParseError(f"expected 10 human answers, got {len(rec['answers'])}",
                                       line=lineno)
            if rec.get("graph") is not None:
                rec["graph"] = scene_graph_from_dict(rec["graph"], line=lineno)
            records.append(rec)
    return records


def _vqa_examples(cfg: dict, model_cfg: ModelConfig, seed: int) -> list[objectives.VqaExample]:
    """The --vqa records as examples, targets drawn by ``seed``, filtered by --yes-no-only."""
    records = _load_vqa_records(cfg["vqa"])
    if not records:
        raise ValidationError(f"{cfg['vqa']} holds no VQA records")
    with Store(cfg["image-store"]) as images:
        examples = objectives.vqa_examples(records, images, images.encoders(model_cfg.d_model),
                                           np.random.default_rng(seed), cfg["graph"],
                                           model_cfg.max_target_len)
    return evaluation.yes_no_examples(examples) if cfg["yes-no-only"] else examples


_FINETUNE_DEFAULTS = {**_TRAIN_DEFAULTS, "steps": 100, "yes-no-only": False, "graph": True}


def cmd_finetune(cfg: dict) -> int:
    run_dir = Path(cfg["out-dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    model = load_checkpoint(cfg["checkpoint-in"])
    examples = _vqa_examples(cfg, model.config, cfg["seed"])
    final_loss = _run_training(model, examples, cfg, run_dir,
                               sum(e.truncated for e in examples))
    print(f"finetuned {cfg['steps']} steps on {len(examples)} examples{final_loss}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_DEFAULTS = {"graph": True, "yes-no-only": False, "max-decode-len": evaluation.EVAL_DECODE_LEN}


def cmd_eval(cfg: dict) -> int:
    model = load_checkpoint(cfg["checkpoint"])
    examples = _vqa_examples(cfg, model.config, seed=0)   # evaluate reads no target
    result = evaluation.evaluate(model, examples, max_decode_len=cfg["max-decode-len"])
    run_dir = Path(cfg["out-dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "mean_accuracy": result.mean_accuracy,
        "n_examples": len(result.per_example),
        "n_errors": result.n_errors,
        "errors": [asdict(e) for e in result.errors],
        "collapse_flag": result.collapse.collapsed,
        "top_answer_share": result.collapse.top_share,
        "entropy_nats": result.collapse.entropy_nats,
        "histogram": result.collapse.histogram,
    }
    atomic_write_text(run_dir / "eval.json", json.dumps(summary, indent=2) + "\n")
    print(f"accuracy {result.mean_accuracy:.4f} over {len(result.per_example)} examples; "
          f"collapse={'yes' if result.collapse.collapsed else 'no'} "
          f"(top share {result.collapse.top_share:.2f})")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

_ABLATE_DEFAULTS = {
    **_MODEL_DEFAULTS,
    **{flag: _TRAIN_DEFAULTS[flag] for flag in ("batch-size", "lr", "seed")}, "stub-seed": 0,
    "n-segments": 64, "n-vqa": 32, "pretrain-steps": 50, "finetune-steps": 50,
}


def cmd_ablate(cfg: dict) -> int:
    run_dir = Path(cfg["out-dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = _model_config(cfg)
    for steps in (cfg["pretrain-steps"], cfg["finetune-steps"]):   # refused before any work
        objectives.TrainConfig(steps=steps, batch_size=cfg["batch-size"], lr=cfg["lr"])
    encoders = StubEncoders(d=model_cfg.d_model, seed=cfg["stub-seed"])
    corpus = synthetic.make_leakage_corpus(n_segments=cfg["n-segments"],
                                           seed=cfg["seed"])
    vqa_records = synthetic.make_mini_vqa(n_examples=cfg["n-vqa"], seed=cfg["seed"])
    image_store_path = run_dir / "images.store"
    synthetic.write_vqa_image_store(vqa_records, encoders, image_store_path)
    with Store(image_store_path) as image_store:
        rows = evaluation.run_ablation(
            model_cfg, corpus, vqa_records, image_store, pretrain_steps=cfg["pretrain-steps"],
            finetune_steps=cfg["finetune-steps"], seed=cfg["seed"], batch_size=cfg["batch-size"],
            lr=cfg["lr"])
    buf = io.StringIO()
    evaluation.write_ablation_table(rows, buf)
    atomic_write_text(run_dir / "ablation.tsv", buf.getvalue())
    print(buf.getvalue(), end="")
    failed = [r.label for r in rows if r.status != "ok"]
    if failed:
        print(f"error: {len(failed)} of {len(rows)} ablation rows failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    with Store(args.store) as store:
        info = store.inspect()
    print(f"{info['path']}: version {info['version']}, {info['count']} records, "
          f"{info['file_bytes']} bytes")
    enc = info["encoders"]
    print(f"stub encoders: d={enc['d']}, seed={enc['seed']}" if enc else "no encoders")
    for rec in info["records"]:
        shapes = ", ".join(f"{tag}{shape}" for tag, shape in rec["arrays"])
        print(f"  {rec['key']}: {shapes}")
    return 0


# ---------------------------------------------------------------------------

# name -> (help, handler, path arguments {flag: required}, settings or None); the
# handler takes the resolved config, or the parsed arguments where settings is None
_COMMANDS = {
    "segment": ("window transcripts into word-dense segments", cmd_segment,
                {"transcripts": True, "out": True}, _SEGMENT_DEFAULTS),
    "encode-pack": ("encode segments and pack a store", cmd_encode_pack,
                    {"segments": True, "graphs": False, "out": True}, _ENCODE_DEFAULTS),
    "pretrain": ("train on packed caption segments", cmd_pretrain,
                 {"store": True, "out-dir": True}, _PRETRAIN_DEFAULTS),
    "finetune": ("finetune on a question-answering set", cmd_finetune,
                 {"checkpoint-in": True, "vqa": True, "image-store": True, "out-dir": True},
                 _FINETUNE_DEFAULTS),
    "eval": ("evaluate a checkpoint", cmd_eval,
             {"checkpoint": True, "vqa": True, "image-store": True, "out-dir": True},
             _EVAL_DEFAULTS),
    "ablate": ("run the ablation grid on synthetic data", cmd_ablate,
               {"out-dir": True}, _ABLATE_DEFAULTS),
    "inspect": ("print store header and record shapes", cmd_inspect,
                {"store": True}, None),
}


@functools.cache   # one per process: parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modalfuse")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, paths, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, required in paths.items():
            # with --config, a required path may come from the file instead
            p.add_argument(f"--{flag}", required=required and defaults is None)
        if defaults is None:
            continue
        p.add_argument("--config")
        for flag, default in defaults.items():
            kind = _setting_type(default)
            if kind is bool:
                p.add_argument(f"--{flag}", action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(f"--{flag}", type=kind, choices=_CHOICES.get(flag))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, handler, paths, defaults = _COMMANDS[args.command]
    try:
        if defaults is None:
            return handler(args)
        cfg = _resolve(args, defaults, paths)
        rc = handler(cfg)
        if rc == 0:
            _write_resolved(cfg)
        return rc
    except (ModalfuseError, OSError, ValueError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
