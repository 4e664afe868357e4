"""Command-line surface: segment -> encode-pack -> pretrain -> finetune ->
eval -> ablate -> inspect.

One binary, subcommand style. Each subcommand accepts ``--config FILE`` (JSON
whose keys mirror the long flag names); explicit flags win over the file, the
file wins over defaults, and unknown config keys are rejected. Every run
writes its fully resolved configuration next to its outputs so the run is
reproducible from that file alone. File outputs are committed with a
temp-file + rename so partial results never appear at final paths.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, objectives, segmentation, synthetic
# save_checkpoint is unused here but stays importable as cli.save_checkpoint,
# where the benchmark's call tracer patches it.
from .backbone import Model, ModelConfig, load_checkpoint, save_checkpoint  # noqa: F401
from .errors import ModalfuseError, ValidationError
from .experts import Embedding, StubEncoders
from .scene_graph import SceneGraph, read_graph_manifest
from .store import EmbeddingRecord, Store, atomic_commit, write_store


def atomic_write_text(path: Path, text: str) -> None:
    with atomic_commit(path) as f:
        f.write(text.encode("utf-8"))


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags; reject unknown keys."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as f:
            file_cfg = json.load(f)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_resolved(cfg: dict, out_path: Path, name: str = "resolved_config.json"):
    target = out_path / name if out_path.is_dir() or not out_path.suffix \
        else out_path.with_suffix(out_path.suffix + ".config.json")
    if target == out_path:
        target = out_path.parent / name
    atomic_write_text(target, json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        d_model=cfg["d-model"],
        n_heads=cfg["n-heads"],
        n_encoder_layers=cfg["enc-layers"],
        n_decoder_layers=cfg["dec-layers"],
        d_ff=cfg["d-ff"],
        max_target_len=cfg["max-target-len"],
    )


_MODEL_DEFAULTS = {
    "d-model": 768, "n-heads": 8, "enc-layers": 2, "dec-layers": 2,
    "d-ff": 1024, "max-target-len": 128,
}


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--d-model", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--enc-layers", type=int)
    p.add_argument("--dec-layers", type=int)
    p.add_argument("--d-ff", type=int)
    p.add_argument("--max-target-len", type=int)


def _loss_chart_svg(metrics: list[dict], width: int = 640, height: int = 360) -> str:
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

_SEGMENT_DEFAULTS = {"window": 15, "stride": None, "min-wpm": 30.0, "k-frames": 1}


def cmd_segment(args) -> int:
    cfg = _resolve(args, _SEGMENT_DEFAULTS)
    out = Path(args.out)
    kept = dropped = 0
    buf = io.StringIO()
    with open(args.transcripts, encoding="utf-8") as f:
        for transcript in segmentation.read_transcripts(f):
            segs = segmentation.segment_transcript(
                transcript, window=cfg["window"], stride=cfg["stride"])
            keep = segmentation.filter_segments(segs, min_wpm=cfg["min-wpm"])
            dropped += len(segs) - len(keep)
            keep = [segmentation.with_frame_times(s, cfg["k-frames"]) for s in keep]
            kept += segmentation.write_segments(keep, buf)
    atomic_write_text(out, buf.getvalue())
    _write_resolved({**cfg, "transcripts": str(args.transcripts), "out": str(out)}, out)
    print(f"kept {kept} segments, dropped {dropped} below {cfg['min-wpm']} wpm")
    return 0


# ---------------------------------------------------------------------------
# encode-pack
# ---------------------------------------------------------------------------

_ENCODE_DEFAULTS = {"d": 768, "seed": 0}


def cmd_encode_pack(args) -> int:
    cfg = _resolve(args, _ENCODE_DEFAULTS)
    encoders = StubEncoders(d=cfg["d"], seed=cfg["seed"])
    graphs = {}
    if args.graphs:
        with open(args.graphs, encoding="utf-8") as f:
            graphs = read_graph_manifest(f)
    missing_graphs = 0

    def records():
        nonlocal missing_graphs
        with open(args.segments, encoding="utf-8") as f:
            for seg in segmentation.read_segments(f):
                key = f"{seg.video_id}:{seg.word_start}"
                if not seg.frame_times:
                    raise ValidationError(f"segment {key!r} lists no frame times")
                arrays = [("frame", encoders.encode_frame(seg.video_id, t).values)
                          for t in seg.frame_times]
                arrays.append(("caption", encoders.encode_caption(seg.caption).values))
                graph = graphs.get(key)
                if graph is not None:
                    arrays.append(("scene_graph", encoders.encode_graph(graph).values))
                else:
                    missing_graphs += 1
                caption_bytes = np.frombuffer(seg.caption.encode("utf-8"),
                                              dtype=np.uint8).astype(np.float32)
                arrays.append(("raw", caption_bytes))
                yield EmbeddingRecord(key, tuple(arrays))

    summary = write_store(records(), args.out)
    _write_resolved({**cfg, "segments": str(args.segments),
                     "graphs": str(args.graphs) if args.graphs else None,
                     "out": str(args.out)}, Path(args.out))
    print(f"packed {summary.count} records into {summary.path} "
          f"({summary.file_bytes} bytes); {missing_graphs} segments without a scene graph")
    return 0


def _examples_from_store(store: Store, objective: str, encoders: StubEncoders,
                         max_target_len: int) -> list[objectives.PretrainExample]:
    """One example per encode-pack record; split_half skips one-word captions."""
    out = []
    for i in range(len(store)):
        rec = store.get(i)
        frames = [Embedding(arr.reshape(-1), "frame") for tag, arr in rec.arrays if tag == "frame"]
        rows = {tag: arr.reshape(-1) for tag, arr in rec.arrays if tag != "frame"}
        if "caption" not in rows or "raw" not in rows:
            raise ValidationError(f"record {rec.key!r} has no caption row or caption text")
        caption = bytes(rows["raw"].astype(np.uint8)).decode("utf-8")
        if objective == "split_half" and len(caption.split(" ")) < 2:
            continue
        graph = rows.get("scene_graph")
        out.append(objectives.build_pretrain_example(
            objective, frames, caption, Embedding(rows["caption"], "caption"),
            None if graph is None else Embedding(graph, "scene_graph"),
            encoders, max_target_len))
    return out


# ---------------------------------------------------------------------------
# pretrain / finetune
# ---------------------------------------------------------------------------

_PRETRAIN_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "objective": "split_half", "steps": 500, "batch-size": 16, "lr": 1e-4,
    "weight-decay": 0.0, "seed": 0, "stub-seed": 0, "checkpoint-every": 0,
}


def cmd_pretrain(args) -> int:
    cfg = _resolve(args, _PRETRAIN_DEFAULTS)
    if cfg["objective"] not in objectives.OBJECTIVES:
        raise SystemExit(f"objective must be one of {objectives.OBJECTIVES}")
    run_dir = Path(args.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = _model_config(cfg)
    encoders = StubEncoders(d=cfg["d-model"], seed=cfg["stub-seed"])
    with Store(args.store) as store:
        examples = _examples_from_store(store, cfg["objective"], encoders,
                                        model_cfg.max_target_len)
    model = Model(model_cfg, seed=cfg["seed"])
    metrics = _run_training(model, examples, cfg, run_dir, args.svg)
    _write_resolved({**cfg, "store": str(args.store), "out_dir": str(run_dir)},
                    run_dir)
    print(f"pretrained {cfg['steps']} steps; final loss {metrics[-1]['loss']:.4f}")
    return 0


def _run_training(model, examples, cfg, run_dir: Path, svg: bool) -> list[dict]:
    ckpt = run_dir / "checkpoint.store"
    with open(run_dir / "metrics.jsonl", "w", encoding="utf-8") as mf:
        metrics = objectives.train(
            examples, model,
            objectives.TrainConfig(
                steps=cfg["steps"], batch_size=cfg["batch-size"], lr=cfg["lr"],
                weight_decay=cfg["weight-decay"], seed=cfg["seed"],
                checkpoint_every=cfg.get("checkpoint-every", 0),
                checkpoint_path=str(ckpt),
            ),
            metrics_fp=mf,
        )
    summary = {"steps": cfg["steps"], "final_loss": metrics[-1]["loss"] if metrics else None,
               "checkpoint": str(ckpt)}
    atomic_write_text(run_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    if svg:
        atomic_write_text(run_dir / "loss.svg", _loss_chart_svg(metrics))
    return metrics


def _load_vqa_records(path: str) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("graph") is not None:
                rec["graph"] = SceneGraph(
                    objects=tuple(rec["graph"]["objects"]),
                    relations=tuple(tuple(r) for r in rec["graph"]["relations"]),
                )
            records.append(rec)
    return records


def _vqa_examples(args, cfg: dict, model_cfg: ModelConfig) -> list[objectives.VqaExample]:
    """The --vqa records as examples, seeded by --seed, filtered by --yes-no-only."""
    encoders = StubEncoders(d=model_cfg.d_model, seed=cfg["stub-seed"])
    records = _load_vqa_records(args.vqa)
    rng = np.random.default_rng(cfg["seed"])
    with Store(args.image_store) as image_store:
        examples = [
            objectives.build_vqa_example(
                image_store, r["image_key"], r.get("graph"), r["question"],
                r["answers"], rng, encoders, include_graph=cfg["graph"],
                max_target_len=model_cfg.max_target_len)
            for r in records
        ]
    if cfg["yes-no-only"]:
        examples = [e for e in examples if evaluation.is_yes_no(e)]
        if not examples:
            raise ValidationError(f"--yes-no-only: {args.vqa} has no yes/no questions")
    return examples


_FINETUNE_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "steps": 100, "batch-size": 16, "lr": 1e-4, "weight-decay": 0.0,
    "seed": 0, "stub-seed": 0, "checkpoint-every": 0,
    "yes-no-only": False, "graph": True,
}


def cmd_finetune(args) -> int:
    cfg = _resolve(args, _FINETUNE_DEFAULTS)
    run_dir = Path(args.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.checkpoint_in:
        model = load_checkpoint(args.checkpoint_in)
        model_cfg = model.config
    else:
        model_cfg = _model_config(cfg)
        model = Model(model_cfg, seed=cfg["seed"])
    examples = _vqa_examples(args, cfg, model_cfg)
    metrics = _run_training(model, examples, cfg, run_dir, args.svg)
    _write_resolved({**cfg, "vqa": str(args.vqa),
                     "image_store": str(args.image_store),
                     "checkpoint_in": args.checkpoint_in,
                     "out_dir": str(run_dir)}, run_dir)
    print(f"finetuned {cfg['steps']} steps on {len(examples)} examples; "
          f"final loss {metrics[-1]['loss']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_DEFAULTS = {"seed": 0, "stub-seed": 0, "graph": True, "yes-no-only": False,
                  "max-decode-len": 16}


def cmd_eval(args) -> int:
    cfg = _resolve(args, _EVAL_DEFAULTS)
    if not Path(args.checkpoint).exists():
        print(f"checkpoint not found: {args.checkpoint}", file=sys.stderr)
        return 1
    model = load_checkpoint(args.checkpoint)
    examples = _vqa_examples(args, cfg, model.config)
    result = evaluation.evaluate(model, examples, max_decode_len=cfg["max-decode-len"])
    run_dir = Path(args.out_dir)
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
    _write_resolved({**cfg, "checkpoint": str(args.checkpoint), "vqa": str(args.vqa),
                     "image_store": str(args.image_store), "out_dir": str(run_dir)},
                    run_dir)
    print(f"accuracy {result.mean_accuracy:.4f} over {len(result.per_example)} examples; "
          f"collapse={'yes' if result.collapse.collapsed else 'no'} "
          f"(top share {result.collapse.top_share:.2f})")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

_ABLATE_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "n-segments": 64, "n-vqa": 32, "pretrain-steps": 50, "finetune-steps": 50,
    "batch-size": 16, "lr": 1e-4, "seed": 0, "stub-seed": 0,
}


def cmd_ablate(args) -> int:
    cfg = _resolve(args, _ABLATE_DEFAULTS)
    run_dir = Path(args.out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = _model_config(cfg)
    encoders = StubEncoders(d=model_cfg.d_model, seed=cfg["stub-seed"])
    corpus = synthetic.make_leakage_corpus(n_segments=cfg["n-segments"],
                                           seed=cfg["seed"])
    vqa_records = synthetic.make_mini_vqa(n_examples=cfg["n-vqa"], seed=cfg["seed"])
    image_store_path = run_dir / "images.store"
    synthetic.write_vqa_image_store(vqa_records, encoders, image_store_path)
    grid = evaluation.default_ablation_grid(
        pretrain_steps=cfg["pretrain-steps"], finetune_steps=cfg["finetune-steps"],
        seed=cfg["seed"])
    with Store(image_store_path) as image_store:
        rows = evaluation.run_ablation(grid, model_cfg, corpus, vqa_records,
                                       image_store, encoders,
                                       batch_size=cfg["batch-size"], lr=cfg["lr"])
    buf = io.StringIO()
    evaluation.write_ablation_table(rows, buf)
    atomic_write_text(run_dir / "ablation.tsv", buf.getvalue())
    atomic_write_text(run_dir / "ablation.jsonl",
                      "".join(json.dumps(asdict(r)) + "\n" for r in rows))
    _write_resolved({**cfg, "out_dir": str(run_dir)}, run_dir)
    print(buf.getvalue(), end="")
    return 0


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    with Store(args.store) as store:
        info = store.inspect()
    print(f"{info['path']}: version {info['version']}, {info['count']} records, "
          f"{info['file_bytes']} bytes")
    for rec in info["records"]:
        shapes = ", ".join(f"{tag}{shape}" for tag, shape in rec["arrays"])
        print(f"  {rec['key']}: {shapes}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modalfuse")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="window transcripts into word-dense segments")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--min-wpm", type=float)
    p.add_argument("--k-frames", type=int)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("encode-pack", help="encode segments and pack a store")
    p.add_argument("--segments", required=True)
    p.add_argument("--graphs")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_encode_pack)

    p = sub.add_parser("pretrain", help="train on packed caption segments")
    p.add_argument("--store", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--objective", choices=list(objectives.OBJECTIVES))
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--stub-seed", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--svg", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="finetune on a question-answering set")
    p.add_argument("--vqa", required=True)
    p.add_argument("--image-store", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint-in")
    p.add_argument("--config")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--stub-seed", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--yes-no-only", action=argparse.BooleanOptionalAction)
    p.add_argument("--graph", action=argparse.BooleanOptionalAction)
    p.add_argument("--svg", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vqa", required=True)
    p.add_argument("--image-store", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--stub-seed", type=int)
    p.add_argument("--graph", action=argparse.BooleanOptionalAction)
    p.add_argument("--yes-no-only", action=argparse.BooleanOptionalAction)
    p.add_argument("--max-decode-len", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation grid on synthetic data")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--n-segments", type=int)
    p.add_argument("--n-vqa", type=int)
    p.add_argument("--pretrain-steps", type=int)
    p.add_argument("--finetune-steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--stub-seed", type=int)
    _add_model_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("inspect", help="print store header and record shapes")
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModalfuseError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
