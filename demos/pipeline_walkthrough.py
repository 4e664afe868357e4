"""End-to-end walkthrough: transcripts -> segments -> packed store ->
pretraining -> question-answering finetune -> evaluation.

Runs the CLI the same way a shell user would, on synthetic data, and prints
the artifacts at each stage. Everything lands in a temporary directory that
is removed at exit.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from modalfuse.cli import main
from modalfuse.experts import StubEncoders
from modalfuse.scene_graph import serialize_scene_graph
from modalfuse.synthetic import (make_mini_vqa, make_transcript_words,
                                 write_vqa_image_store)

TINY = ["--d-model", "64", "--n-heads", "4", "--enc-layers", "1",
        "--dec-layers", "1", "--d-ff", "128", "--max-target-len", "64"]


def run(argv):
    print(f"\n$ modalfuse {' '.join(argv)}")
    rc = main(argv)
    assert rc == 0, f"exit code {rc}"


def main_demo():
    with tempfile.TemporaryDirectory(prefix="modalfuse-demo-") as root:
        walkthrough(Path(root))


def walkthrough(root: Path):
    print(f"working in {root}")

    # 1. synthesize timed transcripts: a header line per video, then one
    #    {word, start, end} record per spoken word
    transcripts = root / "transcripts.jsonl"
    rng = np.random.default_rng(0)
    with open(transcripts, "w", encoding="utf-8") as f:
        for v in range(4):
            f.write(json.dumps({"video_id": f"vid{v}", "lang": "en"}) + "\n")
            for w, s, e in make_transcript_words(rng, 60, wpm=45.0):
                f.write(json.dumps({"w": w, "s": s, "e": e}) + "\n")

    segments = root / "segments.jsonl"
    run(["segment", "--transcripts", str(transcripts), "--out", str(segments)])

    store = root / "embeddings.store"
    run(["encode-pack", "--segments", str(segments), "--out", str(store),
         "--d", "64"])
    run(["inspect", "--store", str(store)])

    # 2. pretrain on the packed captions with the non-leaky split-half
    #    objective, then look at the loss curve artifacts
    pre = root / "runs" / "pretrain"
    run(["pretrain", "--store", str(store), "--out-dir", str(pre),
         "--objective", "split_half", "--steps", "30", "--batch-size", "8",
         "--lr", "1e-3", "--svg", *TINY])
    print(f"  wrote {sorted(p.name for p in pre.iterdir())}")

    # 3. a tiny question-answering set with stub image embeddings
    records = make_mini_vqa(16, seed=0)
    vqa = root / "vqa.jsonl"
    with open(vqa, "w", encoding="utf-8") as f:
        for rec in records:
            out = dict(rec)
            out["graph"] = json.loads(serialize_scene_graph(rec["graph"]))
            f.write(json.dumps(out) + "\n")
    images = root / "images.store"
    write_vqa_image_store(records, StubEncoders(d=64, seed=0), images)

    fin = root / "runs" / "finetune"
    run(["finetune", "--vqa", str(vqa), "--image-store", str(images),
         "--checkpoint-in", str(pre / "checkpoint.store"),
         "--out-dir", str(fin), "--steps", "200", "--batch-size", "8",
         "--lr", "1e-3"])

    ev = root / "runs" / "eval"
    run(["eval", "--checkpoint", str(fin / "checkpoint.store"),
         "--vqa", str(vqa), "--image-store", str(images),
         "--out-dir", str(ev), "--max-decode-len", "8"])
    print("\neval.json:")
    print((ev / "eval.json").read_text())


if __name__ == "__main__":
    main_demo()
