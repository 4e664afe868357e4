"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest benchmarks

They are outside ``tests/`` so the Tier-1 suite does not collect them.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from modalfuse import backbone, cli  # noqa: E402
from modalfuse.synthetic import make_transcript_words  # noqa: E402

TINY = ["--d-model", "16", "--n-heads", "2", "--enc-layers", "1", "--dec-layers", "1",
        "--d-ff", "32", "--max-target-len", "32"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: when only some segments have a scene graph, pretrain exits 1 "
    "with 'cannot batch examples with differing row counts: [2, 3]' from "
    "objectives.collate via cli._examples_from_store; the paper-pipeline "
    "workload gives every segment a graph for this reason"))
def test_pretrain_accepts_partial_graph_coverage(tmp_path, capsys):
    rng = np.random.default_rng(0)
    with open(tmp_path / "transcripts.jsonl", "w", encoding="utf-8") as tf, \
            open(tmp_path / "graphs.jsonl", "w", encoding="utf-8") as gf:
        for v in range(2):
            tf.write(json.dumps({"video_id": f"vid{v}", "lang": "en"}) + "\n")
            for w, s, e in make_transcript_words(rng, 8 * 15, wpm=45.0):
                tf.write(json.dumps({"w": w, "s": s, "e": e}) + "\n")
            for k in range(0, 8 * 15, 30):    # a graph for every other segment
                gf.write(json.dumps({"key": f"vid{v}:{k}", "objects": ["dog", "cat"],
                                     "relations": [[0, "chasing", 1]]}) + "\n")
    for argv in (["segment", "--transcripts", str(tmp_path / "transcripts.jsonl"),
                  "--out", str(tmp_path / "segments.jsonl")],
                 ["encode-pack", "--segments", str(tmp_path / "segments.jsonl"),
                  "--graphs", str(tmp_path / "graphs.jsonl"),
                  "--out", str(tmp_path / "emb.store"), "--d", "16"]):
        if cli.main(argv) != 0:
            pytest.fail(f"{argv[0]} failed: {capsys.readouterr().err}")

    rc = cli.main(["pretrain", "--store", str(tmp_path / "emb.store"),
                   "--out-dir", str(tmp_path / "pre"), "--steps", "1",
                   "--batch-size", "16", *TINY])
    err = capsys.readouterr().err
    if rc != 0 and "differing row counts" not in err:
        pytest.fail(f"pretrain failed for another reason: {err}")
    assert rc == 0, err


def test_tracer_self_time_and_uninstall():
    """Self time is a span's duration minus its children's; uninstall puts
    every original back."""
    orig_forward = backbone.Linear.forward
    orig_main = cli.main
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert backbone.Linear.forward is not orig_forward
        model = backbone.Model(backbone.ModelConfig(
            d_model=8, n_heads=2, n_encoder_layers=1, n_decoder_layers=1, d_ff=16,
            max_target_len=8), seed=0)
        model.greedy_decode(np.zeros((2, 8)), np.array([0, 1]), max_len=4)
    finally:
        tracer.uninstall()
    assert backbone.Linear.forward is orig_forward and cli.main is orig_main

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    for i, s in enumerate(spans):
        children = [c for c in spans if c[tracing.PARENT] == i]
        duration = s[tracing.END] - s[tracing.START]
        assert selfs[i] == pytest.approx(
            duration - sum(c[tracing.END] - c[tracing.START] for c in children))
        assert 0 <= selfs[i] <= duration
    m = tracing.per_layer_metrics(spans, rounds=1)
    assert m["backbone.decode_tokens_per_example"] == 3
    assert m["backbone.decode_positions_per_token"] == 2    # prefixes of 1, 2, 3
    assert m["backbone.forward_ms"] == 0.0    # no training step ran


def test_metric_names_match_benchmark_json():
    import workloads
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
