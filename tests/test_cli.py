import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from modalfuse import backbone, cli, evaluation, objectives, worker
from modalfuse.backbone import Model, ModelConfig, load_checkpoint, save_checkpoint
from modalfuse.cli import main
from modalfuse.errors import ConfigError, json_records
from modalfuse.experts import StubEncoders
from modalfuse.scene_graph import SceneGraph, read_graph_manifest, serialize_scene_graph
from modalfuse.segmentation import read_segments
from modalfuse.store import EmbeddingRecord, Store, write_store
from modalfuse.synthetic import (make_mini_vqa, make_transcript_words,
                                  write_vqa_image_store)
from modalfuse.tokenizer import tokenize

TINY_MODEL = ["--d-model", "32", "--n-heads", "4", "--enc-layers", "1",
              "--dec-layers", "1", "--d-ff", "64", "--max-target-len", "32"]
TINY_CONFIG = ModelConfig(d_model=32, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                          d_ff=64, max_target_len=32)


def write_transcripts(path, n_videos=2, words_per_video=40, wpm=45.0):
    with open(path, "w", encoding="utf-8") as f:
        rng = np.random.default_rng(0)
        for v in range(n_videos):
            f.write(json.dumps({"video_id": f"vid{v}", "lang": "en"}) + "\n")
            for w, s, e in make_transcript_words(rng, words_per_video, wpm=wpm):
                f.write(json.dumps({"w": w, "s": s, "e": e}) + "\n")


def write_vqa_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            out = dict(rec)
            out["graph"] = json.loads(serialize_scene_graph(rec["graph"]))
            f.write(json.dumps(out) + "\n")


@pytest.fixture
def transcripts(tmp_path):
    path = tmp_path / "transcripts.jsonl"
    write_transcripts(path)
    return path


@pytest.fixture
def stage_argv(tmp_path, transcripts):
    """Runnable argv for segment, pretrain, finetune and eval at d=32."""
    segs = tmp_path / "segments.jsonl"
    store_path = tmp_path / "emb.store"
    main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
    main(["encode-pack", "--segments", str(segs), "--out", str(store_path), "--d", "32"])
    records = make_mini_vqa(8, seed=0)
    vqa = tmp_path / "vqa.jsonl"
    write_vqa_jsonl(vqa, records)
    img_store = tmp_path / "images.store"
    write_vqa_image_store(records, StubEncoders(d=32, seed=0), img_store)
    ckpt = tmp_path / "ckpt.store"
    save_checkpoint(Model(TINY_CONFIG), ckpt)
    out = tmp_path / "out"
    out.mkdir()
    return {
        "segment": ["segment", "--transcripts", str(transcripts),
                    "--out", str(out / "seg.jsonl")],
        "pretrain": ["pretrain", "--store", str(store_path), "--out-dir", str(out / "run"),
                     "--batch-size", "2", *TINY_MODEL],
        "finetune": ["finetune", "--vqa", str(vqa), "--image-store", str(img_store),
                     "--out-dir", str(out / "run"), "--batch-size", "2",
                     "--checkpoint-in", str(ckpt)],
        "eval": ["eval", "--checkpoint", str(ckpt), "--vqa", str(vqa),
                 "--image-store", str(img_store), "--out-dir", str(out / "run"),
                 "--max-decode-len", "4"],
    }


class TestSegment:
    def test_produces_segments_and_resolved_config(self, tmp_path, transcripts, capsys):
        out = tmp_path / "segments.jsonl"
        rc = main(["segment", "--transcripts", str(transcripts), "--out", str(out)])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            segs = list(read_segments(f))
        # 40 words per video, window 15 -> 2 full windows per video
        assert len(segs) == 4
        assert all(len(s.caption.split(" ")) == 15 for s in segs)
        resolved = json.loads((tmp_path / "segments.jsonl.config.json").read_text())
        assert resolved["window"] == 15
        assert "kept 4 segments" in capsys.readouterr().out

    def test_min_wpm_filter_drops_slow_speech(self, tmp_path, capsys):
        slow = tmp_path / "slow.jsonl"
        write_transcripts(slow, n_videos=1, wpm=20.0)
        out = tmp_path / "seg.jsonl"
        assert main(["segment", "--transcripts", str(slow), "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert "dropped 2" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_min_wpm_exits_nonzero(self, tmp_path, transcripts, capsys, value):
        out = tmp_path / "seg.jsonl"
        assert main(["segment", "--transcripts", str(transcripts), "--out", str(out),
                     "--min-wpm", value]) == 1
        assert f"error: min_wpm must be positive and finite, got {float(value)}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_merged_and_flag_wins(self, tmp_path, transcripts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 10, "min-wpm": 5.0}))
        out = tmp_path / "seg.jsonl"
        assert main(["segment", "--transcripts", str(transcripts),
                     "--out", str(out), "--config", str(cfg),
                     "--window", "20"]) == 0
        resolved = json.loads((tmp_path / "seg.jsonl.config.json").read_text())
        assert resolved["window"] == 20       # explicit flag beats file
        assert resolved["min-wpm"] == 5.0     # file beats default

    def test_unknown_config_key_rejected(self, tmp_path, transcripts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"windoww": 10}))
        with pytest.raises(SystemExit):
            main(["segment", "--transcripts", str(transcripts),
                  "--out", str(tmp_path / "o.jsonl"), "--config", str(cfg)])

    def test_int_config_value_for_float_flag_kept(self, tmp_path, transcripts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min-wpm": 5}))
        out = tmp_path / "seg.jsonl"
        assert main(["segment", "--transcripts", str(transcripts), "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert '"min-wpm": 5,' in (tmp_path / "seg.jsonl.config.json").read_text()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_word_time_exits_nonzero(self, tmp_path, transcripts, capsys, literal):
        lines = transcripts.read_text().splitlines()
        word = json.loads(lines[3])
        lines[3] = f'{{"w": "{word["w"]}", "s": {literal}, "e": {word["e"]}}}'
        transcripts.write_text("\n".join(lines) + "\n")
        out = tmp_path / "seg.jsonl"
        assert main(["segment", "--transcripts", str(transcripts), "--out", str(out)]) == 1
        assert f"error: line 4: bad transcript record: {literal} is not a JSON number" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_config_value_rejected(self, tmp_path, transcripts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min-wpm": NaN}')
        out = tmp_path / "seg.jsonl"
        with pytest.raises(SystemExit, match="cfg.json: NaN is not a JSON number"):
            main(["segment", "--transcripts", str(transcripts), "--out", str(out),
                  "--config", str(cfg)])
        assert not out.exists()

    def test_out_of_range_config_value_exits_one(self, tmp_path, transcripts):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min-wpm": 1e400}')
        out = tmp_path / "seg.jsonl"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from modalfuse.cli import main; sys.exit(main())",
             "segment", "--transcripts", str(transcripts), "--out", str(out),
             "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert "cfg.json: 1e400 is beyond float range" in proc.stderr
        assert not out.exists()

    def test_output_without_suffix(self, tmp_path, transcripts):
        out = tmp_path / "segments"
        assert main(["segment", "--transcripts", str(transcripts), "--out", str(out)]) == 0
        assert out.is_file()
        assert json.loads((tmp_path / "segments.config.json").read_text())["out"] == str(out)

    def test_missing_input_is_error_exit(self, tmp_path, capsys):
        rc = main(["segment", "--transcripts", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["transcripts", "out"])
    def test_directory_path_is_error_exit(self, tmp_path, transcripts, capsys, flag):
        paths = {"transcripts": str(transcripts), "out": str(tmp_path / "o.jsonl")}
        (tmp_path / "dir").mkdir()
        paths[flag] = str(tmp_path / "dir")
        rc = main(["segment", "--transcripts", paths["transcripts"], "--out", paths["out"]])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "transcripts.jsonl"]


class TestEncodePack:
    def test_pack_and_inspect(self, tmp_path, transcripts, capsys):
        segs = tmp_path / "segments.jsonl"
        store_path = tmp_path / "emb.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        rc = main(["encode-pack", "--segments", str(segs),
                   "--out", str(store_path), "--d", "32"])
        assert rc == 0
        with Store(store_path) as s:
            assert len(s) == 4
            rec = s.get(0)
            tags = [t for t, _ in rec.arrays]
            assert tags == ["frame", "caption", "raw"]
            assert rec.arrays[1][1].shape == (32,)
        capsys.readouterr()
        assert main(["inspect", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out
        assert "caption" in out
        assert out.splitlines()[1] == "stub encoders: d=32, seed=0"
        save_checkpoint(Model(TINY_CONFIG), store_path)
        assert main(["inspect", "--store", str(store_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "no encoders"

    @pytest.mark.parametrize("d", [0, 2**32])
    def test_dimension_outside_the_header_exits_nonzero(self, tmp_path, capsys, d):
        """The header holds the width as a u32, and width 0 names no encoders:
        no store is written, even for no segments."""
        segs, out = tmp_path / "segments.jsonl", tmp_path / "emb.store"
        segs.write_text("")
        assert main(["encode-pack", "--segments", str(segs), "--out", str(out), "--d", str(d)]) == 1
        assert capsys.readouterr().err == \
            f"error: dimension must be >= 1 and below 2**32, got {d}\n"
        assert not out.exists()

    def test_graph_manifest_attached(self, tmp_path, transcripts, capsys):
        segs = tmp_path / "segments.jsonl"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        with open(segs, encoding="utf-8") as f:
            keys = [f"{s.video_id}:{s.word_start}" for s in read_segments(f)]
        graphs = tmp_path / "graphs.jsonl"
        with open(graphs, "w", encoding="utf-8") as f:
            f.write(json.dumps({"key": keys[0], "objects": ["dog", "cat"],
                                "relations": [[0, "chasing", 1]]}) + "\n")
        store_path = tmp_path / "emb.store"
        rc = main(["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                   "--out", str(store_path), "--d", "32"])
        assert rc == 0
        assert "3 segments without a scene graph" in capsys.readouterr().out
        with Store(store_path) as s:
            tags = [t for t, _ in s.get_by_key(keys[0]).arrays]
            assert "scene_graph" in tags

    def test_graph_manifest_key_not_a_string(self, tmp_path, transcripts, capsys):
        segs = tmp_path / "segments.jsonl"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        graphs = tmp_path / "graphs.jsonl"
        good = {"key": "vid0:0", "objects": ["a", "b"], "relations": [[0, "on", 1]]}
        graphs.write_text(json.dumps(good) + "\n" + json.dumps({**good, "key": ["vid0", 0]})
                          + "\n")
        store_path = tmp_path / "emb.store"
        rc = main(["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                   "--out", str(store_path), "--d", "32"])
        assert rc == 1
        assert "error: line 2: graph manifest key must be a string" in capsys.readouterr().err
        assert not store_path.exists()

    def test_packs_every_frame_the_segments_list(self, tmp_path, transcripts):
        segs = tmp_path / "segments.jsonl"
        store_path = tmp_path / "emb.store"
        assert main(["segment", "--transcripts", str(transcripts), "--out", str(segs),
                     "--k-frames", "3"]) == 0
        assert main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
                     "--d", "32"]) == 0
        with Store(store_path) as s:
            assert len(s) == 4
            for i in range(len(s)):
                assert [t for t, _ in s.get(i).arrays].count("frame") == 3

    def test_rows_equal_single_encodes_across_chunks(self, tmp_path, transcripts, monkeypatch):
        """Chunks of 3 split the 4 segments, 3 frames each, two with a graph."""
        monkeypatch.setattr(cli, "_ENCODE_CHUNK", 3)
        segs = tmp_path / "segments.jsonl"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs),
              "--k-frames", "3"])
        with open(segs, encoding="utf-8") as f:
            segments = {f"{s.video_id}:{s.word_start}": s for s in read_segments(f)}
        keys = list(segments)
        graph = SceneGraph(("dog", "cat"), ((0, "chasing", 1),))
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text("".join(json.dumps({"key": key, **json.loads(
            serialize_scene_graph(graph))}) + "\n" for key in (keys[1], keys[3])))
        store_path = tmp_path / "emb.store"
        assert main(["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                     "--out", str(store_path), "--d", "32", "--seed", "5"]) == 0
        enc = StubEncoders(d=32, seed=5)
        with Store(store_path) as store:
            assert len(store) == len(keys) == 4
            for key, seg in segments.items():
                expect = [("frame", enc.encode_frame(seg.video_id, t).values)
                          for t in seg.frame_times]
                expect.append(("caption", enc.encode_caption(seg.caption).values))
                if key in (keys[1], keys[3]):
                    expect.append(("scene_graph", enc.encode_graph(graph).values))
                expect.append(("raw", np.frombuffer(seg.caption.encode("utf-8"),
                                                    dtype=np.uint8).astype(np.float32)))
                assert [(tag, arr.tobytes()) for tag, arr in store.get_by_key(key).arrays] \
                    == [(tag, arr.tobytes()) for tag, arr in expect]

    def test_segment_without_frame_times_rejected(self, tmp_path, transcripts, capsys):
        segs = tmp_path / "segments.jsonl"
        store_path = tmp_path / "emb.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        lines = segs.read_text().splitlines()
        seg = json.loads(lines[1])
        del seg["frame_times"]
        segs.write_text("\n".join([lines[0], json.dumps(seg), *lines[2:]]) + "\n")
        rc = main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
                   "--d", "32"])
        assert rc == 1
        assert f"'{seg['video_id']}:{seg['word_start']}' lists no frame times" \
            in capsys.readouterr().err
        assert not store_path.exists()


    @pytest.mark.parametrize("time_s", [1e307, -1e307])
    def test_frame_time_without_a_finite_bucket_exits_nonzero(self, tmp_path, capsys, time_s):
        segs, store_path = tmp_path / "segments.jsonl", tmp_path / "emb.store"
        seg = {"video_id": "v", "word_start": 0, "word_end": 2, "caption": "a b",
               "t_start": 0.0, "t_end": 1.0, "frame_times": [time_s]}
        segs.write_text(json.dumps(seg) + "\n")
        assert main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
                     "--d", "32"]) == 1
        assert (f"error: line 1: frame time {time_s} has no finite 10 ms bucket"
                in capsys.readouterr().err)
        assert not store_path.exists()
        seg["frame_times"] = [time_s / 100]   # its bucket is finite
        segs.write_text(json.dumps(seg) + "\n")
        assert main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
                     "--d", "32"]) == 0


class TestTrainingPipeline:
    @pytest.fixture
    def packed(self, tmp_path, transcripts):
        segs = tmp_path / "segments.jsonl"
        store_path = tmp_path / "emb.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
              "--d", "32"])
        return store_path

    def test_pretrain_writes_run_artifacts(self, tmp_path, packed, capsys):
        run = tmp_path / "run"
        rc = main(["pretrain", "--store", str(packed), "--out-dir", str(run),
                   "--steps", "3", "--batch-size", "2", "--svg", *TINY_MODEL])
        assert rc == 0
        assert (run / "checkpoint.store").exists()
        assert (run / "summary.json").exists()
        assert (run / "resolved_config.json").exists()
        assert "<svg" in (run / "loss.svg").read_text()
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["step"] == 0
        assert "final loss" in capsys.readouterr().out

    def test_pretrain_with_a_worker_thread_is_bit_identical(self, tmp_path, packed,
                                                            monkeypatch):
        def pretrain(run):
            assert main(["pretrain", "--store", str(packed), "--out-dir", str(run),
                         "--steps", "3", "--batch-size", "2", *TINY_MODEL]) == 0
            return (run / "metrics.jsonl").read_text().splitlines(), \
                (run / "checkpoint.store").read_bytes()

        def losses(run):   # wall_ms differs between runs
            return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
                    for line in run[0]]

        inline = pretrain(tmp_path / "inline")
        # the model draws, the backward products and the AdamW halves on the worker
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(worker, "_worker", pool)
        monkeypatch.setattr(backbone, "_PAIR_MACS", 0)
        monkeypatch.setattr(backbone, "_SPLIT_ELEMENTS", 0)
        monkeypatch.setattr(worker.os, "sched_getaffinity", lambda pid: {0, 1})
        threads = threading.active_count()
        beside = pretrain(tmp_path / "beside")
        assert threading.active_count() == threads + 1
        pool.shutdown()
        assert losses(beside) == losses(inline) and beside[1] == inline[1]

    def pack_captions(self, tmp_path, captions) -> Path:
        segs, store_path = tmp_path / "segments.jsonl", tmp_path / "captions.store"
        segs.write_text("".join(
            json.dumps({"video_id": "v", "word_start": i, "word_end": i + 1, "caption": c,
                        "t_start": float(i), "t_end": i + 0.5, "frame_times": [i + 0.25]})
            + "\n" for i, c in enumerate(captions)))
        assert main(["encode-pack", "--segments", str(segs), "--out", str(store_path),
                     "--d", "32"]) == 0
        return store_path

    def test_split_half_skips_one_word_captions(self, tmp_path, capsys):
        store_path = self.pack_captions(tmp_path, ["one", "two words", "three more words",
                                                   "four", "five words"])
        capsys.readouterr()
        for objective, skipped in (("split_half", 2), ("full_caption", 0)):
            run = tmp_path / objective
            assert main(["pretrain", "--store", str(store_path), "--out-dir", str(run),
                         "--steps", "1", "--batch-size", "2", "--objective", objective,
                         *TINY_MODEL]) == 0
            assert json.loads((run / "summary.json").read_text())["skipped_records"] == skipped
            warning = ("warning: skipped 2 of 5 records whose caption has one word"
                       " (split_half needs at least 2)")
            assert (warning in capsys.readouterr().err) == bool(skipped)

    def test_split_half_without_a_two_word_caption_exits_nonzero(self, tmp_path, transcripts,
                                                                 capsys):
        segs, store_path = tmp_path / "segments.jsonl", tmp_path / "emb.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs),
              "--window", "1"])
        main(["encode-pack", "--segments", str(segs), "--out", str(store_path), "--d", "32"])
        with Store(store_path) as store:
            n = len(store)
        run = tmp_path / "run"
        assert main(["pretrain", "--store", str(store_path), "--out-dir", str(run),
                     "--steps", "1", *TINY_MODEL]) == 1
        assert (f"error: split_half needs captions of at least 2 words; all {n} records have one"
                in capsys.readouterr().err)
        assert not (run / "metrics.jsonl").exists()

    def test_truncated_targets_reported(self, tmp_path, stage_argv, capsys):
        # every split-half target of the packed captions is longer than the
        # 30 bytes of text that --max-target-len 32 leaves
        with Store(stage_argv["pretrain"][2]) as store:
            halves = [objectives.split_caption(
                bytes(dict(store.get(i).arrays)["raw"].astype(np.uint8)).decode().split(" "))[1]
                for i in range(len(store))]
        assert min(len(" ".join(h).encode()) for h in halves) > 30
        assert main([*stage_argv["pretrain"], "--steps", "1"]) == 0
        summary = json.loads((tmp_path / "out" / "run" / "summary.json").read_text())
        assert summary["truncated_targets"] == len(halves) == 4
        assert ("warning: 4 of 4 targets cut to max-target-len 32 (30 bytes of text)"
                in capsys.readouterr().err)
        # the one- to three-byte VQA answers fit
        fin = tmp_path / "fin"
        assert main([*stage_argv["finetune"], "--steps", "1", "--out-dir", str(fin)]) == 0
        assert json.loads((fin / "summary.json").read_text())["truncated_targets"] == 0
        assert "warning" not in capsys.readouterr().err

    def test_full_pipeline_pretrain_finetune_eval(self, tmp_path, packed, capsys):
        pre = tmp_path / "pre"
        main(["pretrain", "--store", str(packed), "--out-dir", str(pre),
              "--steps", "2", "--batch-size", "2", *TINY_MODEL])

        records = make_mini_vqa(8, seed=0)
        vqa = tmp_path / "vqa.jsonl"
        write_vqa_jsonl(vqa, records)
        img_store = tmp_path / "images.store"
        write_vqa_image_store(records, StubEncoders(d=32, seed=0), img_store)

        fin = tmp_path / "fin"
        rc = main(["finetune", "--vqa", str(vqa), "--image-store", str(img_store),
                   "--out-dir", str(fin), "--checkpoint-in",
                   str(pre / "checkpoint.store"), "--steps", "2",
                   "--batch-size", "2"])
        assert rc == 0
        assert (fin / "checkpoint.store").exists()

        ev = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(fin / "checkpoint.store"),
                   "--vqa", str(vqa), "--image-store", str(img_store),
                   "--out-dir", str(ev), "--max-decode-len", "6"])
        assert rc == 0
        summary = json.loads((ev / "eval.json").read_text())
        assert 0.0 <= summary["mean_accuracy"] <= 1.0
        assert summary["n_examples"] == 8
        assert summary["n_errors"] == 0 and summary["errors"] == []
        assert isinstance(summary["collapse_flag"], bool)
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("objective", ["full_caption", "split_half"])
    def test_pretrain_examples_follow_the_objective(self, tmp_path, transcripts, monkeypatch,
                                                    objective):
        """The store was packed with --seed 1, which its header names; pretrain
        encodes first halves with those encoders."""
        segs, packed = tmp_path / "segments.jsonl", tmp_path / "seed1.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        assert main(["encode-pack", "--segments", str(segs), "--out", str(packed),
                     "--d", "32", "--seed", "1"]) == 0
        seen = []
        real_train = objectives.train

        def spy(examples, *args, **kwargs):
            seen.extend(examples)
            return real_train(examples, *args, **kwargs)

        monkeypatch.setattr(objectives, "train", spy)
        assert main(["pretrain", "--store", str(packed), "--out-dir", str(tmp_path / "run"),
                     "--objective", objective, "--steps", "1",
                     "--batch-size", "2", *TINY_MODEL]) == 0
        stub = StubEncoders(d=32, seed=1)
        with Store(packed) as store:
            stored = [dict(store.get(i).arrays) for i in range(len(store))]
        assert [ex.caption for ex in seen] == [
            bytes(r["raw"].astype(np.uint8)).decode("utf-8") for r in stored]
        for ex, rec in zip(seen, stored):
            assert ex.fused.modalities == ("frame", "caption")
            assert np.array_equal(ex.fused.rows[0], rec["frame"])
            if objective == "full_caption":
                text, target = rec["caption"], ex.caption
                assert text.tobytes() == stub.encode_caption(ex.caption).values.tobytes()
            else:
                first, second = objectives.split_caption(ex.caption.split(" "))
                text = stub.encode_caption(" ".join(first)).values
                assert not np.array_equal(text, StubEncoders(d=32).encode_caption(
                    " ".join(first)).values)
                target = " ".join(second)
            assert ex.fused.rows[1].tobytes() == text.tobytes()
            assert np.array_equal(ex.target, tokenize(target, 32))

    @pytest.mark.parametrize("objective", ["full_caption", "split_half"])
    def test_store_examples_equal_the_list_builders(self, tmp_path, objective):
        """Each example pretrain builds from its store equals the one
        ``pretrain_examples`` builds from the same segment and graph: a store
        with one-word captions, segments with and without a graph and a target
        cut to max-target-len."""
        captions = ["one", "two words", "a caption whose second half runs well past the"
                    " thirty bytes that a target keeps", "four", "five little words here now",
                    "six words"]
        segments = [{"video_id": "v", "word_start": i, "word_end": i + 1, "caption": c,
                     "t_start": float(i), "t_end": i + 0.5,
                     "frame_times": [i + 0.25, i + 0.375][:1 + i % 2]}
                    for i, c in enumerate(captions)]
        segs, graphs, packed = (tmp_path / n for n in ("segs.jsonl", "graphs.jsonl", "e.store"))
        segs.write_text("".join(json.dumps(s) + "\n" for s in segments))
        graphs.write_text("".join(
            json.dumps({"key": f"v:{i}", "objects": ["dog", f"cat{i}"],
                        "relations": [[0, "chasing", 1]]}) + "\n" for i in (1, 2)))
        assert main(["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                     "--out", str(packed), "--d", "32", "--seed", "5"]) == 0
        with open(segs, "rb") as f:
            corpus = list(read_segments(f))
        with open(graphs, "rb") as f:
            by_key = read_graph_manifest(f)
        pairs = [(seg, by_key.get(f"v:{seg.word_start}")) for seg in corpus
                 if objective == "full_caption" or " " in seg.caption]
        expected = objectives.pretrain_examples(objective, pairs, StubEncoders(d=32, seed=5), 32)
        assert any(e.truncated for e in expected) and not all(e.truncated for e in expected)
        assert len({e.fused.modalities for e in expected}) == 4   # 1 or 2 frames, graph or not
        with Store(packed) as store:
            examples = cli._StoreExamples(store, objective, TINY_CONFIG)
            built = list(examples)
        assert len(built) == len(examples) == len(expected)
        assert examples.skipped == len(captions) - len(expected)
        assert examples.truncated == sum(e.truncated for e in expected)
        for got, want in zip(built, expected):
            assert got.fused.rows.tobytes() == want.fused.rows.tobytes()
            assert got.fused.modalities == want.fused.modalities
            assert got.fused.modality_ids.tobytes() == want.fused.modality_ids.tobytes()
            assert got.target.tobytes() == want.target.tobytes()
            assert (got.caption, got.truncated) == (want.caption, want.truncated)

    def test_pretrain_reads_each_batch_from_the_store(self, tmp_path, packed, monkeypatch):
        """Pretrain reads every record once before step 0, then one record per
        example of each batch it draws."""
        reads, during = [], []
        real_get, real_train = Store.get, objectives.train

        def get(store, i):
            reads.append(i)
            return real_get(store, i)

        def train(examples, *args, **kwargs):
            before = len(reads)
            out = real_train(examples, *args, **kwargs)
            during.append(len(reads) - before)
            return out

        monkeypatch.setattr(Store, "get", get)
        monkeypatch.setattr(objectives, "train", train)
        with Store(packed) as store:
            n = len(store)
        steps, batch = 3, 2
        assert main(["pretrain", "--store", str(packed), "--out-dir", str(tmp_path / "run"),
                     "--steps", str(steps), "--batch-size", str(batch), *TINY_MODEL]) == 0
        assert len(reads) <= n + steps * batch
        assert during == [steps * batch]

    def test_corrupt_record_joins_the_model_draw(self, tmp_path, transcripts, monkeypatch,
                                                 capsys):
        """A record that fails its check ends pretrain before any step, after
        the model's draw, which at this width runs on the worker, is joined."""
        segs, packed = tmp_path / "segments.jsonl", tmp_path / "wide.store"
        main(["segment", "--transcripts", str(transcripts), "--out", str(segs)])
        assert main(["encode-pack", "--segments", str(segs), "--out", str(packed),
                     "--d", "256"]) == 0
        with Store(packed) as store:
            _, offset, length = store._entries[0]
        data = bytearray(packed.read_bytes())
        data[offset + length - 8] ^= 0xFF   # a payload byte, before the record's CRC
        packed.write_bytes(bytes(data))
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(worker, "_worker", pool)
        monkeypatch.setattr(worker.os, "sched_getaffinity", lambda pid: {0, 1})
        handles, real_draw = [], Model._draw

        def draw(model, seed):
            handles.append(real_draw(model, seed))
            return handles[-1]

        monkeypatch.setattr(Model, "_draw", draw)
        run = tmp_path / "run"
        try:
            assert main(["pretrain", "--store", str(packed), "--out-dir", str(run), "--steps",
                         "1", "--d-model", "256", "--n-heads", "4", "--enc-layers", "1",
                         "--dec-layers", "1", "--d-ff", "64", "--max-target-len", "32"]) == 1
            assert "CRC mismatch in record 0" in capsys.readouterr().err
            assert not (run / "metrics.jsonl").exists()
            assert len(handles) == 1 and handles[0].done()   # a Future: it ran on the worker
        finally:
            pool.shutdown()

    def test_pretrain_rejects_caption_text_that_is_not_bytes(self, tmp_path, capsys):
        # 367.0 would cast to 111, "o", and 100.7 to 100, "d": the run would go on
        store_path = self.pack_captions(tmp_path, ["a dog runs"])
        with Store(store_path) as s:
            record, encoders = s.get(0), s.encoders(32)
        arrays = dict(record.arrays)
        text = arrays["raw"].copy()
        text[[2, 3]] = 100.7, 367.0
        write_store([EmbeddingRecord(record.key, tuple({**arrays, "raw": text}.items()))],
                    store_path, encoders)
        rc = main(["pretrain", "--store", str(store_path), "--out-dir", str(tmp_path / "run"),
                   "--steps", "1", "--objective", "full_caption", *TINY_MODEL])
        assert rc == 1
        assert "record 'v:0': text values must be whole numbers" in capsys.readouterr().err

    def test_pretrain_rejects_store_without_captions(self, tmp_path, capsys):
        images = tmp_path / "images.store"
        write_vqa_image_store(make_mini_vqa(2, seed=0), StubEncoders(d=32, seed=0), images)
        rc = main(["pretrain", "--store", str(images), "--out-dir", str(tmp_path / "run"),
                   "--steps", "1", *TINY_MODEL])
        assert rc == 1
        assert "no caption row" in capsys.readouterr().err

    def test_eval_rejects_foreign_checkpoint_config(self, tmp_path, capsys):
        def drop_d_ff(cfg):
            del cfg["d_ff"]
            cfg["dropout"] = 0.0      # the key every older checkpoint carries

        def string_n_heads(cfg):
            cfg["n_heads"] = "2"

        for edit, match, named in [(drop_d_ff, r"\['dropout'\].*\['d_ff'\]", "dropout"),
                                   (string_n_heads, "n_heads must be an int", "n_heads")]:
            ckpt = tmp_path / "ckpt.store"
            save_checkpoint(Model(ModelConfig(d_model=16, n_heads=2, n_encoder_layers=1,
                                              n_decoder_layers=1, d_ff=32,
                                              max_target_len=8)), ckpt)
            with Store(ckpt) as s:
                records = [s.get(i) for i in range(len(s))]
            assert records[0].key == "__model_config__"
            cfg = json.loads(bytes(dict(records[0].arrays)["raw"].astype(np.uint8)))
            edit(cfg)
            cfg_row = np.frombuffer(json.dumps(cfg).encode("utf-8"), dtype=np.uint8)
            write_store([EmbeddingRecord(records[0].key, (("raw", cfg_row),)), *records[1:]],
                        ckpt)
            with pytest.raises(ConfigError, match=match):
                load_checkpoint(ckpt)
            rc = main(["eval", "--checkpoint", str(ckpt), "--vqa", "x", "--image-store", "y",
                       "--out-dir", str(tmp_path / "ev")])
            assert rc == 1
            assert named in capsys.readouterr().err

    def test_pretrain_rejects_zero_heads(self, tmp_path, packed, capsys):
        rc = main(["pretrain", "--store", str(packed), "--out-dir", str(tmp_path / "run"),
                   "--steps", "1", *TINY_MODEL, "--n-heads", "0"])
        assert rc == 1
        assert "n_heads must be >= 1" in capsys.readouterr().err

    def test_eval_missing_checkpoint_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "no.store"
        rc = main(["eval", "--checkpoint", str(missing),
                   "--vqa", "x", "--image-store", "y",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("objective", ["split_half", "full_caption"])
    def test_store_dimension_differs_from_model(self, tmp_path, packed, capsys, objective):
        """The store names d=32 encoders: a --d-model 16 run stops before any
        step, whether it encodes first halves or feeds the stored rows."""
        rc = main(["pretrain", "--store", str(packed), "--out-dir", str(tmp_path / "run"),
                   "--objective", objective, "--steps", "1", *TINY_MODEL, "--d-model", "16"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {packed} holds rows of width 32, the model's is 16\n"
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_image_store_dimension_differs_from_model(self, tmp_path, stage_argv, capsys,
                                                      command):
        img_store = tmp_path / "images.store"   # the file stage_argv passes as --image-store
        write_vqa_image_store(make_mini_vqa(8, seed=0), StubEncoders(d=16, seed=0), img_store)
        assert main(stage_argv[command]) == 1
        assert capsys.readouterr().err == \
            f"error: {img_store} holds rows of width 16, the model's is 32\n"
        assert not (tmp_path / "out" / "run" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command, flag", [("pretrain", "--store"),
                                               ("finetune", "--image-store"),
                                               ("eval", "--image-store")])
    def test_checkpoint_as_embedding_store_exits_nonzero(self, tmp_path, stage_argv, capsys,
                                                         command, flag):
        ckpt = str(tmp_path / "ckpt.store")
        argv = stage_argv[command]
        argv[argv.index(flag) + 1] = ckpt
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: {ckpt} names no encoders (a checkpoint names none)\n"

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_empty_vqa_file_exits_nonzero(self, tmp_path, stage_argv, capsys, command):
        vqa = tmp_path / "vqa.jsonl"   # the file stage_argv passes as --vqa
        vqa.write_text("")
        assert main(stage_argv[command]) == 1
        assert capsys.readouterr().err == f"error: {vqa} holds no VQA records\n"

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_yes_no_only_without_yes_no_questions(self, tmp_path, capsys, command):
        records = [r for r in make_mini_vqa(8, seed=0)
                   if r["question"].startswith("how many")]
        assert records
        vqa = tmp_path / "vqa.jsonl"
        write_vqa_jsonl(vqa, records)
        img_store = tmp_path / "images.store"
        write_vqa_image_store(records, StubEncoders(d=32, seed=0), img_store)
        ckpt = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY_CONFIG), ckpt)
        checkpoint = ["--checkpoint-in" if command == "finetune" else "--checkpoint", str(ckpt)]
        rc = main([command, "--vqa", str(vqa), "--image-store", str(img_store),
                   "--out-dir", str(tmp_path / "out"), *checkpoint, "--yes-no-only"])
        assert rc == 1
        assert "has no yes/no questions" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval.json").exists()

    def test_finetune_yes_no_only(self, tmp_path, capsys):
        records = make_mini_vqa(8, seed=0)
        vqa = tmp_path / "vqa.jsonl"
        write_vqa_jsonl(vqa, records)
        img_store = tmp_path / "images.store"
        write_vqa_image_store(records, StubEncoders(d=32, seed=0), img_store)
        ckpt = tmp_path / "ckpt.store"
        save_checkpoint(Model(TINY_CONFIG), ckpt)
        fin = tmp_path / "fin"
        rc = main(["finetune", "--vqa", str(vqa), "--image-store", str(img_store),
                   "--out-dir", str(fin), "--steps", "1", "--batch-size", "2",
                   "--yes-no-only", "--checkpoint-in", str(ckpt)])
        assert rc == 0
        n_yes_no = sum(all(a in ("yes", "no") for a in r["answers"])
                       for r in records)
        assert f"on {n_yes_no} examples" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_zero_steps(self, tmp_path, stage_argv, capsys, command):
        assert main([*stage_argv[command], "--steps", "0"]) == 0
        summary = json.loads((tmp_path / "out" / "run" / "summary.json").read_text())
        assert summary["steps"] == 0 and summary["final_loss"] is None
        assert "final loss" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--checkpoint-every", "-1", "checkpoint_every must be >= 0, got -1"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--weight-decay", "nan", "weight_decay must be finite, got nan"),
        ("--weight-decay", "inf", "weight_decay must be finite, got inf"),
        ("--lr", "-0.01", "lr must be >= 0, got -0.01"),
        ("--weight-decay", "-5", "weight_decay must be >= 0, got -5.0"),
        # no target fits BOS and EOS: refused before the store is read or a model drawn
        ("--max-target-len", "1", "max_target_len must be >= 2, got 1"),
    ])
    def test_bad_train_setting_exits_nonzero(self, tmp_path, stage_argv, capsys, flag, value,
                                             message):
        assert main([*stage_argv["pretrain"], "--steps", "2", flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "run" / "metrics.jsonl").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_nonzero(self, tmp_path, stage_argv, capsys):
        assert main([*stage_argv["finetune"], "--steps", "3", "--lr", "1e300"]) == 1
        assert "error: non-finite loss at step 1" in capsys.readouterr().err
        with open(tmp_path / "out" / "run" / "metrics.jsonl", "rb") as f:
            records = [rec for _, rec in json_records(f, "metrics")]
        first, last = records
        assert math.isfinite(first["loss"]) and math.isfinite(first["grad_norm"])
        assert last["loss"] is None and last["grad_norm"] is None   # JSON has no NaN
        assert last["error"] == "non-finite loss: nan"
        assert set(last) == {*first, "error"}
        assert first["examples_seen"] == last["examples_seen"] == 2   # step 1 is not taken

    @pytest.mark.parametrize("value, message", [
        ("-3", "max_len must be >= 1, got -3"),
        ("64", "max_len 64 exceeds max_target_len 32"),
    ], ids=["below-one", "over-max-target-len"])
    def test_decode_length_out_of_range_exits_nonzero(self, tmp_path, stage_argv, capsys, value,
                                                      message):
        assert main([*stage_argv["eval"], "--max-decode-len", value]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "run" / "eval.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: {**rec, "question": 5}, "VQA field 'question' must be a string, got 5"),
        (lambda rec: {**rec, "answers": [1] * 10},
         "VQA field 'answers' must be a list of strings"),
        (lambda rec: {**rec, "answers": "yesyesyesy"},
         "VQA field 'answers' must be a list of strings, got 'yesyesyesy'"),
        (lambda rec: {**rec, "image_key": ["img0000"]}, "VQA field 'image_key' must be a string"),
        (lambda rec: {**rec, "graph": {"objects": ["dog", "cat"], "relations": [[0, "on", True]]}},
         "relations must be [int, str, int] triples"),
        (lambda rec: 5, "VQA record must be a JSON object, got 5"),
    ], ids=["question-int", "answers-ints", "answers-string", "image-key-list",
            "graph-bool-index", "not-an-object"])
    def test_mistyped_vqa_record_exits_nonzero(self, tmp_path, stage_argv, capsys, edit,
                                               message):
        vqa = tmp_path / "vqa.jsonl"
        lines = vqa.read_text().splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        vqa.write_text("\n".join(lines) + "\n")
        assert main(stage_argv["finetune"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: "{not json", "bad VQA record"),
        (lambda rec: {k: v for k, v in rec.items() if k != "image_key"}, "needs 'image_key'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "question"}, "needs 'image_key'"),
        (lambda rec: {k: v for k, v in rec.items() if k != "answers"}, "needs 'image_key'"),
        (lambda rec: {**rec, "graph": {"objects": ["dog"]}}, "needs 'objects' and 'relations'"),
        (lambda rec: {**rec, "graph": {"objects": ["dog", "cat"],
                                       "relations": [["first", "on", "second"]]}},
         "malformed scene graph"),
        (lambda rec: {**rec, "question": "is it a \ud800"},
         "bad VQA record: '\\ud800' is a lone surrogate"),
        (lambda rec: {**rec, "answers": rec["answers"][:3]}, "expected 10 human answers, got 3"),
        (lambda rec: {**rec, "answers": [*rec["answers"], "no"]},
         "expected 10 human answers, got 11"),
    ], ids=["invalid-json", "no-image-key", "no-question", "no-answers",
            "graph-without-relations", "string-relation-indices", "lone-surrogate-question",
            "three-answers", "eleven-answers"])
    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_malformed_vqa_record_exits_nonzero(self, tmp_path, stage_argv, capsys, command,
                                                edit, message):
        vqa = tmp_path / "vqa.jsonl"        # the file stage_argv passes as --vqa
        lines = vqa.read_text().splitlines()
        bad = edit(json.loads(lines[2]))
        lines[2] = bad if isinstance(bad, str) else json.dumps(bad)
        vqa.write_text("\n".join(lines) + "\n")
        assert main(stage_argv[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and message in err

    @pytest.mark.parametrize("arrays", [(), (("caption", np.zeros(32)), ("frame", np.zeros(32)))],
                             ids=["empty", "caption-first"])
    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_image_record_without_a_frame_exits_nonzero(self, tmp_path, stage_argv, capsys,
                                                        command, arrays):
        img_store = tmp_path / "images.store"   # the file stage_argv passes as --image-store
        with Store(img_store) as s:
            records, encoders = [s.get(i) for i in range(len(s))], s.encoders(32)
        key = records[2].key
        records[2] = EmbeddingRecord(key, arrays)
        write_store(records, img_store, encoders)
        assert main(stage_argv[command]) == 1
        assert capsys.readouterr().err == \
            f"error: image record {key!r} does not start with a frame\n"
        assert not (tmp_path / "out" / "run" / "resolved_config.json").exists()


class TestNonUtf8Input:
    """Each JSONL reader names the line and record kind of bytes that are not
    UTF-8, here an encoded surrogate, with the byte's position in that line."""

    @staticmethod
    def run_with_bad_line_3(path, argv, what, capsys):
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 3
        lines[2] = b'{"x": "\xed\xa0\x80"}\n'
        path.write_bytes(b"".join(lines))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: line 3: bad {what} record: 'utf-8' codec can't decode byte 0xed "
            "in position 7")

    def test_transcripts(self, stage_argv, transcripts, capsys):
        self.run_with_bad_line_3(transcripts, stage_argv["segment"], "transcript", capsys)

    def test_segments(self, tmp_path, stage_argv, capsys):
        segs = tmp_path / "segments.jsonl"
        argv = ["encode-pack", "--segments", str(segs), "--out", str(tmp_path / "e.store")]
        self.run_with_bad_line_3(segs, argv, "segment", capsys)

    def test_graph_manifest(self, tmp_path, stage_argv, capsys):
        segs = tmp_path / "segments.jsonl"
        with open(segs, encoding="utf-8") as f:
            keys = [f"{s.video_id}:{s.word_start}" for s in read_segments(f)]
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text("".join(json.dumps({"key": key, "objects": ["dog"], "relations": []})
                                  + "\n" for key in keys))
        argv = ["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                "--out", str(tmp_path / "e.store")]
        self.run_with_bad_line_3(graphs, argv, "graph manifest", capsys)

    def test_vqa(self, tmp_path, stage_argv, capsys):
        self.run_with_bad_line_3(tmp_path / "vqa.jsonl", stage_argv["finetune"], "VQA", capsys)


class TestAblate:
    def test_grid_outputs_and_rerun_identical(self, tmp_path, capsys):
        args = ["ablate", "--n-segments", "8", "--n-vqa", "8",
                "--pretrain-steps", "1", "--finetune-steps", "1",
                "--batch-size", "4", *TINY_MODEL]
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert main([*args, "--out-dir", str(run_a)]) == 0
        assert main([*args, "--out-dir", str(run_b)]) == 0
        table_a = (run_a / "ablation.tsv").read_text()
        table_b = (run_b / "ablation.tsv").read_text()
        assert table_a == table_b
        lines = table_a.splitlines()
        assert lines[0].split("\t") == ["label", "accuracy", "iterations", "status"]
        assert len(lines) == 9
        assert all(l.split("\t")[3] == "ok" for l in lines[1:])
        rows = [json.loads(l) for l in
                (run_a / "ablation.jsonl").read_text().splitlines()]
        assert len(rows) == 8
        out = capsys.readouterr().out
        assert "pretrain+graph" in out

    def test_failed_rows_exit_nonzero(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite loss at step 0")

        monkeypatch.setattr(evaluation, "train", diverge)
        run = tmp_path / "a"
        assert main(["ablate", "--n-segments", "8", "--n-vqa", "8",
                     "--pretrain-steps", "1", "--finetune-steps", "1",
                     "--batch-size", "4", *TINY_MODEL, "--out-dir", str(run)]) == 1
        lines = (run / "ablation.tsv").read_text().splitlines()
        assert len(lines) == 9
        assert all(l.split("\t")[3] == "failed: non-finite loss at step 0" for l in lines[1:])
        assert len((run / "ablation.jsonl").read_text().splitlines()) == 8
        err = capsys.readouterr().err
        assert "error: 8 of 8 ablation rows failed" in err and "pretrain+graph" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--n-segments", "-8", "n_segments must be >= 1, got -8"),
        ("--n-segments", "0", "n_segments must be >= 1, got 0"),
        ("--n-segments", "12", "n_segments 12 must be a multiple of variants_per_group 8"),
        ("--n-vqa", "0", "n_examples must be >= 1, got 0"),
        # the training settings are refused before any model is drawn or trained
        ("--pretrain-steps", "-2", "steps must be >= 0, got -2"),
        ("--finetune-steps", "-3", "steps must be >= 0, got -3"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--lr", "-0.5", "lr must be >= 0, got -0.5"),
        ("--max-target-len", "1", "max_target_len must be >= 2, got 1"),
    ])
    def test_count_out_of_range_exits_nonzero(self, tmp_path, capsys, flag, value, message):
        run = tmp_path / "a"
        assert main(["ablate", *TINY_MODEL, flag, value, "--out-dir", str(run)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (run / "images.store").exists() and not (run / "ablation.tsv").exists()


def run_losses(run_dir):
    return [json.loads(l)["loss"] for l in (run_dir / "metrics.jsonl").read_text().splitlines()]


class TestResolvedConfig:
    def test_pretrain_rerun_from_resolved_config(self, tmp_path, stage_argv):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["pretrain", *stage_argv["pretrain"][1:], "--steps", "2",
                     "--out-dir", str(r1)]) == 0
        assert main(["pretrain", "--config", str(r1 / "resolved_config.json"),
                     "--out-dir", str(r2)]) == 0
        assert len(run_losses(r1)) == 2 and run_losses(r1) == run_losses(r2)
        cfg1 = json.loads((r1 / "resolved_config.json").read_text())
        cfg2 = json.loads((r2 / "resolved_config.json").read_text())
        assert cfg1["store"] == stage_argv["pretrain"][2]
        assert {k for k in cfg1 if cfg1[k] != cfg2[k]} == {"out-dir"}
        assert cfg2["out-dir"] == str(r2)

    def test_optional_path_from_file_used(self, tmp_path, stage_argv):
        segs = tmp_path / "segments.jsonl"   # written by stage_argv
        with open(segs, encoding="utf-8") as f:
            key = next(f"{s.video_id}:{s.word_start}" for s in read_segments(f))
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(json.dumps({"key": key, "objects": ["dog", "cat"],
                                      "relations": [[0, "chasing", 1]]}) + "\n")
        s1, s2 = tmp_path / "s1.store", tmp_path / "s2.store"
        assert main(["encode-pack", "--segments", str(segs), "--graphs", str(graphs),
                     "--out", str(s1), "--d", "32"]) == 0
        # without the manifest no record would hold a scene-graph row
        assert main(["encode-pack", "--segments", str(segs), "--out", str(s2),
                     "--config", str(tmp_path / "s1.store.config.json")]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        with Store(s2) as s:
            assert "scene_graph" in dict(s.get_by_key(key).arrays)
        assert json.loads((tmp_path / "s2.store.config.json").read_text())["graphs"] \
            == str(graphs)

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_svg_recorded_and_rerun(self, tmp_path, stage_argv, command):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main([*stage_argv[command], "--steps", "2", "--svg", "--out-dir", str(r1)]) == 0
        assert json.loads((r1 / "resolved_config.json").read_text())["svg"] is True
        assert main([command, "--config", str(r1 / "resolved_config.json"),
                     "--out-dir", str(r2)]) == 0
        assert "<svg" in (r1 / "loss.svg").read_text()
        assert (r2 / "loss.svg").read_text() == (r1 / "loss.svg").read_text()

    @pytest.mark.parametrize("command, file_cfg, message", [
        ("pretrain", None, "the following arguments are required: --store"),
        ("pretrain", {"store": None}, "'store' must be a string, got None"),
        ("finetune", {"checkpoint-in": 3}, "'checkpoint-in' must be a string, got 3"),
    ])
    def test_path_keys_checked(self, tmp_path, command, file_cfg, message):
        argv = [command, "--out-dir", str(tmp_path / "run")]
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit, match=message):
            main(argv)
        assert not (tmp_path / "run").exists()


class TestTypedConfig:
    @pytest.mark.parametrize("command, file_cfg, message", [
        ("eval", {"graph": "false"}, "'graph' must be a bool, got 'false'"),
        ("segment", {"min-wpm": "5"}, "'min-wpm' must be a number, got '5'"),
        ("pretrain", {"steps": "2"}, "'steps' must be an int, got '2'"),
        ("pretrain", {"steps": True}, "'steps' must be an int, got True"),
        ("pretrain", {"objective": "bogus"}, "'objective' must be one of"),
        ("segment", [{"window": 10}], "must hold a JSON object, got list"),
    ])
    def test_mistyped_config_rejected(self, tmp_path, stage_argv, command, file_cfg, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        with pytest.raises(SystemExit, match=message):
            main([*stage_argv[command], "--config", str(cfg)])
        assert list((tmp_path / "out").iterdir()) == []


class TestParser:
    """``build_parser`` runs once per process; each ``main`` call parses afresh."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_subcommands_parse_independently(self, monkeypatch):
        seen = []
        parser = cli.build_parser()
        parse_args = parser.parse_args

        def record(argv):
            args = parse_args(argv)
            seen.append(vars(args))
            return args

        monkeypatch.setattr(parser, "parse_args", record)
        for name in ("segment", "inspect"):
            help_text, _, paths, defaults = cli._COMMANDS[name]
            # not 0: no resolved config is written
            monkeypatch.setitem(cli._COMMANDS, name, (help_text, lambda _: 1, paths, defaults))
        runs = [["segment", "--transcripts", "t.jsonl", "--out", "s.jsonl", "--min-wpm", "5"],
                ["inspect", "--store", "x.store"],
                ["segment", "--transcripts", "u.jsonl", "--out", "v.jsonl"]]
        for argv in runs:
            assert main(argv) == 1
        fresh = cli.build_parser.__wrapped__()
        assert seen == [vars(fresh.parse_args(argv)) for argv in runs]
        assert seen[2]["min_wpm"] is None and "store" not in seen[2]

    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_unchanged(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        want = capsys.readouterr().out
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            assert capsys.readouterr().out == want


class TestSettings:
    """Each subcommand's settings and paths by name, each read by its run."""

    def test_surface(self):
        model = ["d-ff", "d-model", "dec-layers", "enc-layers", "max-target-len", "n-heads"]
        train = ["batch-size", "checkpoint-every", "lr", "seed", "steps", "svg", "weight-decay"]
        surface = {name: (paths, sorted(defaults or ()))
                   for name, (_, _, paths, defaults) in cli._COMMANDS.items()}
        assert surface == {
            "segment": ({"transcripts": True, "out": True},
                        ["k-frames", "min-wpm", "stride", "window"]),
            "encode-pack": ({"segments": True, "graphs": False, "out": True}, ["d", "seed"]),
            "pretrain": ({"store": True, "out-dir": True}, sorted([*model, *train, "objective"])),
            "finetune": ({"checkpoint-in": True, "vqa": True, "image-store": True,
                          "out-dir": True}, sorted([*train, "graph", "yes-no-only"])),
            "eval": ({"checkpoint": True, "vqa": True, "image-store": True, "out-dir": True},
                     ["graph", "max-decode-len", "yes-no-only"]),
            "ablate": ({"out-dir": True},
                       sorted([*model, "batch-size", "finetune-steps", "lr", "n-segments",
                               "n-vqa", "pretrain-steps", "seed", "stub-seed"])),
            "inspect": ({"store": True}, []),
        }
        assert sum(len(settings) for _, settings in surface.values()) == 46

    @pytest.mark.parametrize("command, key", [
        *(("finetune", key) for key in ["d-model", "n-heads", "enc-layers", "dec-layers",
                                        "d-ff", "max-target-len"]),
        ("eval", "seed"),
        # the store a stage reads names its encoders
        *((command, "stub-seed") for command in ["pretrain", "finetune", "eval"]),
    ])
    def test_dropped_settings_rejected(self, tmp_path, stage_argv, capsys, command, key):
        with pytest.raises(SystemExit):
            main([*stage_argv[command], f"--{key}", "7"])
        assert f"unrecognized arguments: --{key} 7" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        with pytest.raises(SystemExit, match=rf"unknown config keys: \['{key}'\]"):
            main([*stage_argv[command], "--config", str(cfg)])
        assert list((tmp_path / "out").iterdir()) == []

    def test_finetune_needs_a_checkpoint(self, tmp_path, stage_argv):
        argv = stage_argv["finetune"]
        at = argv.index("--checkpoint-in")
        with pytest.raises(SystemExit,
                           match="the following arguments are required: --checkpoint-in"):
            main(argv[:at] + argv[at + 2:])
        assert list((tmp_path / "out").iterdir()) == []

    def test_pretrain_without_steps_writes_the_seeded_model(self, tmp_path, stage_argv):
        """``pretrain --steps 0 --seed S`` is the fresh model a finetune from scratch starts at."""
        values = []
        for seed in (0, 7):
            run = tmp_path / f"seed{seed}"
            assert main([*stage_argv["pretrain"], "--steps", "0", "--seed", str(seed),
                         "--out-dir", str(run)]) == 0
            values.append(load_checkpoint(run / "checkpoint.store").value.tobytes())
            assert values[-1] == Model(TINY_CONFIG, seed=seed).value.tobytes()
        assert values[0] != values[1]
