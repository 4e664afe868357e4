"""In-memory call tracing for the benchmark's traced runs.

A traced round installs wrappers around the public functions and methods of
the ``modalfuse`` modules, records one span per call and removes the wrappers
afterwards, so untraced rounds run the program unmodified. Nothing under
``src/`` knows about this file.

A span is ``[name, start, end, parent, run_id, attrs]``: ``parent`` is the
index of the enclosing span in ``Tracer.spans`` (-1 at top level), and
``run_id`` names the round the call belongs to. Self time is a span's
duration minus the time its direct children cover; the program is single
threaded, so a span's children never overlap and their union is their sum.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

_perf = time.perf_counter

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if before is not None:
                    args = before(span, args)
                span[START] = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = _perf()
            finally:
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def patch(self, name, targets, before=None, after=None):
        """Wrap the object found at each ``(owner, attribute)`` in ``targets``.

        Targets that hold the same object (a function imported by name into
        several modules) share one wrapper.
        """
        wrappers = {}
        for owner, attr in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self._wrap(name, orig, before, after)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrappers[id(orig)])

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """One JSON line per span, in call order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run_id, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id,
                                    **({"attrs": attrs} if attrs else {})}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# ---------------------------------------------------------------------------
# Where each traced name lives. Functions imported by name are patched in
# every module that looks them up: cli imports write_store, Store,
# load_checkpoint and save_checkpoint; objectives imports save_checkpoint;
# backbone and synthetic import write_store; store imports hash_bytes.
# ---------------------------------------------------------------------------

def _set(span, key, value):
    if span[ATTRS] is None:
        span[ATTRS] = {}
    span[ATTRS][key] = value


def _count_user_bytes(span, args):
    records = args[0]

    def counted():
        total = 0
        for record in records:
            total += sum(arr.nbytes for _, arr in record.arrays)
            _set(span, "user_bytes", total)
            yield record

    return (counted(), *args[1:])


def _store_get_before(span, args):
    _set(span, "bytes_before", args[0].bytes_read)
    return args


def install(tracer: Tracer) -> None:
    from modalfuse import (backbone, cli, evaluation, experts, objectives,
                           segmentation, store, synthetic)

    B = backbone
    methods = [
        (B.Model, ("forward", "backward", "encoder_forward", "zero_grad")),
        (B.AdamW, ("step",)),
        (B.MultiHeadAttention, ("forward", "backward")),
        (B.FeedForward, ("forward", "backward")),
        (B.RMSNorm, ("forward", "backward")),
        (B.Linear, ("forward", "backward")),
        (experts.StubEncoders, ("encode_caption", "encode_question",
                                "encode_graph", "encode_frame")),
        (store.Store, ("__init__", "get_by_key")),
    ]
    for cls, names in methods:
        for attr in names:
            tracer.patch(f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{attr}",
                         [(cls, attr)])

    tracer.patch("backbone.Model.decoder_forward", [(B.Model, "decoder_forward")],
                 after=lambda s, a, r: _set(s, "positions", int(r.shape[1])))
    tracer.patch("backbone.Model.greedy_decode", [(B.Model, "greedy_decode")],
                 after=lambda s, a, r: _set(s, "tokens", len(r) - 1))
    tracer.patch("backbone.cross_entropy_with_grad", [(B, "cross_entropy_with_grad")])
    tracer.patch("backbone.save_checkpoint",
                 [(B, "save_checkpoint"), (cli, "save_checkpoint"),
                  (objectives, "save_checkpoint")],
                 after=lambda s, a, r: _set(s, "bytes", os.path.getsize(a[1])))
    tracer.patch("backbone.load_checkpoint", [(B, "load_checkpoint"), (cli, "load_checkpoint")])

    tracer.patch("store.write_store",
                 [(store, "write_store"), (cli, "write_store"), (B, "write_store"),
                  (synthetic, "write_store")],
                 before=_count_user_bytes,
                 after=lambda s, a, r: _set(s, "file_bytes", r.file_bytes))
    tracer.patch("store.Store.get", [(store.Store, "get")], before=_store_get_before,
                 after=lambda s, a, r: _set(s, "bytes", a[0].bytes_read - s[ATTRS]["bytes_before"]))
    tracer.patch("experts.hash_bytes", [(experts, "hash_bytes"), (store, "hash_bytes")])

    tracer.patch("segmentation.segment_transcript", [(segmentation, "segment_transcript")])
    tracer.patch("segmentation.filter_segments", [(segmentation, "filter_segments")],
                 after=lambda s, a, r: (_set(s, "in", len(a[0])), _set(s, "kept", len(r))))
    tracer.patch("segmentation.write_segments", [(segmentation, "write_segments")])

    tracer.patch("objectives.collate", [(objectives, "collate")])
    tracer.patch("objectives.train", [(objectives, "train"), (evaluation, "train")],
                 after=lambda s, a, r: _set(s, "steps", len(r)))
    tracer.patch("objectives.build_vqa_example",
                 [(objectives, "build_vqa_example"), (evaluation, "build_vqa_example")])
    tracer.patch("evaluation.evaluate", [(evaluation, "evaluate")])
    tracer.patch("cli.main", [(cli, "main")],
                 before=lambda s, a: (_set(s, "stage", a[0][0]), a)[1])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

STAGES = ("segment", "encode-pack", "pretrain", "finetune", "eval")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "backbone.forward_ms": "ms",
    "backbone.backward_ms": "ms",
    "backbone.cross_entropy_ms": "ms",
    "backbone.adamw_ms": "ms",
    "backbone.attention_fwd_ms": "ms",
    "backbone.attention_bwd_ms": "ms",
    "backbone.ffn_fwd_ms": "ms",
    "backbone.ffn_bwd_ms": "ms",
    "backbone.rmsnorm_fwd_ms": "ms",
    "backbone.rmsnorm_bwd_ms": "ms",
    "backbone.linear_fwd_ms": "ms",
    "backbone.linear_bwd_ms": "ms",
    "backbone.decode_encoder_ms": "ms",
    "backbone.decode_step_ms": "ms",
    "backbone.decode_tokens_per_example": "count",
    "backbone.decode_positions_per_token": "count",
    "backbone.save_checkpoint_s": "s",
    "backbone.load_checkpoint_s": "s",
    "backbone.checkpoint_bytes": "B",
    "store.write_s": "s",
    "store.write_mb_per_s": "MB/s",
    "store.bytes_per_user_byte": "ratio",
    "store.open_ms": "ms",
    "store.get_us.p50": "us",
    "store.get_us.p99": "us",
    "store.get_by_key_us.p50": "us",
    "store.get_by_key_us.p99": "us",
    "store.bytes_read_per_get": "B",
    "experts.encode_us": "us",
    "experts.encode_calls": "count",
    "experts.hash_bytes_us": "us",
    "segmentation.segment_s": "s",
    "segmentation.kept_ratio": "ratio",
    "objectives.collate_ms": "ms",
    "objectives.train_self_ms": "ms",
    "objectives.build_vqa_example_ms": "ms",
    "evaluation.evaluate_self_ms": "ms",
    **{f"cli.stage_self_s.{st}": "s" for st in STAGES},
    "cli.pretrain_prep_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _pct(values, q):
    """The q-th percentile (inclusive method); 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, from the spans of
    ``rounds`` traced rounds. A layer the workload never calls reads 0.

    "Per step" values divide by the training steps run under
    ``objectives.train``; decode values count only calls made under
    ``Model.greedy_decode``; store values leave out the store reads and
    writes made inside ``save_checkpoint``/``load_checkpoint``, which have
    their own metrics.
    """
    selfs = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    n = len(spans)
    in_train = [False] * n
    in_decode = [False] * n
    in_ckpt = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        name = s[NAME]
        in_train[i] = name == "objectives.train" or (p >= 0 and in_train[p])
        in_decode[i] = name == "backbone.Model.greedy_decode" or (p >= 0 and in_decode[p])
        in_ckpt[i] = name in ("backbone.save_checkpoint", "backbone.load_checkpoint") \
            or (p >= 0 and in_ckpt[p])

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or where(i)]

    steps = sum(spans[i][ATTRS]["steps"] for i in idx("objectives.train"))

    def per_step_ms(name, self_time=False):
        vals = selfs if self_time else dur
        return _ratio(1000.0 * sum(vals[i] for i in idx(name, in_train.__getitem__)), steps)

    m: dict[str, float] = {}
    m["backbone.forward_ms"] = per_step_ms("backbone.Model.forward")
    m["backbone.backward_ms"] = per_step_ms("backbone.Model.backward")
    m["backbone.cross_entropy_ms"] = per_step_ms("backbone.cross_entropy_with_grad")
    m["backbone.adamw_ms"] = per_step_ms("backbone.AdamW.step")
    for key, cls in (("attention", "MultiHeadAttention"), ("ffn", "FeedForward"),
                     ("rmsnorm", "RMSNorm"), ("linear", "Linear")):
        m[f"backbone.{key}_fwd_ms"] = per_step_ms(f"backbone.{cls}.forward", self_time=True)
        m[f"backbone.{key}_bwd_ms"] = per_step_ms(f"backbone.{cls}.backward", self_time=True)

    decodes = idx("backbone.Model.greedy_decode")
    dec_steps = idx("backbone.Model.decoder_forward", in_decode.__getitem__)
    tokens = sum(spans[i][ATTRS]["tokens"] for i in decodes)
    m["backbone.decode_encoder_ms"] = 1000.0 * _mean(
        [dur[i] for i in idx("backbone.Model.encoder_forward", in_decode.__getitem__)])
    m["backbone.decode_step_ms"] = 1000.0 * _mean([dur[i] for i in dec_steps])
    m["backbone.decode_tokens_per_example"] = _ratio(tokens, len(decodes))
    m["backbone.decode_positions_per_token"] = _ratio(
        sum(spans[i][ATTRS]["positions"] for i in dec_steps), tokens)

    saves = idx("backbone.save_checkpoint")
    m["backbone.save_checkpoint_s"] = _mean([dur[i] for i in saves])
    m["backbone.load_checkpoint_s"] = _mean([dur[i] for i in idx("backbone.load_checkpoint")])
    m["backbone.checkpoint_bytes"] = _mean([spans[i][ATTRS]["bytes"] for i in saves])

    not_ckpt = lambda i: not in_ckpt[i]  # noqa: E731
    writes = idx("store.write_store", not_ckpt)
    # write time leaves out the expert encoding that the caller's record
    # generator does while write_store pulls records from it
    encode_in_write = {i: 0.0 for i in writes}
    for i, s in enumerate(spans):
        if s[PARENT] in encode_in_write and s[NAME].startswith("experts.StubEncoders."):
            encode_in_write[s[PARENT]] += dur[i]
    write_s = sum(dur[i] - encode_in_write[i] for i in writes)
    user = sum((spans[i][ATTRS] or {}).get("user_bytes", 0) for i in writes)
    m["store.write_s"] = _ratio(write_s, len(writes))
    m["store.write_mb_per_s"] = _ratio(user / 1e6, write_s)
    m["store.bytes_per_user_byte"] = _ratio(
        sum(spans[i][ATTRS]["file_bytes"] for i in writes), user)
    m["store.open_ms"] = 1000.0 * _mean([dur[i] for i in idx("store.Store.__init__")])
    gets = idx("store.Store.get", not_ckpt)
    scan = [1e6 * dur[i] for i in gets
            if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != "store.Store.get_by_key"]
    by_key = [1e6 * dur[i] for i in idx("store.Store.get_by_key", not_ckpt)]
    m["store.get_us.p50"] = _pct(scan, 50)
    m["store.get_us.p99"] = _pct(scan, 99)
    m["store.get_by_key_us.p50"] = _pct(by_key, 50)
    m["store.get_by_key_us.p99"] = _pct(by_key, 99)
    m["store.bytes_read_per_get"] = _mean([spans[i][ATTRS]["bytes"] for i in gets])

    encodes = [i for i, s in enumerate(spans) if s[NAME].startswith("experts.StubEncoders.")]
    m["experts.encode_us"] = 1e6 * _mean([dur[i] for i in encodes])
    m["experts.encode_calls"] = _ratio(len(encodes), rounds)
    m["experts.hash_bytes_us"] = 1e6 * _mean([dur[i] for i in idx("experts.hash_bytes")])

    def stage(name):
        return idx("cli.main", lambda i: spans[i][ATTRS]["stage"] == name)

    m["segmentation.segment_s"] = _mean([dur[i] for i in stage("segment")])
    filters = [spans[i][ATTRS] for i in idx("segmentation.filter_segments")]
    m["segmentation.kept_ratio"] = _ratio(sum(a["kept"] for a in filters),
                                          sum(a["in"] for a in filters))

    m["objectives.collate_ms"] = per_step_ms("objectives.collate")
    m["objectives.train_self_ms"] = _ratio(
        1000.0 * sum(selfs[i] for i in idx("objectives.train")), steps)
    m["objectives.build_vqa_example_ms"] = 1000.0 * _mean(
        [dur[i] for i in idx("objectives.build_vqa_example")])
    m["evaluation.evaluate_self_ms"] = 1000.0 * _mean(
        [selfs[i] for i in idx("evaluation.evaluate")])

    for st in STAGES:
        m[f"cli.stage_self_s.{st}"] = _mean([selfs[i] for i in stage(st)])
    prep = []
    for i in stage("pretrain"):
        child_train = [j for j in idx("objectives.train") if spans[j][PARENT] == i]
        if child_train:
            prep.append(spans[child_train[0]][START] - spans[i][START])
    m["cli.pretrain_prep_s"] = _mean(prep)
    return m
