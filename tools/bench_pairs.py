"""Run the benchmark in alternating parent/change pairs and record every run.

    python3 tools/bench_pairs.py run --parent REV --workload NAME \\
        --seeds 101-110 [--seconds 30] --out BENCH_prN.json [--work DIR]
    python3 tools/bench_pairs.py exact --parent REV --out BENCH_prN.json
    python3 tools/bench_pairs.py summary BENCH_prN.json
    python3 tools/bench_pairs.py about BENCH_prN.json TEXT

Run from the repository root. ``run`` exports both sides with ``git archive``
into fresh directories: the parent commit, and the change, which is the
working tree (tracked and untracked files, without what ``.gitignore``
lists). Both sides must hold the same ``benchmarks/`` tree. For each seed it
runs ``benchmarks/run.py --trace 0`` once per side, one process at a time,
after dropping the runs of that workload and seed already in ``--out`` (a cut
run's leftovers), so each pair is recorded once; the side that runs first
alternates with the number of complete pairs in the file. Each run keeps the
last two lines of its standard output, parsed as JSON, and the minor page
faults and user and system CPU seconds of the child process, from
``resource.getrusage(RUSAGE_CHILDREN)`` deltas. The file's header records the
trees and the line count of the Python files under ``src/`` in each export.
An existing ``--out`` file for the same parent, change and benchmark trees is
extended, so several workloads can share one file.

``exact`` runs one round of each workload and one small ``modalfuse ablate``
at seed ``EXACT_SEED`` in both exports, in a child process with one BLAS
thread on every CPU it may use, then in one pinned to one CPU, and writes the
digests of the outputs (SHA-256 or float hex; see ``_EXACT_CHILD``) into the
header's ``exact``.

``summary`` prints both ``src/`` line counts, "outputs identical" or the
first artifact that differs and on how many CPUs, each (workload, seed, side)
that has more than one run (it uses the last), then, per workload, each
end-to-end metric's median and quartiles for both sides, the change's wins
out of the pairs, and the median minor faults and user and system CPU
seconds per run, which show a change that trades CPU time for wall time.
Each metric's direction and bound come from ``BENCHMARK.json``'s
``end_to_end`` list. Per metric it says whether the gain rule holds (the
change wins at least 9 in 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range) and whether the
change stays within the bound (its median is worse than the parent's by at
most ``bound`` times the parent's median). Where the parent's interquartile
range is wider than that bound, the metric is unresolved, unless every
change run is better than every parent run. ``about`` sets the file's
description, which is best written once the runs are in.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = "change"   # the ``commit`` of a change-side run
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
EXACT_SEED = 4242   # the seed of ``exact``'s rounds and of its ablate run


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def _worktree_tree(work: Path) -> str:
    """The tree of the working tree, written through a scratch index so that
    the repository's own index is left alone."""
    env = {**os.environ, "GIT_INDEX_FILE": str(work / "index")}
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    return _git("write-tree", env=env)


def _export(treeish: str, dest: Path) -> Path:
    """Export ``treeish`` into ``dest``, in place of an earlier export there, so
    that one ``--work`` directory serves any number of runs."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", treeish], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _src_lines(tree: Path) -> int:
    """Lines of the Python files under ``tree``'s ``src/``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def _run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} in {tree}:\n"
                           f"{proc.stderr[-2000:]}")
    return {
        "stdout_tail": [json.loads(line) for line in proc.stdout.splitlines()[-2:]],
        "rusage": {"minflt": after.ru_minflt - before.ru_minflt,
                   "utime_s": after.ru_utime - before.ru_utime,
                   "stime_s": after.ru_stime - before.ru_stime},
    }


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _order(pair: int, parent: str) -> list[str]:
    """The sides of pair number ``pair`` of a file, in running order: the
    first side alternates from pair to pair across the whole file."""
    return [parent, CHANGE] if pair % 2 == 0 else [CHANGE, parent]


def _with_exports(args, fill) -> int:
    """Exports both trees, opens the ``--out`` document of the same trees or
    starts one, and calls ``fill(args, parent, trees by commit, doc)``."""
    parent = _git("rev-parse", f"{args.parent}^{{commit}}")
    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        change = _worktree_tree(work)
        bench = _git("rev-parse", f"{change}:benchmarks")
        if _git("rev-parse", f"{parent}:benchmarks") != bench:
            print("error: parent and change hold different benchmarks/ trees", file=sys.stderr)
            return 2
        trees = {parent: _export(parent, work / "parent"), CHANGE: _export(change, work / "change")}
        header = {"parent": parent, "change_src_tree": _git("rev-parse", f"{change}:src"),
                  "benchmarks_tree": bench,
                  "src_lines": {"parent": _src_lines(trees[parent]),
                                CHANGE: _src_lines(trees[CHANGE])}}
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"about": "", **header, "runs": []}
        if any(doc.get(k) != v for k, v in header.items()):
            print(f"error: {out} records other trees than {header}", file=sys.stderr)
            return 2
        fill(args, parent, trees, doc)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def _side(run: dict) -> str:
    return CHANGE if run["commit"] == CHANGE else "parent"


def _complete_pairs(runs: list) -> int:
    """The (workload, seed) pairs of ``runs`` that hold both sides."""
    sides: dict[tuple, set] = {}
    for run in runs:
        sides.setdefault((run["workload"], run["seed"]), set()).add(_side(run))
    return sum(len(s) == 2 for s in sides.values())


def _pairs(args, parent: str, trees: dict, doc: dict):
    out = Path(args.out)
    for seed in _seeds(args.seeds):
        kept = [r for r in doc["runs"] if (r["workload"], r["seed"]) != (args.workload, seed)]
        if len(kept) < len(doc["runs"]):
            print(f"{args.workload} seed {seed}: dropped {len(doc['runs']) - len(kept)}"
                  f" earlier run(s) from {out}", file=sys.stderr)
            doc["runs"] = kept
        for commit in _order(_complete_pairs(doc["runs"]), parent):
            run = _run_one(trees[commit], args.workload, seed, args.seconds)
            doc["runs"].append({"commit": commit, "workload": args.workload, "seed": seed,
                                **run})
            m = run["stdout_tail"][-1]["metrics"]
            print(f"{args.workload} seed {seed} {'parent' if commit == parent else CHANGE}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                  + f" minflt={run['rusage']['minflt']}", file=sys.stderr)
            out.write_text(json.dumps(doc, indent=1) + "\n")   # kept after every run


# ``exact``'s child, run in an export with the seed, a work directory and "pin"
# (to one CPU) or "all": one round per workload and a d=32 ablate run through
# that tree's ``cli.main``, then {"cpus", "artifacts"}.
_EXACT_CHILD = r"""
import contextlib, hashlib, io, json, os, sys
from pathlib import Path
if sys.argv[3] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path[:0] = ["src", "benchmarks"]
from workloads import WORKLOADS, Outcome
runs = {}
for name, workload in WORKLOADS.items():
    (Path(sys.argv[2]) / name).mkdir(parents=True)
    runs[name] = workload(int(sys.argv[1]), Path(sys.argv[2]) / name, Outcome())
    runs[name].setup()
    runs[name].run_round(0)
rd = Path(sys.argv[2]) / "paper-pipeline" / "round0"
found = {rel: hashlib.sha256((rd / rel).read_bytes()).hexdigest() for rel in (
    "embeddings.store", "pretrain/checkpoint.store", "finetune/checkpoint.store", "eval/eval.json")}
for rel in ("pretrain/metrics.jsonl", "finetune/metrics.jsonl"):
    records = [json.loads(line) for line in (rd / rel).read_text().splitlines()]
    for k in ("loss", "grad_norm"):
        found[f"{rel} {k}"] = [r[k] if r[k] is None else r[k].hex() for r in records]
found["train-small final loss"] = runs["train-small"].final_losses[-1].hex()
found["decode-long predictions"] = hashlib.sha256(
    json.dumps(runs["decode-long"].predictions).encode()).hexdigest()
from modalfuse import cli
ad = Path(sys.argv[2]) / "ablate"
with contextlib.redirect_stdout(io.StringIO()):   # the table it prints
    cli.main(["ablate", "--d-model", "32", "--n-heads", "4", "--enc-layers", "1",
              "--dec-layers", "1", "--d-ff", "64", "--max-target-len", "32",
              "--n-segments", "16", "--n-vqa", "16", "--pretrain-steps", "10",
              "--finetune-steps", "30", "--batch-size", "8", "--lr", "0.01",
              "--seed", sys.argv[1], "--out-dir", str(ad)])
for name in ("ablation.tsv", "ablation.jsonl"):
    found[name] = hashlib.sha256((ad / name).read_bytes()).hexdigest()
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "artifacts": found}))
"""


def _digests(tree: Path, pin: bool) -> dict:
    """What ``_EXACT_CHILD`` prints, run in ``tree`` with one BLAS thread."""
    work = tree / ".exact_work"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", _EXACT_CHILD, str(EXACT_SEED), str(work), "pin" if pin else "all"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exact child exited {proc.returncode} in {tree}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _exact(args, parent: str, trees: dict, doc: dict):
    doc["exact"] = {"seed": EXACT_SEED, **{
        side: [_digests(trees[commit], pin) for pin in (False, True)]
        for side, commit in (("parent", parent), (CHANGE, CHANGE))}}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(_exact_verdict(doc["exact"]))


def _exact_verdict(exact: dict) -> str:
    for parent, change in zip(exact["parent"], exact[CHANGE]):
        for name, digest in parent["artifacts"].items():
            if change["artifacts"].get(name) != digest:
                return f"outputs differ: first {name}, on {parent['cpus']} CPU(s)"
    cpus = " and ".join(str(run["cpus"]) for run in exact["parent"])
    return f"outputs identical: {len(exact['parent'][0]['artifacts'])} artifacts on {cpus} CPU(s)"


def cmd_about(args) -> int:
    out = Path(args.file)
    doc = json.loads(out.read_text())
    doc["about"] = args.text
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3


def _rules() -> dict[str, tuple[int, float]]:
    """Name -> (sign, bound) of each end-to-end metric; sign 1 where higher is better."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    return {m["name"]: (1 if m["better"] == "higher" else -1, m["bound"]) for m in metrics}


def _verdict(sign: int, bound: float, wins: int, parent: list, change: list) -> str:
    pq, cq = _quartiles(parent), _quartiles(change)
    gap = sign * (cq[1] - pq[1])   # above 0 where the change's median is better
    gain = wins * 10 >= 9 * len(parent) and gap > pq[2] - pq[0]
    if pq[2] - pq[0] > bound * abs(pq[1]) and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        reach = "unresolved: parent IQR beyond"
    else:
        reach = "within" if gap >= -bound * abs(pq[1]) else "beyond"
    return f"  gain rule {'holds' if gain else 'fails'}  {reach} bound {bound:g}"


def cmd_summary(args) -> int:
    doc = json.loads(Path(args.file).read_text())
    rules = _rules()
    if "src_lines" in doc:
        lines = doc["src_lines"]
        print(f"src/ lines: parent {lines['parent']}  change {lines['change']}"
              f"  ({lines['change'] - lines['parent']:+d})")
    if "exact" in doc:
        print(_exact_verdict(doc["exact"]))
    groups: dict[tuple, dict[int, dict]] = {}
    counts = collections.Counter((run["workload"], run["seed"], _side(run)) for run in doc["runs"])
    for (workload, seed, side), n in counts.items():
        if n > 1:
            print(f"duplicate: {workload} seed {seed} {side} has {n} runs; the last one is used")
    for run in doc["runs"]:
        groups.setdefault(run["workload"], {}).setdefault(run["seed"], {})[_side(run)] = run
    for workload, pairs in groups.items():
        full = [p for p in pairs.values() if len(p) == 2]
        print(f"{workload}: {len(full)} pairs")
        for name in full[0]["parent"]["stdout_tail"][-1]["metrics"] if full else ():
            vals = {side: [p[side]["stdout_tail"][-1]["metrics"][name]["value"] for p in full]
                    for side in ("parent", "change")}
            sign, bound = rules.get(name, (-1, None))
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            pq, cq = _quartiles(vals["parent"]), _quartiles(vals["change"])
            print(f"  {name}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  change {cq[1]:.4g}"
                  f" [{cq[0]:.4g}, {cq[2]:.4g}]  {100 * (cq[1] / pq[1] - 1):+.1f}%"
                  f"  change better in {wins}/{len(full)}  parent IQR {pq[2] - pq[0]:.4g}"
                  + ("" if bound is None else _verdict(sign, bound, wins, vals["parent"],
                                                       vals["change"])))
        faults = {side: statistics.median(p[side]["rusage"]["minflt"] for p in full)
                  for side in ("parent", "change") if full and "rusage" in full[0][side]}
        if faults:
            print(f"  minflt per run (median): parent {faults['parent']:.0f}"
                  f"  change {faults['change']:.0f}")
            cpu = {side: [statistics.median(p[side]["rusage"][k] for p in full)
                          for k in ("utime_s", "stime_s")] for side in ("parent", "change")}
            print("  cpu s per run (median): " + "  ".join(
                f"{side} user {u:.4g} sys {s:.4g}" for side, (u, s) in cpu.items()))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="a seed, or an inclusive range A-B")
    r.add_argument("--seconds", type=float, default=30.0)
    e = sub.add_parser("exact", help="digest both trees' seeded outputs, on all CPUs and on one")
    for q in (r, e):
        q.add_argument("--parent", required=True, help="parent commit")
        q.add_argument("--out", required=True)
        q.add_argument("--work", help="directory for the exported trees (default: a temporary one)")
    s = sub.add_parser("summary")
    s.add_argument("file")
    a = sub.add_parser("about", help="replace the file's 'about' text")
    a.add_argument("file")
    a.add_argument("text")
    args = p.parse_args(argv)
    if args.command in ("run", "exact"):
        return _with_exports(args, _pairs if args.command == "run" else _exact)
    return {"summary": cmd_summary, "about": cmd_about}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
