"""Run the benchmark in alternating parent/change pairs and record every run.

    python3 tools/bench_pairs.py run --parent REV --workload NAME \\
        --seeds 101-110 [--seconds 30] --out BENCH_prN.json [--work DIR]
    python3 tools/bench_pairs.py summary BENCH_prN.json
    python3 tools/bench_pairs.py about BENCH_prN.json TEXT

Run from the repository root. ``run`` exports both sides with ``git archive``
into fresh directories: the parent commit, and the change, which is the
working tree (tracked and untracked files, without what ``.gitignore``
lists). Both sides must hold the same ``benchmarks/`` tree. For each seed it
runs ``benchmarks/run.py --trace 0`` once per side, one process at a time;
the side that runs first alternates from pair to pair. Each run keeps the
last two lines of its standard output, parsed as JSON, and the minor page
faults and user and system CPU seconds of the child process, from
``resource.getrusage(RUSAGE_CHILDREN)`` deltas. An existing ``--out`` file
for the same parent, change and benchmark trees is extended, so several
workloads can share one file.

``summary`` prints, per workload, each end-to-end metric's median and
quartiles for both sides, the change's wins out of the pairs, and the median
minor faults and user and system CPU seconds per run, which show a change
that trades CPU time for wall time. ``about`` sets the file's description,
which is best written once the runs are in.
"""

from __future__ import annotations

import argparse
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


def cmd_run(args) -> int:
    parent = _git("rev-parse", f"{args.parent}^{{commit}}")
    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    work.mkdir(parents=True, exist_ok=True)
    try:
        change = _worktree_tree(work)
        bench = _git("rev-parse", f"{change}:benchmarks")
        if _git("rev-parse", f"{parent}:benchmarks") != bench:
            print("error: parent and change hold different benchmarks/ trees", file=sys.stderr)
            return 2
        header = {"parent": parent, "change_src_tree": _git("rev-parse", f"{change}:src"),
                  "benchmarks_tree": bench}
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"about": "", **header, "runs": []}
        if any(doc.get(k) != v for k, v in header.items()):
            print(f"error: {out} records other trees than {header}", file=sys.stderr)
            return 2
        trees = {parent: _export(parent, work / "parent"), CHANGE: _export(change, work / "change")}
        pairs_before = len(doc["runs"]) // 2
        for i, seed in enumerate(_seeds(args.seeds)):
            for commit in _order(pairs_before + i, parent):
                run = _run_one(trees[commit], args.workload, seed, args.seconds)
                doc["runs"].append({"commit": commit, "workload": args.workload, "seed": seed,
                                    **run})
                m = run["stdout_tail"][-1]["metrics"]
                print(f"{args.workload} seed {seed} {'parent' if commit == parent else CHANGE}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                      + f" minflt={run['rusage']['minflt']}", file=sys.stderr)
                out.write_text(json.dumps(doc, indent=1) + "\n")   # kept after every run
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def cmd_about(args) -> int:
    out = Path(args.file)
    doc = json.loads(out.read_text())
    doc["about"] = args.text
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q1, q2, q3


def cmd_summary(args) -> int:
    doc = json.loads(Path(args.file).read_text())
    groups: dict[tuple, dict[int, dict]] = {}
    for run in doc["runs"]:
        side = "change" if run["commit"] == CHANGE else "parent"
        groups.setdefault(run["workload"], {}).setdefault(run["seed"], {})[side] = run
    better = {"items_per_s": 1}   # higher is better; every other end-to-end metric is lower
    for workload, pairs in groups.items():
        full = [p for p in pairs.values() if len(p) == 2]
        print(f"{workload}: {len(full)} pairs")
        for name in full[0]["parent"]["stdout_tail"][-1]["metrics"] if full else ():
            vals = {side: [p[side]["stdout_tail"][-1]["metrics"][name]["value"] for p in full]
                    for side in ("parent", "change")}
            sign = better.get(name, -1)
            wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            pq, cq = _quartiles(vals["parent"]), _quartiles(vals["change"])
            print(f"  {name}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  change {cq[1]:.4g}"
                  f" [{cq[0]:.4g}, {cq[2]:.4g}]  {100 * (cq[1] / pq[1] - 1):+.1f}%"
                  f"  change better in {wins}/{len(full)}  parent IQR {pq[2] - pq[0]:.4g}")
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
    r.add_argument("--parent", required=True, help="parent commit")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="a seed, or an inclusive range A-B")
    r.add_argument("--seconds", type=float, default=30.0)
    r.add_argument("--out", required=True)
    r.add_argument("--work", help="directory for the exported trees (default: a temporary one)")
    s = sub.add_parser("summary")
    s.add_argument("file")
    a = sub.add_parser("about", help="replace the file's 'about' text")
    a.add_argument("file")
    a.add_argument("text")
    args = p.parse_args(argv)
    return {"run": cmd_run, "summary": cmd_summary, "about": cmd_about}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
