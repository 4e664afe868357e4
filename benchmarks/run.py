"""Benchmark command for modalfuse.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
same checkout; nothing needs building. The workload's inputs are generated
from ``--seed`` and set up three times, then rounds of the workload repeat in
a closed loop with one client for about ``--seconds`` seconds (at least one
round). Output checks and one more set-up follow every round, outside the
timed region; ``setup_s`` is the median of all set-ups.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
every second round is traced, and the metrics are the per-layer ones,
computed from the traced rounds only. The
line before it is a JSON object with the run environment, the workload's own
named metrics and the properties that explain its figures.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported. One thread keeps
# the closed loop single-threaded and seeded losses bit-identical between
# runs, which they are not across thread counts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups before the first round; one more follows every round, so that
# setup_s samples the machine across the whole run
SETUPS_FIRST = 3


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _timed_setup(wl, setup_s: list[float]):
    t0 = time.perf_counter()
    wl.setup()
    setup_s.append(time.perf_counter() - t0)


def _run_rounds(wl, budget_s, out, setup_s, tracer=None) -> tuple[list[float], list[float]]:
    """Rounds until the next one would end past ``budget_s``, each followed
    by its output checks and a timed set-up; returns the untraced and the
    traced round times. With a tracer every second round is
    traced, so drift in machine speed falls on both kinds alike, and at least
    one of each runs; without one, at least one round runs. A round that
    raises ends the loop and counts as one failed operation."""
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        tracing_on = tracer is not None and i % 2 == 1
        try:
            if tracing_on:
                tracer.run_id = f"{wl.name}/seed{wl.seed}/round{i}"
                tracing.install(tracer)
            try:
                dt = wl.run_round(i)
            finally:
                if tracing_on:
                    tracer.uninstall()
            wl.after_round(i)
            _timed_setup(wl, setup_s)
        except Exception as e:  # the program failed; report it, keep what ran
            traceback.print_exc(file=sys.stderr)
            out.ops(1, 1, f"round {i} raised {e!r}")
            break
        (traced if tracing_on else untraced).append(dt)
        wl.round_s.append(dt)
        i += 1
        done = untraced and (traced or tracer is None)
        if done and time.perf_counter() - start + dt > budget_s:
            break
    return untraced, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "modalfuse" / "__init__.py").is_file():
        print(f"error: no modalfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import modalfuse
    if Path(modalfuse.__file__).resolve().parent != (SRC / "modalfuse").resolve():
        print(f"error: imported modalfuse from {modalfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import END_TO_END, WORKLOADS, Outcome
    if args.workload not in WORKLOADS:
        print(f"error: workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = _environment(args.seed)
    out = Outcome()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, out)
        setup_s: list[float] = []
        for _ in range(SETUPS_FIRST):
            _timed_setup(wl, setup_s)

        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = _run_rounds(wl, args.seconds, out, setup_s, tracer)
            if not untraced or not traced:
                return 1
            metrics = tracing.per_layer_metrics(tracer.spans, len(traced))
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
            units = tracing.PER_LAYER
            tracer.write(str(ROOT / ".bench_out"
                             / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            if not _run_rounds(wl, args.seconds, out, setup_s)[0]:
                return 1
            metrics = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "round_s": statistics.median(wl.round_s),
                "items_per_s": wl.items_per_s(),
            }
            units = END_TO_END
        wl.final_checks()
        env["loadavg_end"] = os.getloadavg()
        detail = {
            "workload": args.workload,
            "trace": args.trace,
            "env": env,
            "rounds": len(wl.round_s),
            "round_s": wl.round_s,
            "setup_s": setup_s,
            "failed_ratio": out.failed / out.attempted,
            "failures": out.failures,
            "properties": wl.properties(),
        }
        if not args.trace:
            detail["workload_metrics"] = {
                k: {"value": v, "unit": u} for k, (v, u) in {
                    "setup_s": (metrics["setup_s"], "s"),
                    "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
                    "failed_ratio": (detail["failed_ratio"], "ratio"),
                    **wl.named_metrics()}.items()}
        print(json.dumps(detail))
        print(json.dumps({
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
