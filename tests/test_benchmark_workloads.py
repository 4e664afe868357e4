"""The benchmark (benchmarks/workloads.py) calls the package by name:
``objectives.build_split_half_example``, ``objectives.build_vqa_example``,
``evaluation.evaluate``, ``VqaExample.fused.rows``, and the CLI's stages. One
round of each of its workloads here keeps a renamed or changed name from
passing this suite while every benchmark run fails. The paper-pipeline round
also runs the benchmark's store oracle, which compares sampled records of the
packed store with a fresh encode, so a store change that breaks it fails here.
The demo that no other test runs is imported for the same reason."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["TrainSmall", "DecodeLong", "PaperPipeline"])
def test_one_round_without_failures(tmp_path, workload):
    workloads = load(ROOT / "benchmarks" / "workloads.py", "benchmark_workloads")
    out = workloads.Outcome()
    wl = getattr(workloads, workload)(0, tmp_path, out)
    wl.setup()
    wl.round_s.append(wl.run_round(0))
    wl.after_round(0)
    wl.final_checks()
    assert out.attempted > 0
    assert out.failed == 0, out.failures


def test_leakage_demo_imports():
    demo = load(ROOT / "demos" / "leakage_comparison.py", "leakage_comparison")
    assert callable(demo.main)
