"""tools/bench_pairs.py: the seed ranges it accepts, the running order of a
pair, its exports of the trees, the summary it prints from a file of runs, and
every moved digest that ``exact`` reports."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    tool = load_tool()
    assert tool._seeds("7") == [7]
    assert tool._seeds("101-104") == [101, 102, 103, 104]


def test_first_side_alternates_across_pairs():
    tool = load_tool()
    orders = [tool._order(pair, "abc") for pair in range(4)]
    assert orders == [["abc", "change"], ["change", "abc"]] * 2


def test_export_replaces_its_own_earlier_export(tmp_path, monkeypatch):
    tool = load_tool()
    repo, work = tmp_path / "repo", tmp_path / "work"
    repo.mkdir()
    monkeypatch.chdir(repo)

    def commit(name):
        (repo / name).write_text(name)
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", name]):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                            "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)
        return tool._git("rev-parse", "HEAD")

    first = commit("one.txt")
    (repo / "one.txt").unlink()
    second = commit("two.txt")
    work.mkdir()
    (work / "index").write_text("kept")   # beside the exports, as run's scratch index is
    tool._export(first, work / "parent")
    tool._export(second, work / "parent")
    assert [p.name for p in (work / "parent").iterdir()] == ["two.txt"]
    assert (work / "index").read_text() == "kept"


def test_run_records_the_src_line_counts_of_both_trees(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "benchmarks").mkdir()
    (repo / "benchmarks" / "run.py").write_text("pass\n")
    (repo / "src" / "pkg" / "a.py").write_text("a = 1\nb = 2\n")
    (repo / "src" / "pkg" / "data.txt").write_text("not python\n")
    monkeypatch.chdir(repo)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "parent"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)
    (repo / "src" / "pkg" / "b.py").write_text("c = 3\n" * 4)   # the change, uncommitted
    metrics = {"items_per_s": {"value": 1.0, "unit": "1/s"}}
    monkeypatch.setattr(tool, "_run_one", lambda tree, workload, seed, seconds: {
        "stdout_tail": [{}, {"metrics": metrics}],
        "rusage": {"minflt": 1, "utime_s": 0.1, "stime_s": 0.0}})
    out = tmp_path / "BENCH.json"
    assert tool.main(["run", "--parent", "HEAD", "--workload", "w", "--seeds", "1",
                      "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 2, "change": 6}
    capsys.readouterr()
    assert tool.main(["summary", str(out)]) == 0
    assert capsys.readouterr().out.startswith("src/ lines: parent 2  change 6  (+4)\nw: 1 pairs")


def test_rerun_records_each_pair_once(tmp_path, monkeypatch, capsys):
    """A run cut after one side of seed 2 leaves that run in the file; the
    rerun of seed 2 drops it, says so, and orders its sides by the complete
    pairs, so each (workload, seed, side) is recorded once."""
    tool = load_tool()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("a = 1\n")
    (repo / "benchmarks").mkdir()
    (repo / "benchmarks" / "run.py").write_text("pass\n")
    monkeypatch.chdir(repo)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "parent"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)
    calls = []

    def run_one(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        if len(calls) == 4 and seed == 2:
            raise RuntimeError("cut")   # the run stops before seed 2's second side
        return {"stdout_tail": [{}, {"metrics": {"round_s": {"value": 1.0, "unit": "s"}}}],
                "rusage": {"minflt": 1, "utime_s": 0.1, "stime_s": 0.0}}

    monkeypatch.setattr(tool, "_run_one", run_one)
    out = tmp_path / "BENCH.json"
    argv = ["run", "--parent", "HEAD", "--workload", "w", "--out", str(out)]
    with pytest.raises(RuntimeError, match="cut"):
        tool.main([*argv, "--seeds", "1-2"])
    assert [(r["seed"], r["commit"] == "change") for r in json.loads(out.read_text())["runs"]] \
        == [(1, False), (1, True), (2, True)]
    capsys.readouterr()
    calls.clear()
    assert tool.main([*argv, "--seeds", "2-3"]) == 0
    assert capsys.readouterr().err.splitlines()[0] == \
        f"w seed 2: dropped 1 earlier run(s) from {out}"
    # one complete pair before seed 2: the change runs first, and seed 3 alternates
    assert calls == [("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]
    runs = json.loads(out.read_text())["runs"]
    assert sorted((r["seed"], r["commit"] == "change") for r in runs) == \
        [(s, c) for s in (1, 2, 3) for c in (False, True)]
    assert tool.main(["summary", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "w: 3 pairs" in summary and "duplicate" not in summary


def run(commit, seed, items, round_s):
    metrics = {"items_per_s": {"value": items, "unit": "1/s"},
               "round_s": {"value": round_s, "unit": "s"}}
    return {"commit": commit, "workload": "train-small", "seed": seed,
            "stdout_tail": [{}, {"correct": True, "metrics": metrics}],
            "rusage": {"minflt": 10 if commit == "change" else 20,
                       "utime_s": 1.5 if commit == "change" else 1.0, "stime_s": 0.1}}


def test_summary_counts_wins_by_direction(tmp_path, capsys):
    runs = []
    for seed, (p_items, c_items) in enumerate([(100, 110), (100, 120), (100, 90)]):
        runs += [run("abc", seed, p_items, 1.0), run("change", seed, c_items, 1.0 / c_items * 100)]
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"about": "", "parent": "abc", "runs": runs}))
    assert load_tool().main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "train-small: 3 pairs" in out
    assert "items_per_s: parent 100 [100, 100]  change 110 [100, 115]  +10.0%" in out
    assert "change better in 2/3" in out   # higher is better for items_per_s
    assert "minflt per run (median): parent 20  change 10" in out
    assert "cpu s per run (median): parent user 1 sys 0.1  change user 1.5 sys 0.1" in out


def test_summary_names_duplicate_runs(tmp_path, capsys):
    runs = [run("abc", 0, 100, 1.0), run("abc", 0, 90, 1.0), run("change", 0, 110, 1.0),
            run("abc", 1, 100, 1.0), run("change", 1, 110, 1.0), run("change", 1, 120, 1.0),
            run("change", 1, 130, 1.0)]
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"about": "", "parent": "abc", "runs": runs}))
    assert load_tool().main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("duplicate")] == [
        "duplicate: train-small seed 0 parent has 2 runs; the last one is used",
        "duplicate: train-small seed 1 change has 3 runs; the last one is used"]
    # the last of each: parent 90 and 100, change 110 and 130
    assert "items_per_s: parent 95 [92.5, 97.5]  change 120 [115, 125]" in out


@pytest.mark.parametrize("losses, verdict", [(1, "holds"), (2, "fails")])
def test_summary_applies_the_gain_rule_and_bounds(tmp_path, capsys, monkeypatch, losses, verdict):
    tool = load_tool()
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.1}]}))
    runs = []
    for seed in range(10):   # parent items 100..109: median 104.5, IQR 4.5
        c_items = 90 if seed < losses else 130 + seed
        runs += [run("abc", seed, 100 + seed, 1.0), run("change", seed, c_items, 1.2)]
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"about": "", "parent": "abc", "runs": runs}))
    monkeypatch.setattr(tool, "BENCHMARK", bench)
    assert tool.main(["summary", str(path)]) == 0
    lines = {line.split(":")[0].strip(): line for line in capsys.readouterr().out.splitlines()}
    assert f"change better in {10 - losses}/10" in lines["items_per_s"]
    assert lines["items_per_s"].endswith(f"gain rule {verdict}  within bound 0.25")
    # round_s is 20% worse than the parent's: beyond its bound of 10%
    assert lines["round_s"].endswith("gain rule fails  beyond bound 0.1")


@pytest.mark.parametrize("change, verdict", [(100, "unresolved: parent IQR beyond bound 0.25"),
                                             (200, "within bound 0.25")])
def test_summary_calls_a_metric_wider_than_its_bound_unresolved(tmp_path, capsys, monkeypatch,
                                                                change, verdict):
    tool = load_tool()
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    runs = []
    for seed in range(10):   # parent items 50 and 150: median 100, IQR 100, beyond 0.25 x 100
        runs += [run("abc", seed, 50 + 100 * (seed % 2), 1.0), run("change", seed, change, 1.0)]
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps({"about": "", "parent": "abc", "runs": runs}))
    monkeypatch.setattr(tool, "BENCHMARK", bench)
    assert tool.main(["summary", str(path)]) == 0
    lines = {line.split(":")[0].strip(): line for line in capsys.readouterr().out.splitlines()}
    # a change that beats every parent run is resolved, however wide the parent's spread
    assert lines["items_per_s"].endswith(verdict)


@pytest.mark.parametrize("change, verdict", [
    ("bits = 2\n", "outputs differ: first pretrain/checkpoint.store on 2 and 1 CPU(s), "
                   "then pretrain/metrics.jsonl loss on 1 CPU(s)"),
    ("bits = 1\n", "outputs identical: 2 artifacts on 2 and 1 CPU(s)")])
def test_exact_reports_the_first_moved_digest(tmp_path, monkeypatch, capsys, change, verdict):
    tool = load_tool()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "benchmarks").mkdir()
    (repo / "benchmarks" / "run.py").write_text("pass\n")
    monkeypatch.chdir(repo)
    for i, bits in enumerate(("bits = 1\n", change)):
        (repo / "src" / "a.py").write_text(bits)
        (repo / "README").write_text(f"commit {i}\n")
        for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", str(i)]):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                            "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)

    def digests(tree, pin):   # a file that moves on any CPU count, a bit only on one CPU
        bits = (tree / "src" / "a.py").read_text()
        return {"cpus": 1 if pin else 2,
                "artifacts": {"pretrain/checkpoint.store": bits,
                              "pretrain/metrics.jsonl loss": bits if pin else "bits = 1\n"}}

    monkeypatch.setattr(tool, "_digests", digests)
    out = tmp_path / "BENCH.json"
    assert tool.main(["exact", "--parent", "HEAD~1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == verdict + "\n"
    doc = json.loads(out.read_text())
    assert [run["cpus"] for run in doc["exact"]["change"]] == [2, 1]
    assert tool.main(["summary", str(out)]) == 0
    assert verdict in capsys.readouterr().out.splitlines()
