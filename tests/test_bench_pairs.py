"""tools/bench_pairs.py: the seed ranges it accepts, the running order of a
pair, and the summary it prints from a file of runs."""

import importlib.util
import json
from pathlib import Path

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
