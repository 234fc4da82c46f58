import importlib.util
import json
import os
import textwrap

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "pipeline_s", "bound": 0.25, "better": "lower"},
              {"name": "peak_rss_mb", "bound": 0.15, "better": "lower"}]


def test_summary_of_ten_synthetic_pairs():
    parent = [float(v) for v in range(1, 11)]          # median 5.5, q1 3.25, q3 7.75
    change = [v - 2.0 if i < 8 else v + 1.0 for i, v in enumerate(parent)]
    summary = bench_pairs.summarize(parent, change, bound=0.25)
    assert summary["parent_median"] == 5.5
    assert summary["change_median"] == 3.5            # of -1.0 .. 6.0, 10.0 and 11.0
    assert summary["parent_q1"] == 3.25 and summary["parent_q3"] == 7.75
    assert summary["parent_spread"] == pytest.approx(9.0 / 5.5)
    assert summary["rel"] == pytest.approx(3.5 / 5.5 - 1.0)
    assert summary["change_wins"] == 8
    assert not summary["resolved"]
    assert not summary["beyond_parent_iqr"]          # 2.0 apart, the quartiles 4.5


def test_summary_counts_wins_in_the_metric_direction_and_resolves_a_tight_parent():
    parent = [100.0, 101.0, 99.0, 100.0]
    change = [90.0, 102.0, 89.0, 100.0]
    lower = bench_pairs.summarize(parent, change, bound=0.15)
    assert lower["change_wins"] == 2                 # a tie is no win
    assert lower["resolved"] and lower["parent_spread"] == pytest.approx(0.02)
    assert lower["beyond_parent_iqr"]                # medians 100 and 95, quartiles 0.5 apart
    higher = bench_pairs.summarize(parent, change, bound=0.15, better="higher")
    assert higher["change_wins"] == 1


def test_paired_ratio_recovers_a_known_ratio_under_drift():
    # the host drifts by 60% across the pairs; the change is 10% faster in every pair,
    # give or take 1%
    rng = np.random.default_rng(3)
    parent = 0.4 * rng.permutation(np.linspace(1.0, 1.6, 10))
    change = 0.9 * parent * rng.uniform(0.99, 1.01, 10)
    summary = bench_pairs.summarize(parent, change, bound=0.25)
    low, high = summary["ratio_ci95"]
    assert low <= summary["ratio_median"] <= high
    assert 0.89 <= low and high <= 0.91            # excludes 1: a resolved gain
    assert not summary["resolved"]                 # the parent's spread hides it
    # an exact ratio has a CI of that one value, and one file's pairs one CI
    exact = bench_pairs.paired_ratio(parent, 0.9 * parent)
    assert exact[0] == pytest.approx(0.9) and exact[1] == pytest.approx([0.9, 0.9])
    assert bench_pairs.paired_ratio(parent, change) == bench_pairs.paired_ratio(parent, change)


def test_paired_ratio_of_two_runs_of_one_tree_contains_one():
    # each run its own noise of 3% on a common drift: the CI straddles 1
    rng = np.random.default_rng(4)
    drift = np.linspace(1.0, 1.5, 10)
    parent = drift * rng.normal(1.0, 0.03, 10)
    change = drift * rng.normal(1.0, 0.03, 10)
    ratio, (low, high) = bench_pairs.paired_ratio(parent, change)
    assert low < 1.0 < high
    assert high - low < 0.1


def test_workload_summary_skips_pairs_with_a_failed_run_and_counts_failures():
    ok = {"pipeline_s": 1.0, "peak_rss_mb": 40.0, "correct": True, "attempted": 9, "failed": 1}
    dead = {"failed": None, "error": "exit 1: boom"}
    runs = {"parent": [ok, ok, dict(ok, pipeline_s=3.0)],
            "change": [dict(ok, pipeline_s=0.5), dead, dict(ok, pipeline_s=2.0, failed=0)]}
    summary = bench_pairs.summarize_workload(runs, END_TO_END)
    assert summary["failed"] == {"parent": 3, "change": 1}
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["pipeline_s"]["parent_median"] == 2.0      # pairs 0 and 2 only
    assert summary["pipeline_s"]["change_median"] == 1.25
    assert summary["pipeline_s"]["change_wins"] == 2


def fake_checkout(root, offset, nproc_from_seed=99):
    # a checkout whose bench prints pipeline_s = seed + offset, and nproc 1
    # from seed nproc_from_seed on
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump({"workloads": [{"name": "w"}], "end_to_end": END_TO_END,
                   "run_seconds": 7}, fh)
    with open(os.path.join(root, "perfbench", "run.py"), "w") as fh:
        fh.write(textwrap.dedent("""
            import json, sys
            arg = lambda name: sys.argv[sys.argv.index(name) + 1]
            seed = float(arg("--seed"))
            print("env " + json.dumps({"workload": arg("--workload"), "seed": seed,
                                       "seconds": arg("--seconds"),
                                       "nproc": 1 if seed >= %r else 2}))
            print("metric lines first")
            print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
                "pipeline_s": {"value": seed + %r, "unit": "s"},
                "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}))
        """ % (nproc_from_seed, offset)))
    return str(root)


def test_pairs_alternate_order_run_seed_i_and_write_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 0.5, nproc_from_seed=3)
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main([parent, change, "--out", str(out), "--claim", "w:pipeline_s"]) == 0
    bench = json.loads(out.read_text())
    assert bench["bench"] == "BENCH_0" and bench["seeds"] == [1, 2, 3]
    assert bench["claim"] == {"workload": "w", "metric": "pipeline_s"}
    assert bench["command"].endswith("--seconds 7 --trace 0")
    # each side's first environment line, less the run's workload and seed
    assert bench["env"] == {side: {"seconds": "7", "nproc": 2} for side in ("parent", "change")}
    entry = bench["workloads"]["w"]
    assert entry["pairs"] == 3
    assert entry["pair_order"] == ["parent first", "change first", "parent first"]
    assert [r["pipeline_s"] for r in entry["runs"]["parent"]] == [2.0, 3.0, 4.0]
    assert [r["pipeline_s"] for r in entry["runs"]["change"]] == [1.5, 2.5, 3.5]
    assert [r.get("env") for r in entry["runs"]["change"]] == [None, None,
                                                               {"seconds": "7", "nproc": 1}]
    assert all("env" not in r for r in entry["runs"]["parent"])
    assert entry["summary"]["pipeline_s"]["change_wins"] == 3
    assert entry["summary"]["failed"] == {"parent": 0, "change": 0}
