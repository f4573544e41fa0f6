"""The paired-run summary of tools/bench_pairs.py, on fixed numbers: no
benchmark run is started."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PARENT = [13.48, 13.36, 13.77, 13.52, 13.40, 13.61, 13.45, 13.70, 13.38, 13.55]


def test_ten_wins_beyond_the_parent_spread_hold(bp):
    change = [v - 1.1 for v in PARENT]
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((13.50, 13.4125, 13.595))
    assert s["change"][0] == pytest.approx(12.40)
    assert s["rel"] == pytest.approx(-1.1 / 13.50)
    assert s["gain_rule"]


def test_eight_wins_do_not_hold(bp):
    change = [v - 1.1 for v in PARENT[:8]] + [v + 0.1 for v in PARENT[8:]]
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 8 and not s["gain_rule"]


def test_a_gain_inside_the_parent_spread_does_not_hold(bp):
    # every pair won, but by less than the parent's interquartile range (0.1825)
    change = [v - 0.15 for v in PARENT]
    s = bp.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["gain_rule"]


def test_direction_comes_from_better(bp):
    up = [v + 1.1 for v in PARENT]
    assert bp.summarize(PARENT, up, "higher")["gain_rule"]
    assert bp.summarize(PARENT, up, "lower")["wins"] == 0
    # a tie is no win either way
    assert bp.summarize(PARENT, PARENT, "higher")["wins"] == 0
    with pytest.raises(ValueError):
        bp.summarize(PARENT, PARENT[:9], "lower")
    with pytest.raises(ValueError):
        bp.summarize(PARENT[:1], PARENT[:1], "lower")


def test_row_names_the_metric_and_the_verdict(bp):
    s = bp.summarize(PARENT, [v - 1.1 for v in PARENT], "lower")
    row = bp.format_row("hyperprior-roundtrip", "latent_ms_p50", "ms", s)
    assert row.split()[:2] == ["hyperprior-roundtrip", "latent_ms_p50"]
    assert "parent 13.5 [13.41, 13.59]" in row and "-8.1%" in row
    assert row.endswith("wins 10/10  gain rule holds")


def test_bound_rule_flags_a_median_worse_than_the_bound(bp):
    # parent median 13.50; a bound of 0.25 allows up to 16.875 ms
    s = bp.summarize(PARENT, [v * 1.2 for v in PARENT], "lower")
    assert bp.bound_rule(s, "lower", 0.25) == "bound 25%: not worse"
    s = bp.summarize(PARENT, [v * 1.3 for v in PARENT], "lower")
    assert bp.bound_rule(s, "lower", 0.25) == "bound 25%: WORSE"
    # higher is better: a median 30% lower is worse
    s = bp.summarize(PARENT, [v * 0.7 for v in PARENT], "higher")
    assert bp.bound_rule(s, "higher", 0.25) == "bound 25%: WORSE"
    assert bp.bound_rule(s, "lower", 0.25) == "bound 25%: not worse"


def test_bound_rule_is_unresolved_where_the_parent_spreads_wider(bp):
    # the parent's interquartile range 0.1825 is 1.35% of its median
    s = bp.summarize(PARENT, PARENT, "lower")
    assert bp.bound_rule(s, "lower", 0.02) == "bound 2%: not worse"
    assert bp.bound_rule(s, "lower", 0.01) == (
        "bound 1%: not worse, unresolved (parent quartiles 13.41..13.59)"
    )
    s = bp.summarize(PARENT, [v * 1.5 for v in PARENT], "lower")
    assert bp.bound_rule(s, "lower", 0.01).startswith("bound 1%: WORSE, unresolved")


def test_run_once_reads_the_report_of_an_all_workload_run(bp, monkeypatch, tmp_path):
    result = {
        "correct": True, "attempted": 9, "failed": 1,
        "metrics": {"ar-roundtrip/latent_ms_p50": {"value": 37.5, "unit": "ms"}},
    }
    stdout = "\n".join([
        "workload ar-roundtrip  seed 3  op roundtrip  BLAS/OpenMP threads 1  trace 0",
        "fail_rate 1/9  output sha256 4f6b6c01",
        json.dumps(result),
    ])
    seen = {}

    def fake_run(cmd, cwd, **kw):
        seen.update(cmd=cmd, cwd=cwd)
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    values, digests, failed = bp.run_once(tmp_path, 3, 2.0)
    assert values == {("ar-roundtrip", "latent_ms_p50"): 37.5}
    assert digests == {"ar-roundtrip": "4f6b6c01"} and failed == 1
    assert seen["cwd"] == tmp_path
    assert seen["cmd"][1:] == ["perfbench/run.py", "--workload", "all", "--seed", "3",
                               "--seconds", "2.0", "--trace", "0"]


def test_pairs_alternate_which_side_runs_first(bp, monkeypatch, capsys):
    calls = []
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    keys = [(w["name"], m["name"]) for w in spec["workloads"] for m in spec["end_to_end"]]

    def fake_once(checkout, seed, seconds):
        calls.append((str(checkout), seed))
        return {k: 1.0 for k in keys}, {"w": "d"}, 0

    monkeypatch.setattr(bp, "run_once", fake_once)
    bp.main(["P", "C", "--pairs", "3", "--seconds", "1", "--seed0", "11"])
    assert calls == [("P", 11), ("C", 11), ("C", 12), ("P", 12), ("P", 13), ("C", 13)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("pair 0 seed 11: parent first, output digests equal, "
                      "failed operations parent 0 change 0")
    assert len(out) == 3 + len(keys)
    # every metric row ends with its no-regression verdict
    assert all(line.endswith(": not worse") for line in out[3:])
