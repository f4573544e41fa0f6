#!/usr/bin/env python3
"""Alternating paired benchmark runs of two source checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seconds 10 --seed0 11

Pair i runs ``perfbench/run.py --workload all --trace 0 --seed SEED0+i`` in
both checkouts, the parent first in even pairs and the change first in odd
ones, so drift in machine speed falls on both sides alike.  For each
workload and end-to-end metric of BENCHMARK.json it then prints each side's
median and quartiles over the pairs and the pairs the change won, in the
direction the metric's ``better`` gives, and whether the gain rule holds:
the change wins at least 9 pairs in 10 and its median is better than the
parent's by more than the parent's interquartile range.  It also prints the
no-regression rule under the metric's relative ``bound``: WORSE where the
change's median is worse than the parent's by more than bound times the
parent's median, and "unresolved" where the parent's interquartile range is
wider than that, so the runs cannot tell.  Each pair's line says whether
both sides' output digests agree and how many operations failed on each.

The tool reads BENCHMARK.json next to it and the checkouts' reports; it
writes nothing but what perfbench/run.py itself writes in each checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(checkout: pathlib.Path, seed: int, seconds: float):
    """One all-workload run in a checkout: its metric values, keyed
    (workload, metric), its output digest per workload, and its failures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    values = {tuple(k.split("/", 1)): m["value"] for k, m in result["metrics"].items()}
    digests, workload = {}, None
    for line in report:
        if line.startswith("workload "):
            workload = line.split()[1]
        elif " output sha256 " in line:
            digests[workload] = line.rsplit(" ", 1)[1]
    return values, digests, result["failed"]


def summarize(parent, change, better: str) -> dict:
    """Both sides' medians and quartiles over paired values, the pairs the
    change won, and whether the gain rule holds for them."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two pairs or more, one parent and one change value each")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p25, p50, p75), (c25, c50, c75) = (
        statistics.quantiles(v, n=4, method="inclusive") for v in (parent, change)
    )
    gain = sign * (c50 - p50)
    return {
        "parent": (p50, p25, p75),
        "change": (c50, c25, c75),
        "wins": wins,
        "pairs": len(parent),
        "rel": (c50 - p50) / p50 if p50 else 0.0,
        "gain_rule": 10 * wins >= 9 * len(parent) and gain > p75 - p25,
    }


def bound_rule(s: dict, better: str, bound: float) -> str:
    """The no-regression verdict of a summary under a relative bound."""
    p50, p25, p75 = s["parent"]
    worse = (s["rel"] if better == "lower" else -s["rel"]) > bound
    text = f"bound {100 * bound:g}%: {'WORSE' if worse else 'not worse'}"
    if p75 - p25 > bound * abs(p50):
        text += f", unresolved (parent quartiles {p25:.4g}..{p75:.4g})"
    return text


def format_row(workload: str, metric: str, unit: str, s: dict) -> str:
    def side(t):
        return f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"

    rule = "holds" if s["gain_rule"] else "does not hold"
    return (f"{workload:22s} {metric:16s} parent {side(s['parent'])}  "
            f"change {side(s['change'])} {unit}  {100 * s['rel']:+.1f}%  "
            f"wins {s['wins']}/{s['pairs']}  gain rule {rule}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    values = {name: [] for name in sides}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        digests, failed = {}, {}
        for name in order:
            run, digests[name], failed[name] = run_once(
                sides[name], args.seed0 + i, args.seconds
            )
            values[name].append(run)
        same = "equal" if digests["parent"] == digests["change"] else "DIFFER"
        print(f"pair {i} seed {args.seed0 + i}: {order[0]} first, output digests "
              f"{same}, failed operations parent {failed['parent']} change "
              f"{failed['change']}", flush=True)
    for wl in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (wl["name"], m["name"])
            s = summarize([v[key] for v in values["parent"]],
                          [v[key] for v in values["change"]], m["better"])
            print(f"{format_row(wl['name'], m['name'], m['unit'], s)}  "
                  f"{bound_rule(s, m['better'], m['bound'])}")


if __name__ == "__main__":
    main()
