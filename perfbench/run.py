"""detq benchmark: seeded codec workloads through the public library API.

    python3 perfbench/run.py --workload ar-roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics from a separate traced run.  ``all``
runs every workload in its own process, so each peak-RSS figure is that
workload's own.  Readable report lines come first; the last line of
stdout is one JSON object.  Details (every latency sample, the output
digest, the spans of a traced run) go to ``.bench_out/``.
"""

import os

# Pinned before numpy loads, so BLAS and OpenMP never start extra threads.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(names, args):
    """Every workload in its own child process; forwards their reports."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode:
            sys.exit(f"{name}: exited with code {proc.returncode}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        res = json.loads(last)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "detq" / "__init__.py").is_file():
        sys.exit(f"detq sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    if args.workload == "all":
        result = run_all(list(workloads.WORKLOADS), args)
    elif args.workload in workloads.WORKLOADS:
        units = metric_units(args.trace)
        lines, result = measure.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            args.trace, OUT, units, THREADS,
        )
        if set(result["metrics"]) != set(units):
            sys.exit("reported metrics differ from those BENCHMARK.json lists")
        print("\n".join(lines))
    else:
        names = ", ".join(workloads.WORKLOADS)
        sys.exit(f"unknown workload {args.workload!r}; choose from {names} or all")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
