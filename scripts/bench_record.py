#!/usr/bin/env python3
"""Record benchmark runs to BENCH_<n>.json files, and compare two of them.

Run from the repository root:

    python3 scripts/bench_record.py record --checkout . bench/BENCH_37.json
    python3 scripts/bench_record.py record --checkout ../parent bench/BENCH_35.json \\
        --checkout . bench/BENCH_37.json --seeds 1 2 3 --seconds 25
    python3 scripts/bench_record.py compare bench/BENCH_35.json bench/BENCH_37.json

`record` runs `perfbench/run.py --trace 0` from the root of each
checkout, for each seed on every workload in turn.  With two checkouts
it alternates between them run by run, and which of the two goes first
alternates too, so that a drift in the machine's speed falls on both
alike.  Each checkout gets one JSON file.  It holds the run command, the
checkout's `scripts/golden_outputs.fingerprint()` (the BLAS kernel and
numpy version, which `run.py` does not record), and for every run its
workload, seed and exit code, with `run.py`'s parsed info and result
lines, its last two, or null where a run printed no such lines.

`compare A B` prints, for each workload and end-to-end metric, the
median over each file's runs, the ratio of B's to A's, the run counts
and both sides' quartiles.  It is a report, not a gate, and exits 0.

Only the standard library and numpy are used.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])


def _fingerprint(checkout: Path) -> str:
    """`golden_outputs.fingerprint()` as the checkout's own code computes it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "scripts")]))
    done = subprocess.run(
        [sys.executable, "-c", "import golden_outputs; print(golden_outputs.fingerprint())"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _parse(stdout: str) -> tuple:
    """(info, result) from `run.py`'s last two lines, or (None, None)."""
    try:
        info, result = map(json.loads, stdout.splitlines()[-2:])
        return info["info"], result
    except (ValueError, KeyError, TypeError):
        return None, None


def record(checkouts, workloads, seeds, seconds) -> list:
    """One file's contents per (checkout, path) pair, in the order given."""
    args = ["--seconds", str(seconds), "--trace", "0"]
    files = [{"command": ["python3", "perfbench/run.py", *args],
              "fingerprint": _fingerprint(checkout), "runs": []} for checkout, _ in checkouts]
    sides = list(zip(checkouts, files))
    # run.py adds the checkout's src to its own path; a PYTHONPATH naming
    # another tree must not reach the CLI processes it starts
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for k, (seed, workload) in enumerate((s, w) for s in seeds for w in workloads):
        for (checkout, _), data in sides if k % 2 == 0 else sides[::-1]:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 *args], cwd=checkout, env=env, capture_output=True, text=True)
            info, result = _parse(done.stdout)
            data["runs"].append({"workload": workload, "seed": seed,
                                 "exit_code": done.returncode, "info": info, "result": result})
            print(f"{workload} seed {seed} {checkout}: exit {done.returncode}", file=sys.stderr)
    return files


def _metric_values(data, workload):
    """{metric: [values]} over the runs of one workload that printed a result."""
    values = {}
    for run in data["runs"]:
        if run["workload"] == workload and run["result"] is not None:
            for name, entry in run["result"]["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
    return values


def compare(a, b) -> list:
    """The report lines of `compare`, for the parsed files a and b."""
    lines = [f"{'workload':13s} {'metric':18s} {'A median':>11s} {'B median':>11s} {'B/A':>7s} "
             f"{'runs':>5s}  {'A quartiles':23s} {'B quartiles':23s}"]
    workloads = dict.fromkeys(run["workload"] for data in (a, b) for run in data["runs"])
    for workload in workloads:
        got_a, got_b = _metric_values(a, workload), _metric_values(b, workload)
        for name in dict.fromkeys([*got_a, *got_b]):
            xs, ys = got_a.get(name, []), got_b.get(name, [])
            if not xs or not ys:
                lines.append(f"{workload:13s} {name:18s} runs {len(xs)}/{len(ys)}")
                continue
            qa, qb = np.percentile(xs, [25, 50, 75]), np.percentile(ys, [25, 50, 75])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            lines.append(
                f"{workload:13s} {name:18s} {qa[1]:11.5g} {qb[1]:11.5g} {ratio:7.4f} "
                f"{len(xs):>2d}/{len(ys):<2d}  [{qa[0]:10.5g}, {qa[2]:10.5g}] "
                f"[{qb[0]:10.5g}, {qb[2]:10.5g}]")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run the benchmark and write one file per checkout")
    p.add_argument("--checkout", nargs=2, action="append", required=True,
                   metavar=("DIR", "OUT"), help="a checkout's root and the file to write")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    p.add_argument("--seconds", type=float, default=25.0,
                   help="run.py's --seconds (default %(default)s)")
    p = sub.add_parser("compare", help="print medians, ratios and quartiles of two files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    if args.command == "compare":
        a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
        print("\n".join(compare(a, b)))
        return 0
    if len(args.checkout) > 2:
        ap.error("record takes one or two checkouts")
    checkouts = [(Path(d).resolve(), Path(out)) for d, out in args.checkout]
    for (_, out), data in zip(checkouts, record(checkouts, args.workloads, args.seeds,
                                                 args.seconds)):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
