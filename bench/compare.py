"""Compare two checkouts (parent and change) with the same benchmark code.

    python3 bench/compare.py --parent ../parent --change .

It runs ten pairs.  For each pair i and each workload, both sides run
``bench/run.py`` (this file's copy, so the benchmark code is identical) from
their own checkout root with the same seed; even pairs run the parent first,
odd pairs the change.  Per workload and end-to-end metric it prints each
side's median and quartiles, the change's wins over all pairs run (ties
count for neither side) and over the pairs that were not ties, and a
verdict:

* ``gain``: the change fails no more ops than the parent, wins at least 9/10
  of all pairs run, and the medians differ by more than the parent's own
  quartile spread;
* ``regression``: the change fails more ops than the parent, or its median is
  worse than the parent's by more than the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's spread exceeds the bound and not every change
  run beats every parent run;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
PAIRS = 10


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better: str, bound: float,
            failed: tuple[int, int]) -> tuple[str, float, float]:
    """(verdict, wins over all pairs, wins over untied pairs) for paired runs
    of one metric; `failed` is (parent, change) failed ops over all runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    win_frac = wins / len(parent)
    untied_frac = wins / (wins + losses) if wins + losses else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    if (failed[1] <= failed[0] and win_frac >= 0.9
            and sign * (cm - pm) > p3 - p1):
        return "gain", win_frac, untied_frac
    if failed[1] > failed[0] or worse_by > bound:
        return "regression", win_frac, untied_frac
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if pm and (p3 - p1) / pm > bound and not all_better:
        return "unresolved", win_frac, untied_frac
    return "no change", win_frac, untied_frac


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="pair i uses seed first_seed + i")
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {(w, side): [] for w in workloads for side in sides}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                r = run_side(sides[side], w, args.first_seed + i, spec["run_seconds"])
                runs[(w, side)].append(r)
                print(f"pair {i} {w} {side}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", file=sys.stderr,
                      flush=True)
    print(f"{'workload':<18} {'metric':<14} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>6} {'untied':>6}  verdict")
    for w in workloads:
        failed = {side: sum(r["failed"] for r in runs[(w, side)]) for side in sides}
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in runs[(w, "parent")]]
            c = [r["metrics"][name]["value"] for r in runs[(w, "change")]]
            v, win, untied = verdict(p, c, m["better"], m["bound"],
                                     (failed["parent"], failed["change"]))
            ps, cs = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                      for q in (quartiles(p), quartiles(c)))
            print(f"{w:<18} {name:<14} {ps:<32} {cs:<32} {win:>6.2f} {untied:>6.2f}  {v}")
        print(f"{w:<18} {'failed ops':<14} parent {failed['parent']}, "
              f"change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
