"""Record the golden reference of every workload: op digests and cost slots.

    python3 bench/record_golden.py

Run from the root of a covstream checkout.  Every op in every pool must pass
its independent validators, or nothing is written.  The digests pin exit
codes and stdout (experiment CSVs with wall_time_s blanked) of the checkout
they were recorded at; later runs count any difference as a failed op.

Slots group instances of one kind by measured op time: the SINGLES slowest
get a slot of their own (every run includes them, so the tail percentile
sees the same worst cases), and the rest are paired by rank.  A run draws one
instance per slot, so every seed runs a near-identical cost mix.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, digest, execute

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SINGLES = 4
TIMING_REPS = 3


def build_slots(times: dict[str, float]) -> list[list[str]]:
    kinds: dict[str, list[str]] = {}
    for iid in times:
        kinds.setdefault(iid.rsplit("-", 1)[0], []).append(iid)
    slots = []
    for kind in sorted(kinds):
        ranked = sorted(kinds[kind], key=lambda iid: (-times[iid], iid))
        slots += [[iid] for iid in ranked[:SINGLES]]
        rest = ranked[SINGLES:]
        slots += [rest[i:i + 2] for i in range(0, len(rest), 2)]
    return slots


def record(name: str, root: Path) -> dict:
    wl = WORKLOADS[name]
    work = root / ".bench_work" / f"golden-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.write_inputs(wl.instances(), work)
    cwd = os.getcwd()
    os.chdir(work)
    digests, cache, times = {}, {}, {}
    try:
        for op in wl.pool():
            outputs = execute(op)
            error = wl.validate(op, outputs, work, cache)
            if error is not None:
                raise SystemExit(f"{name} {op.key}: {error}")
            digests[op.key] = digest(outputs, wl.normalize)
        for iid in wl.instances():
            ops = wl.ops(iid, wl.variants(iid)[0])
            best = float("inf")
            for _ in range(TIMING_REPS):
                start = time.perf_counter()
                for op in ops:
                    execute(op)
                best = min(best, time.perf_counter() - start)
            times[iid] = best
    finally:
        os.chdir(cwd)
    shutil.rmtree(work)
    return {"digests": digests, "slots": build_slots(times),
            "op_seconds": {iid: round(t, 4) for iid, t in sorted(times.items())}}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    golden = {}
    for name in sorted(WORKLOADS):
        golden[name] = record(name, root)
        print(f"{name}: {len(golden[name]['digests'])} ops, "
              f"{len(golden[name]['slots'])} slots", flush=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
