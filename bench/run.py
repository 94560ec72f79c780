"""covstream benchmark: one closed-loop workload per run, checked outputs.

    python3 bench/run.py --workload estimate-dest --seed 0 --trace 0

Run from the root of a covstream checkout; the package is imported from
``src/`` there and nowhere else.  One caller in one process sends the next op
only after the previous one returns (a closed loop, no extra threads).  Each
op calls ``covstream.cli.main`` in-process; its exit code and stdout are
compared with the golden digest recorded in ``bench/golden.json``, and the
first run of every distinct op in a run is also checked by independent
validators.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced window plus the tracing overhead.  ``--workload all`` prints the
report of every workload.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``, the window every bound was set on.  Inputs, configs and
span traces are written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from spans import LAYER_METRICS, REPORT_ONLY, Tracer, layer_metrics
from workloads import WORKLOADS, Op, digest, execute, seeded_rng

SETUP_REPS = 5          # set-up is repeated and its median reported
HEAP_EVERY = 3          # the heap pass runs the ops of every 3rd slot
WARMUP_OPS = 5          # untimed ops first, so the allocator and caches settle
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no covstream sources)."""


def fresh_import(src: Path) -> None:
    """Import covstream from `src`, discarding any copy already loaded."""
    for name in [n for n in sys.modules if n == "covstream" or n.startswith("covstream.")]:
        del sys.modules[name]
    pkg = importlib.import_module("covstream")
    importlib.import_module("covstream.cli")
    if Path(pkg.__file__).resolve().parent != (src / "covstream").resolve():
        raise SetupError(f"covstream was imported from {pkg.__file__}, not {src}")


class Checker:
    """Counts attempted and failed ops: a failure is an exception, an output
    that differs from its golden digest, or one that fails a validator.

    Digests are compared as ops complete; validators run in `validate`, after
    the timed windows, on the first output seen for each op."""

    def __init__(self, workload, digests: dict, work: Path):
        self.workload = workload
        self.digests = digests
        self.work = work
        self.pending: dict = {}           # op key -> (op, first outputs)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, op: Op, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{op.key}: {error}")

    def check(self, op: Op, outputs, exc: BaseException | None) -> None:
        self.attempted += 1
        if exc is not None:
            self._fail(op, f"{type(exc).__name__}: {exc}")
        elif digest(outputs, self.workload.normalize) != self.digests.get(op.key):
            self._fail(op, "output differs from the golden reference")
        else:
            self.pending.setdefault(op.key, (op, outputs))

    def validate(self) -> None:
        """Run the independent validators once per distinct op; an op whose
        output fails them counts as one failed op."""
        cache: dict = {}
        for op, outputs in self.pending.values():
            error = self.workload.validate(op, outputs, self.work, cache)
            if error is not None:
                self._fail(op, error)
        self.pending.clear()


def run_op(op: Op):
    try:
        return execute(op), None
    except Exception as exc:        # an op that raises is a failed op
        return None, exc


def closed_loop(ops, checker: Checker, seconds: float, min_ops: int,
                whole_passes: bool = False, tracer=None):
    """Run ops back to back for `seconds` and at least `min_ops` ops, ending
    on a whole pass over the op list if asked (so traced and untraced windows
    run the same mix); returns each op's latency and the window's length, in
    seconds."""
    latencies = []
    gc.collect()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(latencies) >= min_ops
        if done and (not whole_passes or i % len(ops) == 0):
            break
        if elapsed >= 3 * seconds:      # keeps a very slow program's run bounded
            break
        k = i % len(ops)
        i += 1
        if tracer is not None:
            tracer.op = len(latencies)
        t0 = time.perf_counter()
        outputs, exc = run_op(ops[k])
        latencies.append(time.perf_counter() - t0)
        checker.check(ops[k], outputs, exc)
    return latencies, time.perf_counter() - start


def tail(latencies, pct: float) -> tuple[float, int]:
    """Latency at percentile `pct` (nearest rank) and the ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_ops_for(pct: float) -> int:
    """Ops needed so that at least ten lie beyond percentile `pct`."""
    return math.ceil(10 / (1 - pct / 100)) + 1


def heap_pass(ops, checker: Checker) -> list[float]:
    """tracemalloc peak (MB above the op's starting heap) of each op, once."""
    peaks = []
    gc.collect()
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outputs, exc = run_op(op)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
            checker.check(op, outputs, exc)
    finally:
        tracemalloc.stop()
    return peaks


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    src = root / "src"
    if not (src / "covstream" / "__init__.py").is_file():
        raise SetupError(f"no covstream sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    wl = WORKLOADS[name]
    groups = wl.choose(seed, golden["slots"])
    ops = [op for group in groups for op in group]
    ops = [ops[i] for i in seeded_rng(seed, 2).permutation(len(ops))]
    heap_ops = [op for group in groups[::HEAP_EVERY] for op in group]
    iids = sorted({op.iid for op in ops})
    work = root / ".bench_work" / name
    tracer = Tracer() if trace else None

    # set-up: import, input generation and file writes, repeated
    setup_times = []
    for rep in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        fresh_import(src)
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.install()
        wl.write_inputs(iids, work)
        setup_times.append(time.perf_counter() - t0)
    setup_self = tracer.self_times() if tracer is not None else {}

    checker = Checker(wl, golden["digests"], work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for op in ops[:WARMUP_OPS]:
            checker.check(op, *run_op(op))
        if tracer is None:
            latencies, window = closed_loop(ops, checker, seconds,
                                            min_ops_for(wl.tail_pct))
            peaks = heap_pass(heap_ops, checker)
        else:
            tracer.uninstall()
            plain, _ = closed_loop(ops, checker, seconds / 2, 1, whole_passes=True)
            tracer.install()
            tracer.reset()
            traced, _ = closed_loop(ops, checker, seconds / 2, 1,
                                    whole_passes=True, tracer=tracer)
            tracer.uninstall()
        checker.validate()
    finally:
        os.chdir(cwd)

    result = {"workload": name, "seed": seed, "distinct_ops": len(ops),
              "attempted": checker.attempted, "failed": checker.failed,
              "errors": checker.errors,
              "setup_runs": [round(t, 6) for t in setup_times]}
    if tracer is None:
        q_value, beyond = tail(latencies, wl.tail_pct)
        result["ops"] = len(latencies)
        result["window_s"] = window
        result["tail"] = (wl.tail_pct, beyond)
        result["metrics"] = {
            "ops_per_s": (len(latencies) / window, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (q_value * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_heap_mb": (statistics.median(peaks), "MB"),
        }
        result["peak_heap_max_mb"] = max(peaks)
    else:
        overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        values = layer_metrics(tracer, len(traced), setup_self, overhead)
        result["ops"] = len(traced)
        result["metrics"] = {k: (values[k], LAYER_METRICS[k]) for k in LAYER_METRICS}
        result["report_only"] = {k: (values[k], REPORT_ONLY[k]) for k in REPORT_ONLY}
        trace_path = root / ".bench_work" / f"trace-{name}.jsonl.gz"
        tracer.write_jsonl(trace_path)
        result["trace_file"] = str(trace_path.relative_to(root))
    return result


def print_report(r: dict, seconds: float, trace: bool) -> None:
    fail_ratio = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    mode = "traced" if trace else "untraced"
    print(f"workload {r['workload']}  seed {r['seed']}  {mode}  "
          f"closed loop, 1 caller, {seconds:g} s window, "
          f"{r['distinct_ops']} distinct ops")
    for key, (value, unit) in r["metrics"].items():
        note = ""
        if key == "op_tail_ms":
            pct, beyond = r["tail"]
            note = f"  (p{pct:g}: {beyond} of {r['ops']} ops beyond it)"
        elif key == "ops_per_s":
            note = f"  ({r['ops']} ops in {r['window_s']:.3f} s)"
        elif key == "setup_s":
            note = f"  (median of {len(r['setup_runs'])}: {r['setup_runs']})"
        elif key == "peak_heap_mb":
            note = f"  (median per-op peak; largest {r['peak_heap_max_mb']:.3f} MB)"
        print(f"  {key:<46} {value:>14.6g} {unit}{note}")
    for key, (value, unit) in r.get("report_only", {}).items():
        print(f"  {key:<46} {value:>14.6g} {unit}"
              "  (printed only; an op that adds to it fails)")
    print(f"  {'fail_ratio':<46} {fail_ratio:>14.6g} ratio"
          f"  ({r['failed']} of {r['attempted']} checked ops failed)")
    if trace:
        print(f"  traced ops {r['ops']}; spans written to {r['trace_file']}")
    for err in r["errors"]:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed window; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root)
                   for n in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print_report(r, args.seconds, bool(args.trace))
    summary = [{
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()},
    } for r in results]
    print(json.dumps(summary[0] if len(summary) == 1 else
                     {r["workload"]: s for r, s in zip(results, summary)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
