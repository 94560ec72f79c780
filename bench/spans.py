"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each ``covstream`` module
with timing wrappers, in every module namespace that binds them (``from
.oracle import exact_opt`` gives estimator, approx, sampling, harness and cli
their own binding), plus two methods on their classes.  Spans are kept in
memory as ``(name, start, end, parent, op)`` columns and written as gzipped
JSONL when the run ends.  A layer's self time is its span time minus the
time of its direct child spans.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" patches a class.
TRACED = [
    ("covstream.io", "read_instance"),
    ("covstream.instances", "set_system_to_ilp"),
    ("covstream.instances", "canonical_column"),
    ("covstream.oracle", "exact_opt"),
    ("covstream.oracle", "exact_set_cover"),
    ("covstream.oracle", "cost_of_instance"),
    ("covstream.oracle", "CostTable.update"),
    ("covstream.estimator", "tester_init"),
    ("covstream.estimator", "tester_process"),
    ("covstream.estimator", "tester_finalize"),
    ("covstream.estimator", "TesterState.clone"),
    ("covstream.estimator", "estimate_opt"),
    ("covstream.estimator", "estimate_opt_unknown_cmax"),
    ("covstream.approx", "merge_approx"),
    ("covstream.sampling", "sample_constraints"),
    ("covstream.sampling", "verify_sampling_lemma"),
    ("covstream.harness", "run_experiment"),
    ("covstream.harness", "order_stream"),
    ("covstream.cli", "main"),
    ("covstream.hard_instances", "gen_dest"),
]


def _layer_name(module: str, attr: str) -> str:
    name = f"{module.split('.')[-1]}.{attr}"
    return name.replace("TesterState.clone", "clone")


def _fingerprint(state) -> int:
    """Hash of a tester's stored problem (everything finalize solves except k)."""
    return hash((state.sampled_rows, tuple(state.b_res),
                 tuple(sorted(state.tilde_a.items())),
                 tuple(sorted(state.tilde_c.items()))))


class Spans:
    """Span columns in typed arrays (~30 bytes a span instead of a tuple's
    ~150), since a traced window records hundreds of thousands of them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, parent: int, op: int) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        self.name.append(self._name_id[name])
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1                     # -1 marks set-up work
        self._bank: set | None = None    # fingerprints of the current bank
        self._restore: list = []

    # -- hooks: counters recorded where the work happens -------------------

    def _after(self, name, args, kwargs, result):
        c = self.counts
        if name == "io.read_instance":
            c["io.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])
            c["io.input_columns"] += result.m
        elif name == "oracle.exact_opt":
            cutoff = kwargs.get("cutoff", args[2] if len(args) > 2 else None)
            c["oracle.exact_opt.cutoff_calls"] += cutoff is not None
            c["oracle.exact_opt.inf_results"] += result[0] == math.inf
        elif name == "estimator.tester_process":
            c[f"estimator.tester_process.{result}"] += 1
        elif name == "estimator.tester_finalize":
            c["estimator.tester_finalize.accepts"] += result.name == "ACCEPT"
            if self._bank is not None:
                self._bank.add(_fingerprint(args[0]))
        elif name.startswith("estimator.estimate_opt"):
            c["estimator.estimate_calls"] += 1
            c["estimator.space_bits_total"] += result.space_bits
        elif name == "harness.run_experiment":
            c["harness.rows"] += len(result)
            c["harness.row_errors"] += sum(1 for r in result if r.get("error"))

    def _error(self, name, exc):
        if name == "oracle.exact_opt" and type(exc).__name__ == "OracleLimitError":
            self.counts["oracle.exact_opt.limit_errors"] += 1

    def _enter_bank(self):
        outer, self._bank = self._bank, set()
        return outer

    def _leave_bank(self, outer):
        self.counts["estimator.tester_finalize.distinct"] += len(self._bank)
        self._bank = outer

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        is_bank = name.startswith("estimator.estimate_opt")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            outer = tracer._enter_bank() if is_bank else None
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = tracer.spans.open(name, parent, tracer.op)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(name, exc)
                raise
            finally:
                tracer.spans.close(idx)
                tracer.stack.pop()
                if is_bank:
                    tracer._leave_bank(outer)
            tracer._after(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_trials(self, fn):
        """sampling_trials is a generator: count each outcome it yields."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for out in fn(*args, **kwargs):
                counts["sampling.trials"] += 1
                counts["sampling.event_held"] += out.event_held
                counts["sampling.decided_by_cost"] += (
                    out.cost_full >= out.opt_full / (8 * out.alpha))
                yield out

        return wrapper

    def install(self) -> None:
        """Patch every traced function in every covstream namespace."""
        targets = [(mod, attr, _layer_name(mod, attr)) for mod, attr in TRACED]
        targets.append(("covstream.sampling", "sampling_trials", None))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "covstream" or n.startswith("covstream.")]
        for mod_name, attr, name in targets:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = (self._wrap_trials(orig) if name is None
                       else self._wrap(name, orig))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus direct children's durations."""
        sp = self.spans
        child = [0.0] * len(sp)
        for i, parent in enumerate(sp.parent):
            if parent >= 0:
                child[parent] += sp.end[i] - sp.start[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(sp.name):
            out[sp.names[name]] += sp.end[i] - sp.start[i] - child[i]
        return out

    def write_jsonl(self, path) -> None:
        """Gzipped JSONL, one array per span: [id, name, start_s, end_s,
        parent id, op id]; times are seconds since the first span, parent -1
        marks a root span and op -1 set-up work."""
        sp = self.spans
        t0 = sp.start[0] if len(sp) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(sp)):
                fh.write(json.dumps([i, sp.names[sp.name[i]],
                                     round(sp.start[i] - t0, 7),
                                     round(sp.end[i] - t0, 7),
                                     sp.parent[i], sp.op[i]]))
                fh.write("\n")


def _share(num, den) -> float:
    return num / den if den else 0.0


# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "io.read_instance.calls": "1/op",
    "io.read_instance.self_s": "s/op",
    "io.bytes_read": "B/op",
    "instances.set_system_to_ilp.self_s": "s/op",
    "instances.canonical_column.calls": "1/op",
    "instances.canonical_column.self_s": "s/op",
    "instances.canonical_per_input_column": "ratio",
    "oracle.exact_opt.calls": "1/op",
    "oracle.exact_opt.self_s": "s/op",
    "oracle.exact_opt.cutoff_share": "ratio",
    "oracle.exact_opt.inf_share": "ratio",
    "oracle.exact_set_cover.self_s": "s/op",
    "oracle.CostTable.update.calls": "1/op",
    "oracle.CostTable.update.self_s": "s/op",
    "oracle.cost_of_instance.self_s": "s/op",
    "estimator.tester_init.self_s": "s/op",
    "estimator.tester_process.calls": "1/op",
    "estimator.tester_process.self_s": "s/op",
    "estimator.tester_process.retained_share": "ratio",
    "estimator.tester_process.pruned_share": "ratio",
    "estimator.tester_process.skipped_share": "ratio",
    "estimator.tester_finalize.calls": "1/op",
    "estimator.tester_finalize.self_s": "s/op",
    "estimator.tester_finalize.accept_share": "ratio",
    "estimator.tester_finalize.distinct_share": "ratio",
    "estimator.clone.calls": "1/op",
    "estimator.space_bits": "bit",
    "approx.merge_approx.calls": "1/op",
    "approx.merge_approx.self_s": "s/op",
    "sampling.trials": "1/op",
    "sampling.sample_constraints.self_s": "s/op",
    "sampling.verify_sampling_lemma.self_s": "s/op",
    "sampling.event_held_share": "ratio",
    "sampling.decided_by_cost_share": "ratio",
    "harness.run_experiment.self_s": "s/op",
    "harness.rows": "1/op",
    "harness.order_stream.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "hard_instances.gen_dest.self_s": "s",
    "trace.overhead": "ratio",
}

# per-layer counts printed in the traced report but kept out of BENCHMARK.json:
# the cli turns an oracle-limit error into exit code 3 and the harness into a
# row error, and the checks fail both, so in a passing run they are always 0
REPORT_ONLY = {
    "oracle.exact_opt.limit_errors": "1/op",
    "harness.row_error_share": "ratio",
}


def layer_metrics(tracer: Tracer, ops: int, setup_self: dict[str, float],
                  overhead: float) -> dict[str, float]:
    """Every LAYER_METRICS and REPORT_ONLY value: per-op counts and self
    times over `ops` traced ops, shares of the counted events, set-up self
    time of gen_dest, and traced over untraced ops/s."""
    c = tracer.counts
    self_s = tracer.self_times()
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".calls"):
            values[metric] = c[metric] / ops
        elif metric.endswith(".self_s"):
            values[metric] = self_s.get(metric[:-len(".self_s")], 0.0) / ops
    processed = c["estimator.tester_process.calls"]
    finalized = c["estimator.tester_finalize.calls"]
    exact = c["oracle.exact_opt.calls"]
    trials = c["sampling.trials"]
    values.update({
        "io.bytes_read": c["io.bytes_read"] / ops,
        "instances.canonical_per_input_column": _share(
            c["instances.canonical_column.calls"], c["io.input_columns"]),
        "oracle.exact_opt.cutoff_share": _share(c["oracle.exact_opt.cutoff_calls"], exact),
        "oracle.exact_opt.inf_share": _share(c["oracle.exact_opt.inf_results"], exact),
        "oracle.exact_opt.limit_errors": c["oracle.exact_opt.limit_errors"] / ops,
        "estimator.tester_process.retained_share": _share(
            c["estimator.tester_process.retained"], processed),
        "estimator.tester_process.pruned_share": _share(
            c["estimator.tester_process.pruned"], processed),
        "estimator.tester_process.skipped_share": _share(
            c["estimator.tester_process.skipped"], processed),
        "estimator.tester_finalize.accept_share": _share(
            c["estimator.tester_finalize.accepts"], finalized),
        "estimator.tester_finalize.distinct_share": _share(
            c["estimator.tester_finalize.distinct"], finalized),
        "estimator.space_bits": _share(c["estimator.space_bits_total"],
                                       c["estimator.estimate_calls"]),
        "sampling.trials": trials / ops,
        "sampling.event_held_share": _share(c["sampling.event_held"], trials),
        "sampling.decided_by_cost_share": _share(c["sampling.decided_by_cost"], trials),
        "harness.rows": c["harness.rows"] / ops,
        "harness.row_error_share": _share(c["harness.row_errors"], c["harness.rows"]),
        "hard_instances.gen_dest.self_s": setup_self.get("hard_instances.gen_dest", 0.0),
        "trace.overhead": overhead,
    })
    return values
