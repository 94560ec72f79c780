"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q

Run from the root of a covstream checkout.  They check that the tracing
wrappers leave outputs unchanged, that a corrupted golden reference is
counted as a failure, and that inputs are a pure function of the seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, digest, execute  # noqa: E402

with open(BENCH / "golden.json", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _ops(name, seed=0, count=4):
    """The ops a seed draws for the last `count` slots, the cheapest ones."""
    groups = WORKLOADS[name].choose(seed, GOLDEN[name]["slots"])
    return [op for group in groups[-count:] for op in group]


def _write(name, ops, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].write_inputs(sorted({op.iid for op in ops}), work)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_wrappers_are_transparent(name, tmp_path, monkeypatch):
    wl = WORKLOADS[name]
    ops = _ops(name)
    _write(name, ops, tmp_path)
    monkeypatch.chdir(tmp_path)
    import covstream.oracle
    original = covstream.oracle.exact_opt
    plain = [digest(execute(op), wl.normalize) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        assert covstream.oracle.exact_opt is not original
        traced = [digest(execute(op), wl.normalize) for op in ops]
    finally:
        tracer.uninstall()
    assert covstream.oracle.exact_opt is original
    assert plain == traced == [GOLDEN[name]["digests"][op.key] for op in ops]
    assert tracer.counts["cli.main.calls"] == sum(len(op.steps) for op in ops)
    spans = tracer.spans
    assert len(spans) > 0 and all(e >= s for s, e in zip(spans.start, spans.end))
    assert all(-1 <= p < i for i, p in enumerate(spans.parent))


def test_corrupted_golden_counts_as_failure(tmp_path, monkeypatch):
    name = "harness-weighted"
    wl = WORKLOADS[name]
    ops = _ops(name, count=2)
    _write(name, ops, tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = dict(GOLDEN[name]["digests"])
    good = run.Checker(wl, digests, tmp_path)
    corrupt = dict(digests)
    corrupt[ops[0].key] = "0" * 64
    bad = run.Checker(wl, corrupt, tmp_path)
    for op in ops:
        outputs = execute(op)
        good.check(op, outputs, None)
        bad.check(op, outputs, None)
    good.validate()
    bad.validate()
    assert (good.attempted, good.failed) == (len(ops), 0)
    assert (bad.attempted, bad.failed) == (len(ops), 1)


def test_validators_reject_a_wrong_answer(tmp_path, monkeypatch):
    name = "ingest-wide"
    wl = WORKLOADS[name]
    [op] = [op for op in _ops(name, count=6) if op.kind == "cost"][:1]
    _write(name, [op], tmp_path)
    monkeypatch.chdir(tmp_path)
    [(code, text)] = execute(op)
    assert wl.validate(op, [(code, text)], tmp_path, {}) is None
    value = int(text.split()[1])
    assert wl.validate(op, [(code, f"cost {value + 1}\n")], tmp_path, {}) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def files(seed, sub):
        groups = WORKLOADS[name].choose(seed, GOLDEN[name]["slots"])
        ops = [op for group in groups for op in group]
        _write(name, ops, tmp_path / sub)
        argv = [op.steps for op in ops]
        return argv, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in (tmp_path / sub).iterdir()}

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other
    assert first[1] != other[1]


def test_every_drawable_op_has_a_golden_digest():
    for name, wl in WORKLOADS.items():
        slots = GOLDEN[name]["slots"]
        assert sorted(iid for slot in slots for iid in slot) == sorted(wl.instances())
        assert {op.key for op in wl.pool()} == set(GOLDEN[name]["digests"])


def test_tail_percentile_has_ten_ops_beyond_it():
    for pct in (90.0, 95.0):
        n = run.min_ops_for(pct)
        _, beyond = run.tail([float(i) for i in range(n)], pct)
        assert beyond >= 10


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert not set(run.REPORT_ONLY) & set(run.LAYER_METRICS)


def test_gain_needs_nine_tenths_of_all_pairs_and_no_extra_failures():
    import compare
    parent = [10.0] * 10
    one_win = [9.0] + [10.0] * 9            # one win, nine ties
    assert compare.verdict(parent, one_win, "lower", 0.1, (0, 0))[:2] == ("no change", 0.1)
    faster = [float(x) for x in range(1, 11)]
    parent = [x + 20.0 for x in faster]
    assert compare.verdict(parent, faster, "lower", 0.1, (0, 0))[0] == "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, (0, 3))[0] == "regression"
