"""The three benchmark workloads: seeded inputs, the ops run on them, and the
independent validators that check every op's output.

Each workload has a fixed pool of input files and op variants.  A run seed
picks a subset of the pool, so the same seed always yields the same input
files and argument lists, and every op a seed can pick has a golden digest
recorded in ``golden.json``.  The program under test sees only the written
files and the command-line arguments.

Functions import ``covstream`` lazily, because the runner re-imports the
package during set-up and patches it for tracing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    """One end-to-end user job: one or more ``covstream`` command lines."""

    key: str                              # golden-reference key
    iid: str                              # instance id of the input file
    kind: str                             # which validator applies
    steps: tuple[tuple[str, ...], ...]    # argv of each cli.main call


def run_cli(argv) -> tuple[int, str]:
    """Call ``covstream.cli.main`` in-process with stdout and stderr captured.

    The module attribute is looked up on every call, so tracing wrappers
    installed on ``covstream.cli.main`` are honoured.
    """
    cli = importlib.import_module("covstream.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def execute(op: Op) -> list[tuple[int, str]]:
    return [run_cli(argv) for argv in op.steps]


def blank_wall_time(csv_text: str) -> str:
    """Experiment CSV with the wall_time_s field emptied on every data row."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or "wall_time_s" not in rows[0]:
        return csv_text
    col = rows[0].index("wall_time_s")
    for row in rows[1:]:
        if len(row) > col:
            row[col] = ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def digest(outputs, normalize=None) -> str:
    """sha256 over every step's exit code and (normalized) stdout."""
    h = hashlib.sha256()
    for code, text in outputs:
        if normalize is not None:
            text = normalize(text)
        h.update(f"{code}\n{len(text)}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


def seeded_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng([int(p) for p in parts])


# ---------------------------------------------------------------------------
# independent parsers and checks (no covstream code)

def parse_sets(path) -> tuple[int, list[frozenset[int]], list[int]]:
    """(n, sets, weights) from a ``sets`` file."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    n, m = int(lines[0][1]), int(lines[0][2])
    sets = [frozenset(int(e) for e in ln[2:]) for ln in lines[1:]]
    weights = [int(ln[1]) for ln in lines[1:]]
    if lines[0][0] != "sets" or len(sets) != m:
        raise ValueError(f"{path}: not a sets file")
    return n, sets, weights


def parse_ilp(path) -> tuple[int, list[int], list[list[tuple[int, int]]], list[int]]:
    """(n, b, columns, weights) from an ``ilp`` file."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    n = int(lines[0][1])
    b = [int(v) for v in lines[1][1:]]
    columns, weights = [], []
    for ln in lines[2:]:
        weights.append(int(ln[1]))
        columns.append([tuple(int(v) for v in tok.split(":")) for tok in ln[2:]])
    if lines[0][0] != "ilp" or len(b) != n or len(columns) != int(lines[0][2]):
        raise ValueError(f"{path}: not an ilp file")
    return n, b, columns, weights


def brute_force_opt(n, b, columns, weights):
    """Exact binary optimum by enumerating every column subset (m <= 16)."""
    m = len(columns)
    if m > 16:
        raise ValueError("brute force is limited to 16 columns")
    best = None
    for mask in range(1 << m):
        cost = sum(weights[i] for i in range(m) if mask >> i & 1)
        if best is not None and cost >= best:
            continue
        cover = [0] * n
        for i in range(m):
            if mask >> i & 1:
                for row, a in columns[i]:
                    cover[row] += a
        if all(cover[j] >= b[j] for j in range(n)):
            best = cost
    return best


def _field(text: str, prefix: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(prefix + " ") or line == prefix:
            return line[len(prefix):].strip()
    return None


# The experiment CSV schema that README fixes, spelled out here so the check
# does not trust the program's own constant.
REPORT_COLUMNS = ["instance", "algorithm", "alpha", "seed", "order", "n", "m",
                  "value", "opt", "ratio", "space_bits", "verdicts",
                  "wall_time_s", "error"]


# ---------------------------------------------------------------------------
# workloads
#
# An instance id is "<kind>-<number>" and names one input file.  The pool is
# split into slots of instances with similar op cost (see record_golden.py);
# a run draws one instance per slot and one variant (estimator seed, stream
# order seed) per instance, so every seed runs the same cost mix on
# different files.

class Workload:
    name = ""
    why = ""
    tail_pct = 90.0          # fixed per workload, so runs report one percentile

    def instances(self) -> list[str]:
        raise NotImplementedError

    def variants(self, iid: str) -> list:
        return [None]

    def ops(self, iid: str, variant) -> list[Op]:
        raise NotImplementedError

    def write_inputs(self, iids, work: Path) -> None:
        raise NotImplementedError

    def normalize(self, text: str) -> str:
        return text

    def validate(self, op: Op, outputs, work: Path, cache: dict) -> str | None:
        """None when the outputs pass every independent check, else why not."""
        raise NotImplementedError

    def pool(self) -> list[Op]:
        return [op for iid in self.instances() for v in self.variants(iid)
                for op in self.ops(iid, v)]

    def choose(self, seed: int, slots) -> list[list[Op]]:
        """Per slot, the ops of one seeded draw, in slot order."""
        rng = seeded_rng(seed, 1)
        groups = []
        for slot in slots:
            iid = slot[int(rng.integers(len(slot)))]
            variants = self.variants(iid)
            groups.append(self.ops(iid, variants[int(rng.integers(len(variants)))]))
        return groups


def _number(iid: str) -> int:
    return int(iid.rsplit("-", 1)[1])


class EstimateDest(Workload):
    """README ``dest`` parameters: solve, then both estimator modes."""

    name = "estimate-dest"
    why = ("oracle-heavy: tester_finalize/exact_opt dominate estimate time over "
           "a 40-tester bank; infeasible draws check exit code 2")
    tail_pct = 95.0
    N, M, ALPHA, LIMIT = 240, 64, 2, 70
    GEN_SEEDS, EST_SEEDS = 64, 4

    def instances(self):
        return [f"dest-{g}" for g in range(self.GEN_SEEDS)]

    def variants(self, iid):
        return list(range(self.EST_SEEDS))

    def write_inputs(self, iids, work):
        from covstream.hard_instances import gen_dest
        from covstream.io import write_instance
        for iid in iids:
            hard = gen_dest(self.N, self.M, self.ALPHA, _number(iid))
            write_instance(hard.system, work / f"{iid}.sets")

    def ops(self, iid, variant):
        path = f"{iid}.sets"
        est = ("estimate", "--alpha", str(self.ALPHA), "--seed", str(variant),
               "--input", path, "--limit", str(self.LIMIT))
        return [Op(f"{iid}-e{variant}", iid, "dest", (
            ("solve", "--input", path, "--limit", str(self.LIMIT)),
            est + ("--emit-verdicts",),
            est + ("--unknown-cmax",)))]

    def validate(self, op, outputs, work, cache):
        n, sets, weights = parse_sets(work / f"{op.iid}.sets")
        (c_solve, solve), (c_known, known), (c_unknown, unknown) = outputs
        if set().union(*sets) != set(range(n)):
            if (c_solve, c_known, c_unknown) != (2, 2, 2):
                return "infeasible instance not reported with exit code 2"
            return None
        if (c_solve, c_known, c_unknown) != (0, 0, 0):
            return f"feasible instance exited {(c_solve, c_known, c_unknown)}"
        opt = int(_field(solve, "opt"))
        chosen = [int(tok.split(":")[0]) for tok in _field(solve, "x").split()]
        if set().union(*(sets[i] for i in chosen)) != set(range(n)):
            return "solve witness is not a cover"
        if sum(weights[i] for i in chosen) != opt:
            return "solve witness objective differs from the printed opt"
        for text in (known, unknown):
            estimate = float(text.splitlines()[1].split(",")[0])
            if estimate > 64 * self.ALPHA * opt:
                return f"estimate {estimate} exceeds 64*alpha*opt"
        return None


class IngestWide(Workload):
    """Large files: one-pass cost on weighted ILPs, merge approx on set systems."""

    name = "ingest-wide"
    why = ("ingest-heavy: n=m=2048 files where parsing and the streaming pass "
           "dominate and the oracle solves only 16 merged sets")
    tail_pct = 90.0
    N = M = 2048
    MAX_SUPPORT, ALPHA = 128, 128
    FILES, ORDER_SEEDS = 24, 4

    def instances(self):
        return ([f"cost-{f}" for f in range(self.FILES)]
                + [f"approx-{f}" for f in range(self.FILES)])

    def variants(self, iid):
        return [None] if iid.startswith("cost") else list(range(self.ORDER_SEEDS))

    @staticmethod
    def _file(iid):
        return f"{iid}.ilp" if iid.startswith("cost") else f"{iid}.sets"

    def _text(self, iid) -> str:
        weighted = iid.startswith("cost")
        rng = seeded_rng(_number(iid), 2 if weighted else 3)
        n, m = self.N, self.M
        sizes = rng.integers(1, self.MAX_SUPPORT + 1, m).tolist()
        if weighted:
            lines = [f"ilp {n} {m} binary",
                     "b " + " ".join(map(str, rng.integers(1, 4, n).tolist()))]
            weights = rng.integers(1, 9, m).tolist()
        else:
            lines = [f"sets {n} {m}"]
        for i, size in enumerate(sizes):
            rows = np.sort(rng.choice(n, size, replace=False)).tolist()
            if weighted:
                coeffs = rng.integers(1, 4, size).tolist()
                lines.append(f"col {weights[i]} " + " ".join(
                    f"{r}:{a}" for r, a in zip(rows, coeffs)))
            else:
                lines.append("set 1 " + " ".join(map(str, rows)))
        return "\n".join(lines) + "\n"

    def write_inputs(self, iids, work):
        for iid in iids:
            (work / self._file(iid)).write_text(self._text(iid), encoding="utf-8")

    def ops(self, iid, variant):
        path = self._file(iid)
        if variant is None:
            return [Op(iid, iid, "cost", (("cost", "--input", path),))]
        return [Op(f"{iid}-o{variant}", iid, "approx", (
            ("approx", "--alpha", str(self.ALPHA), "--input", path,
             "--order", "random", "--seed", str(variant)),))]

    @staticmethod
    def reference_cost(path) -> int | float:
        """cost_of_instance, evaluated row by row on one-row views of the
        instance (equal by definition, and linear instead of quadratic in the
        input).  The views carry only the attributes cost_of_constraint reads."""
        from types import SimpleNamespace
        from covstream.instances import VariableKind
        from covstream.oracle import cost_of_instance
        n, b, columns, weights = parse_ilp(path)
        by_row = [([], []) for _ in range(n)]
        for col, w in zip(columns, weights):
            for row, a in col:
                by_row[row][0].append(((0, a),))
                by_row[row][1].append(w)
        return max((cost_of_instance(SimpleNamespace(
            n=1, b=(b[j],), columns=cols, c=ws, variable_kind=VariableKind.BINARY))
            for j, (cols, ws) in enumerate(by_row)), default=0)

    def validate(self, op, outputs, work, cache):
        path = work / self._file(op.iid)
        [(code, text)] = outputs
        if op.kind == "cost":
            ref = self.reference_cost(path)
            want = (2, "infeasible\n") if ref == float("inf") else (0, f"cost {ref}\n")
            if (code, text) != want:
                return f"cost output {text.strip()!r}, reference {want[1].strip()!r}"
            return None
        from covstream.approx import CoverCertificate, validate_certificate
        from covstream.instances import SetSystem
        if code != 0:
            return f"approx exited {code}"
        n, sets, _ = parse_sets(path)
        size = int(_field(text, "size"))
        chosen = [int(t) for t in _field(text, "chosen").split()]
        witness = {int(e): int(i) for e, i in
                   (tok.split(":") for tok in _field(text, "witness").split())}
        if len(chosen) != size:
            return "approx size differs from the chosen count"
        if not validate_certificate(SetSystem(n, tuple(sets)),
                                    CoverCertificate(chosen, witness)):
            return "approx certificate failed validation"
        return None


class HarnessWeighted(Workload):
    """``experiment`` batches over small weighted ILPs and c07-style systems."""

    name = "harness-weighted"
    why = ("harness and sampling: many tiny general-B&B solves, weighted banks "
           "with several tester states, per-trial sampling solves")
    tail_pct = 95.0
    ILP_N, ILP_M = 8, 12
    SETS_N = 60
    INSTANCES = 32
    CONFIGS = {
        "estimate": ("algorithm estimate\ninput {path}\nalphas 1 2 3\n"
                     "seeds 0 1\norders arbitrary random\ncompute-opt true\n"),
        "unknown": ("algorithm estimate\ninput {path}\nalphas 1 2 3\n"
                    "seeds 0 1\norders arbitrary random\nunknown-cmax true\n"
                    "compute-opt true\n"),
        "lemma": ("algorithm sample-lemma\ninput {path}\nalphas 17\nseeds 0\n"
                  "trials 200\ncompute-opt true\n"),
    }

    def instances(self):
        return ([f"small-{i}" for i in range(self.INSTANCES)]
                + [f"lemma-{i}" for i in range(self.INSTANCES)])

    @staticmethod
    def _file(iid):
        return f"{iid}.sets" if iid.startswith("lemma") else f"{iid}.ilp"

    def _ilp_text(self, i) -> str:
        """Weighted binary covering ILP with b <= 3, a <= 3, c <= 8, made
        feasible by bumping coefficients on under-covered rows."""
        rng = seeded_rng(i, 4)
        n, m = self.ILP_N, self.ILP_M
        b = rng.integers(1, 4, n).tolist()
        cols = [{j: int(rng.integers(1, 4)) for j in range(n)
                 if rng.random() < 0.45} for _ in range(m)]
        for j in range(n):
            while sum(c.get(j, 0) for c in cols) < b[j]:
                c = cols[int(rng.integers(m))]
                c[j] = c.get(j, 0) + int(rng.integers(1, 3))
        weights = rng.integers(1, 9, m).tolist()
        lines = [f"ilp {n} {m} binary", "b " + " ".join(map(str, b))]
        lines += [f"col {w} " + " ".join(f"{r}:{a}" for r, a in sorted(c.items()))
                  for c, w in zip(cols, weights)]
        return "\n".join(lines) + "\n"

    def _sets_text(self, i) -> str:
        """c07-style weighted set system: n=60, 5-10 sets of density 0.4,
        weights 1-7, every element covered."""
        rng = seeded_rng(i, 5)
        n = self.SETS_N
        m = int(rng.integers(5, 11))
        sets = [set(np.flatnonzero(rng.random(n) < 0.4).tolist()) for _ in range(m)]
        for e in range(n):
            if not any(e in s for s in sets):
                sets[int(rng.integers(m))].add(e)
        weights = rng.integers(1, 8, m).tolist()
        lines = [f"sets {n} {m}"] + [
            f"set {w} " + " ".join(map(str, sorted(s))) for s, w in zip(sets, weights)]
        return "\n".join(lines) + "\n"

    def _configs(self, iid):
        return ["lemma"] if iid.startswith("lemma") else ["estimate", "unknown"]

    def write_inputs(self, iids, work):
        for iid in iids:
            lemma = iid.startswith("lemma")
            text = self._sets_text(_number(iid)) if lemma else self._ilp_text(_number(iid))
            (work / self._file(iid)).write_text(text, encoding="utf-8")
            for cfg in self._configs(iid):
                (work / f"{cfg}-{iid}.cfg").write_text(
                    self.CONFIGS[cfg].format(path=self._file(iid)), encoding="utf-8")

    def ops(self, iid, variant):
        return [Op(f"{cfg}-{iid}", iid, cfg,
                   (("experiment", "--config", f"{cfg}-{iid}.cfg"),))
                for cfg in self._configs(iid)]

    def normalize(self, text):
        return blank_wall_time(text)

    def validate(self, op, outputs, work, cache):
        [(code, text)] = outputs
        if code != 0:
            return f"experiment exited {code}"
        path = work / self._file(op.iid)
        if path not in cache:
            if op.kind == "lemma":
                n, sets, weights = parse_sets(path)
                cols = [[(e, 1) for e in sorted(s)] for s in sets]
                cache[path] = (n, len(sets), brute_force_opt(n, [1] * n, cols, weights))
            else:
                n, b, cols, weights = parse_ilp(path)
                cache[path] = (n, len(cols), brute_force_opt(n, b, cols, weights))
        n, m, opt = cache[path]
        if text.splitlines()[0].split(",") != REPORT_COLUMNS:
            return "experiment CSV header changed"
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != (1 if op.kind == "lemma" else 12):
            return f"experiment wrote {len(rows)} rows"
        for row in rows:
            if row["error"]:
                return f"row error {row['error']}"
            if (int(row["n"]), int(row["m"]), int(row["opt"])) != (n, m, opt):
                return "row n, m or opt differs from the brute-force reference"
            value = float(row["value"])
            if op.kind == "lemma":
                if not 0.0 <= value <= 1.0:
                    return f"lemma frequency {value} outside [0, 1]"
            elif value > 64 * int(row["alpha"]) * opt:
                return f"estimate {value} exceeds 64*alpha*opt"
            if float(row["ratio"]) != round(value / opt, 6):
                return "ratio differs from value/opt"
        return None


WORKLOADS = {w.name: w for w in (EstimateDest(), IngestWide(), HarnessWeighted())}
