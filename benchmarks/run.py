"""Benchmark of the sunbasis package: three workloads, measured from outside.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload verify-m5 --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, every operation cold):

  verify-m5      ``sunbasis verify --m 5 --seed <seed>`` as a fresh CLI
                 process with the default jobs; all four suites.
  grid-m5        ``verify_multiplication_table``, exhaustive
                 ``verify_orthonormality`` and ``verify_linear_independence``
                 on the stored m = 5 Hermitian grid, every cache cleared.
  rank-concrete  back-to-back ``sunbasis represent --N n --op @file --rank``
                 CLI requests on m = 3 and m = 4 operators.

``--trace 0`` loops operations for ``--seconds`` and prints the end-to-end
metrics (``END_TO_END``).  ``--trace 1`` runs one untraced and one traced
operation in this process and prints the per-layer metrics
(``LAYER_METRICS``).  The last line of stdout is the result object; the line
before it carries the details (machine, samples, error rate).  Outputs of
every run are kept under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
GRID_FILE = HERE / "data" / "grid_m5.json"

# A run must end within 180 s; no single operation may run past this.
DEADLINE_S = 165.0
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    moves: str = ""  # which end-to-end metric it should move, and where


END_TO_END = (
    Metric("wall_s", "s", "lower", "median wall time of one operation"),
    Metric("peak_rss_mb", "MB", "lower", "largest ru_maxrss of the run's process tree"),
    Metric("setup_s", "s", "lower", "median time to make and load the inputs"),
)

_VERIFY = "wall_s on verify-m5"
_GRID = "wall_s on grid-m5 first, verify-m5 second"
_RANK = "wall_s and peak_rss_mb on rank-concrete"

# Self time is a span's duration minus its traced children; total time
# includes them.  Metrics of a layer a workload does not touch read 0.
LAYER_METRICS = (
    Metric("algebra.multiply_calls", "count", "lower", "calls of algebra.multiply", _VERIFY + "; 0 on grid-m5 and rank-concrete"),
    Metric("algebra.multiply_s", "s", "lower", "self time of algebra.multiply", _VERIFY),
    Metric("algebra.term_pairs", "count", "lower", "sum of |a|*|b| over multiply calls (scalar products)", _VERIFY),
    Metric("algebra.proportionality_s", "s", "lower", "self time of algebra.proportionality", _VERIFY),
    Metric("projectors.young_s", "s", "lower", "self time of young_projector (0 while the Hermitian grid builds none)", _VERIFY),
    Metric("projectors.hermitian_s", "s", "lower", "self time of hermitian_projector, _mold and _staircase", _VERIFY),
    Metric("projectors.cache_hit_ratio", "ratio", "higher", "hits over calls of the projectors caches", _VERIFY),
    Metric("transitions.compact_calls", "count", "lower", "calls of unitary_transition_compact", _VERIFY),
    Metric("transitions.compact_s", "s", "lower", "self time of unitary_transition_compact", _VERIFY),
    Metric("basis.assemble_s", "s", "lower", "total time of assemble", _VERIFY),
    Metric("basis.table_s", "s", "lower", "total time of verify_multiplication_table", _GRID),
    Metric("basis.ortho_s", "s", "lower", "total time of verify_orthonormality", _GRID),
    Metric("basis.complete_s", "s", "lower", "total time of verify_completeness_and_nesting", _VERIFY),
    Metric("basis.independence_s", "s", "lower", "total time of verify_linear_independence", _GRID),
    Metric("basis.pool_speedup", "ratio", "higher", "table suite at jobs=1 over default jobs, untraced; grid-m5 only", _GRID),
    Metric("fast.convolve_calls", "count", "lower", "calls of _fast.convolve", _GRID + "; 0 on rank-concrete"),
    Metric("fast.convolve_s", "s", "lower", "self time of _fast.convolve", _GRID),
    Metric("fast.lower_s", "s", "lower", "self time of _fast.lower", _GRID),
    Metric("fast.equal_s", "s", "lower", "self time of _fast.equal", _GRID),
    Metric("fast.trace_s", "s", "lower", "self time of _fast.trace_lowered", _GRID),
    Metric("fast.table_build_s", "s", "lower", "total time of _fast.composition_table", _GRID),
    Metric("fast.object_vectors", "count", "lower", "convolve result vectors of dtype object (int64 promotions)", _GRID),
    Metric("permutations.compose_calls", "count", "lower", "calls of permutations.compose", _GRID),
    Metric("matrix_rep.represent_s", "s", "lower", "self time of represent", _RANK),
    Metric("matrix_rep.rank_s", "s", "lower", "self time of rank (densifying rows)", _RANK),
    Metric("matrix_rep.nonzeros", "count", "lower", "nonzero entries of represented matrices", _RANK),
    Metric("linalg.fraction_rank_s", "s", "lower", "self time of _linalg.fraction_rank", _RANK),
    Metric("linalg.surd_elimination_calls", "count", "lower", "calls of _linalg._surd_elimination (expected 0)", _RANK),
    Metric("cli.startup_s", "s", "lower", "median wall time of a fresh `sunbasis dims --m 1`", "wall_s on rank-concrete most"),
    Metric("cli.render_s", "s", "lower", "total time of _dump_json, basis_to_json and matrix_to_json", _RANK),
    Metric("cache.entries", "count", "lower", "summed currsize of the package caches after the traced operation", "peak_rss_mb on verify-m5"),
    Metric("cli.self_s", "s", "lower", "self time of the cli layer", "wall_s on every workload"),
    Metric("basis.self_s", "s", "lower", "self time of the basis layer", "wall_s on every workload"),
    Metric("transitions.self_s", "s", "lower", "self time of the transitions layer", _VERIFY),
    Metric("projectors.self_s", "s", "lower", "self time of the projectors layer", _VERIFY),
    Metric("algebra.self_s", "s", "lower", "self time of the algebra layer", _VERIFY),
    Metric("fast.self_s", "s", "lower", "self time of the _fast layer", _GRID),
    Metric("permutations.self_s", "s", "lower", "self time of the permutations layer", _GRID),
    Metric("matrix_rep.self_s", "s", "lower", "self time of the matrix_rep layer", _RANK),
    Metric("linalg.self_s", "s", "lower", "self time of the _linalg layer", _RANK),
    Metric("trace.spans", "count", "lower", "spans recorded by the traced operation", "none: cost of tracing"),
    Metric("trace.untraced_s", "s", "lower", "in-process untraced operation, same jobs as the traced one", "wall_s of the workload"),
    Metric("trace.traced_s", "s", "lower", "the same operation, traced", "none: cost of tracing"),
    Metric("trace.overhead_s", "s", "lower", "trace.traced_s minus trace.untraced_s", "none: cost of tracing"),
    Metric("trace.span_cost_overhead_s", "s", "lower", "trace.spans times the measured cost of one span on a no-op", "none: cost of tracing"),
    Metric("trace.coverage", "ratio", "higher", "summed layer self time over trace.traced_s", "none: completeness of the spans"),
)

# Standard tableaux per degree 0..7, to derive expected report counts
# without asking the package under test.
_TABLEAU_COUNTS = (1, 1, 2, 4, 10, 26, 76, 232)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- outcomes ----------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class HashStore:
    """sha256 of every CLI stdout, keyed by what determines it.

    Kept in the checkout across runs, so that two runs with the same
    inputs must produce byte-identical output; a disagreement is a failure.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, stdout: bytes) -> list[str]:
        digest = hashlib.sha256(stdout).hexdigest()
        previous = self.known.setdefault(key, digest)
        if previous != digest:
            return [f"stdout sha256 {digest[:16]} differs from an earlier run's {previous[:16]}"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# -- running the package -----------------------------------------------------


@dataclass
class Completed:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SUNBASIS_JOBS", None)
    return env


def run_python(args: list[str], timeout: float) -> Completed:
    """Run the interpreter on ``args``; rusage comes from ``wait4``.

    ``wait4`` reports the child together with the descendants it waited
    for, which covers the verification pool's workers.
    """
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    start = time.perf_counter()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, cwd=WORK, env=_child_env()
        )
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Completed(code, wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes())


def run_cli(args: list[str], timeout: float) -> Completed:
    return run_python(["-m", "sunbasis.cli", *args], timeout)


def call_cli(args: list[str]) -> Completed:
    """The same CLI request inside this process (for the traced run)."""
    import sunbasis.cli

    buf = io.StringIO()
    err = b""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = sunbasis.cli.main(list(args))
    except Exception:  # a traceback is a failed request, as it would be in a CLI run
        code, err = 1, traceback.format_exc().encode()
    wall = time.perf_counter() - start
    return Completed(code, wall, 0.0, buf.getvalue().encode(), err)


def self_peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _stderr_tail(c: Completed) -> str:
    lines = c.stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _parse_json(c: Completed) -> tuple[dict | None, list[str]]:
    if c.code != 0:
        return None, [f"exit code {c.code} {_stderr_tail(c)}".strip()]
    try:
        return json.loads(c.stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def hook_content_dimension(shape: tuple[int, ...], n: int) -> int:
    """Dimension of a shape's image at N = n: prod(n + content) / prod(hook)."""
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    num, den = 1, 1
    for i, r in enumerate(shape):
        for j in range(r):
            num *= n + j - i
            den *= (r - j - 1) + (cols[j] - i - 1) + 1
    return num // den


# -- workloads ----------------------------------------------------------------


class Workload:
    """One named workload: inputs from a seed, a cold operation, checks."""

    name = ""

    def __init__(self, seed: int, degree: int, store: HashStore, deadline: float):
        self.seed = seed
        self.degree = degree
        self.store = store
        self.deadline = deadline
        self.rng = random.Random(seed)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, tally: Tally, in_process: bool) -> tuple[float, float]:
        """Run one operation; return its wall seconds and peak RSS in MB."""
        raise NotImplementedError

    def traced_extras(self, tally: Tally) -> dict[str, float]:
        return {}


class VerifyWorkload(Workload):
    """The ROADMAP's headline user run; construction dominates it."""

    name = "verify-m5"

    def setup(self) -> None:
        c = run_python(["-c", "import sunbasis"], self.remaining())
        if c.code != 0:
            raise SetupError(f"the package does not import: {_stderr_tail(c)}")
        self.args = ["verify", "--m", str(self.degree), "--seed", str(self.seed)]
        m = self.degree
        self.expected = {
            "multiplication_table": factorial(m) ** 2,
            "orthonormality": 500 if m >= 5 else factorial(m) ** 2,
            "completeness_and_nesting": 1 + _TABLEAU_COUNTS[m - 1] if m >= 2 else 1,
            "linear_independence": 1,
        }

    def check(self, c: Completed) -> list[str]:
        payload, problems = _parse_json(c)
        if payload is None:
            return problems
        if payload.get("passed") is not True:
            problems.append("report says passed=false")
        reports = {r.get("name"): r for r in payload.get("reports", [])}
        if set(reports) != set(self.expected):
            problems.append(f"reports {sorted(reports)} != {sorted(self.expected)}")
        for name, checked in self.expected.items():
            r = reports.get(name, {})
            if r.get("passed") is not True or r.get("failures"):
                problems.append(f"{name} failed")
            if r.get("checked") != checked:
                problems.append(f"{name} checked {r.get('checked')}, expected {checked}")
        key = f"verify|m={self.degree}|seed={self.seed}"
        return problems + self.store.check(key, c.stdout)

    def operation(self, tally: Tally, in_process: bool) -> tuple[float, float]:
        if in_process:
            # forked workers' spans are lost, so the in-process run uses one job
            tracing.clear_caches()
            c = call_cli(self.args + ["--jobs", "1"])
        else:
            c = run_cli(self.args, self.remaining())
        tally.record(" ".join(self.args), self.check(c))
        return c.wall_s, c.rss_mb


class GridWorkload(Workload):
    """Verification alone, on a prebuilt grid: construction is off the path."""

    name = "grid-m5"

    def setup(self) -> None:
        import sunbasis

        if self.degree == 5:
            text = GRID_FILE.read_text()
        else:
            text = json.dumps(sunbasis.basis_to_json(sunbasis.assemble(self.degree)))
        self.grid = relabel(sunbasis.basis_from_json(json.loads(text)), self.seed)
        self.table_s = []

    def run_suites(self, tally: Tally, jobs: int | None) -> dict[str, float]:
        import sunbasis

        tracing.clear_caches()
        size = factorial(self.degree) ** 2
        times = {}
        calls = (
            ("table", lambda: sunbasis.verify_multiplication_table(self.grid, jobs=jobs), size),
            ("ortho", lambda: sunbasis.verify_orthonormality(self.grid, sample=None, jobs=jobs), size),
            ("independence", lambda: sunbasis.verify_linear_independence(self.grid), 1),
        )
        for name, call, checked in calls:
            start = time.perf_counter()
            try:
                report = call()
                problems = []
                if not report.passed:
                    problems.append(f"{len(report.failures)} failures, first {report.failures[0]}")
                if report.checked != checked:
                    problems.append(f"checked {report.checked}, expected {checked}")
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                problems = [f"raised {exc!r}"]
            times[name] = time.perf_counter() - start
            tally.record(f"grid {name}", problems)
        return times

    def operation(self, tally: Tally, in_process: bool) -> tuple[float, float]:
        times = self.run_suites(tally, 1 if in_process else None)
        self.table_s.append(times["table"])
        return sum(times.values()), self_peak_rss_mb()

    def traced_extras(self, tally: Tally) -> dict[str, float]:
        """The pool's gain: the untraced jobs=1 table over a default-jobs one."""
        import sunbasis

        tracing.clear_caches()
        start = time.perf_counter()
        report = sunbasis.verify_multiplication_table(self.grid)
        pooled = time.perf_counter() - start
        tally.record("grid table (default jobs)", [] if report.passed else ["table failed"])
        return {"basis.pool_speedup": self.table_s[0] / pooled}


def relabel(grid, seed: int):
    """Reorder the tableaux of every block by a seeded permutation.

    Operators move with their tableaux, so the grid is the same basis under
    new labels and every suite must still pass, in a different order.
    """
    from sunbasis import BasisBlock, BasisMatrix

    rng = random.Random(seed)
    blocks = []
    for block in grid.blocks:
        order = list(range(block.size))
        rng.shuffle(order)
        blocks.append(
            BasisBlock(
                block.diagram,
                tuple(block.tableaux[i] for i in order),
                tuple(tuple(block.operators[i][j] for j in order) for i in order),
            )
        )
    return BasisMatrix(grid.m, grid.kind, tuple(blocks))


# (label, kind, shape, n): n**m between about 250 and 1000, plus one n below
# a column length so that the vanishing path runs.  The transitions carry
# sqrt(3) and sqrt(2) coefficients.
RANK_REQUESTS = (
    ("P3-21", "projector", (2, 1), 8),
    ("T3-21", "transition", (2, 1), 7),
    ("P4-31", "projector", (3, 1), 4),
    ("P4-22", "projector", (2, 2), 5),
    ("P4-211", "projector", (2, 1, 1), 4),
    ("T4-31", "transition", (3, 1), 4),
    ("P4-1111", "projector", (1, 1, 1, 1), 3),
)
SMOKE_RANK_REQUESTS = (
    ("P3-21", "projector", (2, 1), 3),
    ("T3-21", "transition", (2, 1), 3),
    ("P3-111", "projector", (1, 1, 1), 2),
)


@dataclass(frozen=True)
class RankRequest:
    label: str
    args: tuple[str, ...]
    size: int
    rank: int


class RankWorkload(Workload):
    """Concrete matrices and exact rank; no group-algebra products."""

    name = "rank-concrete"

    def setup(self) -> None:
        import sunbasis

        tracing.clear_caches()
        ops_dir = WORK / "ops"
        ops_dir.mkdir(exist_ok=True)
        table = RANK_REQUESTS if self.degree >= 4 else SMOKE_RANK_REQUESTS
        self.requests = []
        for label, kind, shape, n in table:
            tabs = sunbasis.tableaux_of_shape(sunbasis.YoungDiagram(shape))
            if kind == "projector":
                element = sunbasis.hermitian_projector(tabs[0]).element
            else:
                element = sunbasis.transition(tabs[0], tabs[1]).element
            path = ops_dir / f"{label}.json"
            path.write_text(json.dumps(sunbasis.element_to_json(element)))
            args = ("represent", "--N", str(n), "--op", f"@{path}", "--rank")
            size = n ** sum(shape)
            self.requests.append(RankRequest(label, args, size, hook_content_dimension(shape, n)))

    def check(self, req: RankRequest, c: Completed) -> list[str]:
        payload, problems = _parse_json(c)
        if payload is None:
            return problems
        if payload.get("size") != req.size:
            problems.append(f"size {payload.get('size')}, expected {req.size}")
        if payload.get("rank") != req.rank:
            problems.append(f"rank {payload.get('rank')}, expected {req.rank}")
        return problems + self.store.check(f"represent|{req.label}|{req.args[2]}", c.stdout)

    def operation(self, tally: Tally, in_process: bool) -> tuple[float, float]:
        order = list(self.requests)
        self.rng.shuffle(order)
        wall, rss = 0.0, 0.0
        for req in order:
            if in_process:
                tracing.clear_caches()
                c = call_cli(req.args)
            else:
                c = run_cli(req.args, self.remaining())
            tally.record(req.label, self.check(req, c))
            wall += c.wall_s
            rss = max(rss, c.rss_mb)
        return wall, rss


WORKLOADS = {w.name: w for w in (VerifyWorkload, GridWorkload, RankWorkload)}
DEFAULT_DEGREE = {"verify-m5": 5, "grid-m5": 5, "rank-concrete": 4}


# -- the two kinds of run -----------------------------------------------------


def timed_run(w: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setups = []

    def set_up() -> None:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - start)

    set_up()
    walls, rss = [], 0.0
    start = time.monotonic()
    # start another operation only if it should end inside the window
    while not walls or (
        time.monotonic() - start + statistics.median(walls) <= seconds
        and w.remaining() > 2 * max(walls)
    ):
        wall, peak = w.operation(tally, in_process=False)
        walls.append(wall)
        rss = max(rss, peak)
        # The machine's speed drifts over tens of seconds; set-up samples taken
        # between the operations too let their median span that drift.
        set_up()
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    return metrics, {"wall_samples_s": walls, "setup_samples_s": setups}


def traced_run(w: Workload, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    w.setup()
    untraced, _ = w.operation(tally, in_process=True)
    tracer = tracing.Tracer(
        counters={
            "algebra.multiply": lambda args, res: args[0].term_count() * args[1].term_count(),
            "_fast.convolve": lambda args, res: sum(v.dtype == object for _, v in res.values()),
            "matrix_rep.represent": lambda args, res: len(res.entries),
        }
    )
    with tracer:
        traced, _ = w.operation(tally, in_process=True)
    caches = tracing.package_caches()
    extras = {
        "cache.entries": sum(c.cache_info().currsize for c in caches),
        "projectors.cache_hit_ratio": _hit_ratio(
            [c for c in caches if c.__module__ == "sunbasis.projectors"]
        ),
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.span_cost_overhead_s": tracing.span_cost_s() * len(tracer.spans),
        "basis.pool_speedup": 0.0,
    }
    extras.update(w.traced_extras(tally))
    startups = [run_cli(["dims", "--m", "1"], w.remaining()) for _ in range(3)]
    for c in startups:
        tally.record("dims --m 1", [] if c.code == 0 else [f"exit code {c.code}"])
    extras["cli.startup_s"] = statistics.median(c.wall_s for c in startups)
    tracer.write(spans_path)
    details = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "note": "both in-process operations run verification with jobs=1, "
        "because forked pool workers' spans are lost",
    }
    return layer_metrics(tracer, extras), details


def _hit_ratio(caches: list) -> float:
    hits = sum(c.cache_info().hits for c in caches)
    calls = hits + sum(c.cache_info().misses for c in caches)
    return hits / calls if calls else 0.0


def layer_metrics(tracer, extras: dict) -> dict[str, float]:
    summary = tracer.summary()

    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    layer_self = tracer.layer_self()
    traced = extras["trace.traced_s"]
    values = {
        "algebra.multiply_calls": get("algebra.multiply", "calls"),
        "algebra.multiply_s": get("algebra.multiply", "self_s"),
        "algebra.term_pairs": tracer.counts["algebra.multiply"],
        "algebra.proportionality_s": get("algebra.proportionality", "self_s"),
        "projectors.young_s": get("projectors.young_projector", "self_s"),
        "projectors.hermitian_s": sum(
            get(f"projectors.{f}", "self_s")
            for f in ("hermitian_projector", "hermitian_mold", "hermitian_staircase")
        ),
        "transitions.compact_calls": get("transitions.unitary_transition_compact", "calls"),
        "transitions.compact_s": get("transitions.unitary_transition_compact", "self_s"),
        "basis.assemble_s": get("basis.assemble", "total_s"),
        "basis.table_s": get("basis.verify_multiplication_table", "total_s"),
        "basis.ortho_s": get("basis.verify_orthonormality", "total_s"),
        "basis.complete_s": get("basis.verify_completeness_and_nesting", "total_s"),
        "basis.independence_s": get("basis.verify_linear_independence", "total_s"),
        "fast.convolve_calls": get("_fast.convolve", "calls"),
        "fast.convolve_s": get("_fast.convolve", "self_s"),
        "fast.lower_s": get("_fast.lower", "self_s"),
        "fast.equal_s": get("_fast.equal", "self_s"),
        "fast.trace_s": get("_fast.trace_lowered", "self_s"),
        "fast.table_build_s": get("_fast.composition_table", "total_s"),
        "fast.object_vectors": tracer.counts["_fast.convolve"],
        "permutations.compose_calls": get("permutations.compose", "calls"),
        "matrix_rep.represent_s": get("matrix_rep.represent", "self_s"),
        "matrix_rep.rank_s": get("matrix_rep.rank", "self_s"),
        "matrix_rep.nonzeros": tracer.counts["matrix_rep.represent"],
        "linalg.fraction_rank_s": get("_linalg.fraction_rank", "self_s"),
        "linalg.surd_elimination_calls": get("_linalg._surd_elimination", "calls"),
        "cli.render_s": sum(
            get(s, "total_s")
            for s in ("cli._dump_json", "basis.basis_to_json", "matrix_rep.matrix_to_json")
        ),
        "trace.spans": len(tracer.spans),
        "trace.coverage": sum(layer_self.values()) / traced if traced else 0.0,
    }
    for layer, seconds in layer_self.items():
        values[f"{layer.lstrip('_')}.self_s"] = seconds
    values.update(extras)
    return {m.name: values[m.name] for m in LAYER_METRICS}


# -- entry point ---------------------------------------------------------------


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": model or platform.processor(),
    }


def load_package() -> None:
    """Import ``sunbasis`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "sunbasis" / "__init__.py").is_file():
        raise SetupError(f"no package sources at {SRC.relative_to(ROOT)}/sunbasis")
    sys.path.insert(0, str(SRC))
    import sunbasis

    if not Path(sunbasis.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"sunbasis imported from {sunbasis.__file__}, not from the checkout")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--degree", type=int, default=None, help="smaller degree for the smoke test (3)"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    os.environ.pop("SUNBASIS_JOBS", None)

    try:
        load_package()
        WORK.mkdir(exist_ok=True)
        store = HashStore(WORK / "stdout_sha256.json")
        degree = args.degree or DEFAULT_DEGREE[args.workload]
        w = WORKLOADS[args.workload](args.seed, degree, store, deadline)
        tally = Tally()
        tag = f"{args.workload}-m{degree}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, details = traced_run(w, tally, WORK / "trace" / f"{tag}.jsonl")
            units = {m.name: m.unit for m in LAYER_METRICS}
        else:
            metrics, details = timed_run(w, args.seconds, tally)
            units = {m.name: m.unit for m in END_TO_END}
        store.save()
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    details.update(
        workload=args.workload,
        degree=degree,
        seed=args.seed,
        trace=args.trace,
        machine=machine(),
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / tally.attempted,
        problems=tally.problems[:20],
    )
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(
        json.dumps(dict(details, metrics=metrics), indent=1, sort_keys=True)
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
