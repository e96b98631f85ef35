"""Timing loop, tracing and statistics shared by the dualpairs benchmark.

A run measures one workload in passes.  Each pass starts from a fresh import
of the package (every `dualpairs` module object is dropped first), so the
program's own caches hold nothing from the previous pass, exactly as if the
pass ran in a new process.  The import plus the workload's input generation
is one set-up; the timed part of an item is only its calls into the program.

Every time is taken at the machine's reference speed: a fixed probe runs
beside each timed interval, and the interval is scaled by the probe's
reference time over its time just then (see `at_reference_speed`).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import importlib
import json
import math
import pstats
import resource
import sys
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist, median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("errors", "rational", "forms", "orbits", "theta", "oracle",
           "cycles", "cli")
SETUPS_BEFORE_TIMING = 5


@dataclass(frozen=True)
class Item:
    """One unit of work: its inputs and the domain-error codes documented as
    its legitimate outcome (anything else raised is a failure)."""

    id: str
    args: tuple
    documented: frozenset = frozenset()


def fresh_import():
    """Import dualpairs from this checkout's src/ with no module reused."""
    for name in [n for n in sys.modules
                 if n == "dualpairs" or n.startswith("dualpairs.")]:
        del sys.modules[name]
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dualpairs")
    if Path(pkg.__file__).resolve().parent != SRC / "dualpairs":
        raise ImportError(f"dualpairs imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module("dualpairs." + m) for m in MODULES})


# -- outcomes -------------------------------------------------------------


def outcome(exc, documented) -> str:
    """'ok' for no exception, 'documented' for a domain error whose code the
    item documents, 'failed' for anything else (IdentityViolated included)."""
    if exc is None:
        return "ok"
    return "documented" if getattr(exc, "code", None) in documented \
        else "failed"


def error_code(exc) -> str:
    return getattr(exc, "code", None) or type(exc).__name__


# -- statistics -----------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    k = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[k - 1]


def smoothed_percentile(values, p: float) -> float:
    """Percentile as a weighted mean of the order statistics: the normal
    approximation of the Harrell-Davis estimator (Biometrika 69, 1982).

    The weights follow the sampling distribution of the p-th quantile's rank,
    a normal curve with sd sqrt(q(1 - q)/(n + 2)), q = p/100.  Where the
    samples leave a gap at the p-th rank (lift-sweep's median falls between
    two clusters of items 2 ms apart), the nearest-rank value jumps across
    it from run to run; this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    q = p / 100
    if n == 1:
        return ordered[0]
    curve = NormalDist(q, math.sqrt(q * (1 - q) / (n + 2)))
    cdf = [curve.cdf(i / n) for i in range(n + 1)]
    total = cdf[-1] - cdf[0]
    weighted = sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered))
    return weighted / total


def tail_percentile(n: int):
    """Highest of p99.9, p99 and p90 with at least ten of n samples beyond
    its nearest-rank position, or None when n is too small for any."""
    for p in (99.9, 99.0, 90.0):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def entry_bits(m) -> int:
    """Largest numerator-plus-denominator bit length among a matrix's entries."""
    return max((x.numerator.bit_length() + x.denominator.bit_length()
                for row in m for x in row), default=0)


# -- speed probe ----------------------------------------------------------

# One 6x6 Fraction matrix product with fixed entries: the kind of work the
# program's kernel does, independent of the program.
_PROBE_MATRIX = tuple(tuple(Fraction(7 * i + 3 * j + 1, j + 2)
                            for j in range(6)) for i in range(6))
# Seconds the probe takes at full speed on a 2-vCPU x86-64 VM with Python
# 3.11 (the fastest of many runs).  It only sets the scale of the reported
# times, which read as seconds at that speed.
PROBE_REF_S = 0.0006


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    a = _PROBE_MATRIX
    t0 = perf_counter()
    [[sum(a[i][k] * a[k][j] for k in range(6)) for j in range(6)]
     for i in range(6)]
    return perf_counter() - t0


PROBE_WINDOW = 3


def at_reference_speed(wall, probes) -> list:
    """Scale each interval to the machine's reference speed.

    Shared machines run the same code at very different speeds from one
    second to the next (on the 2-vCPU VM this was built on, 1.0x to 1.8x
    the fastest time, in phases of seconds to minutes; process CPU time
    moves with wall time).  A time measured there says as much about the
    machine's phase as about the program.  So the probe runs before the
    first interval and after each one (probes[i] and probes[i + 1] bracket
    wall[i]), and interval i is scaled by PROBE_REF_S over the median of
    the PROBE_WINDOW probe times on either side of it.  A change to the program
    moves the scaled time; a change in the machine's speed moves interval
    and probe together and cancels."""
    out = []
    for i, seconds in enumerate(wall):
        near = probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]
        out.append(seconds * PROBE_REF_S / median(near))
    return out


# -- tracing --------------------------------------------------------------


class Tracer:
    """Spans around the benchmark's own calls into the program.

    A span is (name, start, end, parent, item, error, note); the parent of a
    call span is its item span.  With tracing off, call() adds one Python
    call and records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._item = None
        self._parent = None

    def call(self, name, fn, *args, note=None):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        err = None
        try:
            return fn(*args)
        except Exception as exc:
            err = error_code(exc)
            raise
        finally:
            self.spans.append((name, start, perf_counter(), self._parent,
                               self._item, err, note))

    def begin_item(self, item_id: str):
        if self.enabled:
            self._item = item_id
            self._parent = len(self.spans)
            self.spans.append(None)   # replaced by end_item
            return perf_counter()
        return None

    def end_item(self, name: str, start):
        if self.enabled:
            self.spans[self._parent] = (name, start, perf_counter(), None,
                                        self._item, None, None)
            self._item = self._parent = None

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "item", "error", "note")
        with path.open("w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh,
                      default=str)


# -- the timing loop ------------------------------------------------------


FAILED = ("failed", "wrong", "differs")


def _digest(hashes) -> str:
    return hashlib.sha256("".join(hashes).encode()).hexdigest()


@dataclass
class PassResult:
    latencies: list      # seconds at reference speed, one per item run
    wall: list           # the same, as measured
    probes: list         # probe times, one before each item and one after
    statuses: Counter    # ok / documented / failed / wrong / differs
    hashes: list         # per-item hash of the canonical output
    first_failures: list


def setup(workload, seed: int):
    """One set-up: fresh import plus input generation; returns (dp, items,
    seconds at reference speed)."""
    before = [probe() for _ in range(PROBE_WINDOW)]
    t0 = perf_counter()
    dp = fresh_import()
    items = workload.generate(dp, seed)
    wall = perf_counter() - t0
    after = [probe() for _ in range(PROBE_WINDOW)]
    return dp, items, wall * PROBE_REF_S / median(before + after)


def run_pass(workload, dp, items, tracer=None, profiler=None,
             reference=None) -> PassResult:
    """Run every item once, in order.  Each item is timed around
    workload.run only; its output is checked afterwards."""
    tracer = tracer or Tracer(False)
    res = PassResult([], [], [probe()], Counter(), [], [])
    for i, item in enumerate(items):
        span_start = tracer.begin_item(item.id)
        if profiler:
            profiler.enable()
        t0 = perf_counter()
        try:
            result, exc = workload.run(dp, item, tracer), None
        except Exception as err:   # the item failed; the run goes on
            result, exc = None, err
        dt = perf_counter() - t0
        if profiler:
            profiler.disable()
        tracer.end_item("item." + workload.name, span_start)
        res.probes.append(probe())
        res.wall.append(dt)
        if exc is None:
            status, canon = workload.check(dp, item, result)
        else:
            status, canon = outcome(exc, item.documented), ["raised",
                                                           error_code(exc)]
        digest = hashlib.sha256(json.dumps(canon, sort_keys=True,
                                           default=str).encode()).hexdigest()
        if reference is not None and digest != reference[i]:
            status = "differs"
        res.statuses[status] += 1
        res.hashes.append(digest)
        if status in FAILED and len(res.first_failures) < 3:
            res.first_failures.append(f"{item.id}: {status} {canon}"[:300])
    res.latencies = at_reference_speed(res.wall, res.probes)
    return res


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: whole passes, so every item runs equally often, until
    the next pass would end after `seconds`; the set-up is repeated before
    the first pass.

    `latencies` holds each pass's item latencies at reference speed;
    `wall` holds the same as measured, for the record."""
    setups = []
    for _ in range(SETUPS_BEFORE_TIMING):
        dp, items, s = setup(workload, seed)
        setups.append(s)
    start = perf_counter()
    deadline = start + seconds
    passes = []
    reference = None
    while True:
        t0 = perf_counter()
        p = run_pass(workload, dp, items, reference=reference)
        passes.append(p)
        if reference is None:
            reference = p.hashes
        if 2 * perf_counter() - t0 >= deadline:
            break
        del dp, items
        dp, items, s = setup(workload, seed)
        setups.append(s)
    statuses = sum((p.statuses for p in passes), Counter())
    return {"setups": setups,
            "latencies": [p.latencies for p in passes],
            "wall": [p.wall for p in passes],
            "statuses": statuses, "attempted": sum(statuses.values()),
            "passes": len(passes), "wall_s": perf_counter() - start,
            "digest": _digest(reference),
            "pass_items": len(reference),
            "pass_failed": sum(passes[0].statuses[s] for s in FAILED),
            "first_failures": [f for p in passes for f in p.first_failures][:3],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024}


def latency_metrics(passes) -> dict:
    """Throughput over every item run; each percentile is the mean over
    passes of the pass's smoothed percentile, so neither depends on how many
    passes fitted in the run."""
    def pct(p):
        return sum(smoothed_percentile(lat, p) for lat in passes) \
            / len(passes) * 1000
    return {"items_per_s": (sum(map(len, passes)) / sum(map(sum, passes)),
                            "1/s"),
            "item_p50_ms": (pct(50), "ms"),
            "item_p90_ms": (pct(90), "ms")}


def end_to_end_metrics(m: dict) -> dict:
    failed = sum(m["statuses"][s] for s in FAILED)
    return {
        "setup_s": (median(m["setups"]), "s"),
        **latency_metrics(m["latencies"]),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "ok_frac": ((m["attempted"] - failed) / m["attempted"], "1"),
    }


def trace(workload, seed: int, out_dir: Path) -> dict:
    """Traced run over exactly one pass of fixed work, three times: untraced,
    with spans, and under cProfile (for counts inside the program)."""
    dp, items, _ = setup(workload, seed)
    plain = run_pass(workload, dp, items)
    del dp, items
    dp, items, _ = setup(workload, seed)
    tracer = Tracer(True)
    spanned = run_pass(workload, dp, items, tracer=tracer,
                       reference=plain.hashes)
    del dp, items
    dp, items, _ = setup(workload, seed)
    prof = cProfile.Profile()
    profiled = run_pass(workload, dp, items, profiler=prof,
                        reference=plain.hashes)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.json")
    passes = (plain, spanned, profiled)
    return {"spans": tracer.spans, "stats": pstats.Stats(prof).stats,
            "overhead": sum(spanned.latencies) / sum(plain.latencies),
            "statuses": sum((p.statuses for p in passes), Counter()),
            "attempted": sum(len(p.latencies) for p in passes),
            "digest": _digest(plain.hashes),
            "pass_items": len(plain.hashes),
            "first_failures": [f for p in passes for f in p.first_failures][:3]}


# -- per-layer metrics ----------------------------------------------------

# span-timed calls the benchmark makes, reported as <name>.total_s
SPAN_TOTALS = ("oracle.identify.complex", "oracle.identify.real",
               "oracle.moment_maps", "oracle.sample_raising_map",
               "oracle.realize_triple", "oracle.random_isometry",
               "oracle.construct_descent_element",
               "oracle.verify_dimension_identity",
               "oracle.triple_centralizer_dim", "theta.theta_lift",
               "theta.generalized_descent", "orbits.closure_leq")
# functions only the program calls, timed by the profiler (module, function)
PROFILE_TOTALS = {"oracle.jm_complete": ("oracle", "jm_complete"),
                  "oracle.algebra_basis": ("oracle", "algebra_basis"),
                  "orbits.enumerate_orbits": ("orbits", "enumerate_orbits")}
PROFILE_CALLS = {"rational.mul": ("rational", "mul"),
                 "rational.rref": ("rational", "rref"),
                 "rational.nullspace": ("rational", "nullspace"),
                 "oracle.in_algebra": ("oracle", "in_algebra")}
CLI_SUBCOMMANDS = ("orbits", "descend", "lift", "stabilizer", "whittaker",
                   "pair-factor", "cycle-lift", "range")
FRACTION_OPS = ("_add", "_sub", "_mul", "_div")


def _in_module(func, module: str) -> bool:
    path = Path(func[0])
    return path.name == module + ".py" and path.parent.name == "dualpairs"


def _profiled(stats, module: str, name: str):
    """(calls, inclusive seconds) of one package function, 0 if never run."""
    for func, (_, nc, _, ct, _) in stats.items():
        if func[2] == name and _in_module(func, module):
            return nc, ct
    return 0, 0.0


def layer_metrics(t: dict) -> dict:
    spans = [s for s in t["spans"] if not s[0].startswith("item.")]
    stats = t["stats"]
    total = defaultdict(float)
    by_name = defaultdict(list)
    for name, start, end, _, _, err, note in spans:
        total[name] += end - start
        by_name[name].append((err, note, end - start))

    def ratio(name, pred):
        calls = by_name[name]
        return sum(1 for c in calls if pred(c)) / len(calls) if calls else 0.0

    out = {}
    for name, (module, fn) in PROFILE_CALLS.items():
        out[name + ".calls"] = (_profiled(stats, module, fn)[0], "count")
    out["rational.self_s"] = (sum(
        ct for func, (*_, callers) in stats.items()
        if _in_module(func, "rational")
        for caller, (_, _, _, ct) in callers.items()
        if not _in_module(caller, "rational")), "s")
    out["fraction.ops"] = (sum(
        nc for func, (_, nc, *_) in stats.items()
        if Path(func[0]).name == "fractions.py" and func[2] in FRACTION_OPS),
        "count")
    for name in SPAN_TOTALS:
        out[name + ".total_s"] = (total[name], "s")
    for name, (module, fn) in PROFILE_TOTALS.items():
        out[name + ".total_s"] = (_profiled(stats, module, fn)[1], "s")
    realize = by_name["oracle.realize_triple"]
    out["oracle.realize_triple.distinct_ratio"] = (
        len({note for _, note, _ in realize}) / len(realize) if realize
        else 0.0, "1")
    out["oracle.construct_descent_element.ok_ratio"] = (
        ratio("oracle.construct_descent_element", lambda c: c[0] is None), "1")
    out["theta.theta_lift.undefined_ratio"] = (
        ratio("theta.theta_lift", lambda c: c[0] == "empty_lift"), "1")
    for sub in CLI_SUBCOMMANDS:
        durations = [d for _, _, d in by_name["cli." + sub]]
        out[f"cli.{sub}.p50_ms"] = (
            median(durations) * 1000 if durations else 0.0, "ms")
    bits = [note for name in ("oracle.identify.complex", "oracle.identify.real")
            for _, note, _ in by_name[name]]
    out["input.entry_bits_p50"] = (median(bits) if bits else 0, "bits")
    out["trace.overhead"] = (t["overhead"], "1")
    return out
