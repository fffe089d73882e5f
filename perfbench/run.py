"""aspoly benchmark: one workload per run, end to end or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload hull_scan --seed 1 --seconds 20 --trace 0

A run has three parts.  Set-up imports the library afresh from ``src/``
and builds the workload's inputs from the seed; it is repeated and its
median reported as ``setup_s``.  The timed part runs whole passes over
the workload's op list, one process, one thread, until about
``--seconds`` have gone.  Every op's result is checked, untimed, right
after it returns.  Timed metrics are rescaled to reference speed (see
reference.py) to cancel the swings of a shared machine.

With ``--trace 0`` the last line of standard output is the end-to-end
result.  With ``--trace 1`` half the time runs untraced and half traced;
the traced passes give the per-layer metrics (times and call counts per
pass, exact counts of one pass) and the traced/untraced ratio gives the
tracing overhead.  Spans are written as JSON lines and a run record as
JSON under ``perfbench/out/``.

Exact counts must repeat: every pass against the first, traced against
untraced, and each run against an earlier run of the same code, workload
and seed.  A mismatch makes the result incorrect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from reference import REF_SECONDS, reference_seconds
from spans import Traced, Tracer
from workloads import ITEMS, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
LAYERS = ("curves", "hull", "gale", "enumerative", "complexes", "stackgen", "rigidity", "cli")
SETUP_REPEATS = 3


class Library:
    """The library's modules, imported afresh from the checkout's ``src/``."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "aspoly" or m.startswith("aspoly.")]:
            del sys.modules[name]
        pkg = importlib.import_module("aspoly")
        if Path(pkg.__file__).resolve().parent != ROOT / "src" / "aspoly":
            raise ImportError(f"aspoly imported from {pkg.__file__}, not from this checkout")
        for name in LAYERS + ("errors",):
            setattr(self, name, importlib.import_module(f"aspoly.{name}"))

    def layers(self, tracer: Tracer | None):
        if tracer is None:
            return self
        return SimpleNamespace(**{n: Traced(getattr(self, n), n, tracer) for n in LAYERS})

    def clear_caches(self) -> None:
        """Empty the library's memo caches, so each op starts as a fresh process would."""
        for name in LAYERS:
            for obj in vars(getattr(self, name)).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Pass:
    """One pass over the op list: latencies, outcomes and summed exact counts.

    ``latencies`` are wall seconds; ``scaled`` are the same latencies at
    reference speed (see reference.py), which the timed metrics use.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.statuses: list[str] = []
        self.counts: Counter[str] = Counter()
        self.details: list[str] = []

    def add(self, outcome, latency: float | None = None, speed: float = 1.0) -> None:
        if latency is not None:
            self.latencies.append(latency)
            self.scaled.append(latency * speed)
        self.statuses.append(outcome.status)
        self.counts.update(outcome.counts)
        if outcome.detail:
            self.details.append(f"{outcome.status}: {outcome.detail}")

    def exact(self) -> dict:
        return {"counts": self.counts, "statuses": self.statuses}


def run_op(wl, op, L, lib, tracer: Tracer | None):
    lib.clear_caches()
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            result = wl.run(op, L, None)
        else:
            with tracer.span("op"):
                result = wl.run(op, L, tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        latency = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return latency, Outcome("fail", {}, f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    try:
        return latency, wl.check(op, result)
    except Exception as exc:  # a result the checks cannot read is a wrong result
        traceback.print_exc(file=sys.stderr)
        return latency, Outcome("wrong", {}, f"unreadable result: {type(exc).__name__}: {exc}")


def hd_median(values: list[float], steps: int = 4000) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    With a few dozen ops whose latencies form clusters, the plain median
    jumps between the two values either side of a gap; this estimate
    weighs every value near the middle and moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(t: float) -> float:
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_norm) if 0 < t < 1 else 0.0

    # Regularized incomplete Beta(a, a) at i/n, by Simpson's rule on a
    # grid that holds every i/n.
    per = max(2, steps // n // 2 * 2)
    h = 1 / (n * per)
    cdf = [0.0]
    for i in range(n):
        lo = i * per
        area = density(lo * h) + density((lo + per) * h)
        area += sum((4 if k % 2 else 2) * density((lo + k) * h) for k in range(1, per))
        cdf.append(cdf[-1] + area * h / 3)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / cdf[-1]


def speed(before: float, after: float) -> float:
    """Factor from wall seconds to reference-speed seconds, from the kernel times around a span."""
    return 2 * REF_SECONDS / (before + after)


def measure(wl, lib, tracer: Tracer | None, budget: float) -> list[Pass]:
    """Whole passes: as many as fit in `budget`, judged by the first pass, at least one.

    The reference kernel runs between ops; each op is rescaled by the mean
    of the kernel times just before and just after it.
    """
    L = lib.layers(tracer)
    passes: list[Pass] = []
    target = None
    start = perf_counter()
    before = reference_seconds()
    while target is None or len(passes) < target:
        ps = Pass()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = len(passes) * len(wl.ops) + i
            latency, outcome = run_op(wl, op, L, lib, tracer)
            after = reference_seconds()
            ps.add(outcome, latency, speed(before, after))
            before = after
        passes.append(ps)
        if target is None:
            target = max(1, round(budget / (perf_counter() - start)))
    return passes


def run_known_defects(wl, lib) -> Pass:
    """Once-per-run ops outside the timed passes that a known defect makes fail.

    They are reported in the run record and in the exact counts, not in
    ``attempted`` or ``failed``: those cover only ops that must pass.  A
    wrong result from one of them still makes the run incorrect.
    """
    ps = Pass()
    for op in wl.known_defect_ops:
        ps.add(run_op(wl, op, lib, lib, None)[1])
    return ps


def code_hash() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeatable(record: dict, workload: str, seed: int) -> list[str]:
    """Compare this run's exact counts with an earlier run of the same code and seed."""
    path = OUT / "counts" / f"{code_hash()}-{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            return [f"exact counts differ from an earlier run recorded in {path.name}"]
        return []
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return []


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def layer_metrics(names: list[str], tracer: Tracer, passes: int, counts: dict, overhead: float) -> dict:
    """Per-layer values by name: busy seconds and calls per pass, exact counts of one pass.

    ``<x>.busy_s`` sums the self time of span ``x`` and of spans below it
    in the name hierarchy (``enumerative`` covers every ``enumerative.*``).
    """
    self_times = tracer.self_times()
    out = {}
    for name in names:
        if name == "trace.overhead_pct":
            out[name] = overhead
        elif name.endswith(".busy_s"):
            key = name[: -len(".busy_s")]
            busy = sum(t for n, (t, _) in self_times.items() if n == key or n.startswith(key + "."))
            out[name] = busy / passes
        elif name.endswith(".calls"):
            out[name] = self_times.get(name[: -len(".calls")], (0.0, 0))[1] // passes
        else:
            out[name] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    cls = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups, setups_scaled = [], []
        for _ in range(SETUP_REPEATS):
            before = reference_seconds()
            start = perf_counter()
            lib = Library()
            wl = cls(lib, args.seed, workdir)
            setups.append(perf_counter() - start)
            setups_scaled.append(setups[-1] * speed(before, reference_seconds()))

        problems: list[str] = []
        if args.trace:
            plain = measure(wl, lib, None, args.seconds / 2)
            tracer = Tracer()
            passes = measure(wl, lib, tracer, args.seconds / 2)
            untraced_s = sum(sum(p.scaled) for p in plain) / len(plain)
            traced_s = sum(sum(p.scaled) for p in passes) / len(passes)
            every = plain + passes
        else:
            passes = measure(wl, lib, None, args.seconds)
            every = passes
        known = run_known_defects(wl, lib)

    # In a traced run `every` starts with the untraced passes, so this
    # also compares traced counts with untraced ones.
    for i, ps in enumerate(every[1:], start=2):
        if ps.exact() != every[0].exact():
            problems.append(f"pass {i} counts differ from pass 1")
    distinct = {
        "counts": dict(passes[0].counts + known.counts),
        "statuses": passes[0].statuses,
        "known_defect_statuses": known.statuses,
    }
    problems += check_repeatable(distinct, args.workload, args.seed)

    statuses = [s for ps in every for s in ps.statuses]
    failed = sum(s in ("fail", "wrong") for s in statuses)
    wrong = sum(s == "wrong" for s in statuses + known.statuses)
    for line in passes[0].details + problems:
        print(line, file=sys.stderr)
    for line in known.details:
        print(f"known defect, not counted in attempted or failed: {line}", file=sys.stderr)

    wall_clock = None
    if args.trace:
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        values = layer_metrics(list(units), tracer, len(passes), distinct["counts"], overhead)
        tracer.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        done = sum(s not in ("fail", "wrong") for ps in passes for s in ps.statuses)

        def timed(setup: list[float], per_pass: list[list[float]]) -> dict:
            # Passes repeat the same ops, so pooled latencies cluster by op
            # and a pooled median would sit in the gap between two clusters.
            # Each op's median over the passes comes first.
            per_op = [statistics.median(column) for column in zip(*per_pass)]
            return {
                "setup_s": statistics.median(setup),
                "ops_per_s": done / sum(map(sum, per_pass)),
                "op_p50_s": hd_median(per_op),
            }

        values = {
            **timed(setups_scaled, [ps.scaled for ps in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_ratio": distinct["statuses"].count("pass") / len(distinct["statuses"]),
        }
        wall_clock = timed(setups, [ps.latencies for ps in passes])

    result = {
        "correct": wrong == 0 and not problems,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": cls.why,
        "predictions": {f"item {k} ({ITEMS[k]})": v for k, v in cls.predictions.items()},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "ops_per_pass": len(wl.ops),
        "passes": len(passes),
        "op_latencies_s": [ps.latencies for ps in every],
        "op_latencies_scaled_s": [ps.scaled for ps in every],
        "op_samples": sum(len(ps.latencies) for ps in passes),
        "setup_runs_s": setups,
        "wall_clock": wall_clock,
        "exact_counts": distinct,
        "known_defects": known.details,
        "problems": problems,
        **result,
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
