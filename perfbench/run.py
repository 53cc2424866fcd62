"""Benchmark of `cyclemeet verify`: three pinned corpora, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload all-default --seed 1 --seconds 20 --trace 0

One run imports cyclemeet from ./src and, in this single process with no
worker threads, drives the public API the way `cyclemeet verify` does:
`CorpusSpec.parse` -> `corpus_instances` -> `analyze_instance` per instance ->
`reports_to_json`. It repeats that pass until --seconds have gone by (at least
once) and reports medians over passes.

--trace 0 first runs `cyclemeet verify` in a fresh child process for peak
memory, then times only those outermost calls and gives the end-to-end
metrics. It also times extra set-ups, and checks that the child's report is
byte-identical to the one assembled here. Times are scaled to a reference
machine speed (see `Gauge`); the raw values are printed as unscaled_<metric>.

--trace 1 alternates untraced passes with passes traced by perfbench/tracing.py
and gives the per-layer metrics. Spans of the first traced pass go to
perfbench/out/<workload>.spans.jsonl.

Every run checks each instance's c(G), kappa(G), m_min and status against
perfbench/reference/<workload>.json, made by perfbench/make_reference.py.
The timed corpus is the same for every --seed. After the timed passes, a
seeded workload also analyses a held-out corpus picked by --seed, untimed.
The reference does not hold it, so each of its instances must instead raise
nothing, report no failure, and agree with networkx on kappa(G).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracing import Tracer, metric_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

CHILD_TIMEOUT_S = 80  # under half of the 180 s a run may take; the passes need as long
MIN_SETUP_SAMPLES = 5
MIN_SETUP_TOTAL_S = 2.0  # a short set-up is sampled over this long, so one slow moment weighs little
MAX_SETUP_SAMPLES = 1000
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
GAUGE_GAP_S = 0.1  # period of the speed samples
GAUGE_WINDOW_S = 0.3  # samples this close to an interval also estimate its speed
GAUGE_REF_S = 0.002  # speed-sample loop time at the reference speed

FACTS = {"c": "cycle_length", "kappa": "connectivity", "m_min": "m_min"}  # reference key -> report attribute
UNITS = {"verify_s": "s", "setup_s": "s", "instances_per_s": "1/s",
         "instance_ms_p50": "ms", "instance_ms_tail": "ms"}

# Runs `python -m cyclemeet.cli <args>` and writes its own peak resident size
# (VmHWM, per address space and fresh at exec) to the file named first.
CHILD_WRAPPER = """
import runpy, sys
hwm_path = sys.argv.pop(1)
try:
    runpy.run_module("cyclemeet.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(hwm_path, "w", encoding="ascii") as out:
        out.write(hwm)
"""


@dataclass(frozen=True)
class Workload:
    suite: str
    corpus: str
    seed: int
    heldout: Optional[str]  # corpus analysed untimed with seed --seed; None: no seed changes it
    may_omit: tuple[str, ...] = ()  # facts the suite never reads; compared only when reported


# Frozen definitions; BENCHMARK.json says why each was chosen. The timed corpus
# seed is pinned: on these specs the cost of a pass moves up to 3x from one
# corpus seed to the next, far beyond the bounds. The held-out corpora are
# small enough that any seed costs a few seconds.
WORKLOADS = {
    # the babai suite reads neither the cycle set nor m_min, and ROADMAP item 2
    # stops enumerating there, so a null m_min is allowed on this workload only
    "babai-circulants": Workload("babai", "circulants:count=50,max_n=24", 5,
                                 "circulants:count=20,max_n=16", ("m_min",)),
    "all-default": Workload("all", "default", 42, "default"),
    "all-exhaustive7": Workload("all", "exhaustive7", 0, None),
}


@dataclass
class Pass:
    """One in-process `cyclemeet verify`: its outputs and raw perf_counter intervals."""

    setup: tuple[float, float]
    spans: dict[str, tuple[float, float]]  # instance id -> analyze_instance interval
    serialize: tuple[float, float]
    text: str
    reports: list
    raised: dict[str, str]


@dataclass
class Times:
    """Times of one pass, each interval converted by a scale (start, end) -> seconds."""

    setup_s: float
    analysis_s: float
    verify_s: float
    instance_s: dict[str, float]

    @classmethod
    def of(cls, p: Pass, scale) -> "Times":
        instance_s = {i: scale(*span) for i, span in p.spans.items()}
        setup_s, analysis_s = scale(*p.setup), sum(instance_s.values())
        return cls(setup_s, analysis_s, setup_s + analysis_s + scale(*p.serialize), instance_s)


def unscaled(start: float, end: float) -> float:
    return end - start


@dataclass
class Checks:
    """Output-check state of one run."""

    may_omit: tuple[str, ...]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    networkx_kappa: dict = field(default_factory=dict)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def require_checkout() -> None:
    if not (SRC / "cyclemeet" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'cyclemeet'} not found; run from a cyclemeet checkout")


def import_cyclemeet():
    require_checkout()
    sys.path.insert(0, str(SRC))
    import cyclemeet.cli  # noqa: F401  loads every module the tracer patches
    from cyclemeet import harness

    return harness


def clear_caches() -> None:
    """Empty module-level memo caches so each pass starts as a fresh process does."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cyclemeet" or name.startswith("cyclemeet.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _speed_loop() -> int:
    """Fixed pure-Python work like the library's: bitmask rows, bit loops, a dict."""
    rows = [((i * 40503) ^ (i << 3)) & 0xFFFFFF for i in range(24)]
    total = 0
    seen = {}
    for step in range(3000):
        mask = rows[step % 24] & ~rows[(step * 7) % 24]
        while mask:
            low = mask & -mask
            total += low.bit_length()
            mask ^= low
        seen[step & 63] = total
    return total + len(seen)


class Gauge:
    """Scales measured intervals to a reference machine speed.

    Other tenants share this machine's cores, so its speed drifts by 10-15%
    over tens of seconds, more than the bounds allow between runs. While
    started, a SIGALRM handler times `_speed_loop` every GAUGE_GAP_S, also in
    the middle of a long library call. An interval is scaled by GAUGE_REF_S
    times the mean speed (1 / loop time) of the samples inside it and within
    GAUGE_WINDOW_S of it, and at least the nearest one on either side; the
    time the samples inside took is left out.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loop_s: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a late signal inside the handler; samples must stay ordered
            return
        self._busy = True
        t0 = time.perf_counter()
        _speed_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.loop_s.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_GAP_S, GAUGE_GAP_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)  # samples first..last-1 lie inside
        paused = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        lo = min(first - 1, bisect.bisect_left(self.starts, start - GAUGE_WINDOW_S))
        hi = max(last + 1, bisect.bisect_right(self.ends, end + GAUGE_WINDOW_S))
        # work done at speed 1/loop_s; a sample a preemption stretched weighs little
        speed = statistics.mean(1 / x for x in self.loop_s[max(lo, 0):hi])
        return (end - start - paused) * GAUGE_REF_S * speed


def run_pass(harness, spec, suite: str) -> Pass:
    """One `cyclemeet verify` in process; only the outermost API calls are timed."""
    clear_caches()
    clock = time.perf_counter
    t0 = clock()
    instances = harness.corpus_instances(spec)
    t1 = clock()
    reports, spans, raised = [], {}, {}
    for instance_id, g in instances:
        start = clock()
        try:
            report = harness.analyze_instance(instance_id, g, spec, suite)
        except Exception:  # an instance that raises is counted failed, the pass goes on
            spans[instance_id] = (start, clock())
            raised[instance_id] = traceback.format_exc(limit=3)
            continue
        spans[instance_id] = (start, clock())
        reports.append(report)
        if report.worst_status() == "fail":
            break  # run_corpus stops here too
    t2 = clock()
    text = harness.reports_to_json(reports, spec, suite)
    t3 = clock()
    return Pass((t0, t1), spans, (t2, t3), text, reports, raised)


def load_reference(name: str) -> dict:
    """Instance id -> {"c", "kappa", "m_min", "status"} for the workload's timed corpus."""
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["instances"]


def report_problems(report, expected: dict, may_omit: tuple[str, ...]) -> list[str]:
    """Why one report fails the output check; empty if it passes.

    Only the facts and the worst status are compared: outcome names and the
    report schema are free to change.
    """
    status = report.worst_status()
    problems = []
    if status == "fail":
        problems.append("reported fail")
    if status == "inconclusive" and expected.get("status", "inconclusive") != "inconclusive":
        problems.append(f"inconclusive, reference {expected['status']}")
    for key, want in expected.items():
        if key not in FACTS or want is None:
            continue  # a fact the reference lacks cannot be checked
        got = getattr(report, FACTS[key], None)
        if got is None and key not in may_omit:
            problems.append(f"{key} missing, reference {want}")
        elif got is not None and got != want:
            problems.append(f"{key} = {got}, reference {want}")
    return problems


def check_pass(p: Pass, checks: Checks, reference: dict) -> None:
    """Count failed instances: raised, or failed `report_problems`.

    An instance the reference does not hold must agree with networkx on kappa(G).
    """
    checks.attempted += len(p.spans)
    failed = set(p.raised)
    for instance_id, err in p.raised.items():
        checks.problem(f"{instance_id} raised: {err.strip().splitlines()[-1]}")
    for report in p.reports:
        iid = report.instance_id
        expected = reference.get(iid)
        if expected is None:
            expected = {"kappa": networkx_kappa(iid, checks.networkx_kappa)}
        problems = report_problems(report, expected, checks.may_omit)
        if problems:
            failed.add(iid)
            checks.problem(f"{iid}: {'; '.join(problems)}")
    checks.failed += len(failed)


def check_heldout(harness, wl: Workload, seed: int, checks: Checks) -> Optional[str]:
    """Untimed: the suite on the workload's held-out corpus with this seed, checked without reference."""
    if wl.heldout is None:
        return None
    spec = harness.CorpusSpec.parse(wl.heldout, seed=seed)
    check_pass(run_pass(harness, spec, wl.suite), checks, {})
    return f"{wl.heldout} seed {seed}"


def networkx_kappa(instance_id: str, cache: dict) -> Optional[int]:
    if instance_id not in cache:
        import networkx as nx

        g6 = instance_id.split(":", 1)[1]
        g = nx.from_graph6_bytes(g6.encode("ascii"))
        cache[instance_id] = nx.node_connectivity(g) if g.number_of_nodes() >= 2 else None
    return cache[instance_id]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    return max(0, math.floor(100 * (count - TAIL_BEYOND) / count))


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def child_verify(wl: Workload, name: str) -> tuple[Optional[int], float, str]:
    """`cyclemeet verify` in a fresh process: exit code (None on timeout), peak RSS in MB, report."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{name}.cli.json"
    hwm_path = OUT / f"{name}.cli.vmhwm"
    out_path.unlink(missing_ok=True)
    hwm_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-c", CHILD_WRAPPER, str(hwm_path), "verify", "--suite", wl.suite,
           "--corpus", wl.corpus, "--seed", str(wl.seed), "--out", str(out_path)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as expired:  # run() has killed and reaped the child
        code, err = None, expired.stderr or b""
    sys.stderr.write(err.decode(errors="replace"))
    peak_kib = int(hwm_path.read_text(encoding="ascii")) if hwm_path.is_file() else 0
    text = out_path.read_text(encoding="utf-8") if out_path.is_file() else ""
    return code, peak_kib / 1024, text


def expected_exit(reports: list) -> int:
    statuses = {r.worst_status() for r in reports}
    return 1 if "fail" in statuses else 2 if "inconclusive" in statuses else 0


def timed_metrics(passes: list[Pass], setups: list[tuple[float, float]], scale) -> dict:
    """The timed end-to-end metrics, each interval converted by scale(start, end)."""
    times = [Times.of(p, scale) for p in passes]
    ids = list(passes[0].spans)
    per_instance = sorted(statistics.median(t.instance_s[i] for t in times) for i in ids)
    return {
        "verify_s": statistics.median(t.verify_s for t in times),
        "setup_s": statistics.median(scale(a, b) for a, b in setups),
        "instances_per_s": statistics.median(len(ids) / t.analysis_s for t in times),
        "instance_ms_p50": 1000 * statistics.median(per_instance),
        "instance_ms_tail": 1000 * nearest_rank(per_instance, tail_percentile(len(ids))),
    }


def measure(harness, spec, wl: Workload, seconds: float, checks: Checks, reference: dict,
            child: tuple[Optional[int], float, str]) -> tuple[dict, dict]:
    """End-to-end run: untraced passes and extra set-ups, checked against the child."""
    gauge = Gauge()
    passes: list[Pass] = []
    extra_setups: list[tuple[float, float]] = []
    gauge.start()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(harness, spec, wl.suite))
        setups = [p.setup for p in passes]
        while len(setups) < MIN_SETUP_SAMPLES or (
                sum(b - a for a, b in setups) < MIN_SETUP_TOTAL_S and len(setups) < MAX_SETUP_SAMPLES):
            clear_caches()
            t0 = time.perf_counter()
            harness.corpus_instances(spec)
            setups.append((t0, time.perf_counter()))
    finally:
        gauge.stop()
    for p in passes:
        check_pass(p, checks, reference)
        if p.text != passes[0].text:
            checks.problem("report differs between passes")
    first = passes[0]
    inconclusive = sum(r.worst_status() == "inconclusive" for r in first.reports)

    code, peak_mb, cli_text = child
    if cli_text != first.text:
        checks.problem("report differs from `cyclemeet verify` output")
    if code != expected_exit(first.reports):
        checks.problem(f"`cyclemeet verify` exited {code}")

    count = len(first.spans)
    metrics = {k: (v, UNITS[k]) for k, v in timed_metrics(passes, setups, gauge.scaled).items()}
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    metrics["inconclusive_ratio"] = (inconclusive / count, "ratio")
    for k, v in timed_metrics(passes, setups, unscaled).items():
        metrics[f"unscaled_{k}"] = (v, UNITS[k])
    return metrics, {
        "passes": len(passes),
        "instances": count,
        "setup_samples": len(setups),
        "tail_percentile": tail_percentile(count),
        "instance_samples": count * len(passes),
        "speed_loop_ms": 1000 * statistics.median(gauge.loop_s),
    }


def measure_traced(harness, spec, wl: Workload, name: str, seconds: float,
                   checks: Checks, reference: dict) -> tuple[dict, dict]:
    """Traced run: untraced and traced passes alternate; per-layer medians."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_runs: list[dict] = []
    tracer = Tracer()
    gauge = Gauge()
    gauge.start()
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            # which of the two runs first alternates, so a cold first pass biases neither
            for tracing in (False, True) if len(traced) % 2 == 0 else (True, False):
                if not tracing:
                    plain.append(run_pass(harness, spec, wl.suite))
                    continue
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(harness, spec, wl.suite))
                finally:
                    tracer.uninstall()
                layer_runs.append(tracer.metrics())
                if len(traced) == 1:
                    OUT.mkdir(exist_ok=True)
                    tracer.write_spans(OUT / f"{name}.spans.jsonl")
    finally:
        gauge.stop()
    for p in plain + traced:
        check_pass(p, checks, reference)
        if p.text != plain[0].text:
            checks.problem("report differs between passes")
    for key in layer_runs[0]:
        timed = key.endswith((".self_s", ".share"))
        if not timed and any(run[key] != layer_runs[0][key] for run in layer_runs):
            checks.problem(f"{key} differs between traced passes")
    overhead = (statistics.median(Times.of(p, gauge.scaled).verify_s for p in traced)
                / statistics.median(Times.of(p, gauge.scaled).verify_s for p in plain))
    out = {}
    for key, unit in metric_units().items():
        if key == "trace.overhead_ratio":
            value = overhead
        elif key.endswith((".self_s", ".share")):
            value = statistics.median(run[key] for run in layer_runs)
        else:
            value = layer_runs[0][key]  # counts and their ratios repeat exactly
        out[key] = (value, unit)
    return out, {"untraced_passes": len(plain), "traced_passes": len(traced)}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the untimed held-out corpus; the timed corpus is pinned")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    require_checkout()
    child = None if args.trace else child_verify(wl, args.workload)
    harness = import_cyclemeet()
    spec = harness.CorpusSpec.parse(wl.corpus, seed=wl.seed)
    checks = Checks(wl.may_omit)
    reference = load_reference(args.workload)
    if args.trace:
        metrics, detail = measure_traced(harness, spec, wl, args.workload, args.seconds,
                                         checks, reference)
    else:
        metrics, detail = measure(harness, spec, wl, args.seconds, checks, reference, child)
    detail["heldout"] = check_heldout(harness, wl, args.seed, checks)
    if not args.trace:
        metrics["failed_ratio"] = (checks.failed / checks.attempted, "ratio")
    correct = not checks.problems and checks.attempted > 0
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    shown = dict(detail, workload=args.workload, suite=wl.suite, corpus=wl.corpus,
                 corpus_seed=wl.seed, run_seed=args.seed, trace=args.trace)
    print(" ".join(f"{k}={v}" for k, v in shown.items()))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<56} {value:>14.6g} {unit}")
    # BENCHMARK.json lists neither the two ratios, 0 at the baseline (failures
    # still count in `failed`), nor the raw times; the record below keeps them
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k not in ("failed_ratio", "inconclusive_ratio") and not k.startswith("unscaled_")}
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": reported}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}.trace{args.trace}.result.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, detail=shown, problems=checks.problems,
                       all_metrics={k: v for k, (v, _) in metrics.items()}), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
