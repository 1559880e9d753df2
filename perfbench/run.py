"""Closed-loop benchmark of the divgraph command line.

    python3 perfbench/run.py --workload search-deep --seed 7 --seconds 20 --trace 0

One client sends each ``divgraph`` command after the previous one returns:
every operation calls ``divgraph.cli.main`` in-process with its standard
output captured.  Set-up imports divgraph from ``src/`` of this checkout
and writes the workload's seeded input files (``workloads.py``); it is
repeated ``SETUPS`` times and its median reported.  The loop then runs
whole passes over the ops for about ``--seconds``.

Between ops the loop runs the fixed kernel of ``calibrate.py``; every op
time (and every set-up time) is scaled by the kernel's reference time over
its time around the op, so that the end-to-end times read as on the
reference machine at its usual speed.  The unscaled times are in the
report file.

Every op is checked: exit code 0, standard output (for ``batch``, also the
records without ``elapsed_ms``) byte-identical to ``expected.json`` at the
default seed or to the first pass at other seeds, and the independent
checks of ``checks.py``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then installs the spans of ``tracer.py``, sets up once more
and runs the other half traced; it reports per-layer metrics for one
set-up plus one pass, and fails when a boundary that ``design.json``
expects for the workload records no calls.

The last line of standard output is the JSON result; the run also writes
``out/results/BENCH_<workload>_seed<seed>_trace<t>.json``.  ``--record``
stores the first pass of the default seed as the new ``expected.json``
entry of the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
SETUPS = 9

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "units_per_s": "units/s",
    "peak_rss_mb": "MiB",
}
# (per-layer metric, unit, span name, span statistic)
SPAN_METRICS = (
    ("divisors.enumerate_classes.busy_s", "s", "divisors.enumerate_classes", "busy_s"),
    ("divisors.enumerate_classes.yielded", "count", "divisors.enumerate_classes", "value"),
    ("divisors.rank_at_least.calls", "count", "divisors.rank_at_least", "calls"),
    ("divisors.rank_at_least.busy_s", "s", "divisors.rank_at_least", "busy_s"),
    ("divisors.rank.calls", "count", "divisors.rank", "calls"),
    ("divisors.rank.busy_s", "s", "divisors.rank", "busy_s"),
    ("divisors.reduce.calls", "count", "divisors.reduce", "calls"),
    ("divisors.reduce.busy_s", "s", "divisors.reduce", "busy_s"),
    ("brill_noether.find_gdr.busy_s", "s", "brill_noether.find_gdr", "busy_s"),
    ("brill_noether.find_gdr.self_s", "s", "brill_noether.find_gdr", "self_s"),
    ("graphs.refine.calls", "count", "graphs.refine", "calls"),
    ("graphs.refine.busy_s", "s", "graphs.refine", "busy_s"),
    ("graphs.spanning_tree_count.busy_s", "s", "graphs.spanning_tree_count", "busy_s"),
    ("harmonic.build_morphism.busy_s", "s", "harmonic.build_morphism", "busy_s"),
    ("harmonic.check_harmonic.busy_s", "s", "harmonic.check_harmonic", "busy_s"),
    ("harmonic.riemann_hurwitz_check.busy_s", "s", "harmonic.riemann_hurwitz_check", "busy_s"),
    ("harmonic.pullback.busy_s", "s", "harmonic.pullback", "busy_s"),
    ("io.resolve_graph.busy_s", "s", "io.resolve_graph", "busy_s"),
    ("io.load_morphism.busy_s", "s", "io.load_morphism", "busy_s"),
    ("io.load_divisor.busy_s", "s", "io.load_divisor", "busy_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.busy_s", "s", "cli.main", "busy_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("batch.expand_units.busy_s", "s", "batch.expand_units", "busy_s"),
    ("batch.load_recorded_keys.busy_s", "s", "batch.load_recorded_keys", "busy_s"),
)
OTHER_LAYER_METRICS = {
    "divisors.rank_at_least.hit_ratio": "fraction",
    "brill_noether.classes_examined": "count",
    "batch.resume_s": "s",
    "batch.worker_busy_frac": "fraction",
    "batch.unit_ms_max": "ms",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Outcome:
    """One executed op.  ``units``: searches (1 per search op), search units
    (batch) or input edges (calculus)."""

    latency_s: float
    code: Optional[int]
    stdout: str
    error: str = ""
    units: int = 0
    classes: int = 0
    records: str = ""  # batch: the records file, each record without elapsed_ms
    unit_ms: list = field(default_factory=list)
    resume_s: float = 0.0
    resume_new_units: Optional[int] = None
    scale: float = 1.0  # calibrate.scale of the kernel runs around the op

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


def call_cli(argv: list[str]) -> tuple[float, Optional[int], str, str]:
    cli = sys.modules["divgraph.cli"]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(captured), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        error = ""
    except Exception as exc:  # a raising op is a failed op; the loop goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, captured.getvalue(), error


def run_op(op: workloads.Op) -> Outcome:
    if op.kind == "batch":
        return run_batch_op(op)
    return Outcome(*call_cli(op.argv), units=op.units)


def run_batch_op(op: workloads.Op) -> Outcome:
    """A fresh ``batch`` into a new output file, then the resume pass on
    the same file (untimed as an op, reported as ``batch.resume_s``)."""
    out_path = Path(op.check["out"])
    out_path.unlink(missing_ok=True)
    outcome = Outcome(*call_cli(op.argv))
    if outcome.error or outcome.code != 0:
        return outcome
    outcome.units = json.loads(outcome.stdout)["total_units"]
    outcome.resume_s, code, stdout, error = call_cli(op.argv)
    if code == 0 and not error:
        outcome.resume_new_units = json.loads(stdout)["new_units"]
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    outcome.unit_ms = [record.pop("elapsed_ms") for record in records]
    outcome.classes = sum(record.get("classes_examined", 0) for record in records)
    outcome.records = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    return outcome


def run_passes(ops, seconds: float, tracer=None) -> list[list[Outcome]]:
    """Whole passes over ``ops`` for about ``seconds`` (at least one): a
    further pass starts while it would end nearer to ``seconds`` than the
    passes so far.  The calibration kernel runs before each op and after
    the last."""
    every_core = any(op.kind == "batch" for op in ops)  # batch keeps BATCH_JOBS cores busy
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    kernel_s = calibrate.measure(every_core)
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        outcomes = []
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            outcome = run_op(op)
            before, kernel_s = kernel_s, calibrate.measure(every_core)
            outcome.scale = calibrate.scale(before, kernel_s)
            outcomes.append(outcome)
        passes.append(outcomes)
    return passes


def set_up(workload: str, seed: int, tiny: bool, workdir: Path, reimport: bool):
    """Import divgraph (fresh, unless ``reimport`` is false) and write the
    inputs.  Returns (seconds scaled like op times, ops); the removal of old
    inputs is untimed."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    before = calibrate.measure()
    start = time.perf_counter()
    if reimport:
        for name in [m for m in sys.modules if m == "divgraph" or m.startswith("divgraph.")]:
            del sys.modules[name]
        importlib.import_module("divgraph.cli")
    ops = workloads.build(workload, seed, tiny, workdir)
    seconds = time.perf_counter() - start
    return seconds * calibrate.scale(before, calibrate.measure()), ops


def digests(outcome: Outcome) -> dict:
    entry = {"sha256": hashlib.sha256(outcome.stdout.encode()).hexdigest()}
    if outcome.records:
        entry["records_sha256"] = hashlib.sha256(outcome.records.encode()).hexdigest()
    return entry


def failure(op: workloads.Op, o: Outcome, reference: dict) -> str:
    if o.error:
        return o.error
    if o.code != 0:
        return f"exit code {o.code}"
    if digests(o) != reference:
        return "output differs from the reference"
    if op.kind == "batch" and o.resume_new_units != 0:
        return f"resume pass ran {o.resume_new_units} new units"
    if op.kind == "batch" and len(o.unit_ms) != o.units:
        return f"{len(o.unit_ms)} records for {o.units} units"
    return ""


def verify(ops, passes, reference, workdir: Path) -> tuple[int, int, list[str]]:
    """Check every executed op.  Returns (attempted, failed, problems),
    counted in search units for batch and in ops otherwise."""
    problems: list[str] = []
    attempted = failed = 0
    for i, op in enumerate(ops):
        first = passes[0][i]
        # The checks run once per op: every pass is byte-compared with the
        # reference.  For batch they return one problem per wrong record.
        wrong: list[str] = []
        if not first.error and first.code == 0:
            if op.kind == "batch":
                wrong = checks.batch(first.records, workdir)
            elif checks.BY_KIND[op.kind] is not None:
                wrong = checks.BY_KIND[op.kind](json.loads(first.stdout), op.check, workdir)
        problems += [f"{' '.join(op.argv)}: {text}" for text in wrong[:5]]
        size = max(1, max(o[i].units for o in passes)) if op.kind == "batch" else 1
        for p, outcomes in enumerate(passes):
            attempted += size
            why = failure(op, outcomes[i], reference[i])
            if why:
                failed += size
                problems.append(f"pass {p} {' '.join(op.argv)}: {why}")
            elif wrong:
                failed += min(size, len(wrong))
    return attempted, failed, problems


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  Unlike
    a single order statistic it does not jump when two ops of different
    cost trade places, which keeps it steady across seeds."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * value for lo, hi, value in zip(cdf, cdf[1:], ordered))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus ``BATCH_JOBS`` times the
    largest finished child (batch workers; 0 for the other workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workloads.BATCH_JOBS * children) / 1024


def end_to_end(passes, setup_times) -> dict[str, float]:
    outcomes = [o for outcomes in passes for o in outcomes]
    latencies = [o.scaled_s for o in outcomes]
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / busy,
        "latency_ms_p50": 1000 * quantile(latencies, 0.5),
        "latency_ms_p90": 1000 * quantile(latencies, 0.9),
        "units_per_s": sum(o.units for o in outcomes) / busy,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer: Tracer, plain, traced) -> dict[str, float]:
    passes = len(traced)
    setup = tracer.summarize(lambda op: op == 0)
    loop = tracer.summarize(lambda op: op != 0)

    def stat(name: str, key: str) -> float:
        once = setup[name][key] if name in setup else 0.0
        return once + (loop[name][key] / passes if name in loop else 0.0)

    metrics = {metric: stat(name, key) for metric, _, name, key in SPAN_METRICS}
    calls = stat("divisors.rank_at_least", "calls")
    metrics["divisors.rank_at_least.hit_ratio"] = (
        stat("divisors.rank_at_least", "value") / calls if calls else 0.0
    )
    outcomes = [o for outcomes in traced for o in outcomes]
    batch_outcomes = [o for o in outcomes if o.records]
    metrics["brill_noether.classes_examined"] = (
        stat("brill_noether.find_gdr", "value")
        + sum(o.classes for o in batch_outcomes) / passes
    )
    if batch_outcomes:
        wall = sum(o.latency_s for o in batch_outcomes)
        metrics["batch.resume_s"] = statistics.mean(o.resume_s for o in batch_outcomes)
        metrics["batch.worker_busy_frac"] = (
            sum(sum(o.unit_ms) for o in batch_outcomes) / 1000 / (workloads.BATCH_JOBS * wall)
        )
        metrics["batch.unit_ms_max"] = max(max(o.unit_ms) for o in batch_outcomes)
    else:
        metrics.update({"batch.resume_s": 0.0, "batch.worker_busy_frac": 0.0, "batch.unit_ms_max": 0.0})

    def pass_s(group):
        return statistics.mean(sum(o.scaled_s for o in outcomes) for outcomes in group)

    metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(plain) - 1
    return metrics


def layer_units() -> dict[str, str]:
    units = {metric: unit for metric, unit, _, _ in SPAN_METRICS}
    units.update(OTHER_LAYER_METRICS)
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one op per group (smoke test)")
    parser.add_argument("--record", action="store_true",
                        help="store the first pass as the expected outputs (default seed only)")
    args = parser.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.tiny or args.trace):
        parser.error("--record needs the default seed, no --tiny and --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divgraph" / "__init__.py").is_file():
        print(f"divgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    workdir = OUT / f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"

    if args.workload != "batch":
        # One core for ops and kernel alike: the kernel then measures the
        # core the ops ran on (see calibrate.py).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_times = []
    for _ in range(SETUPS):
        seconds, ops = set_up(args.workload, args.seed, args.tiny, workdir, reimport=True)
        setup_times.append(seconds)
    tracer = None
    os.chdir(workdir)
    try:
        if args.trace:
            plain = run_passes(ops, args.seconds / 2)
            tracer = Tracer()
            try:
                tracer.install()
                os.chdir(ROOT)
                _, ops = set_up(args.workload, args.seed, args.tiny, workdir, reimport=False)
                os.chdir(workdir)
                traced = run_passes(ops, args.seconds / 2, tracer)
            except LookupError as exc:
                print(f"trace guard: {exc}; update perfbench/tracer.py", file=sys.stderr)
                return 1
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes = run_passes(ops, args.seconds)

        if args.seed == DEFAULT_SEED and not args.tiny and not args.record:
            expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(args.workload)
            if expected is None or [e["argv"] for e in expected["ops"]] != [op.argv for op in ops]:
                print("expected.json does not match this workload's ops; run --record", file=sys.stderr)
                return 1
            reference = [{k: v for k, v in e.items() if k != "argv"} for e in expected["ops"]]
        else:
            reference = [digests(o) for o in passes[0]]
        attempted, failed, problems = verify(ops, passes, reference, workdir)
    finally:
        os.chdir(ROOT)

    for text in problems[:20]:
        print(f"FAILED {text}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(tracer, plain, traced)
        units = layer_units()
        called = {span[0] for span in tracer.spans}
        silent = [name for name in design["workloads"][args.workload]["boundaries"]
                  if name not in called]
        if silent:
            print(f"trace guard: no calls recorded at {silent}; a wrapped name was "
                  "renamed or bypassed, update perfbench/tracer.py", file=sys.stderr)
            return 1
    else:
        metrics = end_to_end(passes, setup_times)
        units = END_TO_END

    if args.record:
        if problems:
            print("not recording: the first pass failed its checks", file=sys.stderr)
            return 1
        doc = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        doc[args.workload] = {
            "seed": args.seed,
            "ops": [{"argv": op.argv, **digests(o)} for op, o in zip(ops, passes[0])],
        }
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{'_tiny' if args.tiny else ''}"
    report = {
        **context,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "samples": {"setup": len(setup_times), "op": sum(len(outcomes) for outcomes in passes)},
        "error_rate": failed / attempted,
        "problems": problems,
        "reference_kernel_s": calibrate.REFERENCE_S,
        "ops": [
            {
                "argv": op.argv,
                "latency_ms": [1000 * outcomes[i].latency_s for outcomes in passes],
                "scale": [outcomes[i].scale for outcomes in passes],
            }
            for i, op in enumerate(ops)
        ],
        "design": design["workloads"][args.workload],
        **result,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results_dir / f"{stem}_spans.json.gz")
    if result["correct"]:
        shutil.rmtree(workdir)  # failing inputs stay for inspection
    print(json.dumps({**context, "passes": len(passes), "report": str(results_dir.relative_to(ROOT) / stem)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
