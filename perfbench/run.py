"""Benchmark of ``csglab analyze``, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sym-sp --seed 1 --seconds 55 --trace 0

One process, one client, closed loop: each op is one user command, an
instance document in and the canonical report text out, done by
the same public calls the command makes after reading its files. No op
reuses an instance, path cache or classification from another op.

Set-up is importing csglab afresh, all of it, as each command does before
its first op; it is timed SETUP_REPEATS times, spread over the run, and its
median reported. (Building the workload's documents is the benchmark's own
work and is not timed.) Whole passes over the ops run for about
``--seconds``: another pass starts only if it is expected to end in time,
and at least one always runs. The outputs of the first pass are checked
against the independent checker, and every later pass must give the same
reports, the ``volatile`` block aside.

Each untraced pass gives its wall time and the median and 90th percentile of
its ops' latencies; the run reports the 90th percentile of each over its
passes (``upper_decile``). On a shared VM (measured in README.md) the
program runs at a steady contended speed with spells of faster running whose
share of a run varies from run to run: the mean and the median of a run's
passes follow that share, while its upper decile reads the contended speed
and repeats between runs. With ``--trace 1`` untraced and
traced passes alternate, and the per-layer counters of the traced passes are
reported along with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter
from types import SimpleNamespace

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 15


def import_program() -> SimpleNamespace:
    """Import csglab afresh, as every run of the command does."""
    for name in [n for n in sys.modules if n == "csglab" or n.startswith("csglab.")]:
        del sys.modules[name]
    importlib.import_module("csglab")
    return SimpleNamespace(
        io=importlib.import_module("csglab.io"),
        analysis=importlib.import_module("csglab.analysis"),
        dynamics=importlib.import_module("csglab.dynamics"),
    )


def analyze(m: SimpleNamespace, op) -> str:
    """``csglab analyze FILE`` after reading FILE."""
    started = monotonic()
    doc = m.io.load_json(io.StringIO(op.text))
    instance = m.io.instance_from_document(doc)
    report = m.analysis.compute_ratios(instance, cap=workloads.CAP)
    dynamics_block = None
    if instance.n > 0:
        trace = m.dynamics.run_dynamics(instance, report.opt_sc[0])
        dynamics_block = m.io.trace_to_document(trace, instance)
    out = m.io.report_to_document(
        report,
        criterion="both",
        recipe=doc.get("recipe"),
        dynamics=dynamics_block,
        seeds={"cli_seed": None},
        wall_time_s=round(monotonic() - started, 6),
    )
    return m.io.canonical_json(out)


def upper_decile(values: list[float]) -> float:
    """The 90th percentile of a run's per-pass values (the value of a single pass)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_pass(m, ops):
    """One pass over every op; returns (wall s, per-op s, outputs, failures)."""
    times, outputs, failures = [], [], []
    started = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = analyze(m, op)
        except Exception as exc:  # one failed op must not end the run
            out = None
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        times.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - started, times, outputs, failures


def stable_digest(text: str) -> bytes:
    """sha256 of the report without its volatile block, in canonical form."""
    doc = json.loads(text)
    doc.pop("volatile", None)
    return hashlib.sha256((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).digest()


def check_pass(ops, outputs, reference: list) -> list[str]:
    """Check each op's first output against the checker, later ones against it."""
    problems = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if out is None:
            continue
        try:
            if reference[i] is None:
                checks.check_analyze(op.game(), json.loads(out), op.family)
                reference[i] = stable_digest(out)
            else:
                checks.expect(stable_digest(out) == reference[i], "report changed between passes")
        except Exception as exc:  # a malformed report is a mismatch, not the end of the run
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "csglab" / "__init__.py").is_file():
        print(f"perfbench: csglab sources not found under {SOURCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    build = workloads.WORKLOADS[args.workload]

    setups: list[float] = []

    def set_up():
        t0 = perf_counter()
        program = import_program()
        setups.append(perf_counter() - t0)
        return program

    m = set_up()
    ops = build(args.seed)

    tracer = tracing.Tracer() if args.trace else None
    per_round = 2 if tracer else 1  # a traced run alternates untraced and traced passes
    reference: list = [None] * len(ops)
    plain_passes, traced_passes, layers = [], [], []
    attempted = 0
    failures: list[str] = []  # ops that raised
    mismatches: list[str] = []  # outputs that failed a check
    round_seconds: list[float] = []
    while True:
        spent = 0.0
        for step in range(per_round):
            traced = step == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                pass_s, times, outputs, raised = run_pass(m, ops)
            finally:
                if traced:
                    tracer.remove()
            spent += pass_s
            attempted += len(ops)
            failures += raised
            mismatches += check_pass(ops, outputs, reference)
            if traced:
                traced_passes.append(pass_s)
                layers.append(tracer.snapshot())
            else:
                plain_passes.append((pass_s, times))
        round_seconds.append(spent)
        # repeat the set-up at even shares of the run, so that its median
        # is not taken from one moment of the machine's drifting speed
        if len(setups) < SETUP_REPEATS and sum(round_seconds) >= args.seconds * len(setups) / SETUP_REPEATS:
            m = set_up()
        # start another round only if it is expected to end within --seconds
        if sum(round_seconds) + statistics.median(round_seconds) > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up()

    latencies_ms = [[t * 1e3 for t in times] for _, times in plain_passes]
    p50s = [statistics.median(t) for t in latencies_ms]
    p90s = [statistics.quantiles(t, n=10, method="inclusive")[8] for t in latencies_ms]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (upper_decile([p[0] for p in plain_passes]), "s"),
            "op_p50_ms": (upper_decile(p50s), "ms"),
            "op_p90_ms": (upper_decile(p90s), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {}
        for name, (first, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            if unit == "count" and len(set(values)) > 1:
                mismatches.append(f"{name}: call counts differ between identical passes: {values}")
            metrics[name] = (first if unit == "count" else statistics.median(values), unit)
        overhead = statistics.mean(traced_passes) - statistics.mean(p[0] for p in plain_passes)
        metrics["tracing.overhead_s"] = (overhead, "s")

    for problem in (failures + mismatches)[:5]:
        print(f"perfbench: {problem}", file=sys.stderr)
    digest = hashlib.sha256(b"".join(r or b"" for r in reference)).hexdigest()
    correct = not mismatches
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": digest,
        "setup_s": setups,
        "plain_pass_s": [p[0] for p in plain_passes],
        "traced_pass_s": traced_passes,
        "op_ms": {
            f"{i}:{op.label}": [p[1][i] * 1e3 for p in plain_passes] for i, op in enumerate(ops)
        },
        "result": result,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(
        f"workload={args.workload} seed={args.seed} ops={len(ops)} "
        f"passes={len(plain_passes)}+{len(traced_passes)} traced "
        f"latency_samples={len(ops)} per untraced pass "
        f"report_sha256={digest}"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
