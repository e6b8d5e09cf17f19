"""The benchmark: one workload, timed passes, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Passes repeat while the next one is expected to end within ``--seconds`` (at
least one is made), so every run attempts whole passes.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics, including the tracing overhead.  Each
result is also saved under ``perfbench/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("zoo-wide", "long-lineage", "cli", "algebra")
DEFAULT_SEED = 1
MIN_PROBES = 5  # rounds of fresh-interpreter samples, at least: setup_s, cold_start_ms, cli.* floors


def setup_probe(name: str) -> float:
    """Import the program and set one workload up, in this (fresh) interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name]().setup()
    return time.perf_counter() - t0


def child_seconds(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stdout


def run_pass(workload, tracer=None):
    import workloads

    p = workloads.Pass(tracer=tracer)
    raw = None
    if tracer is not None:
        first, counts_before = len(tracer.names), tracer.counts.copy()
        tracer.install()
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
    try:
        for op in workload.ops():
            gc.collect()  # no operation pays for collecting the garbage of the one before
            with span(f"bench.{op.name}"):
                t0 = time.perf_counter()
                out = op.run(p)
                elapsed = time.perf_counter() - t0
            p.op_seconds[op.name] = elapsed
            p.outputs[op.name] = op.digest(p, out, elapsed)
            del out
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        raw = tracer.raw_totals(first, counts=tracer.counts - counts_before)
        for child in p.child_raw:
            for key, value in child.items():
                raw[key] += value
    failed, problems = workload.check(p.outputs)
    p.outputs = None
    gc.collect()
    return p, raw, failed, problems


def pass_seconds(passes) -> float:
    """One pass's time: each operation's median over the passes, summed."""
    return sum(op_medians(passes))


def cmd_seconds(name: str, passes) -> float:
    """One operation's time.  On ``cli``, where an operation is one invocation,
    the median over the commands; elsewhere the mean over a pass's operations,
    which are library calls of widely different sizes, so that no short one
    with a few noisy samples stands for the workload."""
    if name == "cli":
        return median(op_medians(passes))
    return pass_seconds(passes) / len(passes[0].op_seconds)


def op_medians(passes) -> list[float]:
    return [median(p.op_seconds[name] for p in passes) for name in passes[0].op_seconds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload)}))
        return 0

    import workloads

    if Path(workloads.mw.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"multiway imported from {workloads.mw.__file__}, not from {SRC}")
    workloads.RESULTS.mkdir(exist_ok=True)
    env = workloads.program_env()
    py = sys.executable

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    workload.prepare(Random(args.seed))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    # fresh-interpreter samples between passes, so that they spread over the
    # run like the passes do; start-up is short and noisy, so it gets two
    probes = {
        "setup": lambda: json.loads(
            child_seconds([py, str(HERE / "run.py"), "--workload", args.workload, "--setup-probe"], env)[1]
        )["setup_s"],
        "start": lambda: child_seconds([py, "-m", "multiway", "--version"], env)[0],
    }
    if tracer is not None:
        probes["interpreter"] = lambda: child_seconds([py, "-c", "pass"], env)[0]
        probes["import"] = lambda: float(child_seconds([py, str(HERE / "cli_child.py"), "--import-only"], env)[1])
    samples: dict[str, list[float]] = {k: [] for k in probes}

    def probe_round() -> None:
        for kind, probe in probes.items():
            for _ in range(1 if kind == "setup" else 2):
                samples[kind].append(probe())

    passes, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    began = time.perf_counter()
    while True:
        for t in (None, tracer) if tracer is not None else (None,):
            p, raw, pass_failed, pass_problems = run_pass(workload, t)
            if not passes:
                # later passes inherit the heap the first one left, so the
                # high-water mark is read once, after the first pass
                who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
            (passes if t is None else traced).append((p, raw))
            attempted += len(p.op_seconds)
            failed += pass_failed
            problems += pass_problems
            print(
                f"# pass {len(passes) + len(traced)} ({'traced' if t else 'untraced'}): "
                f"{p.seconds:.3f} s, {len(p.op_seconds)} operations, {pass_failed} failed",
                flush=True,
            )
        probe_round()
        # stop before a pass that would end past --seconds, judged by the
        # passes so far, so that a run ends near --seconds, not a pass later
        elapsed = time.perf_counter() - began
        rounds = len(passes) if tracer is None else len(traced)
        if elapsed + elapsed / rounds > args.seconds:
            break
    while len(samples["setup"]) < MIN_PROBES:
        probe_round()

    for line in dict.fromkeys(problems):
        print(f"# check failed: {line}", flush=True)
    print(f"# {args.workload}: {attempted} operations attempted, {failed} failed", flush=True)

    untraced = [p for p, _ in passes]
    if tracer is None:
        metrics = {
            "setup_s": (median(samples["setup"]), "s"),
            "run_s": (pass_seconds(untraced), "s"),
            "states_per_s": (median(p.evolve_states / p.evolve_seconds for p in untraced), "states/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_start_ms": (median(samples["start"]) * 1000, "ms"),
            "cmd_ms": (cmd_seconds(args.workload, untraced) * 1000, "ms"),
        }
    else:
        layer = {
            key: median(tracing.finish(raw)[key] for _, raw in traced)
            for key in tracing.finish(traced[0][1])
        }
        metrics = {key: (value, tracing.unit(key)) for key, value in layer.items()}
        metrics["cli.interpreter_ms"] = (median(samples["interpreter"]) * 1000, "ms")
        metrics["cli.import_ms"] = (median(samples["import"]), "ms")
        metrics["trace.overhead_s"] = (pass_seconds([p for p, _ in traced]) - pass_seconds(untraced), "s")
        spans = [tracer.dump_spans()] + [c for p, _ in traced for c in p.child_spans]
        with open(workloads.RESULTS / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(spans, fh)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds, "result": result}
    path = workloads.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
