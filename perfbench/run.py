"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload online-queries --seed 3 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  The run sets up its inputs from
``--seed`` (``setup_s`` is the median of several fresh-interpreter
set-ups), then repeats whole passes of the workload while the next pass is
expected to end within ``--seconds`` (at least one pass).  Every pass's
outputs are checked and digested; all passes must agree.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced passes.  ``--trace 1`` runs one untraced pass, then traced
passes whose spans give the per-layer metrics; the spans are written with
the run's record under ``perfbench/runs/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed and 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "runs"
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def _timed_setup(workload: str, seed: int) -> float:
    """Wall seconds from interpreter start through the workload's set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--setup-only"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _run_pass(layers, spans, workload: str, inputs, run_id: str,
              traced: bool) -> dict:
    recorder = spans.Recorder(run_id) if traced else spans.NullRecorder()
    ops = layers.Ops(recorder)
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    if traced:
        with spans.wrapped(recorder, layers.layer_hooks()):
            layers.WORKLOADS[workload](inputs, ops)
    else:
        layers.WORKLOADS[workload](inputs, ops)
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": _cpu_seconds() - cpu0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "failures": ops.failures,
            "digest": ops.digest(),
            "traced": traced,
            "spans": recorder.spans}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import spans

    if args.setup_only:
        layers.setup(args.workload, args.seed, spans.NullRecorder())
        return 0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    setup_s = statistics.median(_timed_setup(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS))
    recorder = spans.Recorder(run_id) if args.trace else spans.NullRecorder()
    inputs = layers.setup(args.workload, args.seed, recorder)
    setup_spans = list(recorder.spans)

    start = time.perf_counter()
    passes: list[dict] = []

    def next_pass(traced: bool) -> None:
        passes.append(_run_pass(layers, spans, args.workload, inputs,
                                f"{run_id}-pass{len(passes)}", traced))

    # A traced run starts with one untraced pass, the base of
    # trace.overhead_s; then passes repeat while the next one is
    # expected to end within --seconds.
    next_pass(False)
    if args.trace:
        next_pass(True)
    while True:
        timed = [p["wall_s"] for p in passes if p["traced"] == bool(args.trace)]
        if (time.perf_counter() - start + statistics.median(timed)
                > args.seconds):
            break
        next_pass(bool(args.trace))

    failures = [f for p in passes for f in p["failures"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        failures.append(f"passes disagree on the output digest: {digests}")
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        per_pass = [layers.layer_metrics(setup_spans, p["spans"])
                    for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced))
        for layer in layers.unwrapped_layers(args.workload, values):
            failures.append(f"wrapped layer {layer} recorded no call")
        wanted = declared["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Add-one smoothed, worst pass: reads 1 / (ops per pass + 1)
            # with no failure, so it is never 0, and any failure at least
            # doubles it.
            "failed_ratio": max((p["failed"] + 1) / (p["attempted"] + 1)
                                for p in passes),
        }
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not failures
    RUNS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "digest": digests[0],
        "attempted": attempted, "failed": failed, "failures": failures,
        "passes": [{k: v for k, v in p.items()
                    if k not in ("failures", "spans")} for p in passes],
        "metrics": metrics,
        "setup_spans": [asdict(s) for s in setup_spans],
        "spans": [[asdict(s) for s in p["spans"]] for p in traced],
    }
    (RUNS_DIR / f"{run_id}-{int(time.time())}.json").write_text(
        json.dumps(record))

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} digest seed={args.seed} {digests[0]} "
          f"({len(passes)} passes)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
