"""Raw per-run JSON -> one CSV -> one table.

    python3 perfbench/trajectory.py run --seeds 1 2 3
    python3 perfbench/trajectory.py report [RUNS_DIR]

``run`` runs every workload of ``BENCHMARK.json`` once per seed, untraced
and then traced, through ``perfbench/run.py``; each run leaves its record
in ``perfbench/runs/``.  It then reports.

``report`` gathers the records of a directory (``perfbench/runs/`` by
default) into ``runs.csv`` there, one row per run and metric, and prints
per workload and metric the median over runs with its unit, the spread
(distance between the quartiles over the median) and the run count.

Both exit with status 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "runs"
FIELDS = ("workload", "seed", "trace", "correct", "digest", "metric",
          "value", "unit", "record")


def to_csv(runs_dir: Path) -> tuple[Path, bool]:
    """Write ``runs.csv`` from every record; also whether all were correct."""
    rows = []
    all_correct = True
    for path in sorted(runs_dir.glob("*.json")):
        record = json.loads(path.read_text())
        all_correct &= record["correct"]
        for name, metric in record["metrics"].items():
            rows.append({"workload": record["workload"],
                         "seed": record["seed"], "trace": record["trace"],
                         "correct": record["correct"],
                         "digest": record["digest"], "metric": name,
                         "value": metric["value"], "unit": metric["unit"],
                         "record": path.name})
    out = runs_dir / "runs.csv"
    with out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return out, all_correct


def table(csv_path: Path) -> str:
    """Median, spread and run count per workload, traced flag and metric."""
    groups: defaultdict[tuple, list[float]] = defaultdict(list)
    units = {}
    with csv_path.open() as handle:
        for row in csv.DictReader(handle):
            key = (row["workload"], row["trace"], row["metric"])
            groups[key].append(float(row["value"]))
            units[key] = row["unit"]
    lines = [f"{'workload':<18} {'metric':<34} {'median':>12} "
             f"{'unit':<8} {'spread':>7} {'runs':>4}"]
    for key in sorted(groups):
        values = groups[key]
        median = statistics.median(values)
        spread = "-"
        if len(values) >= 2 and median:
            spread = f"{quartile_spread(values):.3f}"
        lines.append(f"{key[0]:<18} {key[2]:<34} {median:>12.6g} "
                     f"{units[key]:<8} {spread:>7} {len(values):>4}")
    return "\n".join(lines)


def report(runs_dir: Path) -> int:
    csv_path, all_correct = to_csv(runs_dir)
    print(table(csv_path))
    print(f"\n{csv_path}")
    return 0 if all_correct else 1


def run(seeds: list[int]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for seed in seeds:
        for workload in declared["workloads"]:
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", workload["name"], "--seed", str(seed),
                     "--seconds", str(declared["run_seconds"]),
                     "--trace", str(trace)], cwd=ROOT)
                status = status or done.returncode
    return report(RUNS_DIR) or status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run")
    run_parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    report_parser = commands.add_parser("report")
    report_parser.add_argument("runs_dir", nargs="?", type=Path,
                               default=RUNS_DIR)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.seeds)
    return report(args.runs_dir)


if __name__ == "__main__":
    sys.exit(main())
