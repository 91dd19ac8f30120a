"""Benchmark driver: three workloads through `vptenum run` / `vptenum spanner`.

    python3 perfbench/run.py --workload scan|enum|spanner-tree|all \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed under perfbench/.work/,
then runs a closed loop for S seconds: one caller, one fresh Python
process per run (child.py), one process at a time. Every child runs with
PYTHONHASHSEED=0 and with address-space randomization off
(`setarch <arch> -R`), which pins the iteration order of the sets and
dicts the engine walks. Every child's output is checked; a run whose
exit code or output is wrong counts as failed.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1, with the per-layer metrics. The
lines before it print the same numbers for people, and `--workload all`
prints them for every workload. See perfbench/README.md for what each
metric means and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_result_s": "s",
    "total_s": "s",
    "item_delay_p50_us": "us",
    "item_delay_p99_us": "us",
    "peak_rss_mb": "MB",
}

COUNT_METRICS = (
    "engine.visits_per_token",
    "engine.scans_per_token",
    "engine.ecs_calls_per_token",
    "ecs.nodes_per_token",
    "enumtree.steps_per_symbol.p50",
    "enumtree.steps_per_symbol.max",
    "enumtree.tree_nodes_per_symbol.p50",
)

PER_LAYER_UNITS = {
    "host.calib_ms": "ms",
    "formats.parse_vpt_ms": "ms",
    "spanner.parse_vpeg_ms": "ms",
    "spanner.compile_vpeg_ms": "ms",
    "vpt.io_determinize_ms": "ms",
    "vpt.det_states": "count",
    "nested.tokenize_us_per_token": "us/token",
    "engine.preprocess_us_per_token": "us/token",
    "engine.preprocess_us_per_token.n-1e3": "us/token",
    "engine.preprocess_us_per_token.n-1e4": "us/token",
    "engine.preprocess_us_per_token.n-1e5": "us/token",
    "engine.visits_per_token": "count/token",
    "engine.scans_per_token": "count/token",
    "engine.ecs_calls_per_token": "count/token",
    "engine.retained_bytes_per_token": "B/token",
    "ecs.nodes_per_token": "count/token",
    "enumtree.first_word_us": "us",
    "enumtree.us_per_symbol": "us/symbol",
    "enumtree.steps_per_symbol.p50": "count",
    "enumtree.steps_per_symbol.max": "count",
    "enumtree.tree_nodes_per_symbol.p50": "count",
    **{
        f"enumtree.{key}.p50.depth-{cap}": "count"
        for key in ("steps_per_symbol", "tree_nodes_per_symbol")
        for cap in (16, 64, 256, 1024)
    },
    "spanner.decode_us_per_mapping": "us",
    "cli.render_us_per_item": "us",
    "trace.overhead_pct": "%",
}


class Runs:
    """The children of one benchmark invocation and the host calibration."""

    def __init__(self, spec_path: Path):
        self.spec_path = spec_path
        self.attempted = 0
        self.failed = 0
        self.calib_ms: list[float] = []
        self.arch = platform.machine()

    def child(self, mode: str, **extra) -> dict | None:
        """Run child.py in a fresh pinned process; None when it failed."""
        request = json.dumps({"mode": mode, "spec": str(self.spec_path), **extra})
        cmd = ["setarch", self.arch, "-R", sys.executable, str(HERE / "child.py"), request]
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
        # bytecode is cached under .work whatever the caller's settings, so
        # that imports, and with them peak memory, cost the same everywhere
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        self.calib_ms.append(calibrate())
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            proc = None
        self.calib_ms.append(calibrate())
        out = None
        if proc is not None and proc.returncode == 0 and proc.stdout.strip():
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += 1
        if out is None or out["problem"] is not None:
            self.failed += 1
            why = out["problem"] if out else (proc.stderr.strip()[-2000:] if proc else "timed out")
            print(f"perfbench: {mode} run failed: {why}", file=sys.stderr)
            return None
        return out


def calibrate() -> float:
    """A fixed pure-Python kernel, in ms: flags host slow phases."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Runs, dict]:
    directory = WORK / f"{workload}-{seed}"
    workloads.generate(workload, seed, directory)
    runs = Runs(directory / "spec.json")
    runs.child("oracle")
    if trace:
        return runs, measure_layers(runs, directory, seconds)
    memory = [r for r in [runs.child("memory")] if r]
    timed: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        out = runs.child("time")
        if out:
            timed.append(out)
    if not timed or not memory:
        return runs, {}
    # item delays and set-up repetitions are pooled over all runs, so
    # that each sample stands for its own moment of the window
    delays = [d for r in timed for d in r["delays_us"]]
    metrics = {
        "setup_s": statistics.median(s for r in timed for s in r["setup_s"]),
        "first_result_s": median_of(timed, "first_result_s"),
        "total_s": median_of(timed, "total_s"),
        "item_delay_p50_us": statistics.median(delays),
        "item_delay_p99_us": statistics.quantiles(delays, n=100, method="inclusive")[98],
        "peak_rss_mb": median_of(memory, "peak_rss_mb"),
    }
    return runs, metrics


def measure_layers(runs: Runs, directory: Path, seconds: float) -> dict:
    """Traced runs alternate with untraced ones until the time is up."""
    traced: list[dict] = []
    overheads: list[float] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        out = runs.child("trace", spans_out=str(directory / "spans.json"))
        plain = runs.child("time")
        if out:
            traced.append(out)
            if plain:
                overheads.append(out["traced_total_s"] / plain["total_s"] - 1)
    series = runs.child("series")
    retained = runs.child("retained")
    if not overheads or series is None or retained is None:
        return {}
    counts = [tuple(t["counts"][k] for k in COUNT_METRICS) for t in traced]
    if len(set(counts)) != 1:
        print("perfbench: count metrics differ between traced runs", file=sys.stderr)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update({k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]})
    metrics.update({k: traced[0]["counts"][k] for k in COUNT_METRICS})
    metrics.update(series["series"])
    metrics["engine.retained_bytes_per_token"] = retained["retained_bytes_per_token"]
    metrics["trace.overhead_pct"] = statistics.median(overheads) * 100
    metrics["host.calib_ms"] = statistics.median(runs.calib_ms)
    return metrics


def report(workload: str, runs: Runs, metrics: dict, units: dict) -> None:
    share = runs.failed / runs.attempted
    print(f"{workload}: {runs.attempted} runs, failed_share {share:.3f}")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
    calib = runs.calib_ms
    print(f"  host.calib_ms min {min(calib):.2f} median {statistics.median(calib):.2f} max {max(calib):.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vptenum" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'vptenum'}", file=sys.stderr)
        return 2
    if shutil.which("setarch") is None:
        print("perfbench: setarch not found; cannot pin the iteration order", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        runs, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
        if not metrics:
            print(f"perfbench: {workload}: no successful run", file=sys.stderr)
            return 1
        report(workload, runs, metrics, units)
        results.append((runs, metrics))
    if args.workload != "all":
        runs, metrics = results[0]
        print(
            json.dumps(
                {
                    "correct": runs.failed == 0,
                    "attempted": runs.attempted,
                    "failed": runs.failed,
                    "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
