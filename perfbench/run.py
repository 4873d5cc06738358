#!/usr/bin/env python3
"""Benchmark of `coinclust report`, end to end and per layer.

Run from the root of a coinclust checkout::

    python3 perfbench/run.py --workload snapshot|wide|deep --seed N --seconds S --trace 0|1

Each report runs the way a user runs it: a fresh interpreter that imports
``coinclust.cli`` from ``src/`` and calls ``main``, one report at a time.
Every run passes a correctness gate; the end-to-end metrics (``--trace 0``)
or the per-layer metrics of a traced run (``--trace 1``) are printed with
their units, and the last line of standard output is one JSON object.  A
result file with the machine context, input size, sample spreads and
partition digest goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / "perfbench" / "out"
REPORT = "import sys; from coinclust.cli import main; sys.exit(main())"
SETUP = "import coinclust.cli"
SETUP_PER_REPORT = 2
# The whole invocation must end within 180 s; children are killed at this mark.
LIMIT_S = 170.0
REQUIRED = ("src/coinclust/cli.py", "tools/make_snapshot.py", "data/snapshot/profiles.txt")

PER_LAYER_UNITS = {
    **{key: "s" for key in spans.SUMMED},
    **{key: "count" for key in spans.CALLS},
    **{key: "MB" for key in spans.PEAKS},
    "ingest.files": "count",
    "ingest.rows": "count",
    "clustering.excluded_coins": "count",
    "cli.main_self_s": "s",
    "cli.startup_s": "s",
    "cli.exit_s": "s",
    "report.output_bytes": "bytes",
    "trace.report_s": "s",
    "trace.overhead_s": "s",
}


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int, int]:
    """Run one fresh interpreter; (launched, exited, exit code, peak RSS bytes)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        launched = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - launched), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return launched, exited, proc.returncode, usage.ru_maxrss * 1024


def _reject_constant(token: str):
    # json.dumps writes every non-finite float as one of these tokens
    raise ValueError(f"non-finite number {token}")


class Gate:
    """Correctness of one report run.

    A run fails if it exits non-zero, breaks a report invariant, differs in
    partition or ``report.json`` bytes from the first run of this
    invocation, or fails the workload's reference check.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: tuple[bytes, dict] | None = None

    def check(self, code: int, out_dir: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            raw = (out_dir / "report.json").read_bytes()
            sections = json.loads(raw, parse_constant=_reject_constant)["metrics"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"report.json: {exc}"]
        problems = []
        if sorted(sections) != sorted(self.workload.metrics):
            problems.append(f"report covers {sorted(sections)}, expected {sorted(self.workload.metrics)}")
        partition = {}
        for metric, section in sections.items():
            if "error" in section:
                problems.append(f"{metric}: {section['error']}")
                continue
            assignment = section["assignment"]
            clusters = [c["coins"] for c in assignment["clusters"]]
            partition[metric] = clusters
            accounted = [c for coins in clusters for c in coins] + list(section["excluded"]) + section["missing"]
            if sorted(accounted) != self.workload.coins:
                problems.append(f"{metric}: coins are not each clustered, excluded or missing exactly once")
            if not assignment["flags"] and min(map(len, clusters)) < 2:
                problems.append(f"{metric}: singleton cluster without a flag")
        problems += self.workload.reference_failures(sections)
        if self.first is None:
            self.first = (raw, partition)
        else:
            if raw != self.first[0]:
                problems.append("report.json bytes differ from the first run")
            if partition != self.first[1]:
                problems.append("partition differs from the first run")
        return problems

    def partition_digest(self) -> str | None:
        if self.first is None:
            return None
        return hashlib.sha256(json.dumps(self.first[1], sort_keys=True).encode()).hexdigest()


def spread(values: list[float]) -> dict:
    """Median, quartiles, the highest percentile with at least ten samples
    beyond it (None below eleven samples), and the sample count."""
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n >= 2 else (s[0], s[0], s[0])
    tail = {"percentile": 100.0 * (n - 10) / n, "value": s[n - 11]} if n > 10 else None
    return {"median": statistics.median(s), "q1": q1, "q3": q3, "iqr": q3 - q1, "tail": tail,
            "samples": n, "values": values}


def context(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


def import_time(work: Path, deadline: float) -> float:
    """Wall time of one fresh interpreter running ``import coinclust.cli``."""
    log = work / "setup.log"
    launched, exited, code, _ = run_child(["-c", SETUP], log, deadline)
    if code != 0:
        raise SystemExit(f"error: `{SETUP}` failed, see {log}")
    return exited - launched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a coinclust checkout, missing {missing}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + LIMIT_S
    work = WORK / args.workload
    workload = Workload(ROOT, args.workload, args.seed, work / "data")
    import_time(work, deadline)  # compiles the bytecode that users also have cached

    gate = Gate(workload)
    out_dir, log, trace_path = work / "report", work / "report.log", work / "trace.json"
    # traced reports time the spans; memory reports record tracemalloc peaks
    kinds = ("plain", "traced", "plain", "memory") if args.trace else ("plain",)
    min_runs = 4 if args.trace else 3
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    rounds: dict[str, list[float]] = {k: [] for k in kinds}
    setup: list[float] = []
    rss: list[float] = []
    layers: dict[str, list[dict]] = {k: [] for k in kinds}
    problems: list[str] = [] if workload.generator_ok else ["generator is not seed-deterministic"]
    attempted = failed = 0
    stop_at = time.perf_counter() + args.seconds
    while True:
        kind = kinds[attempted % len(kinds)]
        expected = statistics.median(rounds[kind] or rounds["plain"] or [0.0])
        now = time.perf_counter()
        if now + expected > deadline or (attempted >= min_runs and now + expected > stop_at):
            break
        # set-up samples spread over the run, so they see the machine as the reports do
        setup += [import_time(work, deadline) for _ in range(SETUP_PER_REPORT)]
        shutil.rmtree(out_dir, ignore_errors=True)
        report = ["report", *workload.cli_args(), "--out", str(out_dir)]
        if kind == "plain":
            launched, exited, code, peak = run_child(["-c", REPORT, *report], log, deadline)
            rss.append(peak / 1e6)
        else:
            peaks = "1" if kind == "memory" else "0"
            child = [str(ROOT / "perfbench" / "spans.py"), str(trace_path), peaks, *report]
            launched, exited, code, _ = run_child(child, log, deadline)
        walls[kind].append(exited - launched)
        rounds[kind].append(exited - now)
        attempted += 1
        run_problems = gate.check(code, out_dir)
        if run_problems:
            failed += 1
            problems += [f"run {attempted}: {p}" for p in run_problems]
        elif kind != "plain":
            layer = spans.layer_metrics(json.loads(trace_path.read_text()), launched, exited)
            layer["report.output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
            layer["trace.report_s"] = exited - launched
            layers[kind].append(layer)

    report_s = statistics.median(walls["plain"])
    if args.trace:
        metrics = {}
        for key in PER_LAYER_UNITS:
            runs = layers["memory" if key in spans.PEAKS else "traced"]
            if key != "trace.overhead_s":
                metrics[key] = statistics.median(layer[key] for layer in runs) if runs else 0.0
        metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - report_s
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "report_s": report_s,
            "obs_per_s": workload.size["observations"] / report_s,
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup),
            "success_rate": (attempted - failed) / attempted,
        }
        units = {"report_s": "s", "obs_per_s": "obs/s", "peak_rss_mb": "MB", "setup_s": "s",
                 "success_rate": "fraction"}
    correct = not problems

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "context": context(args.seed),
        "input_size": workload.size,
        "input_sha256": workload.input_digest,
        "partition_sha256": gate.partition_digest(),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "report_s": spread(walls["plain"]),
        "traced_report_s": spread(walls["traced"]) if args.trace else None,
        "memory_report_s": spread(walls["memory"]) if args.trace else None,
        "peak_rss_mb": spread(rss),
        "setup_s": spread(setup),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "traced_runs": layers,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {workload.size['observations']} observations in "
          f"{workload.size['series']} series of {workload.size['coins']} coins; "
          f"{attempted} runs, {failed} failed; result file {path.relative_to(ROOT)}")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
