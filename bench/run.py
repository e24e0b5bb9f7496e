"""Benchmark of the meetjoin CLI pipelines, in process.

Usage, from the repository root:

    python3 bench/run.py --workload gcd-exact --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

One client sends requests through ``meetjoin.cli.run(RunConfig(...))``, the
code path of the ``meetjoin`` command, in a closed loop: each request goes
out after the previous one returned.  A workload is a seeded pool of
requests (``workloads.py``); the run sends the whole pool, pass after pass,
until the next pass would overrun ``--seconds``.  Every report is checked
independently (``checks.py``).

Each sample's wall time is scaled to a nominal machine speed, gauged by a
fixed kernel timed before every request (``calibrate.py``).  ``--trace 0``
reports the end-to-end metrics from the best scaled time of each distinct
request over the passes.  ``--trace 1`` sends every request twice, untraced
and traced, and reports per-layer metrics from spans around each module's
public functions (``tracing.py``), plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full result file, with provenance and every
per-request sample, goes to ``.bench_results/``.  ``--workload all`` runs
each workload in a fresh process and prints one table.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import reference_s, scale
from checks import KNOWN_DEFECT, check
from tracing import Tracer, layer_metric_names
from workloads import COMMANDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
REQUEST_DEADLINE_S = 30.0
SETUP_REPEATS = 9

COMMAND_METRICS = {command: command.replace("-", "_") + "_s" for command in COMMANDS}
UNITS = {"success_rate": "ratio", "peak_rss_mb": "MB"}


class RequestDeadline(BaseException):
    """Raised by the alarm in a request that overran its deadline.

    A ``BaseException``, so the CLI's own error handling cannot swallow it.
    """


def _alarm(signum, frame):
    raise RequestDeadline()


def load_cli():
    """Import ``meetjoin.cli`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "meetjoin" / "cli.py").is_file():
        sys.exit(f"bench/run.py: no meetjoin sources under {src}")
    sys.path.insert(0, str(src))
    import meetjoin.cli as cli

    return cli


def send(cli, request) -> tuple[float, tuple[int, str] | None]:
    """One request, timed; returns (seconds, (exit code, report)), with
    ``None`` in place of the report when it overran its deadline."""
    config = cli.RunConfig(**request.config_kwargs())
    gc.collect()
    signal.setitimer(signal.ITIMER_REAL, REQUEST_DEADLINE_S)
    start = time.perf_counter()
    try:
        reply = cli.run(config)
    except RequestDeadline:
        reply = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, reply


def measure_setup() -> list[dict]:
    """Wall times of fresh interpreters importing ``meetjoin.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import meetjoin.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # writes bytecode
    samples = []
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        samples.append({"seconds": time.perf_counter() - start, "ref_s": ref})
    scale(samples)
    return samples


class Run:
    """The closed loop: the pool, pass after pass, until time is up."""

    def __init__(self, cli, pool, traced: bool):
        self.cli = cli
        self.pool = pool
        self.tracer = Tracer() if traced else None
        self.samples: list[dict] = []
        self.passes = 0
        self.verified: dict[int, bytes] = {}

    def _send(self, index: int, request, traced: bool) -> bool:
        """Send one request; False once a request overran its deadline."""
        request_id = len(self.samples)
        ref = reference_s()
        if traced:
            self.tracer.request = request_id
            self.tracer.install()
        try:
            seconds, reply = send(self.cli, request)
        finally:
            if traced:
                self.tracer.uninstall()
        if reply is None:
            reason = "deadline"
        else:
            # The program is deterministic: a reply identical to one that
            # passed before is correct.  Keep a digest, not the report.
            digest = hashlib.sha256(f"{reply[0]}:{reply[1]}".encode()).digest()
            reason = None if self.verified.get(index) == digest else check(request, *reply)
            if reason is None:
                self.verified[index] = digest
        self.samples.append({
            "id": request_id, "request": index, "pass": self.passes,
            "traced": traced, "command": request.command,
            "family": request.family, "alpha": request.alpha,
            "n": len(request.members), "seconds": seconds, "ref_s": ref,
            "failure": reason,
        })
        return reason != "deadline"

    def go(self, seconds: float) -> None:
        """Untraced runs make at least two passes, so every request has a
        best of two; traced runs send each request untraced and traced, in
        alternating order, and make at least one pass."""
        start = time.perf_counter()
        pass_clock: list[float] = []
        modes = (False, True) if self.tracer else (False,)
        min_passes = 1 if self.tracer else 2
        while True:
            began = time.perf_counter()
            for index, request in enumerate(self.pool):
                order = modes if (index + self.passes) % 2 == 0 else modes[::-1]
                for traced in order:
                    if not self._send(index, request, traced):
                        return
            self.passes += 1
            pass_clock.append(time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if (self.passes >= min_passes
                    and elapsed + statistics.median(pass_clock) > seconds):
                return


def best_times(samples, traced: bool = False) -> dict[int, float]:
    """Best scaled time of every distinct request: noise only ever adds."""
    best: dict[int, float] = {}
    for sample in samples:
        if sample["traced"] == traced:
            index = sample["request"]
            best[index] = min(best.get(index, math.inf), sample["scaled_s"])
    return best


def end_to_end(run: Run, setup: list[dict]) -> dict[str, float]:
    samples = run.samples
    best = best_times(samples)
    command_of = {s["request"]: s["command"] for s in samples}
    metrics = {}
    for command, name in COMMAND_METRICS.items():
        times = [t for index, t in best.items() if command_of[index] == command]
        metrics[name] = statistics.fmean(times) if times else REQUEST_DEADLINE_S
    metrics["wall_s"] = sum(best.values())
    failed = sum(1 for s in samples if s["failure"])
    metrics["success_rate"] = 1 - failed / len(samples)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = peak_kib * 1024 / 1e6
    metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setup)
    return metrics


def per_layer(run: Run) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Medians over passes of per-pass layer totals; per command, medians
    over its traced requests.  Times are scaled like the request's."""
    rows = run.tracer.per_request()
    names = layer_metric_names()
    by_pass: dict[int, dict[str, float]] = {}
    by_command: dict[str, list[dict]] = {}
    for sample in run.samples:
        if not sample["traced"]:
            continue
        factor = sample["scaled_s"] / sample["seconds"]
        row = rows.get(sample["id"], dict.fromkeys(names, 0))
        row = {name: value * factor if name.endswith("_s") else value
               for name, value in row.items()}
        totals = by_pass.setdefault(sample["pass"], dict.fromkeys(names, 0))
        for name in names:
            totals[name] += row[name]
        by_command.setdefault(sample["command"], []).append(
            {**row, "request_s": sample["scaled_s"]})
    metrics = {name: statistics.median(t[name] for t in by_pass.values())
               if by_pass else 0 for name in names}
    traced, untraced = best_times(run.samples, True), best_times(run.samples)
    both = traced.keys() & untraced.keys()
    metrics["trace.overhead_frac"] = (
        sum(traced[i] for i in both) / sum(untraced[i] for i in both) - 1
        if both else 0.0
    )
    breakdown = {
        command: {name: statistics.median(r[name] for r in requests)
                  for name in [*names, "request_s"]}
        for command, requests in by_command.items()
    }
    return metrics, breakdown


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "request_deadline_s": REQUEST_DEADLINE_S,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count"


def run_one(args) -> int:
    cli = load_cli()
    info = provenance(args)
    setup = [] if args.trace else measure_setup()
    signal.signal(signal.SIGALRM, _alarm)
    run = Run(cli, WORKLOADS[args.workload](random.Random(args.seed)), bool(args.trace))
    run.go(args.seconds)
    scale(run.samples)

    failures = [s for s in run.samples if s["failure"]]
    unexpected = [s for s in failures if s["failure"] != KNOWN_DEFECT]
    breakdown = None
    if args.trace:
        metrics, breakdown = per_layer(run)
    else:
        metrics = end_to_end(run, setup)
    result = {
        "correct": not unexpected,
        "attempted": len(run.samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {**info, **result, "setup_samples": setup,
              "passes": run.passes, "samples": run.samples,
              "per_command_layers": breakdown}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    counts = {c: sum(1 for s in run.samples if s["command"] == c) for c in COMMANDS}
    print(f"{args.workload} seed={args.seed} passes={run.passes} "
          f"requests={counts} -> {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {_unit(name)}")
    print(f"  {'fail_rate':34s} {len(failures) / len(run.samples):14.6g} ratio")
    for reason in sorted({s['failure'] for s in failures}):
        n = sum(1 for s in failures if s["failure"] == reason)
        print(f"  failed x{n}: {reason}")
    for command, row in (breakdown or {}).items():
        shares = sorted(((v / row["request_s"], k) for k, v in row.items()
                         if k.endswith("_s") and k != "request_s"), reverse=True)
        top = ", ".join(f"{k} {share:.0%}" for share, k in shares[:3])
        print(f"  {command}: {row['request_s']:.4g} s per traced request; {top}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    results = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[workload] = json.loads(out.stdout.splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{w:>16s}" for w in results))
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:16.6g}" for r in results.values())
        print(f"{name:34s} {_unit(name):6s}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:16.6g}" for r in results.values())
    print(f"{'fail_rate':34s} {'ratio':6s}{cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
