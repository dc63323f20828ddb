"""Pipeline benchmark: the five hoaxlens CLI stages on seeded synthetic inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root. One client, closed loop: each stage runs in its
own process (`python -m hoaxlens.cli STAGE --config ...`, what the `hoaxlens`
console script does) and the next starts when it has exited. spawn.py starts
each stage and reports its wall time, peak RSS and CPU time. Every
invocation's outputs are checked against the generator's ground truth and
must be byte-identical across passes.

--trace 0 repeats untraced pipeline passes for S seconds and reports the
end-to-end metrics as medians over passes. --trace 1 alternates untraced and
traced passes (stages started through launch.py, which records spans) and
reports the per-layer metrics. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import layers
from gen import Spec, Truth, generate

BENCH_DIR = Path(__file__).resolve().parent
STAGES = layers.STAGES
SETUP_REPEATS = 3
SELF_SUM_TOLERANCE = 0.01

# Why each workload: see README.md. Sizes are set so one pass takes a few
# seconds, giving ten or more passes per run on a 2-core machine.
WORKLOADS = {
    # Log volume: 96 hourly files, three in four lines from other projects,
    # namespaces, bad titles, spelling variants and redirect chains.
    "ingest_mixed": Spec(
        suspect_days=2, suspects_per_day=5, members_per_day=20, pool=1500, links=15,
        hours=6, noise_per_file=6500, noise_shares=(0.84, 0.115, 0.03, 0.01, 0.005),
        rich=False, redirect_rows=20000,
    ),
    # Read path: many suspects sharing same-day cohorts, Zipf-overlapping
    # neighborhoods, a large bootstrap; small all-en logs.
    "attention_queries": Spec(
        suspect_days=16, suspects_per_day=25, members_per_day=30, pool=2500, links=30,
        hours=1, noise_per_file=60, noise_shares=(0.0, 0.6, 0.25, 0.1, 0.05),
        rich=False, redirect_rows=500,
    ),
    # Markup: multi-KB articles with nested templates, refs, tables, comments.
    "features_markup": Spec(
        suspect_days=8, suspects_per_day=10, members_per_day=80, pool=1500, links=40,
        hours=1, noise_per_file=60, noise_shares=(0.0, 0.6, 0.25, 0.1, 0.05),
        rich=True, redirect_rows=500,
    ),
}


@dataclass
class Launch:
    wall: float
    cpu: float
    rss_mb: float
    spans: list[list] | None  # traced launches whose outputs passed the checks


class Bench:
    """One workload's run directory and the stage launches made in it."""

    def __init__(self, root: Path, spec: Spec, seed: int, work: Path):
        self.spec, self.seed, self.work = spec, seed, work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        self.truth: Truth | None = None
        self.expected: dict = {}
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __enter__(self) -> "Bench":
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")], cwd=self.work, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    @property
    def out(self) -> Path:
        return self.truth.config.parent / "out"

    def setup(self) -> float:
        """Generate the inputs and make one untimed warm-up launch; returns seconds."""
        inputs = self.work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.monotonic()
        self.truth = generate(self.spec, self.seed, inputs)
        code = self._spawn([sys.executable, "-m", "hoaxlens.cli", "--help"])["code"]
        elapsed = time.monotonic() - start
        if code != 0:
            raise RuntimeError(f"warm-up launch of hoaxlens exited {code}: {self._log_tail()}")
        return elapsed

    def _spawn(self, argv: list[str]) -> dict:
        """Run argv through spawn.py; returns its code, wall, cpu and rss_mb."""
        request = {"argv": argv, "log": str(self.work / "stage.log")}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py exited {self.spawner.wait()}")
        return json.loads(reply)

    def _log_tail(self) -> str:
        return (self.work / "stage.log").read_text(encoding="utf-8", errors="replace")[-400:]

    def launch(self, stage: str, spans: Path | None = None) -> Launch:
        """Run one stage to completion and check what it wrote."""
        config = str(self.truth.config)
        if spans is None:
            argv = [sys.executable, "-m", "hoaxlens.cli", stage, "--config", config]
        else:
            argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(spans), "{spawn}", stage, "--config", config]
        run = self._spawn(argv)
        problems = [f"exit {run['code']}: {self._log_tail()}"] if run["code"] else []
        problems += check.check_stage(stage, self.out, self.truth, self.expected)
        digests = check.fingerprint(self.out, stage)
        reference = self.reference.setdefault(stage, digests)
        if digests != reference:
            changed = sorted(k for k in digests.keys() | reference.keys() if digests.get(k) != reference.get(k))
            problems.append(f"outputs differ from the first untraced pass: {changed[:3]}")
        stage_spans = None
        if spans is not None and not problems:
            stage_spans = layers.load_spans(spans, run["wall"])
            error = layers.self_sum_error(stage_spans)
            if error > SELF_SUM_TOLERANCE:
                problems.append(f"span self times miss the stage wall time by {error:.2%}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{stage}: {p}" for p in problems]
        return Launch(run["wall"], run["cpu"], run["rss_mb"], stage_spans)

    def run_pass(self, traced: bool) -> dict[str, Launch]:
        return {
            stage: self.launch(stage, self.work / f"spans-{stage}.json" if traced else None)
            for stage in STAGES
        }


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(bench: Bench, setups: list[float], passes: list[dict[str, Launch]]) -> dict:
    stage_wall = {s: _median(p[s].wall for p in passes) for s in STAGES}
    return {
        "setup_s": (_median(setups), "s"),
        "pipeline_s": (_median(sum(p[s].wall for s in STAGES) for p in passes), "s"),
        "ingest_s": (stage_wall["ingest"], "s"),
        "features_s": (stage_wall["features"], "s"),
        "attention_s": (stage_wall["attention"], "s"),
        "ingest_lines_per_s": (bench.truth.tallies["lines_total"] / stage_wall["ingest"], "lines/s"),
        "ingest_peak_rss_mb": (_median(p["ingest"].rss_mb for p in passes), "MB"),
        "attention_peak_rss_mb": (_median(p["attention"].rss_mb for p in passes), "MB"),
        "peak_rss_mb": (_median(max(p[s].rss_mb for s in STAGES) for p in passes), "MB"),
    }


def per_layer(bench: Bench, plain: list[dict[str, Launch]], traced: list[dict[str, Launch]]) -> dict:
    failed_share = {"ops_failed_share": (bench.failed / bench.attempted, "ratio")}
    complete = [p for p in traced if all(launch.spans for launch in p.values())]
    if not complete:  # every traced pass failed; the problems say why
        return failed_share
    metrics = layers.median_metrics([
        layers.pass_metrics({s: p[s].spans for s in STAGES}, bench.out, bench.truth.log_bytes)
        for p in complete
    ])
    for s in STAGES:
        metrics[f"cli.{s}.cpu_s"] = (_median(p[s].cpu for p in plain), "s")
        metrics[f"trace.{s}.overhead_s"] = (
            _median(p[s].wall for p in complete) - _median(p[s].wall for p in plain), "s")
    return metrics | failed_share


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list, list]:
    """Pipeline passes until the next would end after `seconds`. A traced run
    follows each untraced pass with a traced one. Returns both lists of passes."""
    plain: list[dict[str, Launch]] = []
    traced: list[dict[str, Launch]] = []
    begin = time.monotonic()
    lap = 0.0
    while not plain or time.monotonic() - begin + lap <= seconds:
        lap_start = time.monotonic()
        plain.append(bench.run_pass(traced=False))
        if trace:
            traced.append(bench.run_pass(traced=True))
        lap = time.monotonic() - lap_start
    return plain, traced


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, measure for `seconds`, return the result object."""
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Bench(root, WORKLOADS[name], seed, work) as bench:
            setups = [bench.setup() for _ in range(1 if trace else SETUP_REPEATS)]
            bench.expected = check.expected_results(bench.truth)
            plain, traced = measure(bench, seconds, trace)
            metrics = per_layer(bench, plain, traced) if trace else end_to_end(bench, setups, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": bench.problems,
        "passes": len(plain),
    }


def print_human(name: str, result: dict) -> None:
    for metric, v in result["metrics"].items():
        print(f"{name:18s} {metric:48s} {v['value']:>16.6g} {v['unit']}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"{name:18s} check: {verdict} ({result['failed']} of {result['attempted']} stage "
          f"invocations failed, {result['passes']} passes)")
    for problem in result["problems"][:10]:
        print(f"{name:18s}   {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hoaxlens" / "cli.py").is_file():
        print(f"error: no hoaxlens sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for name in names:
        for trace in modes:
            try:
                result = run_workload(root, name, args.seed, args.seconds, trace)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print_human(name, result)
            results.append(result)
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    result = results[0]
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
