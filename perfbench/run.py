#!/usr/bin/env python3
"""semcheck benchmark: seeded CLI requests, timed end to end or traced.

Run from the root of a semcheck checkout:

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client sends one request at a time (a closed loop) to
``semcheck.cli.main(argv)`` in this process, over whole passes of the
workload's query list until ``--seconds`` have passed.  Every answer is
checked against the pinned references.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs each workload in a fresh interpreter, one after
another, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import references  # noqa: E402
import tracer as tracing  # noqa: E402
from calibration import REFERENCE_S, calibration_task  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 9

#: metrics in the result line (bounded in BENCHMARK.json), with their units
END_TO_END = {"queries_per_cal": "1/cal", "query_cal_p50": "cal", "query_cal_p90": "cal",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: wall-clock figures, printed by name on the summary line
WALL_CLOCK = {"queries_per_s": "1/s", "query_ms_p50": "ms", "query_ms_p90": "ms",
              "cal_ms": "ms", "import_s": "s"}

_IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "t = time.perf_counter()\n"
    "import semcheck, semcheck.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from calibration import calibration_task\n"
    "cal = []\n"
    "for _ in range(9):\n"
    "    c = time.perf_counter(); calibration_task(); cal.append(time.perf_counter() - c)\n"
    "print(repr(t), repr(statistics.median(cal)), semcheck.__file__)\n"
)


class SetupProbe:
    """Set-up time: ``import semcheck, semcheck.cli`` (the workload's entry
    point) in a fresh interpreter, which then times the calibration task.
    ``setup_s`` is the import time in calibration units, read as seconds at
    the reference speed (see ``calibration.py``); the median over the
    probes is reported.  The first probe is untimed: it writes the bytecode
    cache.  Probes are spread over the run, between passes."""

    def __init__(self, src: Path):
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.imports: List[float] = []
        self.scaled: List[float] = []
        self._probe()

    def _probe(self) -> Tuple[float, float]:
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(HERE)], env=self.env,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, cal, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(self.src):
            raise RuntimeError(f"imported semcheck from {path}, not from {self.src}")
        return float(seconds), float(cal)

    def sample(self) -> None:
        if len(self.imports) < SETUP_SAMPLES:
            seconds, cal = self._probe()
            self.imports.append(seconds)
            self.scaled.append(seconds / cal * REFERENCE_S)

    def medians(self) -> Tuple[float, float]:
        """(setup_s, wall-clock import seconds)"""
        while len(self.imports) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.scaled), statistics.median(self.imports)


class Runner:
    """Closed-loop client over one workload's queries."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from semcheck import cli
        self.cli = cli
        self.corpus = workloads.build_corpus(workload)
        refs = references.load(workload)
        if refs["digest"] != self.corpus.digest():
            raise RuntimeError(f"{workload}: corpus differs from the pinned one; "
                               "re-pin with perfbench/pin.py")
        self.checker = references.Checker(self.corpus, refs)
        self.workdir = workdir
        paths = self.corpus.write(workdir, seed)
        self.queries = [(q, [paths[q.system] if a == workloads.FILE else a for a in q.argv])
                        for q in self.corpus.queries]
        self.attempted = self.failed = self.errors = 0
        self.answers: Dict[str, str] = {}
        self.failures: List[str] = []

    def _call(self, argv: List[str]) -> Tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def run_pass(self, tracer: Optional[tracing.Tracer] = None) -> Tuple[List[int], List[int]]:
        """One pass over every query.  Returns each query's wall time and the
        time of the calibration task run just before it (ns)."""
        times, cal = [], []
        for q, argv in self.queries:
            c0 = time.perf_counter_ns()
            calibration_task()
            t0 = time.perf_counter_ns()
            if tracer is None:
                code, stdout = self._call(argv)
            else:
                code, stdout = tracer.query(q.qid, lambda: self._call(argv))
            times.append(time.perf_counter_ns() - t0)
            cal.append(t0 - c0)
            self._record(q, code, stdout)
        return times, cal

    def _record(self, q: workloads.Query, code: int, stdout: str) -> None:
        self.attempted += 1
        self.errors += code == 2
        problem = self.checker.check(q, code, stdout)
        if problem is None:
            # traced and untraced passes must give the same answer
            answer = json.loads(stdout)
            answer.pop("stats", None)
            answer = json.dumps(answer, sort_keys=True)
            if self.answers.setdefault(q.qid, answer) != answer:
                problem = "answer differs from an earlier pass"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{q.qid}: {problem}")

    def warm_up(self) -> None:
        """One request of each kind, untimed, so lazy set-up is done."""
        seen = set()
        for q, argv in self.queries:
            kind = tuple(q.argv[:5])
            if kind not in seen:
                seen.add(kind)
                self._record(q, *self._call(argv))


def _percentile(ranked: List[float], p: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ranked[max(0, math.ceil(p * len(ranked)) - 1)]


def run_untraced(runner: Runner, seconds: float,
                 between: Callable[[], None]) -> Dict[str, float]:
    """Whole passes until ``seconds`` have passed.

    Each query's wall time is also divided by the median time of the
    calibration task over the nine queries around it, giving its time in
    calibration units (cal).  This machine's speed drifts by up to half over
    tens of seconds, CPU time along with wall time, so wall-clock figures
    move by 10-15% from run to run while the cal figures move by a few
    percent; the cal figures carry the bounds."""
    deadline = time.perf_counter() + seconds
    wall: List[int] = []
    cal_units: List[float] = []
    cal_all: List[int] = []
    passes = 0
    while time.perf_counter() < deadline:
        between()
        times, cal = runner.run_pass()
        for i, t in enumerate(times):
            cal_units.append(t / statistics.median(cal[max(0, i - 4):i + 5]))
        wall += times
        cal_all += cal
        passes += 1
    wall.sort()
    ranked = sorted(cal_units)
    return {"queries_per_cal": len(ranked) / sum(ranked),
            "query_cal_p50": _percentile(ranked, 0.5),
            "query_cal_p90": _percentile(ranked, 0.9),
            "queries_per_s": len(wall) / (sum(wall) / 1e9),
            "query_ms_p50": _percentile(wall, 0.5) / 1e6,
            "query_ms_p90": _percentile(wall, 0.9) / 1e6,
            "cal_ms": statistics.median(cal_all) / 1e6,
            "passes": passes}


def run_traced(runner: Runner, seconds: float) -> Dict[str, float]:
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    plain: List[int] = []
    traced: List[int] = []
    layers: List[Dict[str, float]] = []
    while time.perf_counter() < deadline or not traced:
        plain.append(sum(runner.run_pass()[0]))
        tracer.install()
        try:
            traced.append(sum(runner.run_pass(tracer)[0]))
        finally:
            tracer.uninstall()
        layers.append(tracer.take_pass())
    # counts repeat exactly from pass to pass; times take the fastest pass,
    # as the end-to-end metrics do
    # (a metric that went absent during the run is missing from the last pass)
    out = {m: (min if tracing.PER_LAYER[m][0] == "ms" else statistics.median_low)(
        p[m] for p in layers if m in p) for m in layers[-1]}
    out["cli.errors"] = runner.errors
    out["trace.overhead_frac"] = min(traced) / min(plain) - 1
    for metric in tracing.PER_LAYER:
        if metric not in out:
            print(f"perfbench: {metric} is absent: its target no longer exists",
                  file=sys.stderr)
    tracer.write_spans(runner.workdir / "spans.jsonl")
    return out


def run_one(args, root: Path) -> int:
    src = root / "src"
    setup = None if args.trace else SetupProbe(src)
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}"
    runner = Runner(args.workload, args.seed, workdir)
    runner.warm_up()
    if args.trace:
        values = run_traced(runner, args.seconds)
        units = {m: u for m, (u, _) in tracing.PER_LAYER.items()}
    else:
        values = run_untraced(runner, args.seconds, setup.sample)
        values["setup_s"], values["import_s"] = setup.medians()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = " ".join(f"{m}={values.pop(m):.6g} {u}" for m, u in WALL_CLOCK.items())
        print(f"{args.workload}: {len(runner.queries)} queries x {values.pop('passes')} "
              f"passes, fail_frac={runner.failed / runner.attempted:.6g} "
              f"({runner.failed}/{runner.attempted}), {wall}")
        units = END_TO_END
    for line in runner.failures:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m: {"value": values[m], "unit": u}
                          for m, u in units.items() if m in values}}
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{w}: exit {proc.returncode}")
            status = 1
        if not lines or not lines[-1].startswith("{"):
            continue
        for line in lines[:-1]:
            print(line)
        for name, m in json.loads(lines[-1])["metrics"].items():
            print(f"{w}: {name} = {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "semcheck" / "cli.py").is_file():
        print("perfbench: run from the root of a semcheck checkout "
              "(src/semcheck not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, root)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
