"""refh batch benchmark: CLI wall time and memory per workload, with layer traces.

    python3 bench/run.py --workload wide-rae2008 --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's corpus is made
with `refh synth` from --seed.  With --trace 0 the workload's command
sequence runs as a closed loop (one client, one command at a time, each in
a fresh `python -m refh` interpreter, as a user runs it) for --seconds, and
the end-to-end metrics are reported.  With --trace 1 the same sequence is
replayed in-process through `refh.cli.main`, alternating untraced and
traced repetitions, and the per-layer metrics are reported.  Every output
is checked against an independent reference (bench/reference.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record (provenance, samples, rows written) is saved
under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import reference
from spans import Tracer
from workloads import CORPUS_FILES, WORKLOADS, Workload, command_argv, synth_argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
IMPORT_PROBES = 3

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_scipy_s": "s", "cli.import_rss_mb": "MB",
    "cli.self_s": "s", "cli.rows_written": "count",
    "synth.generate_s": "s", "synth.self_s": "s",
    "corpus.write_s": "s", "corpus.bytes_written": "bytes",
    "corpus.ingest_s": "s", "corpus.load_publications_s": "s", "corpus.load_profiles_s": "s",
    "corpus.load_discipline_maps_s": "s", "corpus.build_s": "s", "corpus.rows_read": "count",
    "corpus.ingest_alloc_mb": "MB", "corpus.filter_documents_s": "s", "corpus.self_s": "s",
    "metrics.group_metrics_s": "s", "metrics.h_series_s": "s", "metrics.departmental_h_calls": "count",
    "metrics.compute_h_s": "s", "metrics.matching_publications_s": "s",
    "metrics.records_scanned": "count", "metrics.scan_useful_ratio": "ratio",
    "metrics.score_profile_s": "s", "metrics.write_scores_s": "s", "metrics.write_hseries_s": "s",
    "metrics.self_s": "s",
    "stats.correlation_table_s": "s", "stats.correlation_series_s": "s",
    "stats.significance_calls": "count", "stats.write_s": "s", "stats.self_s": "s",
    "ranking.rank_table_s": "s", "ranking.rank_entries": "count", "ranking.movement_s": "s",
    "ranking.render_s": "s", "ranking.self_s": "s",
    "trace.replay_s": "s", "trace.overhead_s": "s",
}

REFERENCE_PROBE_S = 0.00035
PROBE_INTERVAL_S = 0.015

IMPORT_PROBE = (
    "import resource, time; t = time.perf_counter(); import refh.cli; "
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


@dataclass
class Child:
    wall: float
    code: int
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Ops:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages += [f"{what}: {e}" for e in errors[:3]]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REFH_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str], scratch: Path) -> Child:
    """Run one child to completion; wall time and peak RSS come from os.wait4."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss, out_path.read_text(), err_path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Gate:
    """Checks each command's outputs: against the reference the first time,
    then byte for byte against that first verified copy."""

    def __init__(self, raw: reference.RawCorpus):
        self.raw = raw
        self.verified: dict[int, dict[str, str]] = {}
        self.rows_written: dict[str, int] = {}

    def check(self, index: int, argv: list[str], out: Path, stdout: str) -> list[str]:
        names = reference.output_files(argv)
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            return [f"missing output {missing}"]
        digests = {n: sha256(out / n) for n in names}
        digests["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.verified.get(index)
        if first is not None:
            changed = sorted(n for n in digests if digests[n] != first[n])
            return [f"{n} differs from the first repetition" for n in changed]
        errors = reference.check_command(self.raw, argv, out, stdout)
        if not errors:
            self.verified[index] = digests
            self.rows_written.update({n: reference.rows_written(out / n) for n in names})
        return errors


def setup(workload: Workload, seed: int, work: Path, clock: "Clock", repeats: int):
    """Run `refh synth` ``repeats`` times; every copy must be byte-identical."""
    times: dict[str, list[float]] = defaultdict(list)
    digests, ops = [], Ops()
    for k in range(repeats):
        out = work / f"corpus{k}"
        child, scaled = clock.run([sys.executable, "-m", "refh", *synth_argv(workload, seed, out)])
        if child.code != 0:
            raise BenchError(f"refh synth exited {child.code}: {child.stderr.strip()[-500:]}")
        times["setup_s"].append(scaled)
        times["wall.setup_s"].append(child.wall)
        digests.append({n: sha256(out / n) for n in CORPUS_FILES})
        ops.record("synth", [] if digests[k] == digests[0] else ["corpus differs between runs"])
    return times, work / "corpus0", ops


def provenance(seed: int, corpus: Path) -> dict:
    files = {}
    for name in CORPUS_FILES:
        with (corpus / name).open(encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        files[name] = {"sha256": sha256(corpus / name), "rows": rows}
    return {
        "seed": seed,
        "inputs": files,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


# ---------------------------------------------------------------------------
# End-to-end: fresh interpreters in a closed loop
# ---------------------------------------------------------------------------


def fits(start: float, seconds: float, durations: list[float], minimum: int = 1) -> bool:
    """Start another repetition while it is expected to end within ``seconds``."""
    if len(durations) < minimum:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.mean(durations) <= seconds


def _probe_unit() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(2000):
        table[str(i)] = i * 3 % 7
    return time.perf_counter() - start


class SpeedProbe(threading.Thread):
    """Times a small fixed Python job every PROBE_INTERVAL_S while a child runs."""

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.units: list[float] = []

    def run(self) -> None:
        while not self.done.wait(PROBE_INTERVAL_S):
            self.units.append(_probe_unit())


class Clock:
    """Runs children and scales each wall time by the machine's speed meanwhile.

    Other tenants of a shared machine slow every process on it, in phases
    that can outlast a whole benchmark run, so raw wall times of one
    command spread by tens of percent from run to run.  While a child runs,
    a probe thread in this process times a fixed job that uses no refh
    code; the benchmark is pinned to one CPU (`pin_to_one_cpu`), so the
    probe measures the CPU the child runs on.  The scaled time is the wall
    time divided by the slowdown, the probe's mean job time over
    REFERENCE_PROBE_S: the wall time at the speed at which the job takes
    REFERENCE_PROBE_S.
    """

    def __init__(self, env: dict[str, str], scratch: Path):
        self.env, self.scratch = env, scratch
        self.slowdowns: list[float] = []

    def run(self, argv: list[str]) -> tuple[Child, float]:
        probe = SpeedProbe()
        probe.start()
        try:
            child = run_child(argv, self.env, self.scratch)
        finally:
            probe.done.set()
            probe.join()
        slowdown = statistics.mean(probe.units) / REFERENCE_PROBE_S if probe.units else 1.0
        self.slowdowns.append(slowdown)
        return child, child.wall / slowdown


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one of its CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_untraced(workload, seconds, corpus, work, gate, clock, ops) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    iterations: list[float] = []
    start = time.perf_counter()
    while fits(start, seconds, iterations):
        began = time.perf_counter()
        out = fresh_dir(work / "out")
        total, wall, rss_kb = 0.0, 0.0, 0
        for index, command in enumerate(workload.commands):
            argv = command_argv(command, corpus, out)
            child, scaled = clock.run([sys.executable, "-m", "refh", *argv])
            total += scaled
            wall += child.wall
            rss_kb = max(rss_kb, child.maxrss_kb)
            samples[f"{command[0]}_s"].append(scaled)
            samples[f"wall.{command[0]}_s"].append(child.wall)
            if child.code != 0:
                errors = [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
            else:
                errors = gate.check(index, argv, out, child.stdout)
            ops.record(command[0], errors)
        samples["pipeline_s"].append(total)
        samples["wall.pipeline_s"].append(wall)
        samples["peak_rss_mb"].append(rss_kb / 1024)
        iterations.append(time.perf_counter() - began)
    return samples


# ---------------------------------------------------------------------------
# Per-layer: in-process replay, untraced and traced
# ---------------------------------------------------------------------------


def replay(cli, workload, seed, corpus, out, tracer):
    """The synth step plus the command sequence through refh.cli.main, in this process."""
    argvs = [synth_argv(workload, seed, out / "corpus")]
    argvs += [command_argv(c, corpus, out) for c in workload.commands]
    runs = []
    start = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf), tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                code = repr(exc)
        runs.append((argv, code, buf.getvalue()))
    return time.perf_counter() - start, runs


def check_replay(runs, out, corpus, gate, ops) -> None:
    (_, code, _), *commands = runs
    same = code == 0 and all(sha256(out / "corpus" / n) == sha256(corpus / n) for n in CORPUS_FILES)
    ops.record("synth (in-process)", [] if same else [f"exit {code} or corpus differs from set-up"])
    for index, (argv, code, stdout) in enumerate(commands):
        errors = [f"exit {code}"] if code != 0 else gate.check(index, argv, out, stdout)
        ops.record(f"{argv[0]} (in-process)", errors)


def import_probes(env, work) -> dict[str, float]:
    """Fresh-interpreter `import refh.cli`: wall, peak RSS, and scipy's cumulative share."""
    totals, rss = [], []
    for _ in range(IMPORT_PROBES):
        child = run_child([sys.executable, "-c", IMPORT_PROBE], env, work)
        if child.code != 0:
            raise BenchError(f"import probe failed: {child.stderr.strip()[-300:]}")
        seconds, maxrss = child.stdout.split()
        totals.append(float(seconds))
        rss.append(int(maxrss) / 1024)
    child = run_child([sys.executable, "-X", "importtime", "-c", "import refh.cli"], env, work)
    return {"cli.import_s": statistics.median(totals), "cli.import_rss_mb": statistics.median(rss),
            "cli.import_scipy_s": scipy_import_seconds(child.stderr)}


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in `-X importtime` output."""
    entries = []
    for line in importtime.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if name.strip().split(".")[0] == "scipy":
                entries.append((len(name) - len(name.lstrip()), int(cumulative)))
    top = min((depth for depth, _ in entries), default=None)
    return sum(us for depth, us in entries if depth == top) / 1e6


def ingest_alloc_mb(corpus: Path) -> float:
    """tracemalloc peak of one ingest, in its own pass (tracemalloc slows what it watches)."""
    ingest = getattr(sys.modules["refh.corpus"], "ingest_corpus", None)
    if ingest is None:
        return 0.0
    tracemalloc.start()
    try:
        ingest(*(corpus / n for n in CORPUS_FILES))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_traced(workload, seed, seconds, corpus, inputs, work, gate, env, ops, spans_path) -> dict:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("refh.cli")
    rows_by_path = {str((corpus / n).resolve()): info["rows"] for n, info in inputs.items()}
    tracer = Tracer(workload.name, rows_by_path)
    untraced, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    probes = import_probes(env, work)
    replay(cli, workload, seed, corpus, fresh_dir(work / "replay"), None)  # warm-up, not counted
    pairs: list[float] = []
    while fits(start, seconds, pairs, minimum=2):
        pair_start = time.perf_counter()
        for tracing in (False, True):
            out = fresh_dir(work / "replay")
            rep = len(traced)
            if tracing:
                tracer.rep = rep
                tracer.install()
            try:
                duration, runs = replay(cli, workload, seed, corpus, out, tracer if tracing else None)
            finally:
                tracer.uninstall()
            check_replay(runs, out, corpus, gate, ops)
            if not tracing:
                untraced.append(duration)
                continue
            traced.append(duration)
            layers.append(tracer.layer_times(rep))
            counts.append(tracer.rep_counts(rep))
            ops.record("exact counts", [f"rep {rep} counts {counts[-1]} != rep 0 {counts[0]}"]
                       if counts[-1] != counts[0] else [])
        pairs.append(time.perf_counter() - pair_start)
    tracer.write(spans_path, seed)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics.update(counts[0])
    metrics.update(probes)
    metrics["corpus.ingest_alloc_mb"] = ingest_alloc_mb(corpus)
    scanned = counts[0]["metrics.records_scanned"]
    metrics["metrics.scan_useful_ratio"] = counts[0]["metrics.records_matched"] / scanned if scanned else 0.0
    metrics["cli.rows_written"] = sum(gate.rows_written.values())
    metrics["trace.replay_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"metrics": metrics, "absent": sorted(tracer.absent),
            "by_command": tracer.by_command(0),
            "samples": {"untraced_replay_s": untraced, "traced_replay_s": traced}}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]):
    """The highest of p99.9 / p99 / p90 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile (< 20 samples)"
    return f"{name:<14} median {statistics.median(values):10.4f} {unit:<3} n={len(values):<3} {tail_text}"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "refh" / "cli.py").is_file():
        print(f"bench: no refh sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = fresh_dir(WORK / workload.name / f"seed{args.seed}")
    env = child_env()
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    try:
        clock = Clock(env, work)
        setup_times, corpus, ops = setup(workload, args.seed, work, clock,
                                         1 if args.trace else SETUP_REPEATS)
        prov = provenance(args.seed, corpus) | {"nproc": nproc, "pinned_cpu": cpu}
        gate = Gate(reference.RawCorpus(corpus))
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            traced = measure_traced(workload, args.seed, args.seconds, corpus, prov["inputs"], work,
                                    gate, env, ops, WORK / "results" / f"{stem}-spans.json")
            values, units, details = traced["metrics"], PER_LAYER, traced
            for name in PER_LAYER:
                print(f"{name:<34} {values[name]:14.6f} {PER_LAYER[name]}")
            for command, times in traced["by_command"].items():
                top = sorted(times.items(), key=lambda kv: -kv[1])[:3]
                print(f"  rep 0 {command:<14} " + "  ".join(f"{n} {v:.4f}" for n, v in top))
            if traced["absent"]:
                print(f"absent (reported as 0): {', '.join(traced['absent'])}")
        else:
            samples = measure_untraced(workload, args.seconds, corpus, work, gate, clock, ops)
            samples.update(setup_times)
            values = {name: statistics.median(v) for name, v in samples.items()}
            units, details = END_TO_END, {"samples": samples, "slowdowns": clock.slowdowns}
            for name, v in samples.items():
                gated = "*" if name in END_TO_END else " "
                print(gated + describe(name, v, "MB" if name.endswith("_mb") else "s"))
            print(f"fail_ratio     {ops.failed}/{ops.attempted} = {ops.failed / ops.attempted:.4f}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: no samples for {missing}", file=sys.stderr)
        return 1
    for message in ops.messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details.update(rows_written=gate.rows_written, failures=ops.messages)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "trace": args.trace, "provenance": prov,
         "result": result, "details": details}, indent=1))
    print("inputs " + " ".join(f"{n}:{i['rows']}:{i['sha256'][:12]}" for n, i in prov["inputs"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
