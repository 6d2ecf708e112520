"""Self-test of the benchmark: `python3 bench/selftest.py` from a source checkout.

1. Runs every workload's command shape in-process over a 10-institution
   corpus, untraced and traced, and requires every output to pass the
   correctness gate and every exact count to repeat.
2. Corrupts one value in a copy of each kind of output (an h, a rank, a
   pearson_r, a score, a markdown rank cell) and requires the gate to
   count each copy as a failed operation.
3. Requires run.py to exit non-zero, printing no result, in a directory
   that holds only BENCHMARK.json and bench/.
4. Requires BENCHMARK.json to name exactly the metrics run.py reports.

Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import importlib
import json
import shutil
import subprocess
import sys
import time

import reference
import run
from spans import Tracer
from workloads import WORKLOADS

TINY = {"wide-rae2008": None, "deep-ref2014": "40:80", "rank-4k": None}
SEED = 7


def _edit_csv(path, row, column, change):
    rows = list(csv.reader(path.open(newline="", encoding="utf-8")))
    rows[row][column] = change(rows[row][column])
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_markdown(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    head, _, value = lines[2].rpartition("(")
    lines[2] = f"{head}({float(value.rstrip(') |')) + 1:g}) |"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# output file -> one-value corruption of a copy
CORRUPTIONS = {
    "hseries.csv": lambda p: _edit_csv(p, 1, 5, lambda h: str(int(h) + 1)),
    "scores.csv": lambda p: _edit_csv(p, 1, 2, lambda s: f"{float(s) + 0.01:.6f}"),
    "correlations.csv": lambda p: _edit_csv(p, 1, 4, lambda r: f"{float(r) * 0.9:.6f}"),
    "rank_synthetic_h_2014.csv": lambda p: _edit_csv(p, 1, 0, lambda r: str(int(r) + 1)),
    "rank_synthetic_strength.md": _edit_markdown,
}


def check_workload(cli, name: str, work) -> list[str]:
    workload = WORKLOADS[name].tiny(papers=TINY[name])
    corpus = work / "corpus"
    if cli.main(run.synth_argv(workload, SEED, corpus)) != 0:
        return [f"{name}: synth failed"]
    gate = run.Gate(reference.RawCorpus(corpus))
    ops = run.Ops()
    rows = {str((corpus / n).resolve()): i["rows"]
            for n, i in run.provenance(SEED, corpus)["inputs"].items()}
    tracer = Tracer(name, rows)
    counts = []
    for rep in range(2):
        out = run.fresh_dir(work / f"out{rep}")
        tracer.rep = rep
        tracer.install()
        try:
            _, runs = run.replay(cli, workload, SEED, corpus, out, tracer)
        finally:
            tracer.uninstall()
        run.check_replay(runs, out, corpus, gate, ops)
        counts.append(tracer.rep_counts(rep))
    _, runs = run.replay(cli, workload, SEED, corpus, run.fresh_dir(work / "plain"), None)
    run.check_replay(runs, work / "plain", corpus, gate, ops)
    problems = [f"{name}: clean run failed: {m}" for m in ops.messages]
    if counts[0] != counts[1]:
        problems.append(f"{name}: counts differ between repetitions: {counts}")
    if tracer.absent:
        problems.append(f"{name}: trace targets missing: {sorted(tracer.absent)}")

    for index, (argv, _, stdout) in enumerate(runs[1:]):
        for file in reference.output_files(argv):
            if file not in CORRUPTIONS:
                continue
            bad = run.fresh_dir(work / "corrupt")
            for produced in (work / "out0").iterdir():
                if produced.is_file():
                    shutil.copy(produced, bad)
            CORRUPTIONS[file](bad / file)
            caught = run.Ops()
            caught.record(argv[0], run.Gate(gate.raw).check(index, argv, bad, stdout))
            repeat = run.Ops()
            repeat.record(argv[0], gate.check(index, argv, bad, stdout))
            verdict = "caught" if caught.failed and repeat.failed else "MISSED"
            print(f"  {name}: corrupted {file}: {verdict}"
                  f" ({(caught.messages or ['-'])[0][:90]})")
            if verdict == "MISSED":
                problems.append(f"{name}: corrupted {file} passed the gate")
    print(f"  {name}: {ops.attempted} clean operations, {ops.failed} failed; counts {counts[0]}")
    return problems


def check_bare_directory(work) -> list[str]:
    bare = run.fresh_dir(work / "bare")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rank-4k", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    print(f"  bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without refh sources"]
    return []


def check_manifest() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != reported:
            problems.append(f"BENCHMARK.json {key} {declared} != run.py {reported}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(run.SRC))
    cli = importlib.import_module("refh.cli")
    work = run.fresh_dir(run.WORK / "selftest")
    problems = check_manifest()
    for name in WORKLOADS:
        problems += check_workload(cli, name, run.fresh_dir(work / name))
    problems += check_bare_directory(work)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'ok' if not problems else 'FAILED'} in {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
