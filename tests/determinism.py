"""Byte-determinism across interpreters: every file the benchmark workloads
write, and every command's stdout, must be the same under each interpreter.

    python tests/determinism.py [--seed 7] PYTHON [PYTHON ...]

For each workload of ``bench/workloads.py`` and each interpreter given, in
that order, it runs the workload's ``refh synth`` and then its commands with
``PYTHON -m refh``, importing refh from this checkout's ``src``, in a fresh
temporary directory.  It takes the sha256 of the corpus files, the manifest,
each command's output files and each command's stdout, prints one line per
workload and exits 1 if any interpreter's digests differ from the first one's,
or if a command fails.  Each interpreter gets its own string-hash seed.  It
uses the standard library only; tier-1 calls :func:`compare` with one
interpreter given twice on one workload's ``tiny()`` shape
(``tests/test_determinism.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, Workload, command_argv, synth_argv  # noqa: E402


def digests(python: str, workload: Workload, seed: int) -> dict[str, str]:
    """sha256 of everything ``workload`` writes under ``python``: each file by
    its path under the run's directory, and each command's stdout as
    ``<step>.stdout``; raises ``RuntimeError`` when a step exits non-zero."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONHASHSEED", None)  # each run draws its own, so set or dict order that leaks shows
    found: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="refh-determinism-") as scratch:
        work = Path(scratch)
        corpus = work / "corpus"
        steps = [synth_argv(workload, seed, corpus)]
        steps += [command_argv(command, corpus, work / f"out{i}") for i, command in enumerate(workload.commands)]
        for i, argv in enumerate(steps):
            proc = subprocess.run([python, "-m", "refh", *argv], cwd=work, env=env, capture_output=True)
            if proc.returncode != 0:
                raise RuntimeError(f"{python} refh {argv[0]} exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace')[-2000:]}")
            found[f"{i}-{argv[0]}.stdout"] = hashlib.sha256(proc.stdout.replace(scratch.encode(), b"@")).hexdigest()
        for path in sorted(work.rglob("*")):
            if path.is_file():
                found[path.relative_to(work).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def compare(pythons: list[str], workload: Workload, seed: int) -> list[str]:
    """The names whose digests differ between the first interpreter and any
    other, or that one of them wrote and another did not; empty when all agree."""
    first, *others = (digests(python, workload, seed) for python in pythons)
    return sorted({name for other in others for name in first.keys() | other.keys()
                   if first.get(name) != other.get(name)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", metavar="PYTHON", nargs="+", help="an interpreter to run refh with")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    failures = 0
    for name, workload in WORKLOADS.items():
        try:
            differ = compare(args.pythons, workload, args.seed)
            said = f"differs: {', '.join(differ)}" if differ else f"same bytes under {len(args.pythons)} interpreters"
        except (RuntimeError, OSError) as exc:  # a step failed, or an interpreter would not start
            differ, said = [exc], f"failed: {exc}"
        failures += bool(differ)
        print(f"{name}: {said}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
