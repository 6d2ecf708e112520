"""One workload's command shape writes the same bytes in two fresh
interpreters, each with its own string-hash seed.  Comparing other
interpreters is ``python tests/determinism.py PYTHON ...``, outside tier-1."""

import sys

from determinism import WORKLOADS, compare, digests


def test_two_runs_write_the_same_bytes():
    workload = WORKLOADS["wide-rae2008"].tiny()
    assert compare([sys.executable, sys.executable], workload, 7) == []


def test_digests_cover_the_corpus_every_output_and_every_stdout():
    workload = WORKLOADS["rank-4k"].tiny()
    names = set(digests(sys.executable, workload, 7))
    corpus = {f"corpus/{name}" for name in
              ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv", "manifest.json")}
    assert corpus <= names
    assert {"0-synth.stdout", "1-score.stdout", "2-rank.stdout", "out0/scores.csv"} <= names
    assert any(name.startswith("out1/rank_") for name in names)
