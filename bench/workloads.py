"""The benchmark's workloads: one `refh synth` input and one command sequence each.

Why these three (sizes at seed 7):

- wide-rae2008: 80 groups x 7 measurement years drive the per-(institution,
  year) rescan in the h pass; three commands compute h.
- deep-ref2014: 12 large groups (about 24k publications) and one
  measurement year; corpus reads and child memory dominate, h is light.
- rank-4k: 4,000 one- or two-paper groups; `rank_table`, profile parsing,
  scoring and markdown rendering dominate, h is never computed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

CORPUS_FILES = ("publications.csv", "citations.csv", "profiles.csv", "discipline_map.csv")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]

    def tiny(self, institutions: int = 10, papers: str | None = None) -> "Workload":
        """The same command shape over a corpus of ``institutions`` groups."""
        synth = list(self.synth)
        synth[synth.index("--institutions") + 1] = str(institutions)
        if papers:
            synth[synth.index("--papers") + 1] = papers
        return replace(self, synth=tuple(synth))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-rae2008",
            why="80 groups x 7 years: the per-(institution, year) h rescan dominates",
            synth=("--institutions", "80", "--papers", "20:40", "--window", "2001:2007"),
            commands=(
                ("ingest", "@corpus"),
                ("hindex", "@corpus", "--discipline", "synthetic", "--preset", "rae2008"),
                ("score", "@profiles"),
                ("correlate", "@corpus", "--discipline", "synthetic", "--preset", "rae2008",
                 "--pairs", "s:h_2008,s_prime:h_2008,s:i"),
                ("rank", "@corpus", "--discipline", "synthetic", "--window", "2001:2007",
                 "--measure", "h_2014", "--baseline", "h_2008"),
            ),
        ),
        Workload(
            name="deep-ref2014",
            why="12 large groups, one year: corpus reads and child memory dominate",
            synth=("--institutions", "12", "--papers", "1500:2500", "--window", "2008:2013"),
            commands=(
                ("ingest", "@corpus"),
                ("hindex", "@corpus", "--discipline", "synthetic", "--preset", "ref2014"),
                ("correlate", "@corpus", "--discipline", "synthetic", "--preset", "ref2014",
                 "--pairs", "s:h_2014,s_prime:h_2014,s:i"),
                ("rank", "@corpus", "--discipline", "synthetic", "--preset", "ref2014",
                 "--measure", "h_2014", "--baseline", "s"),
            ),
        ),
        Workload(
            name="rank-4k",
            why="4,000-entry tables: ranking, scoring and rendering dominate, no h",
            synth=("--institutions", "4000", "--papers", "1:2", "--window", "2001:2007"),
            commands=(
                ("score", "@profiles"),
                ("rank", "@corpus", "--discipline", "synthetic", "--measure", "strength",
                 "--baseline", "i", "--format", "markdown"),
            ),
        ),
    )
}


def synth_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    """`refh synth` arguments; the model, accrual and quality link stay at their defaults."""
    return ["synth", "--seed", str(seed), *workload.synth, "--out", str(out)]


def command_argv(command: tuple[str, ...], corpus: Path, out: Path) -> list[str]:
    """Expand ``@corpus`` / ``@profiles`` and add ``--out`` to every writing command."""
    argv: list[str] = []
    for token in command:
        if token == "@corpus":
            for flag, name in zip(("--pubs", "--cites", "--profiles", "--map"), CORPUS_FILES):
                argv += [flag, str(corpus / name)]
        elif token == "@profiles":
            argv += ["--profiles", str(corpus / "profiles.csv")]
        else:
            argv.append(token)
    if command[0] != "ingest":
        argv += ["--out", str(out)]
    return argv
