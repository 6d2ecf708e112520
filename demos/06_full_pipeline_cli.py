"""The whole pipeline through the command-line interface.

synth -> hindex -> score -> correlate -> rank, writing every declared
file into a temporary directory that is removed afterwards.  Each command
is a pure function of its inputs and flags, so re-running any step
reproduces its outputs byte for byte.
"""

import tempfile
from pathlib import Path

from refh.cli import main

with tempfile.TemporaryDirectory(prefix="refh-demo-") as tmp:
    scratch = Path(tmp)
    corpus = scratch / "corpus"
    out = scratch / "out"

    corpus_flags = [
        "--pubs", str(corpus / "publications.csv"),
        "--cites", str(corpus / "citations.csv"),
        "--profiles", str(corpus / "profiles.csv"),
        "--map", str(corpus / "discipline_map.csv"),
    ]

    steps = [
        ["synth", "--seed", "2014", "--institutions", "25", "--out", str(corpus)],
        ["ingest", *corpus_flags],
        ["hindex", *corpus_flags, "--discipline", "synthetic",
         "--preset", "rae2008", "--out", str(out)],
        ["score", "--profiles", str(corpus / "profiles.csv"), "--out", str(out)],
        ["correlate", *corpus_flags, "--discipline", "synthetic", "--preset", "rae2008",
         "--pairs", "s:h_2008,s_prime:h_2008,s:i", "--out", str(out)],
        ["rank", *corpus_flags, "--discipline", "synthetic", "--window", "2001:2007",
         "--measure", "h_2014", "--baseline", "h_2008", "--out", str(out)],
    ]

    for argv in steps:
        print("$ refh", " ".join(argv))
        code = main(argv)
        assert code == 0, f"step failed with exit code {code}"

    print("\nfiles written:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name:>28}  {path.stat().st_size:>6} bytes")

    print("\ntop of the ranked table with movement markers:")
    for line in (out / "rank_synthetic_h_2014.csv").read_text().splitlines()[:6]:
        print(" ", line)
