"""Compare two saved results: `python3 bench/compare.py BASE.json NEW.json`.

Results are the records run.py saves under .bench_work/results/.  Two
results measured on different inputs are not comparable, so the
comparison is refused (exit 2) when the workload, the trace mode or any
input file's sha256 differs.  Otherwise each metric is printed with the
ratio new / base, and each end-to-end metric that got worse by more than
its bound in BENCHMARK.json is flagged (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refusal(base: dict, new: dict) -> str | None:
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    for name, info in base["provenance"]["inputs"].items():
        other = new["provenance"]["inputs"].get(name, {})
        if info["sha256"] != other.get("sha256"):
            return f"input {name} differs: sha256 {info['sha256'][:12]} vs {other.get('sha256', '-')[:12]}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    reason = refusal(base, new)
    if reason:
        print(f"compare: refused, not the same inputs: {reason}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name, metric in base["result"]["metrics"].items():
        b, n = metric["value"], new["result"]["metrics"][name]["value"]
        ratio = n / b if b else float("nan")
        flag = ""
        if name in bounds and b:
            change = (n - b) / b if bounds[name]["better"] == "lower" else (b - n) / b
            if change > bounds[name]["bound"]:
                flag, worse = f"  WORSE than bound {bounds[name]['bound']}", worse + 1
        print(f"{name:<34} {b:14.6f} {n:14.6f} {metric['unit']:<6} x{ratio:.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
