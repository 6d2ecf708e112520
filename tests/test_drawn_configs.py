"""Drawn synth configs against the benchmark's independent reference.

A hypothesis test draws about 40 :class:`SynthConfig` values: 3 to 30
institutions, papers from 1:2 to 20:40, both citation models, three
accrual rates, ``quality_link`` 0, 0.7 and 1, and both presets.  It writes
each corpus and runs the benchmark workloads' command shapes over it
through ``main``: the rae2008 preset takes the ``wide-rae2008`` and
``rank-4k`` shapes, ref2014 the ``deep-ref2014`` shape.
``bench/reference.py`` recomputes every output from the raw CSVs without
refh, and must report no mismatch.  A command may exit 1 only with a data
error that the reference confirms on the same CSVs: no matching
publication, no value to rank, or a correlation over fewer than 3 points
or a constant vector.  The examples are derandomized, so every run tests
the same cases, and a failure shrinks to a small config.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from refh.cli import PRESETS, main
from refh.corpus import write_corpus
from refh.synth import Lognormal, PowerLaw, SynthConfig, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import reference  # noqa: E402  (read-only: the benchmark's own reference)
from workloads import WORKLOADS, command_argv  # noqa: E402

SHAPES = {"rae2008": ("wide-rae2008", "rank-4k"), "ref2014": ("deep-ref2014",)}
NO_MATCH = re.compile(r"no matching publications for country=\w+ window=\d+:\d+ discipline=\w+")
NO_VALUES = re.compile(r"no values available for (?:baseline )?measure '(\w+)'")
FEW_POINTS = re.compile(r"pair \((\w+), (\w+)\): only (\d+) complete joined pairs \(\d+ dropped\); "
                        r"need at least 3")
CONSTANT = re.compile(r"pair \((\w+), (\w+)\): correlation undefined for a constant vector")


@st.composite
def configs(draw):
    preset = draw(st.sampled_from(sorted(SHAPES)))
    lo = draw(st.integers(1, 20))
    model = draw(st.one_of(
        st.builds(Lognormal, st.sampled_from([0.5, 1.5, 2.5]), st.sampled_from([0.3, 0.6, 1.0])),
        st.builds(PowerLaw, st.sampled_from([1.8, 2.5, 3.0]), st.sampled_from([1.0, 2.0])),
    ))
    config = SynthConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_institutions=draw(st.integers(3, 30)),
        papers_per_institution=(lo, draw(st.integers(2 * lo, 40))),
        window=PRESETS[preset][0],
        citation_model=model,
        accrual=draw(st.sampled_from([0.2, 0.35, 0.6])),
        quality_link=draw(st.sampled_from([0.0, 0.7, 1.0])),
    )
    return preset, config


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def confirmed(raw, argv, message):
    """Whether the reference finds the data error that ``message`` reports."""
    ns = reference._parse(argv)
    if NO_MATCH.fullmatch(message):
        return not raw.h_table(ns.window_t, ns.years_l or [], ns.discipline, ns.country)
    if m := NO_VALUES.fullmatch(message):
        return not raw.measure(m.group(1), ns.discipline, ns.window_t)
    if m := FEW_POINTS.fullmatch(message):
        return len(reference._joined(raw, ns, m.group(1), m.group(2))) == int(m.group(3)) < 3
    if m := CONSTANT.fullmatch(message):
        points = reference._joined(raw, ns, m.group(1), m.group(2))
        return any(len({p[k] for p in points}) == 1 for k in (1, 2))
    return False


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(configs())
def test_drawn_config_outputs_match_the_reference(drawn):
    preset, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = Path(tmp) / "corpus", Path(tmp) / "out"
        write_corpus(generate(config), corpus)
        raw = reference.RawCorpus(corpus)
        for shape in SHAPES[preset]:
            for command in WORKLOADS[shape].commands:
                argv = command_argv(command, corpus, out)
                code, stdout, stderr = run(argv)
                if code == 0:
                    assert reference.check_command(raw, argv, out, stdout) == [], (config, argv)
                else:
                    message = stderr.removeprefix("refh: ").rstrip("\n")
                    assert code == 1 and confirmed(raw, argv, message), (config, argv, stderr)
