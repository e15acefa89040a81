"""Parser fuzzing from the bundled corpus.  Each example takes one corpus job,
applies one or two token-level mutations (delete, duplicate or swap tokens,
or replace one by another corpus token, of any kind or of its own kind) and
runs the result.  Whatever the input, `dsl.parse` may only raise
`ParseError` or `DegreeCapExceeded`, and `cli.run_job` must return a
certificate that is not an internal error.  Tokens are joined by spaces, so
no two numbers fuse into a larger one; exponents stay corpus-sized, and a
degree cap bounds the polynomial powers a mutant can build."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from divkit import rings  # noqa: E402
from divkit.cli import bundled_corpus_dir, run_job  # noqa: E402
from divkit.dsl import ParseError, parse, tokenize  # noqa: E402
from divkit.rings import DegreeCapExceeded  # noqa: E402

JOBS = [
    [(t.kind, t.text) for t in tokenize(p.read_text()) if t.kind != "eof"]
    for p in sorted(bundled_corpus_dir().glob("*.dk"))
]
POOL = sorted({t for job in JOBS for t in job})
KINDS = {kind: [t for t in POOL if t[0] == kind] for kind, _ in POOL}
DEGREE_CAP = 24


@st.composite
def mutants(draw):
    tokens = list(draw(st.sampled_from(JOBS)))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "respell"]))
        i = draw(st.integers(0, len(tokens) - 1))
        if kind == "delete" and len(tokens) > 1:
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == "replace":
            tokens[i] = draw(st.sampled_from(POOL))
        elif kind == "respell":
            tokens[i] = draw(st.sampled_from(KINDS[tokens[i][0]]))
    return " ".join(text for _, text in tokens)


def test_corpus_tokens_have_small_exponents():
    assert max(int(text) for kind, text in POOL if kind == "num") <= 9


@settings(derandomize=True, database=None, max_examples=500, deadline=2000)
@given(mutants())
def test_mutated_corpus_jobs_parse_or_fail_cleanly(source):
    old = rings._DEGREE_CAP
    rings.set_degree_cap(DEGREE_CAP)
    try:
        try:
            job = parse(source)
        except (ParseError, DegreeCapExceeded):
            return
        cert, code = run_job(job)
    finally:
        rings.set_degree_cap(old)
    assert code == {"ok": 0, "fail": 1, "error": 2}[cert["verdict"]]
    assert not cert.get("error", "").startswith("InternalError"), source
    json.dumps(cert)
