"""The emit stage: the certificate writer, and the Poly immutability that
the printer's kept form relies on.

`cli.certificate_json` must write the bytes of `json.dumps(v,
sort_keys=True, indent=2) + "\\n"`: on generated certificate-shaped
values (nested and empty dicts and lists, every kind of character, big
ints, bools and None), and on every certificate of the bundled corpus and
of the three benchmark workloads at seed 1.  A value `json.dumps` cannot
write raises TypeError in both, and so do the JSON types no certificate
holds (floats, tuples, keys that are not str).

`Poly.__str__` keeps the printed form of a Poly, so no code may change a
Poly's terms once it is made: every Poly that `Poly._make` wraps while
those jobs run still holds the terms it was made with."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from divkit.cli import bundled_corpus_dir, certificate_json, run_job  # noqa: E402
from divkit.dsl import parse  # noqa: E402
from divkit.rings import Poly  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def dumps(v):
    return json.dumps(v, sort_keys=True, indent=2) + "\n"


texts = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=8),  # surrogates too
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\t\n\r\b\f", "é", " ", "\U0001f600", ""]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), texts)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(values)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}, []], "": [[{"x": None}]]})
@example({"payload": {"m": -(2**70), "ok": True, "no": False}, "warnings": ["\"q\" \\ é \U0001f600"]})
def test_writer_matches_json_dumps(v):
    assert certificate_json(v) == dumps(v)


@pytest.mark.parametrize(
    "v",
    [Fraction(1, 2), {"a": [1, {2, 3}]}, b"bytes", {"k": object()}, {(1, 2): 1}, {"a": 1, 2: "b"}],
    ids=["fraction", "nested_set", "bytes", "object", "tuple_key", "mixed_keys"],
)
def test_writer_refuses_what_json_dumps_refuses(v):
    with pytest.raises(TypeError):
        dumps(v)
    with pytest.raises(TypeError):
        certificate_json(v)


@pytest.mark.parametrize("v", [1.5, ("a",), {1: "a"}], ids=["float", "tuple", "int_key"])
def test_writer_takes_only_certificate_types(v):
    """`json.dumps` would write these; no certificate holds one."""
    with pytest.raises(TypeError):
        certificate_json({"payload": [v]})


def workload_jobs(monkeypatch):
    """Every seed-1 job of the benchmark workloads (`corpus` is the bundled
    corpus)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS, make_jobs

    return [job for w in WORKLOADS for job in make_jobs(w, 1, bundled_corpus_dir())]


def test_every_workload_certificate_is_written_as_json_dumps_writes_it(monkeypatch):
    jobs = workload_jobs(monkeypatch)
    assert len(jobs) > 60
    for job in jobs:
        cert, _ = run_job(parse(job.source))
        assert certificate_json(cert) == dumps(cert), job.name


def test_no_poly_changes_after_it_is_made(monkeypatch):
    jobs = workload_jobs(monkeypatch)
    made = []
    make = Poly._make.__func__

    def recording_make(cls, chart, terms):
        p = make(cls, chart, terms)
        made.append((p, dict(terms)))
        return p

    monkeypatch.setattr(Poly, "_make", classmethod(recording_make))
    for job in jobs:
        certificate_json(run_job(parse(job.source))[0])
    assert len(made) > 1000
    changed = [str(p) for p, terms in made if p._terms != terms]
    assert not changed
