"""Parser fuzzing from the bundled corpus, and printer round trips.

Each fuzzing example takes one corpus job,
applies one or two token-level mutations (delete, duplicate or swap tokens,
or replace one by another corpus token, of any kind or of its own kind) and
runs the result.  Whatever the input, `dsl.parse` may only raise
`ParseError` or `DegreeCapExceeded`, and `cli.run_job` must return a
certificate that is not an internal error.  Tokens are joined by spaces, so
no two numbers fuse into a larger one; exponents stay corpus-sized, and a
degree cap bounds the polynomial powers a mutant can build.

The round trips check that what the printer writes reads back as the same
thing: a mutant that parses gives the same certificate bytes after `dk fmt`,
and a generated value's source text parses back to an equal value of the
same kind and degree.  So do every catalog frame kind, a custom frame and
ideals, and the `str` of a graded value, as a certificate payload prints
it, zero ones included.

Generated expressions, polynomial and graded sums among them, also parse as
they did before the parser read monomial literals straight into packed terms
and graded literals into one keyed dict: `ReferenceParser` keeps that
evaluation, one value per atom and one `combine_add` per `+`, and both must
give equal values of the same type, or the same error.

`dsl.tokenize` returns token texts, and an offset is found only for an
error; on generated sources, the texts, their kinds and offsets and every
lexer error match `conftest.tokenize_reference`, the `Token` tokenizer it
replaced."""

import itertools
import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from divkit import rings  # noqa: E402
from divkit.cli import bundled_corpus_dir, certificate_json, run_job  # noqa: E402
from divkit.dsl import (  # noqa: E402
    CoframeExpr,
    ParseError,
    Parser,
    _token_offset,
    format_job,
    parse,
    parse_expression,
    tokenize,
    value_to_source,
)
from divkit.divisors import make_ideal  # noqa: E402
from divkit.frames import AnchorFrame, catalog  # noqa: E402
from divkit.multivector import DiffForm, Multivector, _Graded  # noqa: E402
from divkit.rings import Chart, DegreeCapExceeded, Poly  # noqa: E402
from conftest import tokenize_reference  # noqa: E402


def token_kind(text):
    """The kind of a token text, as `tokenize_reference` names it."""
    if not text:
        return "eof"
    if text.isdigit():
        return "num"
    if text.isidentifier():
        return "ident"
    if text.startswith('"'):
        return "str"
    return "wedge" if text == "^^" else "sym"


JOBS = [
    [(token_kind(t), t) for t in tokenize(p.read_text())[:-1]]
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


# Pieces of lexer input, joined with nothing between them, so names, numbers,
# `^` pairs, strings and comments also fuse across pieces.
LEXER_PIECES = (
    ["x", "y1", "chart", "_a", "Dx", "dy", "e1", "e12", "D", "d", "e", "0", "12", "007"]
    + ["^", "^^", "-", "+", "*", "/", "(", ")", ",", ";", "="]
    + ["# note", "#", "\n", "\r\n", '"out"', '""', '"ab', '"']
    + [" ", "\t", "\u00a0", "\u2028", "\u00e9", "\u0663", "$"]
)


@settings(derandomize=True, database=None, max_examples=1000, deadline=2000)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=12).map("".join))
@example('chart x;\noutput "abc;\nclassify x;\n')
@example("x # y $\n z $")
@example("x \u00e9 \u0663")
@example("x ")
@example("")
def test_tokenize_matches_the_reference(source):
    """The texts, each one's kind and offset, and any ParseError (line:col
    and message) are those of the `Token` tokenizer."""
    try:
        want = tokenize_reference(source)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            tokenize(source)
        assert str(got.value) == str(e), source
        assert (got.value.line, got.value.col) == (e.line, e.col), source
        return
    texts = tokenize(source)
    assert texts == [t.text for t in want], source
    assert [token_kind(t) for t in texts] == [t.kind for t in want], source
    assert [_token_offset(source, i) for i in range(len(texts))] == [t.pos for t in want], source


@settings(derandomize=True, database=None, max_examples=500, deadline=2000)
@given(mutants())
def test_mutated_corpus_jobs_parse_or_fail_cleanly(source):
    with rings.degree_cap(DEGREE_CAP):
        try:
            job = parse(source)
        except (ParseError, DegreeCapExceeded):
            return
        cert, code = run_job(job)
    assert code == {"ok": 0, "fail": 1, "error": 2}[cert["verdict"]]
    assert not cert.get("error", "").startswith("InternalError"), source
    json.dumps(cert)


@settings(derandomize=True, database=None, max_examples=500, deadline=2000)
@given(mutants())
def test_formatted_mutants_give_the_same_certificate(source):
    with rings.degree_cap(DEGREE_CAP):
        try:
            job = parse(source)
        except (ParseError, DegreeCapExceeded):
            return
        text = format_job(job)
        want = certificate_json(run_job(job)[0])
        got = certificate_json(run_job(parse(text))[0])
    assert got == want, text


CHART = Chart(["x", "y", "z"])
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * CHART.dimension), coefficients, max_size=4
).map(lambda terms: Poly(CHART, terms))


@st.composite
def graded_values(draw):
    cls = draw(st.sampled_from([Multivector, DiffForm, CoframeExpr]))
    degree = 2 if cls is Multivector and draw(st.booleans()) else draw(st.integers(1, 3))
    keys = list(itertools.combinations(range(CHART.dimension), degree))
    comps = draw(st.dictionaries(st.sampled_from(keys), polys, max_size=len(keys)))
    return cls(CHART, degree, comps)


X, Y, Z = (Poly.var(CHART, v) for v in "xyz")
DX, DZ = Multivector.basis_vector(CHART, 0), Multivector.basis_vector(CHART, 2)
# every catalog frame kind, a custom frame, and ideals
FRAMES_AND_IDEALS = [
    catalog(kind, CHART, *args)
    for kind, args in [
        ("tx", ()), ("log", ("x",)), ("zero", ("y",)), ("bk", ("z", 2)), ("scattering", ("x",)),
        ("elliptic", ("x", "y")), ("elliptic_log", ("y", "z")), ("nc_log", ("x", "z")),
    ]
] + [
    AnchorFrame(CHART, [DX + 2 * X * DZ, Multivector.basis_vector(CHART, 1), (Z - X**2) * DZ]),
    make_ideal(X),
    make_ideal(X * (X**2 + Y**2)),
    make_ideal(Fraction(3, 2) - 3 * X),
    make_ideal(Poly.const(CHART, 2)),
]


def examples(values):
    """An `@example` for each of `values`."""
    def apply(test):
        for v in values:
            test = example(v)(test)
        return test
    return apply


@settings(derandomize=True, database=None, max_examples=300, deadline=2000)
@given(st.one_of(polys, graded_values()))
@examples(FRAMES_AND_IDEALS)
@example(Poly.zero(CHART))
@example(Poly.const(CHART, Fraction(-3, 2)))
@example(Multivector(CHART, 2, {}))
@example(Multivector(CHART, 2, {(0, 2): Fraction(-5, 2) * X, (1, 2): Fraction(1, 2) - X}))
@example(DiffForm(CHART, 3, {}))
@example(CoframeExpr(CHART, 2, {}))
@example(CoframeExpr(CHART, 1, {(1,): Fraction(7, 3) * X - 1}))
def test_printed_values_parse_back(v):
    text = value_to_source(v)
    got = parse_expression(text, CHART)
    assert got == v, text
    if isinstance(v, Poly):
        return  # a constant polynomial reads back as a scalar
    assert type(got) is type(v), text
    if isinstance(v, AnchorFrame):
        assert got.label == v.label, text
    if isinstance(v, _Graded):
        assert got.degree == v.degree, text
        # a certificate payload prints a value by `str`, which reads back too
        got = parse_expression(str(v), CHART)
        assert got == v and type(got) is type(v) and got.degree == v.degree, str(v)


class ReferenceParser(Parser):
    """The expression evaluation before the monomial reader: every number
    and variable is a value of its own, a product is `combine_mul` of the
    running product, and a sum is `combine_add` of the running sum."""

    def expression(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            at, op = self.pos, self.next()
            v = self.combine_add(v, self.term(), op, at)
        return v

    def term(self):
        v = self.factor()
        while True:
            at, t = self.pos, self.peek()
            if t == "*":
                self.next()
                v = self.combine_mul(v, self.factor(), at)
            elif t == "^^":
                self.next()
                v = self.combine_wedge(v, self.factor(), at)
            else:
                return v


def reference_parse_expression(source, chart, definitions):
    p = ReferenceParser(source, chart, definitions)
    v = p.expression()
    if p.peek() != "":
        p.fail("trailing input after expression")
    return v


# `z` is defined too: the definition shadows the chart variable
DEFINITIONS = {
    "p": X * Y - Fraction(1, 2),
    "s": Fraction(3, 2),
    "v": Multivector.basis_vector(CHART, 0),
    "z": Y + 1,
}
numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda t: "%d/%d" % t),
)
powers = st.tuples(st.sampled_from(["x", "y", "z", "2"]), st.integers(0, 3)).map(
    lambda t: "%s^%d" % t
)
repeated_powers = st.tuples(
    st.sampled_from(["x", "y"]), st.integers(0, 3), st.integers(0, 2)
).map(lambda t: "%s^%d^%d" % t)
names = st.sampled_from(["x", "y", "z", "p", "s"])
graded = st.sampled_from(["v", "Dy", "Dx^^Dy", "v^^Dy"])


@st.composite
def expression_sources(draw, depth=2):
    """A sum of products of numbers, powers and names (in one sum of three
    also vector fields and wedges) and, below `depth`, negated names and
    parenthesized sums."""
    kinds = [numbers, numbers, powers, powers, repeated_powers, names, names]
    products = ["*"]
    if draw(st.integers(0, 2)) == 0:
        kinds.append(graded)
        products += ["*"] * 6 + ["^^"]
    if depth:
        inner = expression_sources(depth - 1)
        kinds += [inner.map("(%s)".__mod__), names.map("-%s".__mod__)]
    text = draw(st.sampled_from(["", "-"]))
    for k in range(draw(st.integers(1, 4))):
        if k:
            text += draw(st.sampled_from([" + ", " - "]))
        for j in range(draw(st.integers(1, 4))):
            if j:
                text += draw(st.sampled_from(products))
            text += draw(st.one_of(*kinds))
    return text


# basis tokens by kind; `v` is a defined vector field and `e4` is out of
# range on the three-variable chart, so runs holding them take the generic path
BASIS = {"D": ["Dx", "Dy", "Dz", "v"], "d": ["dx", "dy", "dz"], "e": ["e1", "e2", "e3", "e4"]}
graded_coefficients = st.sampled_from(
    ["", "", "3*", "x*", "2*x*y*", "x^2*", "(x - y)*", "(1)*", "-x*", "0*", "s*", "p*", "3/2*"]
    + ["x*(y + 1)*", "-"]
)
after_run = st.sampled_from([""] * 8 + ["*x", "*Dy", "^2", "^^(Dx)", "*2"])


@st.composite
def graded_sums(draw):
    """A sum of coefficient * basis-run terms, mostly of one kind and
    degree, with repeated and unsorted indices, runs of mixed kinds or
    another degree, something multiplied, raised or wedged after a run,
    unary minus, and repeated terms that may cancel."""
    kind = draw(st.sampled_from(sorted(BASIS)))
    degree = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if terms and draw(st.integers(0, 3)) == 0:
            terms.append(draw(st.sampled_from(terms)))
            continue
        run = []
        for _ in range(degree if draw(st.integers(0, 9)) else draw(st.integers(1, 3))):
            k = kind if draw(st.integers(0, 15)) else draw(st.sampled_from(sorted(BASIS)))
            run.append(draw(st.sampled_from(BASIS[k])))
        terms.append(draw(graded_coefficients) + "^^".join(run) + draw(after_run))
    text = terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + t
    return text


def parsed(parse_expression, source, cap):
    try:
        with rings.degree_cap(cap):
            v = parse_expression(source, CHART, DEFINITIONS)
    except (ParseError, DegreeCapExceeded) as e:
        return type(e), str(e)
    return type(v), v


@settings(derandomize=True, database=None, max_examples=900, deadline=2000)
@given(st.one_of(expression_sources(), graded_sums()), st.sampled_from([None, None, None, 0, 3, 6]))
@example("x*x^2 + 2*3 - 3/4*y^0 + 0*z", None)
@example("3", None)
@example("2*3", None)
@example("2*x*3*y^2*x^0*x + x*-y + (x)*y*-z", None)
@example("2^3*x - x^2^3 + s*x", None)
@example("x^3*0*y^2 + 0*x^3*y^2", 4)
@example("x^3*y^2", 4)
@example("x + 2*x + x*2 + x^1", 0)
@example("x*Dy + -x*Dy^^Dy - v", None)
# graded sums read into one keyed dict, and each input that leaves it
@example("(x - y)*Dy^^Dx + 3*Dx^^Dz - 2*x*y*Dz^^Dy + Dx^^Dy", None)
@example("(x - y)*e2^^e1 + (y - x)*e2^^e1", None)
@example("x*Dx^^Dx + Dy^^Dz", None)  # a repeated index
@example("Dx^^dy + dx", None)  # mixed kinds
@example("x*Dx*y + Dy", None)  # `*` after the run
@example("Dx^2 + Dy", None)  # `^` after the run
@example("2*Dx^^(Dy) - Dz^^Dx", None)  # `^^` after the run
@example("e1^^e4 + e2", None)  # an `e` index out of range
@example("x*Dx^^v + Dy^^Dz", None)  # a defined name in the run
@example("Dx + Dx^^Dy", None)  # degree mismatch
@example("0*Dx^^Dy + Dx - Dx", None)  # degree mismatch after a zero term
@example("Dx^^Dy - Dx^^Dy + dz", None)  # another kind after a sum that cancels
@example("0 + Dy", None)  # a polynomial sum, then a graded term
@example("Dx + 1", None)  # a graded sum, then a polynomial term
@example("-Dx^^Dy + -x*Dy^^Dx - (x)*Dz", None)  # unary minus
@example("x^2*Dx^^Dy + y*Dz^^Dx", 0)
@example("(x*y*x)*dx - x^3*dy + 0*dz", 3)
@example("x*Dy - p*Dz", 0)  # degrees no monomial run checks
@example("Dx^^Dy + p*Dx^^Dz", 1)
# scalars, Polys and keyed terms of several kinds in one sum
@example("(x)*y + Dx", None)
@example("s - x*Dy", None)
@example("v + x*Dy - Dz", None)
@example("Dx^^Dy + (x + 1)*Dz^^Dx", None)
@example("e01 + e2", None)
@example("e0 + e1", None)
def test_monomial_reader_parses_as_the_reference(source, cap):
    got = parsed(parse_expression, source, cap)
    want = parsed(reference_parse_expression, source, cap)
    assert got[0] is want[0] and got[1] == want[1], source
    # zero graded values compare equal whatever their degrees
    assert getattr(got[1], "degree", None) == getattr(want[1], "degree", None), source
