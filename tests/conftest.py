import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from unittest import mock

import pytest

from divkit import divisors
from divkit.dsl import ParseError
from divkit.rings import FIELD_BITS, _FIELD, Poly, ZeroPolynomial, poly_gcd, sum_products
from divkit.multivector import Multivector, derivative_table, partial_pfaffian
from divkit.frames import poly_adjugate


def rand_poly(chart, rng, max_degree=2, terms=3, zero_ok=True):
    p = Poly.zero(chart)
    for _ in range(terms):
        e = [0] * chart.dimension
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(chart.dimension)] += 1
        p = p + Poly(chart, {tuple(e): Fraction(rng.randint(-3, 3))})
    if not zero_ok and p.is_zero():
        return Poly.const(chart, rng.randint(1, 3))
    return p


def rand_vector(chart, rng, max_degree=2):
    return Multivector.vector(
        chart, [rand_poly(chart, rng, max_degree) for _ in range(chart.dimension)]
    )


def rand_multivector(chart, rng, degree, max_degree=2, density=0.7):
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < density:
            comps[idx] = rand_poly(chart, rng, max_degree)
    return Multivector(chart, degree, comps)


# ---------------------------------------------------------------------------
# References the library's own paths are compared against
# ---------------------------------------------------------------------------


def adjugate_and_det(m):
    """(adj(m), det(m)) from one table of minors, the determinant taken from
    the adjugate's first column, det = sum_j m[0][j] adj[j][0]."""
    adj = poly_adjugate(m)
    chart = m[0][0].chart
    return adj, sum_products(chart, [(1, m[0][j], adj[j][0]) for j in range(len(m))])


def bracket_rows_reference(frame):
    """`frames._bracket_rows` as one `sum_products` call per nonzero
    bracket component, its terms tagged in a second pass: the reference for
    the rows that add every product straight into a tagged term dict."""
    chart = frame.chart
    n = chart.dimension
    shift = chart._degree_shift + FIELD_BITS
    support = [[(l, c) for (l,), c in g.comps.items()] for g in frame.generators]
    derivs = [derivative_table(g.comps) for g in frame.generators]
    rows = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            comps = {}
            for s, a, b in ((1, i, j), (-1, j, i)):
                table = derivs[b]
                for l, c in support[a]:
                    for (k,), d in table.get(l, ()):
                        comps.setdefault(k, []).append((s, c, d))
            tag = (i * n + j) << shift
            for k, triples in comps.items():
                rows[k].append((tag, sum_products(chart, triples)._terms))
    return [
        Poly._make(chart, {m + t: c for t, terms in row for m, c in terms.items()}) for row in rows
    ]


def rand_sparse_poly(chart, rng):
    """None (an absent component), a nonzero constant, or a polynomial in one
    or two of the chart's variables."""
    kind = rng.randrange(4)
    if kind == 0:
        return None
    if kind == 1:
        return Poly.const(chart, rng.choice([-2, -1, 1, 3]))
    used = rng.sample(range(chart.dimension), min(kind - 1, chart.dimension))
    p = Poly.zero(chart)
    for _ in range(rng.randint(1, 3)):
        e = [0] * chart.dimension
        for v in used:
            e[v] = rng.randint(0, 2)
        p = p + Poly(chart, {tuple(e): Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))})
    return p


def rand_sparse_bivector(chart, rng):
    """A bivector whose components are absent, constant, or in one or two
    variables (see `rand_sparse_poly`)."""
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dimension), 2):
        c = rand_sparse_poly(chart, rng)
        if c is not None:
            comps[idx] = c
    return Multivector(chart, 2, comps)


def jacobiator_reference(pi):
    """{(i, j, k): [pi, pi]^{ijk}} over i < j < k, zero entries dropped, by
    [pi, pi]^{ijk} = 2 sum_cyc sum_l pi^{il} d_l pi^{jk} with pi^{ji} =
    -pi^{ij}, in plain Poly arithmetic: no index merges, no contraction."""
    import itertools

    chart = pi.chart
    zero = Poly.zero(chart)

    def entry(a, b):
        if a < b:
            return pi.comps.get((a, b), zero)
        return -pi.comps.get((b, a), zero) if a > b else zero

    res = {}
    for i, j, k in itertools.combinations(range(chart.dimension), 3):
        total = zero
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, var in enumerate(chart.variables):
                total = total + entry(a, l) * entry(b, c).diff(var)
        if not total.is_zero():
            res[(i, j, k)] = total * 2
    return res


def lifted_pfaffian(cert):
    """Pf(pi_A) of a lift certificate's lifted bivector itself (None on an
    odd chart): the reference for the Pf(pi) / det(rho) that `lift` takes."""
    chart = cert.frame.chart
    n = chart.dimension
    if n % 2:
        return None
    pf = partial_pfaffian(cert.lifted, n // 2)
    return pf.comps.get(tuple(range(n)), Poly.zero(chart))


def poly_str_reference(p):
    """`str(p)` as the printer wrote it before it looked only at the
    variables in use: every chart variable tested in every term, and each
    power string formatted afresh."""
    if not p._terms:
        return "0"
    named = list(zip(p.chart.variables, p.chart._shifts))
    parts = []
    for m, c in sorted(p._terms.items(), reverse=True):
        factors = []
        for v, s in named:
            k = (m >> s) & _FIELD
            if k == 1:
                factors.append(v)
            elif k > 1:
                factors.append("%s^%d" % (v, k))
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    if out.startswith("+ "):
        out = out[2:]
    elif out.startswith("- "):
        out = "-" + out[2:]
    return out


def content_reference(p):
    """`p.content()` as one gcd and one lcm step per coefficient, before it
    took one variadic `math.gcd` and `math.lcm`."""
    if not p._terms:
        return Fraction(0)
    num, den = 0, 1
    for c in p._terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def gcd_content_chain(polys):
    """GCD of a list as a chain of pairwise gcds that stops at a constant:
    the reference for the weighted-sum gcd that `rings.gcd_content` takes."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ZeroPolynomial("gcd of all-zero input")
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    return g.unit_normalized() if not g.is_constant() else Poly.const(g.chart, 1)


def classify_taking_every_squarefree_part(ideal, candidates=None):
    """`divisors.classify` with the squarefree part taken of every
    non-constant residual, whatever its shape: the reference for the
    classifier that takes it only where it could be an elliptic atom."""
    with mock.patch.object(divisors, "_may_be_elliptic_power", lambda p: not p.is_constant()):
        return divisors.classify(ideal, candidates)


# The tokenizer before tokens were texts: one match per token, whitespace and
# comments skipped before it, and `eof` and `bad` (any other character)
# making every match succeed.
_TOKEN_RE_REFERENCE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
    (?: (?P<num>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<str>"[^"\n]*")
      | (?P<wedge>\^\^)
      | (?P<sym>[-+*^(),;=/])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # offset in the source

    def __repr__(self):
        return "%s(%r)@%d" % (self.kind, self.text, self.pos)


def tokenize_reference(source):
    """The tokens of `source` as `Token`s, from one `finditer` pass that
    stops at end of input, each with its kind (the name of the group that
    matched) and source offset; the first bad character is a ParseError:
    the reference for `dsl.tokenize`, which returns only the texts."""
    tokens = []
    for m in _TOKEN_RE_REFERENCE.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bad":
            line_start = source.rfind("\n", 0, start) + 1
            raise ParseError(
                source.count("\n", 0, start) + 1,
                start - line_start + 1,
                "unexpected character %r" % source[start],
            )
        tokens.append(Token(kind, m.group(kind), start))
        if kind == "eof":
            return tokens


@pytest.fixture
def rng():
    return random.Random(20260811)


ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line("  " + line)
