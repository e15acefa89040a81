"""Property tests of the rings kernels against sympy, with coefficients drawn
from integers and from non-integral rationals, so both the int and the
Fraction paths of every kernel run.  Every result must keep the stored
coefficient invariant: an int, or a Fraction with denominator > 1."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from functools import reduce  # noqa: E402
from unittest import mock  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from divkit import rings  # noqa: E402
from divkit.rings import (  # noqa: E402
    MAX_DEGREE,
    Chart,
    ChartMismatch,
    DegreeCapExceeded,
    Poly,
    ZeroPolynomial,
    _prs_gcd,
    exact_divide,
    gcd_content,
    poly_gcd,
    squarefree_part,
    sum_products,
)

from conftest import gcd_content_chain  # noqa: E402

CHART = Chart(["x", "y"])
CHART3 = Chart(["x", "y", "z"])

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(2, 5)),
)


def polys(max_degree=2, max_terms=4, chart=CHART):
    exponents = st.tuples(*(st.integers(0, max_degree) for _ in chart.variables))
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Poly(chart, terms)
    )


def nonzero_polys(max_degree=2, max_terms=4, chart=CHART):
    return polys(max_degree, max_terms, chart).filter(lambda p: not p.is_zero())


kernel_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    return p


def to_sympy(p):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    gens = sympy.symbols(p.chart.variables)
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain="QQ")


def assert_same(ours, theirs):
    assert to_sympy(canonical(ours)) == theirs, (str(ours), theirs)


def assert_associate(ours, theirs):
    """Equal up to a nonzero rational factor."""
    q, r = sympy.div(theirs, to_sympy(canonical(ours)))
    assert r.is_zero and q.is_ground and not q.is_zero, (str(ours), theirs)


@kernel_settings
@given(polys(), polys())
def test_mul_against_sympy(f, g):
    assert_same(f * g, to_sympy(f) * to_sympy(g))


@kernel_settings
@given(polys(), polys())
def test_add_sub_against_sympy(f, g):
    assert_same(f + g, to_sympy(f) + to_sympy(g))
    assert_same(f - g, to_sympy(f) - to_sympy(g))
    assert_same(-f, -to_sympy(f))


@kernel_settings
@given(polys(), coefficients)
def test_scalar_mul_against_sympy(f, c):
    theirs = to_sympy(f) * sympy.Rational(c.numerator, c.denominator)
    assert_same(f * c, theirs)
    assert_same(c * f, theirs)


@kernel_settings
@given(polys(), nonzero_polys(), polys(max_degree=1, max_terms=2))
def test_exact_divide_against_sympy(f, g, r):
    assert_same(exact_divide(f * g, g), to_sympy(f))
    # f*g + r is divisible by g exactly when sympy's remainder is zero
    h = f * g + r
    q, rem = sympy.div(to_sympy(h), to_sympy(g))
    ours = exact_divide(h, g)
    if rem.is_zero:
        assert_same(ours, q)
    else:
        assert ours is None


# -- sum_products ---------------------------------------------------------------

triples = st.lists(st.tuples(st.sampled_from([1, -1, 2, -3]), polys(), polys()), max_size=5)


def naive_sum(chart, terms):
    total = Poly.zero(chart)
    for s, a, b in terms:
        total = total + s * (a * b)
    return total


@kernel_settings
@given(triples)
def test_sum_products_against_sympy_and_the_naive_sum(terms):
    ours = sum_products(CHART, terms)
    theirs = to_sympy(Poly.zero(CHART))
    for s, a, b in terms:
        theirs += s * to_sympy(a) * to_sympy(b)
    assert_same(ours, theirs)
    assert ours == naive_sum(CHART, terms)


def test_sum_products_edge_cases():
    x, y = Poly.var(CHART, "x"), Poly.var(CHART, "y")
    zero = Poly.zero(CHART)
    assert sum_products(CHART, []) == zero
    assert sum_products(CHART, [(1, zero, x), (-1, y, zero)]) == zero
    half, third = Fraction(1, 2), Fraction(1, 3)
    # Fraction coefficients that cancel to an int, within one product and
    # across products
    for terms in ([(1, half * x, 2 * y)], [(1, third * x, y), (2, third * x, y)]):
        assert canonical(sum_products(CHART, terms)) == x * y
    assert sum_products(CHART, [(1, half * x, y), (-1, y, half * x)]) == zero
    # mixed signs and s = 2
    assert sum_products(CHART, [(2, x, y), (-1, y, x), (-3, x, x)]) == x * y - 3 * x * x


def test_sum_products_checks_charts():
    x, x3 = Poly.var(CHART, "x"), Poly.var(CHART3, "x")
    for terms in ([(1, x, x3)], [(1, x3, x)], [(1, x, x), (-1, x3, x3)]):
        with pytest.raises(ChartMismatch):
            sum_products(CHART, terms)
    with pytest.raises(ChartMismatch):
        sum_products(CHART3, [(1, x, x)])
    # an equal chart that is a distinct object is the same chart
    assert sum_products(Chart(["x", "y"]), [(1, x, x)]) == x * x


def test_sum_products_checks_degrees_as_mul_does():
    x, y = Poly.var(CHART, "x"), Poly.var(CHART, "y")
    with rings.degree_cap(4):
        assert sum_products(CHART, [(1, x**2, y**2)]) == x**2 * y**2
        with pytest.raises(DegreeCapExceeded):
            x**3 * y**2
        with pytest.raises(DegreeCapExceeded):
            sum_products(CHART, [(1, x, y), (-1, x**3, y**2)])
    half = Poly(CHART, {(MAX_DEGREE // 2 + 1, 0): 1})
    for fn in (lambda: half * half, lambda: sum_products(CHART, [(1, half, half)])):
        with pytest.raises(DegreeCapExceeded):
            fn()


def assert_gcd(gcd, f, g):
    ours = gcd(f, g)
    assert ours.content() == 1 and ours.leading()[1] > 0
    assert_associate(ours, sympy.gcd(to_sympy(f), to_sympy(g)))


@kernel_settings
@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
def test_poly_gcd_against_sympy(a, b, c):
    assert_gcd(poly_gcd, a * c, b * c)


# the primitive remainder sequence is kept as the fallback of the heuristic
# gcd, which none of the benchmark's jobs reaches: check it on its own
@kernel_settings
@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
def test_prs_gcd_against_sympy(a, b, c):
    assert_gcd(_prs_gcd, a * c, b * c)


def fallback_cases():
    x, y, z = (Poly.var(CHART3, v) for v in CHART3.variables)
    c = x * z - Fraction(1, 3) * y + 2
    yield (x * y - 2) * c, (x + y**2) * c
    yield (y**2 * z - x) * c * c, (x * z + 1) * (y - 3) * c
    yield (x - 2) * (y * z + 1), (x - 2) * (y - z) ** 2


def test_poly_gcd_falls_back_when_heuristic_gives_up(monkeypatch):
    # no workload input makes the heuristic give up, so force it: with no
    # evaluation point allowed, every gcd goes through the PRS
    monkeypatch.setattr(rings, "HEU_GCD_MAX", 0)
    for f, g in fallback_cases():
        assert_gcd(poly_gcd, f, g)


def test_poly_gcd_falls_back_when_inner_level_gives_up(monkeypatch):
    # the top level evaluates, but every recursive call gives up: the None
    # must end the heuristic at once and the PRS must decide
    heu, prs = rings._heu_gcd, rings._prs_gcd
    inner = []  # recursive calls made by each top-level call
    fallbacks = [0]

    def heu_inner_gives_up(f, g):
        if inner and inner[-1] is not None:
            inner[-1] += 1
            return None
        inner.append(0)
        h = heu(f, g)
        inner.append(None)  # closes the top-level call
        return h

    def counted_prs(f, g):
        fallbacks[0] += 1
        return prs(f, g)

    monkeypatch.setattr(rings, "_heu_gcd", heu_inner_gives_up)
    monkeypatch.setattr(rings, "_prs_gcd", counted_prs)
    for f, g in fallback_cases():
        inner.clear()
        assert_gcd(poly_gcd, f, g)
        assert inner[0] == 1  # the first top-level call recursed once
    # (the PRS calls poly_gcd on coefficients, so more top-level calls follow)
    assert all(n is None or n <= 1 for n in inner)  # a give-up is never retried
    assert fallbacks[0] >= 3


def test_heuristic_gcd_gives_up_before_a_huge_evaluation():
    # x^(2^31 - 1) + 1 at x = xi would have billions of bits: the heuristic
    # gives up before it evaluates, and the PRS decides the gcd
    x = Poly.var(CHART, "x")
    f = x**MAX_DEGREE + 1
    df = f.diff("x")
    assert rings._heu_gcd(f, df.unit_normalized()) is None
    assert poly_gcd(f, df) == 1
    assert squarefree_part(f) == f


def nonconstant_polys3():
    return nonzero_polys(2, 4, CHART3).filter(lambda p: not p.is_constant())


@kernel_settings
@given(nonzero_polys(2, 4, CHART3), nonzero_polys(2, 4, CHART3), nonconstant_polys3())
def test_poly_gcd_three_variables_against_sympy(a, b, c):
    assert_gcd(poly_gcd, a * c, b * c)


@kernel_settings
@given(nonzero_polys(), nonzero_polys())
def test_squarefree_part_against_sympy(a, b):
    f = a * a * b
    assert_associate(squarefree_part(f), sympy.sqf_part(to_sympy(f)))


@kernel_settings
@given(nonconstant_polys3(), nonzero_polys(2, 3, CHART3))
def test_squarefree_part_three_variables_against_sympy(a, b):
    f = a * a * b
    assert_associate(squarefree_part(f), sympy.sqf_part(to_sympy(f)))


X, Y = Poly.var(CHART, "x"), Poly.var(CHART, "y")
HALF = Fraction(1, 2)
# the first trial division misses, so the loop takes a second gcd
FORCED_MISS = [X * Y, X + Y, -HALF * X]
# the weighted sum 1*p1 + 2*p2 is zero: the loop starts from p0
ZERO_SUM = [X * Y * (X + 1), (X + 1) * (Y + 3), -HALF * (X + 1) * (Y + 3)]
# p0 divides the rest: one gcd, with the weighted sum, and no miss
P0_DIVIDES = [2 * X + 2, (X + 1) * Y, (X + 1) * (X - Y), (X + 1) ** 2]
CONSTANT_GCD = [X * X - Y, X * Y + 1, Y**2, X + 3]


def gcd_lists(chart):
    """1 to 5 polynomials, zeros among them, all with a common factor."""
    return st.tuples(polys(1, 3, chart), st.lists(polys(chart=chart), min_size=1, max_size=5)).map(
        lambda t: [t[0] * p for p in t[1]]
    )


@kernel_settings
@given(st.sampled_from([CHART, CHART3]).flatmap(gcd_lists))
@example(FORCED_MISS)
@example(ZERO_SUM)
@example(P0_DIVIDES)
@example(CONSTANT_GCD)
def test_gcd_content_against_the_chain_and_sympy(ps):
    nonzero = [p for p in ps if p]
    if not nonzero:
        for gcd in (gcd_content, gcd_content_chain):
            with pytest.raises(ZeroPolynomial):
                gcd(ps)
        return
    ours = gcd_content(ps)
    assert ours == gcd_content_chain(ps)
    assert ours.content() == 1 and ours.leading()[1] > 0
    assert_associate(ours, reduce(sympy.gcd, map(to_sympy, nonzero)))


@pytest.mark.parametrize(
    "ps, want, gcds",
    [
        (FORCED_MISS, Poly.const(CHART, 1), 2),
        (ZERO_SUM, X + 1, 1),
        (P0_DIVIDES, X + 1, 1),
        (CONSTANT_GCD, Poly.const(CHART, 1), 1),
        ([2 * X, X * Y], X, 0),  # one other: a trial division, no gcd
        ([Y - 1], Y - 1, 0),
    ],
)
def test_gcd_content_takes_a_gcd_only_on_a_miss(ps, want, gcds):
    with mock.patch.object(rings, "poly_gcd", wraps=rings.poly_gcd) as spy:
        assert gcd_content(ps) == want
    assert spy.call_count == gcds


def test_poly_gcd_of_degree_five_divisor_factors():
    # gcd(a*c, b*c) == c for c a product of coordinates and a, b linear in x
    # with unit coefficient plus degree-5 parts in y, z (constant terms 1, 2),
    # the shape of the degree sweep's divisor jobs at degree 5
    x, y, z = (Poly.var(CHART3, v) for v in CHART3.variables)
    c = x * y * z
    a = x + y**5 - 2 * y**2 * z**3 + y * z + 2 * z**4 - z + 1
    b = x + 2 * y**3 * z**2 - y**4 * z + z**5 - 2 * y * z + y**2 + 2
    assert poly_gcd(a * c, b * c) == c
    assert poly_gcd(a * a * c, a * b * c) == a * c


# -- packed monomials ---------------------------------------------------------


@st.composite
def exponent_tuples(draw, n, max_degree=MAX_DEGREE):
    """Exponent tuples of total degree at most max_degree, so that single
    fields near 2^31 - 1 and spread-out degrees both occur."""
    left = draw(st.integers(0, max_degree))
    exps = []
    for _ in range(n):
        k = draw(st.integers(0, left))
        exps.append(k)
        left -= k
    return tuple(draw(st.permutations(exps)))


@kernel_settings
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(exponent_tuples(n), exponent_tuples(n))))
def test_pack_round_trips_and_orders_by_grlex(case):
    e1, e2 = case
    n = len(e1)
    chart = Chart(["x%d" % i for i in range(n)])
    m1, m2 = chart._pack(e1), chart._pack(e2)
    assert chart._unpack(m1) == e1 and chart._unpack(m2) == e2
    assert (m1 < m2) == ((sum(e1), e1) < (sum(e2), e2))
    assert (m1 == m2) == (e1 == e2)
    total = tuple(a + b for a, b in zip(e1, e2))
    if sum(total) <= MAX_DEGREE:
        assert m1 + m2 == chart._pack(total)
    else:
        with pytest.raises(DegreeCapExceeded):
            chart._pack(total)


@kernel_settings
@given(exponent_tuples(3, MAX_DEGREE // 2), exponent_tuples(3, MAX_DEGREE // 2))
def test_monomial_divisibility_by_guard_bits(e, g):
    # exact division of monomials with exponents up to 2^30: divisible
    # exactly when no field of the quotient would be negative
    f, d = Poly(CHART3, {e: 3}), Poly(CHART3, {g: 2})
    q = exact_divide(f, d)
    if all(a >= b for a, b in zip(e, g)):
        assert q == Poly(CHART3, {tuple(a - b for a, b in zip(e, g)): Fraction(3, 2)})
    else:
        assert q is None


@st.composite
def one_field_short(draw, chart=CHART3):
    """(f, g) where the leading monomial of f has exactly one exponent below
    that of g's leading monomial and every other one at or above it."""
    g = draw(nonzero_polys(2, 4, chart).filter(lambda p: not p.is_constant()))
    a = draw(polys(1, 3, chart))
    ge = g.leading()[0]
    j = draw(st.sampled_from([i for i, k in enumerate(ge) if k]))
    k = draw(st.sampled_from([i for i in range(len(ge)) if i != j]))
    te = [e + draw(st.integers(0, 1)) for e in ge]
    te[j] = draw(st.integers(0, ge[j] - 1))
    te[k] += max(a.total_degree(), 0) + 1 + ge[j] - te[j]  # t leads a*g + t
    return a * g + Poly(chart, {tuple(te): draw(coefficients.filter(bool))}), g


@kernel_settings
@given(one_field_short())
def test_exact_divide_one_field_short_against_sympy(case):
    f, g = case
    _, rem = sympy.div(to_sympy(f), to_sympy(g))
    assert not rem.is_zero
    assert exact_divide(f, g) is None


@kernel_settings
@given(polys(3, 5, CHART3), nonzero_polys(2, 4, CHART3))
def test_exact_divide_recovers_the_cofactor(a, g):
    f = a * g
    q = exact_divide(f, g)
    assert q is not None and q * g == f
    assert_same(q, to_sympy(a))
