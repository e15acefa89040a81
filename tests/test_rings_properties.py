"""Property tests of the rings kernels against sympy, with coefficients drawn
from integers and from non-integral rationals, so both the int and the
Fraction paths of every kernel run.  Every result must keep the stored
coefficient invariant: an int, or a Fraction with denominator > 1."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from divkit.rings import (  # noqa: E402
    Chart,
    Poly,
    exact_divide,
    poly_gcd,
    squarefree_part,
)

CHART = Chart(["x", "y"])
GENS = sympy.symbols("x y")

coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(2, 5)),
)


def polys(max_degree=2, max_terms=4):
    exponents = st.tuples(*(st.integers(0, max_degree) for _ in CHART.variables))
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Poly(CHART, terms)
    )


def nonzero_polys(max_degree=2, max_terms=4):
    return polys(max_degree, max_terms).filter(lambda p: not p.is_zero())


kernel_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    return p


def to_sympy(p):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, *GENS, domain="QQ")


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


@kernel_settings
@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
def test_poly_gcd_against_sympy(a, b, c):
    f, g = a * c, b * c
    ours = poly_gcd(f, g)
    assert ours.content() == 1 and ours.leading()[1] > 0
    assert_associate(ours, sympy.gcd(to_sympy(f), to_sympy(g)))


# the primitive remainder sequence grows quickly with degree: keep f small
@kernel_settings
@given(nonzero_polys(1, 3), nonzero_polys(1, 3))
def test_squarefree_part_against_sympy(a, b):
    f = a * a * b
    assert_associate(squarefree_part(f), sympy.sqf_part(to_sympy(f)))
