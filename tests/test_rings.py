import random
from fractions import Fraction

import pytest

from divkit.rings import (
    MAX_DEGREE,
    Chart,
    DegreeCapExceeded,
    Poly,
    UnknownVariable,
    ZeroPolynomial,
    degree_cap,
    exact_divide,
    fraction_str,
    gcd_content,
    poly_gcd,
    squarefree_part,
)

from conftest import rand_poly

C2 = Chart(["x", "y"])
X = Poly.var(C2, "x")
Y = Poly.var(C2, "y")
W = X * (X * X + Y * Y)


def test_partial_derivative_examples():
    assert W.diff("x") == 3 * X * X + Y * Y
    assert X.diff("y") == Poly.zero(C2)
    assert (X**3).diff("x") == 3 * X * X
    with pytest.raises(UnknownVariable):
        X.diff("t")


def test_partials_commute(rng):
    for _ in range(30):
        p = rand_poly(C2, rng, max_degree=4, terms=5)
        assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_exact_divide_examples():
    assert exact_divide(W, X * X + Y * Y) == X
    assert exact_divide(X * X, X) == X
    assert exact_divide(X * X + Y * Y, X) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, Poly.zero(C2))


def test_order_in_is_the_largest_dividing_power():
    f = X**3 * Y + X**2 * Y**4
    assert (f.order_in("x"), f.order_in("y")) == (2, 1)
    assert exact_divide(f, X**2 * Y) is not None
    assert exact_divide(f, X**3) is None and exact_divide(f, Y**2) is None
    assert (X + 1).order_in("x") == 0


def test_exact_divide_round_trip(rng):
    for _ in range(60):
        f = rand_poly(C2, rng, max_degree=3, terms=4)
        g = rand_poly(C2, rng, max_degree=3, terms=3, zero_ok=False)
        assert exact_divide(f * g, g) == f


def test_squarefree_examples():
    assert squarefree_part(X * X) == X
    assert squarefree_part(W) == W
    assert squarefree_part(X**3 * Y**2) == X * Y
    with pytest.raises(ZeroPolynomial):
        squarefree_part(Poly.zero(C2))


def test_squarefree_power_insensitive(rng):
    for _ in range(15):
        f = rand_poly(C2, rng, max_degree=2, terms=3, zero_ok=False)
        s = squarefree_part(f)
        for k in (2, 3):
            assert squarefree_part(f**k) == s


def test_gcd_examples():
    assert gcd_content([X * X, X * Y]) == X
    assert gcd_content([W, X**3 + X * Y * Y]) == W
    assert gcd_content([X, Poly.const(C2, 1)]) == Poly.const(C2, 1)
    with pytest.raises(ZeroPolynomial):
        gcd_content([Poly.zero(C2)])


def test_gcd_divides_both(rng):
    c3 = Chart(["x", "y", "z"])
    for _ in range(25):
        f = rand_poly(c3, rng, terms=3, zero_ok=False)
        g = rand_poly(c3, rng, terms=3, zero_ok=False)
        d = poly_gcd(f, g)
        assert exact_divide(f, d) is not None
        assert exact_divide(g, d) is not None


def test_gcd_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x y z")
    c3 = Chart(["x", "y", "z"])

    def to_sympy(p):
        expr = sympy.Integer(0)
        for e, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for s, k in zip(xs, e):
                term *= s**k
            expr += term
        return sympy.expand(expr)

    rng2 = random.Random(99)
    for _ in range(20):
        common = rand_poly(c3, rng2, terms=2, zero_ok=False)
        f = rand_poly(c3, rng2, terms=2, zero_ok=False) * common
        g = rand_poly(c3, rng2, terms=2, zero_ok=False) * common
        ours = poly_gcd(f, g)
        theirs = sympy.gcd(to_sympy(f), to_sympy(g))
        # both normalized: compare up to a rational unit by dividing
        q = sympy.simplify(to_sympy(ours) / theirs)
        assert q.is_Rational and q != 0, (str(ours), theirs)

    # squarefree part against sympy's radical computation
    for _ in range(10):
        f = rand_poly(c3, rng2, terms=2, zero_ok=False) ** 2 * rand_poly(
            c3, rng2, terms=2, zero_ok=False
        )
        ours = squarefree_part(f)
        theirs = sympy.prod([b for b, _ in sympy.factor_list(to_sympy(f))[1]])
        q = sympy.simplify(to_sympy(ours) / sympy.expand(theirs))
        assert q.is_Rational and q != 0


def test_normalization():
    p = 2 * X * X + 2 * Y * Y
    assert p.unit_normalized() == X * X + Y * Y
    assert (-X).unit_normalized() == X
    assert (Fraction(1, 2) * X * Y).unit_normalized() == X * Y


def test_poly_str_canonical():
    assert str(W) == "x^3 + x*y^2"
    assert str(-2 * X + Y**2) == "y^2 - 2*x"
    assert str(Poly.zero(C2)) == "0"
    assert str(Poly.const(C2, Fraction(-3, 2))) == "-3/2"


def test_fraction_str_cancels_and_normalizes():
    # whole factors of the normalized denominator cancel
    assert fraction_str(X * X * Y, X) == "x*y"
    assert fraction_str(Y, X) == "(y)/(x)"
    assert fraction_str(X * Y, X, 2) == "(y)/(x)"
    assert fraction_str(Y, X, 2) == "(y)/(x)^2"
    assert fraction_str(Poly.zero(C2), X, 2) == "0"
    # the denominator's unit moves into the numerator: 1/(2x), -1/x, y/(4x^2)
    assert fraction_str(Poly.const(C2, 1), 2 * X) == "(1/2)/(x)"
    assert fraction_str(Poly.const(C2, 1), -X) == "(-1)/(x)"
    assert fraction_str(Y, -2 * X, 2) == "(1/4*y)/(x)^2"
    # a factor the numerator shares with g (or g^k) cancels too: lowest terms
    assert fraction_str(X + Y, -3 * (X + Y) * Y) == "(-1/3)/(y)"
    assert fraction_str(X, X * Y) == "(1)/(y)"
    assert fraction_str(X * (X + 1), X * Y * (X + 1), 2) == "(1)/(x^2*y^2 + x*y^2)"
    assert fraction_str(X * X, X * Y, 2) == "(1)/(y^2)"


def test_degree_limit_is_an_error():
    # a monomial holds total degree up to 2^31 - 1; past it a power or a
    # product raises before it multiplies, so no field carries into the next
    top = X**MAX_DEGREE
    assert top.total_degree() == MAX_DEGREE and str(top) == "x^2147483647"
    assert exact_divide(top, X**(MAX_DEGREE - 1)) == X
    with pytest.raises(DegreeCapExceeded):
        X ** 2**31
    with pytest.raises(DegreeCapExceeded):
        top * Y
    with pytest.raises(DegreeCapExceeded):
        X**2**30 * Y**2**30
    with pytest.raises(DegreeCapExceeded):
        Poly(C2, {(2**31, 0): 1})
    assert (top * 0).is_zero() and (top**0) == 1


def test_degree_cap_is_scoped_to_its_block():
    # the outer cap is back after a nested block, also after one that raises
    with degree_cap(4):
        with degree_cap(None):
            assert X**9 == X * X**8
        with pytest.raises(DegreeCapExceeded, match="DK_MAX_DEGREE=4"):
            X**5
        with pytest.raises(ZeroDivisionError):
            with degree_cap(8):
                X**8
                1 / 0
        with pytest.raises(DegreeCapExceeded, match="DK_MAX_DEGREE=4"):
            X**5
        assert (X * Y) ** 2 == X**2 * Y**2
    assert X**9 == X * X**8


def test_term_view_reads_exponent_tuples():
    p = 3 * X**2 * Y - Fraction(1, 2)
    assert dict(p.terms) == {(2, 1): 3, (0, 0): Fraction(-1, 2)}
    assert p.terms[(2, 1)] == 3 and (1, 1) not in p.terms and len(p.terms) == 2
    assert p.coeff((2, 1)) == 3 and p.coeff((5, 0)) == 0
    assert p.leading() == ((2, 1), 3)
    assert (X * Y + Y * Y).is_homogeneous() and not p.is_homogeneous()


def test_chart_without_variables():
    # the chart of a point: every polynomial on it is a constant
    pt = Chart([])
    three = Poly.const(pt, 3)
    assert pt.dimension == 0 and three.is_constant() and three.total_degree() == 0
    assert three == Poly(pt, {(): 3}) and str(three * three - 1) == "8"
    assert exact_divide(Poly.const(pt, 6), three) == 2
    assert three.evaluate(()) == 3 and three.variables_used() == set()
    assert three.unit_normalized() == 1 and Chart(()).subchart(()) == pt
