from unittest import mock

import pytest

from divkit import divisors
from divkit.rings import Chart, Poly, squarefree_part
from divkit.multivector import Multivector
from divkit.divisors import (
    DivisorClass,
    ZeroGenerator,
    classify,
    divides_ideal,
    make_ideal,
    preserves,
    product,
)

from conftest import classify_taking_every_squarefree_part, rand_vector

C2 = Chart(["x", "y"])
X, Y = Poly.var(C2, "x"), Poly.var(C2, "y")
W = X * (X * X + Y * Y)


def test_make_ideal_examples():
    assert str(make_ideal(X)) == "<x>"
    assert make_ideal(2 * X * X + 2 * Y * Y) == make_ideal(X * X + Y * Y)
    with pytest.raises(ZeroGenerator):
        make_ideal(Poly.zero(C2))


def test_product_and_divides():
    assert product(make_ideal(X), make_ideal(X * X + Y * Y)) == make_ideal(W)
    assert divides_ideal(make_ideal(X), make_ideal(W))
    assert not divides_ideal(make_ideal(X * X + Y * Y), make_ideal(X))


def test_divides_product_always(rng):
    from conftest import rand_poly

    for _ in range(20):
        i = make_ideal(rand_poly(C2, rng, zero_ok=False))
        j = make_ideal(rand_poly(C2, rng, zero_ok=False))
        assert divides_ideal(i, product(i, j))


def test_radical():
    assert make_ideal(squarefree_part(X * X)) == make_ideal(X)
    assert make_ideal(squarefree_part(X**3)) == make_ideal(X)
    assert make_ideal(squarefree_part(W)) == make_ideal(W)
    # idempotent
    for gen in (X * X, W, X**3 * Y**2):
        r = make_ideal(squarefree_part(gen))
        assert make_ideal(squarefree_part(r.generator)) == r


def test_classify_catalog():
    assert classify(make_ideal(X)) == DivisorClass(DivisorClass.LOG)
    assert classify(make_ideal(X * X + Y * Y)) == DivisorClass(DivisorClass.ELLIPTIC)
    assert classify(make_ideal(W)) == DivisorClass(DivisorClass.ELLIPTIC_LOG)
    assert classify(make_ideal(X**4)) == DivisorClass(DivisorClass.BPOWER, 4)
    assert classify(make_ideal(Poly.const(C2, 5))) == DivisorClass(DivisorClass.TRIVIAL)
    c3 = Chart(["x", "y", "z"])
    gen = Poly.var(c3, "x") * Poly.var(c3, "y") * Poly.var(c3, "z")
    assert classify(make_ideal(gen)) == DivisorClass(DivisorClass.NC_LOG, 3)


def test_classify_anisotropic_elliptic_and_candidates():
    assert classify(make_ideal(X * X + 2 * Y * Y)) == DivisorClass(DivisorClass.ELLIPTIC)
    # x^2 - y^2 is hyperbolic, not elliptic: unclassified
    assert classify(make_ideal(X * X - Y * Y)) == DivisorClass(DivisorClass.UNCLASSIFIED)
    # a shifted linear factor is found only as the whole residual
    gen = (X + Y) * (X * X + Y * Y)
    assert classify(make_ideal(gen)) == DivisorClass(DivisorClass.UNCLASSIFIED)
    # x + 1 is the residual after x; parallel gradients: no normal crossing
    got = classify(make_ideal(X * (X + 1)))
    assert got == DivisorClass(DivisorClass.PRODUCT, [DivisorClass.LOG, DivisorClass.LOG])
    assert str(got) == "Product(Log, Log)"


def test_classify_products(rng):
    c3 = Chart(["x", "y", "z"])
    x, y, z = (Poly.var(c3, v) for v in "xyz")
    atoms = [x, y, z, x * x + y * y]
    for _ in range(20):
        picks = [atoms[rng.randrange(len(atoms))] for _ in range(rng.randint(1, 3))]
        gen = Poly.const(c3, 1)
        for p in picks:
            gen = gen * p
        tag = classify(make_ideal(gen))
        n_lin = sum(1 for p in picks if p.total_degree() == 1)
        n_ell = len(picks) - n_lin
        distinct_lin = len({str(p) for p in picks if p.total_degree() == 1})
        if n_ell == 0:
            if n_lin == 1:
                assert tag == DivisorClass(DivisorClass.LOG)
            elif distinct_lin == n_lin:
                assert tag == DivisorClass(DivisorClass.NC_LOG, n_lin)
            elif distinct_lin == 1:
                assert tag == DivisorClass(DivisorClass.BPOWER, n_lin)
            else:
                assert tag.tag == DivisorClass.PRODUCT
        elif n_ell == 1 and n_lin == 0:
            assert tag == DivisorClass(DivisorClass.ELLIPTIC)
        elif n_ell == 1 and n_lin == 1:
            # x or y vanish on {x=y=0}: elliptic-log; z does not: product
            lin = [p for p in picks if p.total_degree() == 1][0]
            if str(lin) in ("x", "y"):
                assert tag == DivisorClass(DivisorClass.ELLIPTIC_LOG)
            else:
                assert tag.tag == DivisorClass.PRODUCT
        else:
            assert tag.tag == DivisorClass.PRODUCT


C3 = Chart(["x", "y", "z"])
X3, Y3, Z3 = (Poly.var(C3, v) for v in "xyz")
Q = X * X + X * Y + Y * Y  # positive definite


@pytest.mark.parametrize(
    "gen, takes_part",
    [
        # c*q^k for an elliptic q: the one shape whose radical can be an atom
        (3 * Q**2, True),
        (Q**3, True),
        (Q * (X * X + 2 * Y * Y), True),  # the shape, but not c*q^k
        # odd degree, and not homogeneous
        (Q * (X + Y), False),
        (Q * (Q + 1), False),
        (Q**2 + X * Y * Y, False),
        # homogeneous of even degree in three variables
        ((X3 * X3 + Y3 * Y3) * (X3 * X3 + Z3 * Z3), False),
        ((X3 * X3 + Y3 * Y3) ** 2 * (Y3 * Y3 + Z3 * Z3), False),
        (Q**2 * (X + Y + 1), False),
    ],
    # the ids the cases had when each also named its candidate atoms (None)
    ids=["gen0-None-True", "gen1-None-True", "gen2-None-True", "gen3-None-False", "gen4-None-False",
         "gen5-None-False", "gen6-None-False", "gen7-None-False", "gen9-None-False"],
)
def test_classify_takes_a_squarefree_part_only_where_it_can_be_elliptic(gen, takes_part):
    ideal = make_ideal(gen)
    with mock.patch.object(divisors, "squarefree_part", wraps=divisors.squarefree_part) as spy:
        got = classify(ideal)
    assert spy.called == takes_part
    assert got == classify_taking_every_squarefree_part(ideal)


def test_classify_matches_the_reference_on_random_products(rng):
    from conftest import rand_poly

    atoms = [X3, Y3, Z3, X3 + Y3 + 1, X3 * X3 + Y3 * Y3, 2 * Y3 * Y3 + Y3 * Z3 + Z3 * Z3]
    others = [X3 * X3 - Y3 * Y3, Y3 * Y3 + 1, X3 * Y3 + Z3]
    for _ in range(60):
        gen = Poly.const(C3, rng.randint(1, 5))
        for _ in range(rng.randint(1, 3)):
            gen = gen * rng.choice(atoms + others) ** rng.randint(1, 3)
        if rng.random() < 0.3:
            gen = gen * rand_poly(C3, rng, zero_ok=False)
        ideal = make_ideal(gen)
        assert classify(ideal) == classify_taking_every_squarefree_part(ideal), gen


def test_preserves_examples():
    ok, cert = preserves(X * Multivector.basis_vector(C2, 0) + Y * Multivector.basis_vector(C2, 1), make_ideal(W))
    assert ok and cert == Poly.const(C2, 3)
    ok, cert = preserves(X * (Y * Multivector.basis_vector(C2, 0) - X * Multivector.basis_vector(C2, 1)), make_ideal(W))
    assert ok and cert == Y
    ok, _ = preserves(Multivector.basis_vector(C2, 0), make_ideal(X))
    assert not ok
    ok, cert = preserves(X * Multivector.basis_vector(C2, 0), make_ideal(X * X))
    assert ok and cert == Poly.const(C2, 2)


def test_preserves_radical_insensitive(rng):
    # preserves(v, I) iff preserves(v, radical(I)) for principal powers
    for _ in range(25):
        v = rand_vector(C2, rng)
        flags = set()
        for k in (1, 2, 5):
            ok, _ = preserves(v, make_ideal(X**k))
            flags.add(ok)
        assert len(flags) == 1
    # and for a non-monomial generator
    for _ in range(10):
        v = rand_vector(C2, rng)
        ok1, _ = preserves(v, make_ideal(W))
        ok2, _ = preserves(v, make_ideal(squarefree_part(W * W)))
        okp, _ = preserves(v, make_ideal(W * W))
        assert ok1 == ok2 == okp
