"""Independent-oracle cross-checks: sympy recomputes the differential,
determinant and gcd answers along a completely separate code path."""

import itertools
import random

import pytest

from divkit.rings import Chart, Poly
from divkit.multivector import DiffForm, exterior_derivative
from divkit.frames import (
    CoframeForm,
    algebroid_d,
    catalog,
    mat_mul,
    poly_adjugate,
    poly_det,
)

from conftest import adjugate_and_det, rand_poly, rand_sparse_poly

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def to_sympy(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        expr += term
    return expr


def sympy_exterior_derivative(comp_exprs, chart, syms):
    """d of a form given as {idx: sympy expr}; returns the same encoding."""
    out = {}
    for idx, expr in comp_exprs.items():
        for i, s in enumerate(syms):
            d = sympy.diff(expr, s)
            if d == 0 or i in idx:
                continue
            pos = sum(1 for j in idx if j < i)
            sign = -1 if pos % 2 else 1
            key = tuple(sorted(idx + (i,)))
            out[key] = out.get(key, sympy.Integer(0)) + sign * d
    return {k: sympy.simplify(v) for k, v in out.items() if sympy.simplify(v) != 0}


def sympy_pushdown(form, syms):
    """A coframe form as an ordinary form {idx: sympy expr}.  With R the
    frame's generator matrix, inverted by sympy, the coframe is
    e^i = sum_j (R^-1)[i][j] dx_j, so e^I = sum_J det(R^-1 on I x J) dx_J."""
    n = form.frame.chart.dimension
    inv = sympy.Matrix([[to_sympy(c, syms) for c in row] for row in form.frame.matrix()]).inv()
    out = {}
    for idx, c in form.comps.items():
        f = to_sympy(c, syms)
        for cols in itertools.combinations(range(n), form.degree):
            minor = inv.extract(list(idx), list(cols)).det() if idx else 1
            out[cols] = out.get(cols, sympy.Integer(0)) + f * minor
    return out


def sparse_comps(chart, rng, deg):
    """Form components that are absent, constant, or in one or two of the
    chart's variables: most of their partial derivatives are zero."""
    comps = {}
    for idx in itertools.combinations(range(chart.dimension), deg):
        c = rand_sparse_poly(chart, rng)
        if c is not None:
            comps[idx] = c
    return comps


def test_exterior_derivative_against_sympy(rng):
    chart = Chart(["x", "y", "z"])
    syms = sympy.symbols("x y z")
    rng2, sparse_rng = random.Random(17), random.Random(18)
    for deg in (0, 1, 2):
        for trial in range(16):
            if trial < 8:
                comps = {
                    idx: rand_poly(chart, rng2, max_degree=3)
                    for idx in itertools.combinations(range(3), deg)
                }
            else:
                comps = sparse_comps(chart, sparse_rng, deg)
            got = exterior_derivative(DiffForm(chart, deg, comps))
            expected = sympy_exterior_derivative(
                {i: to_sympy(c, syms) for i, c in comps.items()}, chart, syms
            )
            ours = {i: to_sympy(c, syms) for i, c in got.comps.items()}
            assert set(ours) == set(expected), (deg, ours, expected)
            for k in ours:
                assert sympy.expand(ours[k] - expected[k]) == 0


def test_algebroid_d_against_sympy_pushdown(rng):
    # d_A of a coframe form agrees with the smooth d of its pushed-down form
    chart = Chart(["x", "y", "u"])
    syms = sympy.symbols("x y u")
    rng2, sparse_rng = random.Random(23), random.Random(24)
    for frame in (
        catalog("log", chart, "x"),
        catalog("elliptic", chart, "x", "y"),
        catalog("elliptic_log", chart, "x", "y"),
    ):
        for deg in (0, 1, 2):
            for trial in range(8):
                if trial < 4:
                    comps = {
                        idx: rand_poly(chart, rng2, max_degree=2)
                        for idx in itertools.combinations(range(3), deg)
                    }
                else:
                    comps = sparse_comps(chart, sparse_rng, deg)
                w = CoframeForm(frame, deg, comps)
                lhs = sympy_pushdown(algebroid_d(w), syms)
                rhs = sympy_exterior_derivative(sympy_pushdown(w, syms), chart, syms)
                for k in set(lhs) | set(rhs):
                    diff = lhs.get(k, 0) - rhs.get(k, 0)
                    assert sympy.cancel(diff) == 0, (frame.label, deg, k)


def random_matrix(chart, rng, n, density):
    """Nonzero diagonal; off the diagonal each entry is nonzero with
    probability `density`.  Dense entries are linear, sparse ones quadratic."""
    zero = Poly.zero(chart)
    deg = 1 if density == 1 else 2
    return [
        [
            rand_poly(chart, rng, max_degree=deg, zero_ok=i != j)
            if i == j or rng.random() < density
            else zero
            for j in range(n)
        ]
        for i in range(n)
    ]


def test_det_and_adjugate_against_sympy():
    chart = Chart(["x", "y"])
    syms = sympy.symbols("x y")
    ring = sympy.QQ[syms]
    zero = Poly.zero(chart)

    def element(p):
        terms = {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
        return ring.ring.from_dict(terms)

    def domain_matrix(m):
        return DomainMatrix([[element(c) for c in row] for row in m], (len(m), len(m)), ring)

    rng2 = random.Random(41)
    for n in range(1, 7):
        for density in (0.3, 1):
            m = random_matrix(chart, rng2, n, density)
            det, adj = poly_det(m), poly_adjugate(m)
            assert element(det) == domain_matrix(m).det(), (n, density)
            # the elimination's determinant agrees with the adjugate's first column
            assert adjugate_and_det(m) == (adj, det), (n, density)
            scalar = [[det if i == j else zero for j in range(n)] for i in range(n)]
            assert mat_mul(m, adj) == scalar, (n, density)
    # singular: the last row is a polynomial combination of the first two,
    # and m * adj = 0 does not pin adj down, so compare it entrywise
    m = random_matrix(chart, rng2, 4, 1)
    m[3] = [Poly.var(chart, "x") * a + b for a, b in zip(m[0], m[1])]
    assert poly_det(m).is_zero() and adjugate_and_det(m)[1].is_zero()
    adj, expected = poly_adjugate(m), domain_matrix(m).adjugate()
    assert any(not c.is_zero() for row in adj for c in row)
    assert [[element(c) for c in row] for row in adj] == expected.to_list()


def test_lift_against_sympy_matrices(rng):
    # solve pi = rho pi_A rho^T with sympy over the fraction field and
    # compare with the adjugate/exact-division path
    from divkit.frames import catalog
    from divkit.multivector import bivector_matrix
    from divkit.poisson import NotLiftable, lift
    from divkit.multivector import Multivector

    rng2 = random.Random(31)
    chart = Chart(["x", "y", "u"])
    syms = sympy.symbols("x y u")
    frames = [
        catalog("log", chart, "x"),
        catalog("elliptic", chart, "x", "y"),
        catalog("elliptic_log", chart, "x", "y"),
        catalog("scattering", chart, "x"),
    ]
    for frame in frames:
        r = sympy.Matrix(
            [[to_sympy(frame.matrix()[i][j], syms) for j in range(3)] for i in range(3)]
        )
        for _ in range(6):
            comps = {}
            for i in range(3):
                for j in range(i + 1, 3):
                    comps[(i, j)] = rand_poly(chart, rng2, max_degree=2, terms=2)
            pi = Multivector(chart, 2, comps)
            m = sympy.Matrix(
                [[to_sympy(c, syms) for c in row] for row in bivector_matrix(pi)]
            )
            solved = sympy.simplify(r.inv() * m * r.inv().T)
            entries_poly = all(
                sympy.simplify(sympy.together(solved[i, j])).is_polynomial(*syms)
                for i in range(3)
                for j in range(3)
            )
            try:
                cert = lift(pi, frame)
            except NotLiftable:
                assert not entries_poly, (frame.label, str(pi))
                continue
            assert entries_poly, (frame.label, str(pi))
            got = sympy.Matrix(
                [
                    [to_sympy(c, syms) for c in row]
                    for row in bivector_matrix(cert.lifted)
                ]
            )
            assert sympy.simplify(got - solved) == sympy.zeros(3, 3)
