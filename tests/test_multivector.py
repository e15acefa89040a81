import math
import random
from fractions import Fraction

import pytest

from divkit.rings import Chart, Poly
from divkit.multivector import (
    DegreeMismatch,
    DiffForm,
    Multivector,
    bivector_matrix,
    exterior_derivative,
    interior_product,
    lie_derivative,
    partial_pfaffian,
    schouten_bracket,
)
from divkit.frames import BadParams, CoframeForm, catalog
from divkit.dsl import CoframeExpr

from conftest import (
    adjugate_and_det,
    jacobiator_reference,
    rand_multivector,
    rand_poly,
    rand_sparse_bivector,
    rand_vector,
    ref_pairing,
)

C2 = Chart(["x", "y"])
X, Y = Poly.var(C2, "x"), Poly.var(C2, "y")
DX, DY = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)

C4 = Chart(["x", "y", "z", "w"])
X4 = Poly.var(C4, "x")
D4 = [Multivector.basis_vector(C4, i) for i in range(4)]


def brute_lie_bracket(a, b):
    """Independent coordinate-formula oracle for the vector-field bracket."""
    chart = a.chart
    ac, bc = a.vector_coeffs(), b.vector_coeffs()
    out = []
    for j in range(chart.dimension):
        s = Poly.zero(chart)
        for i in range(chart.dimension):
            s = s + ac[i] * bc[j].diff(chart.variables[i])
            s = s - bc[i] * ac[j].diff(chart.variables[i])
        out.append(s)
    return Multivector.vector(chart, out)


def test_wedge_examples():
    euler = X * DX + Y * DY
    rot = X * DY - Y * DX
    assert euler.wedge(rot) == (X * X + Y * Y) * DX.wedge(DY)
    # the paper's elliptic-log display has w*Dx^^Dy up to sign; exactly:
    swirl = X * (Y * DX - X * DY)
    assert euler.wedge(swirl) == -(X * (X * X + Y * Y)) * DX.wedge(DY)
    assert DX.wedge(DX).is_zero()


C3 = Chart(["x", "y", "z"])
LOG3 = catalog("log", C3, "x")


@pytest.mark.parametrize(
    "make",
    [Multivector, DiffForm, lambda chart, p, comps: CoframeForm(LOG3, p, comps), CoframeExpr],
    ids=["Multivector", "DiffForm", "CoframeForm", "CoframeExpr"],
)
def test_wedge_graded_commutative(rng, make):
    for p in (1, 2):
        for q in (1, 2):
            a = make(C3, p, rand_multivector(C3, rng, p).comps)
            b = make(C3, q, rand_multivector(C3, rng, q).comps)
            lhs = a.wedge(b)
            rhs = b.wedge(a)
            if (p * q) % 2 == 1:
                rhs = -rhs
            assert type(lhs) is type(a) and lhs.degree == min(p + q, 3)
            assert lhs == rhs


def test_schouten_examples():
    assert schouten_bracket(DX, X * DY) == DY
    pi = (X4 * D4[0]).wedge(D4[1]) + D4[2].wedge(D4[3]) + D4[0].wedge(D4[3])
    jac = schouten_bracket(pi, pi)
    # nonzero, proportional to Dx^^Dy^^Dw; the scalar -2 is this engine's
    # normalization of the decomposable expansion
    assert jac == -2 * D4[0].wedge(D4[1]).wedge(D4[3])
    f = rand_poly(C2, random.Random(3), max_degree=3)
    pi2 = f * DX.wedge(DY)
    assert schouten_bracket(pi2, pi2).is_zero()


def test_jacobiator_reference_convention():
    chart = Chart(["x", "y", "z"])
    x, z = Poly.var(chart, "x"), Poly.var(chart, "z")
    pi = Multivector(chart, 2, {(0, 1): x, (1, 2): 1, (0, 2): z})
    want = "(-2*z - 2)*Dx^^Dy^^Dz"
    assert str(Multivector(chart, 3, jacobiator_reference(pi))) == want
    assert str(schouten_bracket(pi, pi)) == want


@pytest.mark.parametrize("n", range(2, 8))
def test_schouten_self_bracket_against_reference_jacobiator_on_sparse_bivectors(n):
    # components in one or two variables, constants or absent: most
    # derivatives in the contraction are zero and are never taken
    chart = Chart(["x%d" % i for i in range(n)])
    rng = random.Random(100 + n)
    for _ in range(12):
        pi = rand_sparse_bivector(chart, rng)
        want = jacobiator_reference(pi)
        assert schouten_bracket(pi, pi).comps == want, pi
        copy = Multivector(chart, 2, dict(pi.comps))
        assert schouten_bracket(pi, copy).comps == want, pi


def test_schouten_vector_fields_against_oracle(rng):
    c3 = Chart(["x", "y", "z"])
    for _ in range(50):
        a = rand_vector(c3, rng)
        b = rand_vector(c3, rng)
        assert schouten_bracket(a, b) == brute_lie_bracket(a, b)


def _sign(k):
    return -1 if k % 2 else 1


def _wedge_all(chart, fields):
    out = Multivector.function(Poly.const(chart, 1))
    for f in fields:
        out = out.wedge(f)
    return out


def test_schouten_matches_decomposable_expansion(rng):
    # independent reference: brackets of decomposable multivectors expanded
    # into Lie brackets (brute_lie_bracket) and derivatives of their factors
    c5 = Chart(["x", "y", "z", "u", "v"])
    for p in range(1, 4):
        xs = [rand_vector(c5, rng, max_degree=1) for _ in range(p)]
        big_x = _wedge_all(c5, xs)
        g = rand_poly(c5, rng, max_degree=2, zero_ok=False)
        # [X1^...^Xp, g] = sum_i (-1)^(p-i) Xi(g) X1^..^Xi-hat^..^Xp, i from 1
        want = Multivector.zero(c5, p - 1)
        for i in range(p):
            rest = _wedge_all(c5, xs[:i] + xs[i + 1 :])
            want = want + rest.scale(xs[i].apply_to(g) * _sign(p - 1 - i))
        assert schouten_bracket(big_x, Multivector.function(g)) == want, p
        for q in range(1, 4):
            ys = [rand_vector(c5, rng, max_degree=1) for _ in range(q)]
            want = Multivector.zero(c5, p + q - 1)
            for i in range(p):
                for j in range(q):
                    factors = xs[:i] + xs[i + 1 :] + ys[:j] + ys[j + 1 :]
                    term = _wedge_all(c5, [brute_lie_bracket(xs[i], ys[j])] + factors)
                    want = want + term.scale(_sign(i + j))
            got = schouten_bracket(big_x, _wedge_all(c5, ys))
            assert got == want, (p, q)
            assert not got.is_zero(), (p, q)


def test_schouten_graded_antisymmetry(rng):
    c3 = Chart(["x", "y", "z"])
    for _ in range(25):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a = rand_multivector(c3, rng, p, max_degree=2)
        b = rand_multivector(c3, rng, q, max_degree=2)
        lhs = schouten_bracket(a, b)
        rhs = schouten_bracket(b, a).scale(-_sign((p - 1) * (q - 1)))
        assert lhs == rhs, (p, q)


def test_schouten_self_bracket_matches_a_distinct_copy(rng):
    # schouten_bracket(a, a) doubles one contraction for even degree and is 0
    # without contracting for odd degree; an equal but distinct copy takes
    # the general path of two contractions
    nonzero = 0
    for n in range(2, 6):
        chart = Chart(["x%d" % i for i in range(n)])
        for p in range(0, min(3, n) + 1):
            for _ in range(3):
                a = rand_multivector(chart, rng, p, max_degree=2)
                b = Multivector(chart, p, dict(a.comps))
                assert b is not a and b == a
                got, want = schouten_bracket(a, a), schouten_bracket(a, b)
                assert got == want and got.degree == want.degree, (n, p)
                if p % 2:
                    assert got.is_zero(), (n, p)
                nonzero += not got.is_zero()
    assert nonzero


def test_schouten_graded_jacobi(rng):
    c3 = Chart(["x", "y", "z"])
    for _ in range(12):
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        a = rand_multivector(c3, rng, p, max_degree=1, density=0.5)
        b = rand_multivector(c3, rng, q, max_degree=1, density=0.5)
        c = rand_multivector(c3, rng, r, max_degree=1, density=0.5)
        lhs = schouten_bracket(a, schouten_bracket(b, c))
        rhs = schouten_bracket(schouten_bracket(a, b), c) + schouten_bracket(
            b, schouten_bracket(a, c)
        ).scale(_sign((p - 1) * (q - 1)))
        assert lhs == rhs, (p, q, r)


def test_schouten_leibniz(rng):
    c3 = Chart(["x", "y", "z"])
    for _ in range(20):
        p, q, r = rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 2)
        a = rand_multivector(c3, rng, p, max_degree=2, density=0.6)
        b = rand_multivector(c3, rng, q, max_degree=2, density=0.6)
        c = rand_multivector(c3, rng, r, max_degree=2, density=0.6)
        lhs = schouten_bracket(a, b.wedge(c))
        rhs = schouten_bracket(a, b).wedge(c) + b.wedge(schouten_bracket(a, c)).scale(
            _sign((p - 1) * q)
        )
        assert lhs == rhs, (p, q, r)


def test_lie_derivative_examples():
    w = X * (X * X + Y * Y)
    assert lie_derivative(X * DX + Y * DY, w) == 3 * w
    assert lie_derivative(X * (Y * DX - X * DY), w) == Y * w
    assert lie_derivative(DX, DiffForm(C2, 1, {(0,): 1})).is_zero()


def test_partial_pfaffian_examples():
    pi = (X4 * D4[0]).wedge(D4[1]) + D4[2].wedge(D4[3]) + D4[0].wedge(D4[3])
    top = D4[0].wedge(D4[1]).wedge(D4[2]).wedge(D4[3])
    assert partial_pfaffian(pi, 2) == X4 * top
    assert partial_pfaffian(pi, 0) == Multivector.function(Poly.const(C4, 1))
    ce = Chart(["x", "y", "u", "v"])
    xe, ye = Poly.var(ce, "x"), Poly.var(ce, "y")
    de = [Multivector.basis_vector(ce, i) for i in range(4)]
    lam = Fraction(3)
    pie = (lam * (xe * xe + ye * ye)) * de[0].wedge(de[1]) + de[2].wedge(de[3])
    expected = (lam * (xe * xe + ye * ye)) * de[0].wedge(de[1]).wedge(de[2]).wedge(de[3])
    assert partial_pfaffian(pie, 2) == expected


def wedge_power_pfaffian(pi, k):
    """Reference pi^k / k! by k wedge products with pi."""
    out = Multivector.function(Poly.const(pi.chart, 1))
    for _ in range(k):
        out = out.wedge(pi)
    return out.scale(Fraction(1, math.factorial(k)))


def test_partial_pfaffian_recursion(rng):
    for n, trials in ((4, 10), (5, 4), (6, 3), (7, 2)):
        chart = Chart(["x%d" % i for i in range(n)])
        for _ in range(trials):
            pi = rand_multivector(chart, rng, 2, max_degree=1)
            for k in range(n // 2 + 1):
                pf = partial_pfaffian(pi, k)
                assert pf == wedge_power_pfaffian(pi, k)
                # pi^k/k! ^ pi = (k + 1) pi^(k+1)/(k+1)!, and 0 past the top
                if 2 * k + 2 <= n:
                    assert pf.wedge(pi) == partial_pfaffian(pi, k + 1).scale(k + 1)
                else:
                    assert pf.wedge(pi).is_zero()


def test_partial_pfaffian_of_forms(rng):
    # the same expansion gives omega^k/k! for 2-forms and coframe 2-forms
    c5 = Chart(["x", "y", "u", "v", "w"])
    frame = catalog("elliptic", c5, "x", "y")
    for _ in range(3):
        comps = rand_multivector(c5, rng, 2, max_degree=1).comps
        for w in (DiffForm(c5, 2, comps), CoframeForm(frame, 2, comps)):
            power = w
            for k in (1, 2):
                pf = partial_pfaffian(w, k)
                assert type(pf) is type(w)
                assert pf == power.scale(Fraction(1, math.factorial(k)))
                power = power.wedge(w)
    with pytest.raises(DegreeMismatch, match="2-form or bivector"):
        partial_pfaffian(DiffForm(C2, 1, {(0,): 1}), 1)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("density", [0.5, 1.0])
def test_top_pfaffian_squared_is_determinant(n, density):
    # Pf(pi)^2 = det of the antisymmetric coefficient matrix, against the
    # memoized minor table rather than the wedge product (`frames.poly_det`
    # eliminates, and its fill-in makes it 2-3 times slower on these dense
    # matrices)
    rng = random.Random(1000 * n + int(10 * density))
    chart = Chart(["x%d" % i for i in range(n)])
    nonzero = 0
    for _ in range(3):
        pi = rand_multivector(chart, rng, 2, max_degree=1, density=density)
        top = partial_pfaffian(pi, n // 2).comps.get(tuple(range(n)), Poly.zero(chart))
        assert top * top == adjugate_and_det(bivector_matrix(pi))[1]
        nonzero += not top.is_zero()
    assert nonzero


def test_function_needs_a_poly():
    # function() takes its chart from the Poly; a scalar carries none
    for cls in (Multivector, DiffForm):
        with pytest.raises(TypeError, match="needs a Poly"):
            cls.function(3)


def test_exterior_derivative_examples():
    dxf, dyf = DiffForm(C2, 1, {(0,): 1}), DiffForm(C2, 1, {(1,): 1})
    assert exterior_derivative(X * dyf) == dxf.wedge(dyf)
    # scalar coefficients are constant polynomials, as for Multivector
    assert DiffForm(C2, 1, {(0,): 3}) == 3 * dxf
    half = Fraction(1, 2)
    assert DiffForm(C2, 0, {(): half}) == DiffForm.function(Poly.const(C2, half))
    assert exterior_derivative(DiffForm(C2, 1, {(1,): -2})).is_zero()
    # dlog r = a/q and dtheta = b/q with q = x^2 + y^2 are closed: by the
    # quotient rule d(a/q) = (q da - dq ^ a)/q^2, so q da = dq ^ a
    q = X * X + Y * Y
    dq = exterior_derivative(DiffForm.function(q))
    for a in (X * dxf + Y * dyf, (-Y) * dxf + X * dyf):
        assert exterior_derivative(a).scale(q) == dq.wedge(a)
    assert not exterior_derivative((-Y) * dxf + X * dyf).is_zero()


def test_d_squared_zero(rng):
    c3 = Chart(["x", "y", "z"])
    import itertools

    for deg in (0, 1):
        for _ in range(10):
            comps = {}
            for idx in itertools.combinations(range(3), deg):
                comps[idx] = rand_poly(c3, rng, max_degree=3)
            w = DiffForm(c3, deg, comps)
            assert exterior_derivative(exterior_derivative(w)).is_zero()


def test_constructor_rejects_bad_index_tuples():
    for idx in ((1, 0), (0, 0), (0, 2), (-1, 0)):
        with pytest.raises(DegreeMismatch, match="bad index tuple"):
            Multivector(C2, 2, {idx: X})
        with pytest.raises(DegreeMismatch, match="bad index tuple"):
            DiffForm(C2, 2, {idx: X})
    with pytest.raises(BadParams, match="bad index tuple"):
        CoframeForm(catalog("log", C2, "x"), 2, {(1, 1): X})


def test_interior_and_pairing():
    dxf, dyf = DiffForm(C2, 1, {(0,): 1}), DiffForm(C2, 1, {(1,): 1})
    omega = dxf.wedge(dyf)
    assert interior_product(DX, omega) == dyf
    # the full pairing is the iterated contraction, omega(X Dx, Dy) = X
    assert interior_product(DY, interior_product(X * DX, omega)) == DiffForm(C2, 0, {(): X})
    got = interior_product(X * DX + Y * DY, omega)
    assert got == X * dyf + (-Y) * dxf


def test_cartan_formula_consistency(rng):
    # L_v on forms via Cartan agrees with the duality pairing derivative:
    # L_v <w, u> = <L_v w, u> + <w, [v, u]> for vector fields u
    c3 = Chart(["x", "y", "z"])
    for _ in range(10):
        v = rand_vector(c3, rng, max_degree=1)
        u = rand_vector(c3, rng, max_degree=1)
        w = DiffForm(
            c3, 1, {(i,): rand_poly(c3, rng, max_degree=1) for i in range(3)}
        )
        lhs = v.apply_to(ref_pairing(w, u))
        rhs = ref_pairing(lie_derivative(v, w), u) + ref_pairing(w, schouten_bracket(v, u))
        assert lhs == rhs
