import itertools
import random

import pytest

from divkit.rings import Chart, Poly, exact_divide
from divkit.multivector import DiffForm, Multivector, lie_derivative, partial_pfaffian
from divkit.divisors import DivisorClass, make_ideal, preserves
from divkit.frames import AnchorFrame, catalog, frame_divisor
from divkit.poisson import (
    NotLiftable,
    check_poisson,
    darboux_catalog,
    degeneracy_ideals,
    divisor_type,
    hamiltonian_vf,
    lift,
    modular_foliation_report,
    modular_vf,
)

from conftest import lifted_pfaffian, rand_poly

C2 = Chart(["x", "y"])
X, Y = Poly.var(C2, "x"), Poly.var(C2, "y")
DX, DY = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)

C3 = Chart(["x", "y", "z"])
X3, Z3 = Poly.var(C3, "x"), Poly.var(C3, "z")
D3 = [Multivector.basis_vector(C3, i) for i in range(3)]

C4 = Chart(["x", "y", "z", "w"])
X4 = Poly.var(C4, "x")
D4 = [Multivector.basis_vector(C4, i) for i in range(4)]

PI_LOG4 = (X4 * D4[0]).wedge(D4[1]) + D4[2].wedge(D4[3]) + D4[0].wedge(D4[3])
PI1 = (X3 * D3[0]).wedge(D3[1])
PI2 = (Z3 * D3[0]).wedge(D3[1])
PI3 = ((Z3 - X3 * X3) * D3[0]).wedge(D3[1])


def test_check_poisson_examples():
    ok, _ = check_poisson((X4 * D4[0]).wedge(D4[1]) + D4[2].wedge(D4[3]))
    assert ok
    ok, jac = check_poisson(PI_LOG4)
    assert not ok and jac == -2 * D4[0].wedge(D4[1]).wedge(D4[3])
    # any bivector on a plane chart is Poisson
    rng = random.Random(5)
    for _ in range(10):
        ok, _ = check_poisson(rand_poly(C2, rng, max_degree=3) * DX.wedge(DY))
        assert ok


def test_degeneracy_ideals():
    levels = degeneracy_ideals(PI_LOG4)
    assert [str(g) for g in levels[0].generators] == ["x", "1", "1"]
    assert levels[0].principal and str(levels[0].generator) == "1"
    assert [str(g) for g in levels[1].generators] == ["x"]
    assert levels[1].principal
    levels = degeneracy_ideals(PI1)
    assert [str(g) for g in levels[0].generators] == ["x"]
    levels = degeneracy_ideals(DX.wedge(DY))
    assert [str(g) for g in levels[0].generators] == ["1"]


def test_divisor_type_examples():
    rep = divisor_type(PI_LOG4)
    assert (rep.m, str(rep.ideal.generator)) == (2, "x")
    assert rep.divisor_class == DivisorClass(DivisorClass.LOG)
    assert rep.certificate == "constant"
    rep = divisor_type(PI1)
    assert (rep.m, str(rep.ideal.generator)) == (1, "x")
    assert str(rep.line_part) == "Dx^^Dy"
    ce = Chart(["x", "y", "u", "v"])
    xe, ye = Poly.var(ce, "x"), Poly.var(ce, "y")
    de = [Multivector.basis_vector(ce, i) for i in range(4)]
    pie = (xe * xe + ye * ye) * de[0].wedge(de[1]) + de[2].wedge(de[3])
    rep = divisor_type(pie)
    assert (rep.m, str(rep.ideal.generator)) == (2, "x^2 + y^2")
    assert rep.divisor_class == DivisorClass(DivisorClass.ELLIPTIC)


def test_divisor_type_unit_component_line():
    # m < top with a non-constant line section that has a constant
    # component: it vanishes nowhere, exactly
    c4 = Chart(["x", "y", "z", "w"])
    x = Poly.var(c4, "x")
    d = [Multivector.basis_vector(c4, i) for i in range(4)]
    pi = (x * d[0]).wedge(d[1] + x * d[3])  # = x Dx^^Dy + x^2 Dx^^Dw, rank 2
    rep = divisor_type(pi)
    assert rep.m == 1 and str(rep.ideal.generator) == "x"
    assert str(rep.line_part) == "Dx^^Dy + x*Dx^^Dw"
    assert rep.certificate == "unit component"
    assert not any("sampled" in w for w in rep.warnings)


def test_divisor_type_sampled_line():
    # m < top with no constant component of the line section: certified on
    # the grid
    c4 = Chart(["x", "y", "z", "w"])
    x, y, z = (Poly.var(c4, v) for v in "xyz")
    d = [Multivector.basis_vector(c4, i) for i in range(4)]
    pi = (x * d[0]).wedge((y * y + 1) * d[1] + (z * z + 1) * d[3])
    rep = divisor_type(pi)
    assert rep.m == 1 and str(rep.ideal.generator) == "x"
    assert str(rep.line_part) == "(y^2 + 1)*Dx^^Dy + (z^2 + 1)*Dx^^Dw"
    assert rep.certificate == "sampled"
    assert any("sampled" in w for w in rep.warnings)


def test_divisor_type_rejects_vanishing_line():
    from divkit.poisson import NotDivisorType, sample_grid

    c3 = Chart(["x", "y", "z"])
    x, z = Poly.var(c3, "x"), Poly.var(c3, "z")
    d = [Multivector.basis_vector(c3, i) for i in range(3)]
    pi = (x * d[0] + z * d[2]).wedge(d[1])  # line section vanishes at x=z=0
    with pytest.raises(NotDivisorType):
        divisor_type(pi, grid_values=(0, 1, 2))
    # the default grid's first point is the origin; it keeps 3^n points
    y = Poly.var(c3, "y")
    pi = d[0].wedge(y * d[1] + z * d[2])  # Poisson; vanishes on the x-axis
    with pytest.raises(NotDivisorType, match=r"\('0', '0', '0'\)"):
        divisor_type(pi)
    grid = sample_grid(c3)
    assert grid[0] == (0, 0, 0) and len(grid) == 27


def test_lift_table():
    # (a) x^2 Dx^^Dy lifts to log(x) as x e1^^e2, degenerate
    cert = lift(X * X * DX.wedge(DY), catalog("log", C2, "x"))
    assert cert.lifted.comps == {(0, 1): X}
    assert str(cert.residual_ideal) == "<x>"
    assert not cert.nondegenerate
    # (b) the 4d bivector does not lift, witness 1/x
    with pytest.raises(NotLiftable) as e:
        lift(PI_LOG4, catalog("log", C4, "x"))
    assert str(e.value.witness) == "(1)/(x)"
    # the witness keeps the determinant's unit: det = 2x, entry 1/(2x)
    with pytest.raises(NotLiftable) as e:
        lift(DX.wedge(DY), AnchorFrame(C2, [2 * X * DX, DY]))
    assert e.value.witness == "(1/2)/(x)" and e.value.entry == (0, 1)
    # (c) elliptic Darboux lifts nondegenerately with constant Pfaffian
    ce = Chart(["x", "y", "u", "v"])
    xe, ye = Poly.var(ce, "x"), Poly.var(ce, "y")
    de = [Multivector.basis_vector(ce, i) for i in range(4)]
    pie = (xe * xe + ye * ye) * de[0].wedge(de[1]) + de[2].wedge(de[3])
    cert = lift(pie, catalog("elliptic", ce, "x", "y"))
    assert cert.nondegenerate and cert.lifted.comps == {
        (0, 1): Poly.const(ce, 1),
        (2, 3): Poly.const(ce, 1),
    }
    assert cert.evidence == "constant Pfaffian 1"
    # (d) x^3 Dx^^Dy lifts nondegenerately to BOTH b^3 and scattering
    pib = (X**3) * DX.wedge(DY)
    for fr in (catalog("bk", C2, "x", 3), catalog("scattering", C2, "x")):
        cert = lift(pib, fr)
        assert cert.nondegenerate
        assert cert.lifted.comps == {(0, 1): Poly.const(C2, 1)}


def _push_random_frame_bivector(frame, rng):
    from divkit.frames import pushforward

    n = frame.chart.dimension
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.8:
                comps[(i, j)] = rand_poly(frame.chart, rng, max_degree=2, terms=2)
    pa = Multivector(frame.chart, 2, comps)
    return pa, pushforward(frame, pa)


def _random_lift_frames():
    """Catalog frames on 2 and 4 variables, each with the atoms of its
    divisor (the irreducible factors of det(rho))."""
    c4 = Chart(["x", "y", "u", "v"])
    x4, y4 = Poly.var(c4, "x"), Poly.var(c4, "y")
    q2, q4 = X * X + Y * Y, x4 * x4 + y4 * y4
    return [
        (catalog("log", C2, "x"), [X]),
        (catalog("bk", C2, "x", 2), [X]),
        (catalog("scattering", C2, "x"), [X]),
        (catalog("zero", C2, "x"), [X]),
        (catalog("elliptic", C2, "x", "y"), [q2]),
        (catalog("elliptic_log", C2, "x", "y"), [X, q2]),
        (catalog("log", c4, "x"), [x4]),
        (catalog("elliptic", c4, "x", "y"), [q4]),
        (catalog("nc_log", c4, "x", "y"), [x4, y4]),
        (catalog("elliptic_log", c4, "x", "y"), [x4, q4]),
    ]


def test_pfaffian_multiplicativity_random(rng):
    frames = [frame for frame, _ in _random_lift_frames()]
    count = 0
    while count < 100:
        frame = frames[count % len(frames)]
        pa, pi = _push_random_frame_bivector(frame, rng)
        cert = lift(pi, frame)
        # round trip: the lift is unique, so we must recover the input
        assert cert.lifted == pa
        n = frame.chart.dimension
        top = partial_pfaffian(pi, n // 2).comps.get(
            tuple(range(n)), Poly.zero(frame.chart)
        )
        pf_a = lifted_pfaffian(cert)
        assert top == frame.det * pf_a
        count += 1


def _reference_scan(pf, n):
    """The lift's verdict on Pf(pi_A) by the grid scan alone, on the
    default grid: a zero or a sign change proves degeneracy."""
    if pf.is_zero():
        return False, "degenerate", []
    if pf.is_constant():
        return True, "constant Pfaffian %s" % pf, []
    signs = set()
    for p in itertools.product((-2, -1, 0, 1, 2), repeat=n):
        v = pf.evaluate(p)
        signs.add(v > 0)
        if v == 0 or len(signs) > 1:
            return False, "Pfaffian %s vanishes somewhere" % pf, []
    return (
        True,
        "Pfaffian nonvanishing on the sample grid",
        ["nondegeneracy certificate is sampled, not exact"],
    )


def test_lift_verdict_matches_the_pfaffian_of_the_lift_and_the_grid_scan(rng):
    # Pf(pi_A) from Pf(pi) of the primitive part, and the verdict with the
    # frame-divisor test first, against Pf of the lifted bivector itself
    # and the scan alone; on random frame bivectors and on g*pi' for
    # products g of the frame's atoms
    frames = _random_lift_frames()
    routes = set()
    for count in range(240):
        frame, atoms = frames[count % len(frames)]
        pa, pi = _push_random_frame_bivector(frame, rng)
        if count % 2:
            g = Poly.const(frame.chart, rng.choice([1, -2, 3]))
            for a in atoms:
                g = g * a ** rng.randint(0, 2)
            pa, pi = g * pa, g * pi
        cert = lift(pi, frame)
        assert cert.lifted == pa
        n = frame.chart.dimension
        ref = lifted_pfaffian(cert)
        assert cert.residual_ideal == (make_ideal(ref) if not ref.is_zero() else None)
        got = (cert.nondegenerate, cert.evidence, cert.warnings)
        assert got == _reference_scan(ref, n)
        if not ref.is_constant():
            routes.add(ref.substitute_zero(frame.det.variables_used()).is_zero())
    assert routes == {True, False}  # both the exact test and the scan decided some


def test_nondegenerate_lift_criterion():
    # nondegenerate <=> residual trivial <=> frame divisor equals pi's divisor
    models = [
        darboux_catalog("log", 4),
        darboux_catalog("bk", 2, k=3),
        darboux_catalog("elliptic", 4, lam=1),
    ]
    for pi, frame, _ in models:
        cert = lift(pi, frame)
        rep = divisor_type(pi)
        assert cert.nondegenerate
        assert cert.residual_ideal.generator.is_constant()
        assert frame_divisor(frame) == rep.ideal
    # degenerate counterpart
    cert = lift(X * X * DX.wedge(DY), catalog("log", C2, "x"))
    rep = divisor_type(X * X * DX.wedge(DY))
    assert not cert.nondegenerate
    assert not cert.residual_ideal.generator.is_constant()
    assert frame_divisor(catalog("log", C2, "x")) != rep.ideal


def test_hamiltonian_examples():
    assert hamiltonian_vf(DX.wedge(DY), X) == DY
    assert hamiltonian_vf(X * DX.wedge(DY), X) == X * DY
    assert hamiltonian_vf(X * DX.wedge(DY), Y) == -(X * DX)


def test_modular_examples():
    f = X * Y**2 + X**3
    v = modular_vf(f * DX.wedge(DY))
    assert v == f.diff("x") * DY - f.diff("y") * DX
    assert modular_vf(PI1) == D3[1]
    assert modular_vf(PI2).is_zero()
    assert modular_vf(PI3) == -2 * X3 * D3[1]
    assert modular_vf(DX.wedge(DY)).is_zero()


def test_modular_defining_property(rng):
    # L_{pi#(df)} mu = (L_V f) mu with the sharp in the second slot,
    # i.e. -hamiltonian_vf in this engine's convention; checked for all
    # coordinates and for random quadratics
    for pi in (PI1, PI2, PI3):
        chart = pi.chart
        mu = DiffForm(chart, 3, {(0, 1, 2): Poly.const(chart, 1)})
        v = modular_vf(pi)
        fs = [Poly.var(chart, var) for var in chart.variables]
        fs += [rand_poly(chart, rng, max_degree=2) for _ in range(3)]
        for f in fs:
            sharp_df = -hamiltonian_vf(pi, f)  # pi(., df)
            lhs = lie_derivative(sharp_df, mu)
            rhs = v.apply_to(f) * mu
            assert lhs == rhs, str(f)


def test_modular_is_poisson_field():
    for pi in (PI1, PI2, PI3):
        assert lie_derivative(modular_vf(pi), pi).is_zero()


def test_modular_volume_rescale(rng):
    # for polynomial g the shift satisfies g*(v' - v) = -pi_sharp(dg)
    # (second-slot sharp), with v' certified through the defining identity
    # with denominators cleared
    pi = DX.wedge(DY)
    for _ in range(10):
        g = rand_poly(C2, rng, max_degree=2)
        g = g * g + 1  # positive
        w = hamiltonian_vf(pi, g)
        v = modular_vf(pi)
        mu = DiffForm(C2, 2, {(0, 1): Poly.const(C2, 1)})
        for var in C2.variables:
            f = Poly.var(C2, var)
            xf = hamiltonian_vf(pi, f)
            lhs = lie_derivative(xf, g * mu)
            lhs_poly = lhs.comps.get((0, 1), Poly.zero(C2))
            # g * L_{X_f}(g mu) = -(g v(f) + w(f)) g mu
            assert g * lhs_poly == -(g * v.apply_to(f) + w.apply_to(f)) * g


def test_poisson_vf_check_examples(rng):
    assert lie_derivative(D3[1], PI1).is_zero()
    assert not lie_derivative(D3[0], PI1).is_zero()
    for _ in range(10):
        f = rand_poly(C2, rng, max_degree=3)
        pi = f * DX.wedge(DY)
        g = rand_poly(C2, rng, max_degree=2)
        assert lie_derivative(hamiltonian_vf(pi, g), pi).is_zero()


def test_poisson_fields_preserve_divisor(rng):
    # Poiss_pi(X) <= X_{TX_I}(X): every Poisson vector field preserves I
    for pi in (PI1, PI2, PI3, (X**3) * DX.wedge(DY)):
        ideal = divisor_type(pi).ideal
        chart = pi.chart
        for _ in range(10):
            g = rand_poly(chart, rng, max_degree=2)
            h = hamiltonian_vf(pi, g)
            assert lie_derivative(h, pi).is_zero()
            ok, _ = preserves(h, ideal)
            assert ok
        ok, _ = preserves(modular_vf(pi), ideal)
        assert ok


def test_divisor_is_poisson_ideal(rng):
    # {g, f} in I for I = <f> of divisor-type pi on a top-dimensional chart
    ce = Chart(["x", "y", "u", "v"])
    xe, ye = Poly.var(ce, "x"), Poly.var(ce, "y")
    de = [Multivector.basis_vector(ce, i) for i in range(4)]
    cases = [
        (X * DX.wedge(DY), C2),
        ((X**3) * DX.wedge(DY), C2),
        ((xe * xe + ye * ye) * de[0].wedge(de[1]) + de[2].wedge(de[3]), ce),
    ]
    for pi, chart in cases:
        f = divisor_type(pi).ideal.generator
        for _ in range(10):
            g = rand_poly(chart, rng, max_degree=2)
            br = hamiltonian_vf(pi, g).apply_to(f)  # {g, f}
            assert br.is_zero() or exact_divide(br, f) is not None


def test_m_log_distribution_expansion():
    # pi_i expands in the wedge square of the distribution frame (Dx, Dy)
    # extended by Dz, with coefficient exactly the divisor generator
    tx = catalog("tx", C3)
    for pi in (PI1, PI2, PI3):
        cert = lift(pi, tx)
        gen = divisor_type(pi).ideal.generator
        assert set(cert.lifted.comps) == {(0, 1)}
        assert cert.lifted.comps[(0, 1)].unit_normalized() == gen


def test_log_liftability_criterion():
    # lift to the log frame exists iff pi#(dz) carries a factor of z
    pi_good = (X4 * D4[0]).wedge(D4[1]) + D4[2].wedge(D4[3])
    pi_bad = PI_LOG4
    frame = catalog("log", C4, "x")
    h = hamiltonian_vf(pi_good, X4)
    assert all(c.is_zero() or exact_divide(c, X4) is not None for c in h.vector_coeffs())
    lift(pi_good, frame)  # no raise
    h = hamiltonian_vf(pi_bad, X4)
    assert not all(
        c.is_zero() or exact_divide(c, X4) is not None for c in h.vector_coeffs()
    )
    with pytest.raises(NotLiftable):
        lift(pi_bad, frame)


def test_modular_foliation_reports():
    rep = modular_foliation_report(PI1, catalog("log", C3, "x"))
    assert rep.passed
    assert [str(c) for c in rep.modular_expansion] == ["0", "1", "0"]
    rep = modular_foliation_report((X3**2) * D3[0].wedge(D3[1]), catalog("log", C3, "x"))
    assert rep.passed
    assert [str(c) for c in rep.modular_expansion] == ["0", "2*x", "0"]
    rep = modular_foliation_report(PI2, catalog("log", C3, "z"))
    assert rep.passed
    # custom frame for the parabola divisor z - x^2
    g1 = D3[0] + (2 * X3) * D3[2]
    g3 = (Z3 - X3 * X3) * D3[2]
    frame3 = AnchorFrame(C3, [g1, D3[1], g3])
    rep = modular_foliation_report(PI3, frame3)
    assert rep.passed
    assert rep.modular_expansion is not None
    # trivially: nondegenerate pi with TX
    rep = modular_foliation_report(DX.wedge(DY), catalog("tx", C2))
    assert rep.passed
    # the report lifts first, so a non-liftable bivector is rejected
    with pytest.raises(NotLiftable):
        modular_foliation_report(DX.wedge(DY), catalog("log", C2, "x"))


def test_darboux_catalog_self_check():
    cases = [
        ("log", 4, {}),
        ("log", 2, {}),
        ("bk", 2, {"k": 3}),
        ("bk", 4, {"k": 2}),
        ("scattering", 2, {}),
        ("scattering", 4, {}),
        ("elliptic", 2, {"lam": 2}),
        ("elliptic", 4, {"lam": 1}),
        ("elliptic_zero", 4, {}),
        ("elliptic_zero", 6, {}),
    ]
    for kind, dim, kw in cases:
        pi, frame, cls = darboux_catalog(kind, dim, **kw)
        assert check_poisson(pi)[0]
        rep = divisor_type(pi)
        assert rep.divisor_class == cls, (kind, dim)
        cert = lift(pi, frame)
        assert cert.nondegenerate, (kind, dim)
        assert cert.evidence.startswith("constant Pfaffian")
    pi, _, _ = darboux_catalog("log", 4)
    assert str(pi) == "z*Dz^^Dx1 + Dx2^^Dx3"
    pi, _, _ = darboux_catalog("bk", 2, k=3)
    assert str(pi) == "z^3*Dz^^Dx1"


def test_divisor_warns_on_non_poisson():
    rep = divisor_type(PI_LOG4)
    assert any("not Poisson" in w for w in rep.warnings)


def test_modular_requires_poisson():
    from divkit.frames import BadParams

    with pytest.raises(BadParams):
        modular_vf(PI_LOG4)
