"""Acceptance suite: every criterion asserts exact values (rational
arithmetic throughout; the only tolerances are the documented convention
scalars, which are pinned, not loosened).  One pass/fail line per criterion
is printed in the terminal summary."""

import functools
import itertools
import random

import pytest

import conftest
from conftest import (
    darboux_catalog,
    dual_form,
    lifted_pfaffian,
    rand_multivector,
    rand_poly,
    rand_vector,
)

from divkit.rings import Chart, Poly
from divkit.multivector import Multivector, partial_pfaffian, schouten_bracket
from divkit.divisors import make_ideal, preserves, product
from divkit.frames import AnchorFrame, CoframeForm, catalog, frame_divisor
from divkit.frames import lower_modify, upper_modify, pushforward
from divkit.poisson import (
    NotLiftable,
    check_poisson,
    divisor_type,
    lift,
    modular_foliation_report,
    modular_vf,
)
from divkit.residues import (
    ELLIPTIC_Q,
    ELLLOG_Z,
    LOG,
    NonzeroEllipticResidue,
    ResidueSpec,
    cochain_check,
    cosymplectic_spinor,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append("%2d %s: FAIL" % (num, desc))
                raise
            conftest.ACCEPTANCE_RESULTS.append("%2d %s: PASS" % (num, desc))

        return wrapper

    return deco


C2 = Chart(["x", "y"])
X, Y = Poly.var(C2, "x"), Poly.var(C2, "y")
DX, DY = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)


@criterion(1, "jacobiator and Pfaffian of the 4d log bivector")
def test_criterion_1_jacobiator():
    c4 = Chart(["x", "y", "z", "w"])
    x = Poly.var(c4, "x")
    d = [Multivector.basis_vector(c4, i) for i in range(4)]
    pi = (x * d[0]).wedge(d[1]) + d[2].wedge(d[3]) + d[0].wedge(d[3])
    ok, jac = check_poisson(pi)
    assert not ok
    # proportional to Dx^^Dy^^Dw with the engine's convention scalar -2
    direction = d[0].wedge(d[1]).wedge(d[3])
    assert jac == direction.scale(-2)
    assert set(jac.comps) == set(direction.comps)
    assert partial_pfaffian(pi, 2) == x * d[0].wedge(d[1]).wedge(d[2]).wedge(d[3])


@criterion(2, "elliptic-log frame divisor and preserves-certificates")
def test_criterion_2_elliptic_log_frame():
    frame = catalog("elliptic_log", C2, "x", "y")
    w = X * (X * X + Y * Y)
    assert frame_divisor(frame) == make_ideal(w)
    ideal = make_ideal(w)
    ok1, cert1 = preserves(frame.generators[0], ideal)
    ok2, cert2 = preserves(frame.generators[1], ideal)
    assert ok1 and cert1 == Poly.const(C2, 3)
    assert ok2 and cert2 == Y


@criterion(3, "lifting table (log, witness 1/x, elliptic, b3+scattering)")
def test_criterion_3_lifting_table():
    # (a)
    cert = lift(X * X * DX.wedge(DY), catalog("log", C2, "x"))
    assert cert.lifted.comps == {(0, 1): X}
    assert not cert.nondegenerate
    # (b)
    c4 = Chart(["x", "y", "z", "w"])
    x4 = Poly.var(c4, "x")
    d = [Multivector.basis_vector(c4, i) for i in range(4)]
    pi = (x4 * d[0]).wedge(d[1]) + d[2].wedge(d[3]) + d[0].wedge(d[3])
    with pytest.raises(NotLiftable) as e:
        lift(pi, catalog("log", c4, "x"))
    assert str(e.value.witness) == "(1)/(x)"
    # (c)
    ce = Chart(["x", "y", "u", "v"])
    xe, ye = Poly.var(ce, "x"), Poly.var(ce, "y")
    de = [Multivector.basis_vector(ce, i) for i in range(4)]
    pie = (xe * xe + ye * ye) * de[0].wedge(de[1]) + de[2].wedge(de[3])
    cert = lift(pie, catalog("elliptic", ce, "x", "y"))
    one = Poly.const(ce, 1)
    assert cert.nondegenerate and cert.lifted.comps == {(0, 1): one, (2, 3): one}
    assert cert.evidence == "constant Pfaffian 1"
    # (d)
    pib = (X**3) * DX.wedge(DY)
    for fr in (catalog("bk", C2, "x", 3), catalog("scattering", C2, "x")):
        cert = lift(pib, fr)
        assert cert.nondegenerate
        assert cert.lifted.comps == {(0, 1): Poly.const(C2, 1)}


@criterion(4, "Pfaffian multiplicativity on 100 random lift round-trips")
def test_criterion_4_pfaffian_multiplicativity():
    rng = random.Random(4)
    c4 = Chart(["x", "y", "u", "v"])
    frames = [
        catalog("log", C2, "x"),
        catalog("bk", C2, "x", 2),
        catalog("scattering", C2, "x"),
        catalog("zero", C2, "x"),
        catalog("elliptic", C2, "x", "y"),
        catalog("elliptic_log", C2, "x", "y"),
        catalog("log", c4, "x"),
        catalog("nc_log", c4, "x", "y"),
        catalog("elliptic", c4, "x", "y"),
        catalog("elliptic_log", c4, "x", "y"),
    ]
    for count in range(100):
        frame = frames[count % len(frames)]
        n = frame.chart.dimension
        comps = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.8:
                    comps[(i, j)] = rand_poly(frame.chart, rng, max_degree=2, terms=2)
        pa = Multivector(frame.chart, 2, comps)
        pi = pushforward(frame, pa)
        cert = lift(pi, frame)
        assert cert.lifted == pa  # round trip: lifts are unique
        top = partial_pfaffian(pi, n // 2).comps.get(
            tuple(range(n)), Poly.zero(frame.chart)
        )
        assert top == frame.det * lifted_pfaffian(cert)


@criterion(5, "modular triple and modular-foliation reports")
def test_criterion_5_modular_triple():
    c3 = Chart(["x", "y", "z"])
    x3, z3 = Poly.var(c3, "x"), Poly.var(c3, "z")
    d = [Multivector.basis_vector(c3, i) for i in range(3)]
    pi1 = (x3 * d[0]).wedge(d[1])
    pi2 = (z3 * d[0]).wedge(d[1])
    pi3 = ((z3 - x3 * x3) * d[0]).wedge(d[1])
    assert modular_vf(pi1) == d[1]
    assert modular_vf(pi2).is_zero()
    assert modular_vf(pi3) == (-2 * x3) * d[1]
    parabola = AnchorFrame(
        c3, [d[0] + (2 * x3) * d[2], d[1], (z3 - x3 * x3) * d[2]]
    )
    for pi, frame in (
        (pi1, catalog("log", c3, "x")),
        (pi2, catalog("log", c3, "z")),
        (pi3, parabola),
    ):
        rep = modular_foliation_report(pi, frame)
        assert rep.passed, rep.failures
        assert rep.modular_expansion is not None
        assert all(v is not None for v in rep.hamiltonian_expansions.values())
    rep = modular_foliation_report(pi1, catalog("log", c3, "x"))
    assert [str(c) for c in rep.modular_expansion] == ["0", "1", "0"]


@criterion(6, "radical insensitivity of preserves over <x^k>")
def test_criterion_6_radical_insensitivity():
    rng = random.Random(6)
    for _ in range(25):
        v = rand_vector(C2, rng)
        flags = []
        for k in (1, 2, 5):
            ok, _ = preserves(v, make_ideal(X**k))
            flags.append(ok)
        assert flags[0] == flags[1] == flags[2]


@criterion(7, "modification round-trips, divisor law, and commutation")
def test_criterion_7_modifications():
    tx = catalog("tx", C2)
    log = catalog("log", C2, "x")
    ix = make_ideal(X)
    cases = [
        (tx, {1}, ix, catalog("log", C2, "x")),
        (tx, set(), ix, catalog("zero", C2, "x")),
        (log, set(), ix, catalog("scattering", C2, "x")),
        (log, {1}, ix, catalog("bk", C2, "x", 2)),
    ]
    for frame, keep, ideal, expected in cases:
        low = lower_modify(frame, keep, ideal)
        assert low.generators == expected.generators
        back = upper_modify(low, keep, ideal)
        assert back.generators == frame.generators
        law = frame_divisor(frame)
        for _ in range(frame.chart.dimension - len(keep)):
            law = product(law, ideal)
        assert frame_divisor(low) == law
    c3 = Chart(["x", "y", "u"])
    tx3 = catalog("tx", c3)
    ix3 = make_ideal(Poly.var(c3, "x"))
    iy3 = make_ideal(Poly.var(c3, "y"))
    a = lower_modify(lower_modify(tx3, {1, 2}, ix3), {0, 2}, iy3)
    b = lower_modify(lower_modify(tx3, {0, 2}, iy3), {1, 2}, ix3)
    assert a.generators == b.generators


@criterion(8, "residue cochain suite (50 forms per catalog frame)")
def test_criterion_8_residue_cochain():
    rng = random.Random(8)
    c3 = Chart(["x", "u", "v"])
    c3e = Chart(["x", "y", "u"])
    c4e = Chart(["x", "y", "u", "v"])
    suite = [
        (catalog("log", c3, "x"), LOG),
        (catalog("bk", c3, "x", 2), LOG),
        (catalog("elliptic", c4e, "x", "y"), ELLIPTIC_Q),
        (catalog("elliptic_log", c3e, "x", "y"), ELLLOG_Z),
    ]
    for frame, flavor in suite:
        spec = ResidueSpec(frame, flavor)
        n = frame.chart.dimension
        for _ in range(50):
            deg = rng.randint(1, min(3, n))
            comps = {
                idx: rand_poly(frame.chart, rng, max_degree=2)
                for idx in itertools.combinations(range(n), deg)
                if rng.random() < 0.75
            }
            w = CoframeForm(frame, deg, comps)
            assert cochain_check(w, spec), (frame.label, deg, str(w))


@criterion(9, "cosymplectic spinors (log, zero-elliptic, rejection)")
def test_criterion_9_spinors():
    pi, frame, _ = darboux_catalog("log", 4)
    om = dual_form(lift(pi, frame))
    rep = cosymplectic_spinor(om, ResidueSpec(frame, LOG))
    assert rep.closed and not rep.rho_top.is_zero()
    assert all(flag for _, flag in rep.identities)

    pi0, frame0, _ = darboux_catalog("elliptic_zero", 6)
    om0 = dual_form(lift(pi0, frame0))
    rep0 = cosymplectic_spinor(om0, ResidueSpec(frame0, ELLIPTIC_Q))
    assert rep0.closed and not rep0.rho_top.is_zero()
    # the exact identity Res_q(omega^2/2!) = -Res_r(omega)^Res_theta(omega):
    # equivalently, without the exponential normalization,
    # Res_q(omega^2) = -2 Res_r(omega)^Res_theta(omega)
    pair = rep0.alpha.wedge(rep0.alpha2)
    assert rep0.rho[0] == -pair
    from divkit.residues import residue

    square = om0.wedge(om0)
    q2 = residue(square, ResidueSpec(frame0, ELLIPTIC_Q))
    assert q2 == (-2) * pair
    assert all(flag for _, flag in rep0.identities)

    pil, framel, _ = darboux_catalog("elliptic", 4, lam=1)
    oml = dual_form(lift(pil, framel))
    with pytest.raises(NonzeroEllipticResidue):
        cosymplectic_spinor(oml, ResidueSpec(framel, ELLIPTIC_Q))


@criterion(10, "Schouten algebra property suite (200 random cases)")
def test_criterion_10_schouten_properties():
    rng = random.Random(10)
    c3 = Chart(["x", "y", "z"])
    c4 = Chart(["x", "y", "z", "w"])

    def sgn(k):
        return -1 if k % 2 else 1

    for _ in range(50):  # graded antisymmetry
        chart = c4 if rng.random() < 0.3 else c3
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        a = rand_multivector(chart, rng, p, max_degree=2, density=0.5)
        b = rand_multivector(chart, rng, q, max_degree=2, density=0.5)
        assert schouten_bracket(a, b) == schouten_bracket(b, a).scale(
            -sgn((p - 1) * (q - 1))
        )
    for _ in range(50):  # graded Jacobi
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        a = rand_multivector(c3, rng, p, max_degree=1, density=0.5)
        b = rand_multivector(c3, rng, q, max_degree=1, density=0.5)
        c = rand_multivector(c3, rng, r, max_degree=1, density=0.5)
        lhs = schouten_bracket(a, schouten_bracket(b, c))
        rhs = schouten_bracket(schouten_bracket(a, b), c) + schouten_bracket(
            b, schouten_bracket(a, c)
        ).scale(sgn((p - 1) * (q - 1)))
        assert lhs == rhs
    for _ in range(50):  # Leibniz
        p, q, r = rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 2)
        a = rand_multivector(c3, rng, p, max_degree=2, density=0.5)
        b = rand_multivector(c3, rng, q, max_degree=2, density=0.5)
        c = rand_multivector(c3, rng, r, max_degree=2, density=0.5)
        lhs = schouten_bracket(a, b.wedge(c))
        rhs = schouten_bracket(a, b).wedge(c) + b.wedge(
            schouten_bracket(a, c)
        ).scale(sgn((p - 1) * q))
        assert lhs == rhs
    from test_multivector import brute_lie_bracket

    for _ in range(50):  # degree-1 oracle agreement
        a = rand_vector(c3, rng)
        b = rand_vector(c3, rng)
        assert schouten_bracket(a, b) == brute_lie_bracket(a, b)


@criterion(11, "Darboux catalog self-check")
def test_criterion_11_darboux_catalog():
    cases = [
        ("log", 2, {}),
        ("log", 4, {}),
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
        assert check_poisson(pi)[0], (kind, dim)
        rep = divisor_type(pi)
        assert rep.divisor_class == cls, (kind, dim)
        cert = lift(pi, frame)
        assert cert.nondegenerate and cert.evidence.startswith("constant Pfaffian")
