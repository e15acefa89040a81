import itertools

import pytest

from divkit.rings import Chart, Poly
from divkit.multivector import Multivector, schouten_bracket
from divkit.divisors import make_ideal, product
from divkit.frames import (
    AnchorFrame,
    BadParams,
    CoframeForm,
    DegenerateFrame,
    NotASubalgebroid,
    NotDivisibleGenerator,
    NotInModule,
    UnsupportedOverlap,
    algebroid_d,
    catalog,
    expand_in_frame,
    fiber_product,
    frame_divisor,
    lower_modify,
    pushforward,
    upper_modify,
    verify_ideal_algebroid,
)

from conftest import rand_poly

C2 = Chart(["x", "y"])
X, Y = Poly.var(C2, "x"), Poly.var(C2, "y")
DX, DY = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)


def catalog_frames():
    c3 = Chart(["x", "y", "u"])
    return [
        catalog("tx", C2),
        catalog("log", C2, "x"),
        catalog("zero", C2, "x"),
        catalog("bk", C2, "x", 3),
        catalog("scattering", C2, "x"),
        catalog("elliptic", C2, "x", "y"),
        catalog("elliptic_log", C2, "x", "y"),
        catalog("elliptic", c3, "x", "y"),
        catalog("elliptic_log", c3, "x", "y"),
        catalog("nc_log", c3, "x", "y"),
        catalog("log", c3, "u"),
    ]


def non_catalog_frames():
    """The README's custom frame, and a unit-lower-triangular recombination
    of a catalog frame, whose structure coefficients are not constant."""
    c3 = Chart(["x", "y", "z"])
    x, y, z = (Poly.var(c3, v) for v in "xyz")
    dx, dy, dz = (Multivector.basis_vector(c3, i) for i in range(3))
    custom = AnchorFrame(c3, [dx + (2 * x) * dz, dy, (z - x * x) * dz])
    e = catalog("elliptic_log", c3, "x", "y").generators
    mixed = AnchorFrame(c3, [e[0], y * e[0] + e[1], (x * z) * e[0] + e[1] + e[2]])
    assert not all(c.is_constant() for cs in mixed.structure.values() for c in cs)
    return [custom, mixed]


def test_catalog_examples():
    log = catalog("log", C2, "x")
    assert [str(g) for g in log.generators] == ["x*Dx", "Dy"]
    assert log.det == X

    c3 = Chart(["x", "y", "u"])
    ell = catalog("elliptic", c3, "x", "y")
    assert [str(g) for g in ell.generators] == ["x*Dx + y*Dy", "-y*Dx + x*Dy", "Du"]
    assert ell.det == Poly.var(c3, "x") ** 2 + Poly.var(c3, "y") ** 2

    ellog = catalog("elliptic_log", C2, "x", "y")
    assert ellog.det == -(X * (X * X + Y * Y))
    assert frame_divisor(ellog) == make_ideal(X * (X * X + Y * Y))


def test_frame_divisor_examples():
    assert str(frame_divisor(catalog("log", C2, "x"))) == "<x>"
    assert str(frame_divisor(catalog("bk", C2, "x", 3))) == "<x^3>"
    assert str(frame_divisor(catalog("scattering", C2, "x"))) == "<x^3>"
    assert str(frame_divisor(catalog("zero", C2, "x"))) == "<x^2>"


def test_degenerate_frame_rejected():
    with pytest.raises(DegenerateFrame):
        AnchorFrame(C2, [DX, X * DX])


def test_involutivity_certificates():
    ellog = catalog("elliptic_log", C2, "x", "y")
    coeffs = ellog.structure[(0, 1)]
    assert coeffs[0].is_zero() and coeffs[1] == Poly.const(C2, 1)
    ell = catalog("elliptic", C2, "x", "y")
    assert all(c.is_zero() for c in ell.structure[(0, 1)])
    for frame in catalog_frames():
        n = frame.chart.dimension
        for i in range(n):
            for j in range(i + 1, n):
                coeffs = frame.structure[(i, j)]
                br = schouten_bracket(frame.generators[i], frame.generators[j])
                recon = Multivector.zero(frame.chart, 1)
                for k, c in enumerate(coeffs):
                    recon = recon + c * frame.generators[k]
                assert recon == br


def test_expand_in_frame():
    log = catalog("log", C2, "x")
    assert [str(c) for c in expand_in_frame(X * DY, log)] == ["0", "x"]
    with pytest.raises(NotInModule) as e:
        expand_in_frame(DX, log)
    assert str(e.value.witness) == "(1)/(x)"
    # the witness keeps the determinant's unit: det = -x, coefficient -1/x
    with pytest.raises(NotInModule) as e:
        expand_in_frame(DX, AnchorFrame(C2, [-X * DX, DY]))
    assert e.value.witness == "(-1)/(x)"
    assert str(e.value).endswith("coefficient (-1)/(x)")
    ell = catalog("elliptic", C2, "x", "y")
    assert [str(c) for c in expand_in_frame(X * DX + Y * DY, ell)] == ["1", "0"]
    # unit vectors of the frame expand as unit coefficient vectors
    for frame in catalog_frames():
        for i, g in enumerate(frame.generators):
            coeffs = expand_in_frame(g, frame)
            for k, c in enumerate(coeffs):
                assert c == (1 if k == i else 0)


def modification_cases():
    """(frame, keep, ideal, expected) catalog modification list."""
    tx = catalog("tx", C2)
    log = catalog("log", C2, "x")
    ix = make_ideal(X)
    return [
        (tx, {1}, ix, catalog("log", C2, "x")),
        (tx, set(), ix, catalog("zero", C2, "x")),
        (log, set(), ix, catalog("scattering", C2, "x")),
        (log, {1}, ix, catalog("bk", C2, "x", 2)),
    ]


def test_lower_modify_catalog():
    for frame, keep, ideal, expected in modification_cases():
        got = lower_modify(frame, keep, ideal)
        assert got.generators == expected.generators


def test_upper_undoes_lower():
    for frame, keep, ideal, _ in modification_cases():
        low = lower_modify(frame, keep, ideal)
        back = upper_modify(low, keep, ideal)
        assert back.generators == frame.generators


def test_lower_modify_divisor_law():
    for frame, keep, ideal, _ in modification_cases():
        low = lower_modify(frame, keep, ideal)
        codim = frame.chart.dimension - len(keep)
        expected = frame_divisor(frame)
        for _ in range(codim):
            expected = product(expected, ideal)
        assert frame_divisor(low) == expected


def test_upper_modify_not_divisible():
    tx = catalog("tx", C2)
    with pytest.raises(NotDivisibleGenerator):
        upper_modify(tx, {1}, make_ideal(X))


def test_lower_modify_subalgebroid_check():
    c3 = Chart(["x", "y", "z"])
    x3 = Poly.var(c3, "x")
    d = [Multivector.basis_vector(c3, i) for i in range(3)]
    # kept generators tangent to {x=0}: modification goes through
    frame = AnchorFrame(c3, [d[0], d[1] + x3 * d[2], d[2]])
    low = lower_modify(frame, {1, 2}, make_ideal(x3))
    assert [str(g) for g in low.generators] == ["x*Dx", "Dy + x*Dz", "Dz"]
    # a kept generator not preserving <x> would lose involutivity: rejected
    y3 = Poly.var(c3, "y")
    bad = AnchorFrame(c3, [d[0], d[1] + y3 * d[0], d[2]])
    with pytest.raises(NotASubalgebroid):
        lower_modify(bad, {1, 2}, make_ideal(x3))


def test_disjoint_modifications_commute():
    c3 = Chart(["x", "y", "u"])
    tx = catalog("tx", c3)
    ix = make_ideal(Poly.var(c3, "x"))
    iy = make_ideal(Poly.var(c3, "y"))
    a = lower_modify(lower_modify(tx, {1, 2}, ix), {0, 2}, iy)
    b = lower_modify(lower_modify(tx, {0, 2}, iy), {1, 2}, ix)
    assert a.generators == b.generators
    assert a.generators == catalog("nc_log", c3, "x", "y").generators


def test_fiber_products():
    c3 = Chart(["x", "y", "u"])
    fx = catalog("log", c3, "x")
    fy = catalog("log", c3, "y")
    fp = fiber_product(fx, fy)
    assert fp.generators == catalog("nc_log", c3, "x", "y").generators
    assert frame_divisor(fp) == product(frame_divisor(fx), frame_divisor(fy))
    assert fiber_product(fx, catalog("tx", c3)) == fx
    fe = catalog("elliptic", c3, "y", "u")
    fpe = fiber_product(fx, fe)
    assert [str(g) for g in fpe.generators] == ["x*Dx", "y*Dy + u*Du", "-u*Dy + y*Du"]
    assert frame_divisor(fpe) == product(frame_divisor(fx), frame_divisor(fe))
    with pytest.raises(UnsupportedOverlap):
        fiber_product(fx, catalog("elliptic", c3, "x", "y"))


def test_modified_slots_follow_the_generators():
    from divkit.frames import _modified_slots

    c3 = Chart(["x", "y", "u"])
    cases = [
        (("tx",), set()),
        (("log", "x"), {0}),
        (("bk", "y", 2), {1}),
        (("zero", "x"), {0, 1, 2}),
        (("scattering", "u"), {0, 1, 2}),
        (("elliptic", "x", "y"), {0, 1}),
        (("elliptic_log", "y", "u"), {1, 2}),
        (("nc_log", "x", "u"), {0, 2}),
    ]
    for (kind, *params), slots in cases:
        assert _modified_slots(catalog(kind, c3, *params)) == slots, kind
    # products and unlabeled frames stay outside the catalog
    fp = fiber_product(catalog("log", c3, "x"), catalog("elliptic", c3, "y", "u"))
    assert _modified_slots(fp) is None
    assert _modified_slots(AnchorFrame(c3, fp.generators)) is None
    with pytest.raises(UnsupportedOverlap):
        fiber_product(fp, catalog("tx", c3))
    # a zero or scattering frame modifies every slot, so it overlaps any other
    for kind in ("zero", "scattering"):
        with pytest.raises(UnsupportedOverlap, match="supports overlap"):
            fiber_product(catalog(kind, c3, "x"), catalog("log", c3, "y"))


def test_algebroid_d_examples():
    log = catalog("log", C2, "x")
    assert algebroid_d(CoframeForm.basis(log, 0)).is_zero()
    ell = catalog("elliptic", C2, "x", "y")
    assert algebroid_d(CoframeForm.basis(ell, 0)).is_zero()
    assert algebroid_d(CoframeForm.basis(ell, 1)).is_zero()
    f = X * Y + Y
    df = algebroid_d(CoframeForm.function(log, f))
    assert df == CoframeForm(log, 1, {(0,): X * f.diff("x"), (1,): f.diff("y")})
    ellog = catalog("elliptic_log", C2, "x", "y")
    de2 = algebroid_d(CoframeForm.basis(ellog, 1))
    assert de2 == CoframeForm(ellog, 2, {(0, 1): Poly.const(C2, -1)})


def test_algebroid_d_squared_zero(rng):
    for frame in catalog_frames() + non_catalog_frames():
        n = frame.chart.dimension
        for degree in range(0, n):
            for _ in range(4):
                comps = {
                    idx: rand_poly(frame.chart, rng, max_degree=3)
                    for idx in itertools.combinations(range(n), degree)
                    if rng.random() < 0.8
                }
                w = CoframeForm(frame, degree, comps)
                assert algebroid_d(algebroid_d(w)).is_zero(), (frame.label, degree)


def test_verify_ideal_algebroid():
    log = catalog("log", C2, "x")
    rep = verify_ideal_algebroid(log, make_ideal(X))
    assert rep.preserves_all and rep.standard
    rep2 = verify_ideal_algebroid(log, make_ideal(X * X))
    assert rep2.preserves_all and not rep2.standard
    assert "divides" in rep2.relation
    rep3 = verify_ideal_algebroid(catalog("elliptic", C2, "x", "y"), make_ideal(X * X + Y * Y))
    assert rep3.standard
    ellog = catalog("elliptic_log", C2, "x", "y")
    rep4 = verify_ideal_algebroid(ellog, make_ideal(X * (X * X + Y * Y)))
    assert rep4.preserves_all and rep4.standard
    assert [str(c) for _, c in rep4.certificates] == ["3", "y"]


def test_catalog_bad_params():
    with pytest.raises(BadParams):
        catalog("bk", C2, "x", 0)
    with pytest.raises(BadParams):
        catalog("elliptic", C2, "x", "x")
    with pytest.raises(BadParams):
        catalog("bogus", C2)


def test_structure_antisymmetry():
    # expanding [e_j, e_i] gives exactly the negated stored coefficients
    for frame in catalog_frames():
        n = frame.chart.dimension
        for i in range(n):
            for j in range(i + 1, n):
                rev = expand_in_frame(
                    schouten_bracket(frame.generators[j], frame.generators[i]), frame
                )
                assert rev == [-c for c in frame.structure[(i, j)]]


def test_algebroid_d_matches_koszul(rng):
    # the graded-derivation extension must agree with the Koszul formula
    # evaluated on the certified structure coefficients
    def bracket_coeffs(frame, i, j):
        if i == j:
            return [Poly.zero(frame.chart)] * frame.chart.dimension
        if i < j:
            return frame.structure[(i, j)]
        return [-c for c in frame.structure[(j, i)]]

    for frame in catalog_frames() + non_catalog_frames():
        n = frame.chart.dimension
        gens = frame.generators
        # degree 0 -> 1: (d_A f)(e_i) = rho(e_i) f
        for _ in range(4):
            f = rand_poly(frame.chart, rng, max_degree=3)
            df = algebroid_d(CoframeForm.function(frame, f))
            for i in range(n):
                assert df.comps.get((i,), Poly.zero(frame.chart)) == gens[i].apply_to(f)
        # degree 1 -> 2
        for _ in range(4):
            eta = [rand_poly(frame.chart, rng, max_degree=2) for _ in range(n)]
            w = CoframeForm(frame, 1, {(i,): eta[i] for i in range(n)})
            dw = algebroid_d(w)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = gens[i].apply_to(eta[j]) - gens[j].apply_to(eta[i])
                    for k, c in enumerate(bracket_coeffs(frame, i, j)):
                        expected = expected - c * eta[k]
                    got = dw.comps.get((i, j), Poly.zero(frame.chart))
                    assert got == expected, (frame.label, i, j)
        # degree 2 -> 3
        if n < 3:
            continue
        for _ in range(3):
            comps = {
                idx: rand_poly(frame.chart, rng, max_degree=2)
                for idx in itertools.combinations(range(n), 2)
            }
            om = CoframeForm(frame, 2, comps)

            def val(a, b):
                if a == b:
                    return Poly.zero(frame.chart)
                if a < b:
                    return comps.get((a, b), Poly.zero(frame.chart))
                return -comps.get((b, a), Poly.zero(frame.chart))

            dom = algebroid_d(om)
            for i, j, k in itertools.combinations(range(n), 3):
                expected = (
                    gens[i].apply_to(val(j, k))
                    - gens[j].apply_to(val(i, k))
                    + gens[k].apply_to(val(i, j))
                )
                for m, c in enumerate(bracket_coeffs(frame, i, j)):
                    expected = expected - c * val(m, k)
                for m, c in enumerate(bracket_coeffs(frame, i, k)):
                    expected = expected + c * val(m, j)
                for m, c in enumerate(bracket_coeffs(frame, j, k)):
                    expected = expected - c * val(m, i)
                got = dom.comps.get((i, j, k), Poly.zero(frame.chart))
                assert got == expected, (frame.label, i, j, k)


def test_pushforward_is_the_wedge_of_the_generators(rng):
    # rho Pi_A rho^T against the sum of c_ij e_i ^ e_j, wedged out
    for frame in catalog_frames() + non_catalog_frames():
        for _ in range(3):
            comps = {
                idx: rand_poly(frame.chart, rng, max_degree=2)
                for idx in itertools.combinations(range(frame.chart.dimension), 2)
            }
            expected = Multivector.zero(frame.chart, 2)
            for (i, j), c in comps.items():
                expected = expected + c * frame.generators[i].wedge(frame.generators[j])
            assert pushforward(frame, Multivector(frame.chart, 2, comps)) == expected


def test_frame_on_a_point_is_refused():
    # a chart may have no variables, but a frame on it anchors nothing
    from divkit.cli import frame_from_payload

    with pytest.raises(BadParams):
        AnchorFrame(Chart([]), [])
    with pytest.raises(BadParams):
        frame_from_payload({"chart": [], "generators": []})
