import itertools

import pytest

from divkit.rings import Chart, Poly
from divkit.cli import run_job
from divkit.dsl import parse
from divkit.frames import CoframeForm, algebroid_d, catalog
from divkit.poisson import darboux_catalog, lift
from divkit.residues import (
    ELLIPTIC_Q,
    ELLIPTIC_R,
    ELLIPTIC_THETA,
    ELLLOG_D,
    ELLLOG_Z,
    LOG,
    FlavorMismatch,
    NonzeroEllipticResidue,
    NonzeroHigherResidue,
    ResidueSpec,
    cochain_check,
    cosymplectic_spinor,
    dual_form,
    elliptic_log_factorization,
    residue,
    restricted_d,
)

from conftest import rand_poly


def rand_coframe(frame, rng, degree, max_degree=2):
    n = frame.chart.dimension
    comps = {}
    for idx in itertools.combinations(range(n), degree):
        if rng.random() < 0.75:
            comps[idx] = rand_poly(frame.chart, rng, max_degree=max_degree)
    return CoframeForm(frame, degree, comps)


def test_log_residue_read_off():
    c2 = Chart(["x", "y"])
    logf = catalog("log", c2, "x")
    w = CoframeForm(logf, 2, {(0, 1): Poly.const(c2, 1)})
    r = residue(w, ResidueSpec(logf, LOG))
    # right-extraction convention: e1^^e2 = -(e2)^^e1, so the residue is -dy
    assert str(r) == "-dy"
    assert list(r.chart.variables) == ["y"]
    # the z-coefficient is killed by restriction
    x = Poly.var(c2, "x")
    w2 = CoframeForm(logf, 1, {(0,): x})
    assert residue(w2, ResidueSpec(logf, LOG)).is_zero()


def test_elliptic_residue_read_off():
    ce = Chart(["x", "y", "u", "v"])
    ellf = catalog("elliptic", ce, "x", "y")
    w = CoframeForm(
        ellf,
        2,
        {(0, 2): Poly.const(ce, 1), (1, 3): Poly.const(ce, 1), (2, 3): Poly.const(ce, 1)},
    )
    assert residue(w, ResidueSpec(ellf, ELLIPTIC_Q)).is_zero()
    assert str(residue(w, ResidueSpec(ellf, ELLIPTIC_R))) == "-du"
    assert str(residue(w, ResidueSpec(ellf, ELLIPTIC_THETA))) == "-dv"
    pair = CoframeForm(ellf, 2, {(0, 1): Poly.const(ce, 1)})
    assert str(residue(pair, ResidueSpec(ellf, ELLIPTIC_Q))) == "1"
    with pytest.raises(NonzeroHigherResidue):
        residue(pair, ResidueSpec(ellf, ELLIPTIC_R))


def test_flavor_admissibility():
    c2 = Chart(["x", "y"])
    logf = catalog("log", c2, "x")
    with pytest.raises(FlavorMismatch):
        ResidueSpec(logf, ELLIPTIC_Q)
    with pytest.raises(FlavorMismatch):
        ResidueSpec(catalog("elliptic", c2, "x", "y"), LOG)
    with pytest.raises(FlavorMismatch):
        ResidueSpec(catalog("tx", c2), LOG)


def cochain_frames():
    c3 = Chart(["x", "u", "v"])
    c3e = Chart(["x", "y", "u"])
    c4e = Chart(["x", "y", "u", "v"])
    return [
        (catalog("log", c3, "x"), LOG),
        (catalog("bk", c3, "x", 2), LOG),
        (catalog("elliptic", c3e, "x", "y"), ELLIPTIC_Q),
        (catalog("elliptic", c4e, "x", "y"), ELLIPTIC_Q),
        (catalog("elliptic_log", c3e, "x", "y"), ELLLOG_Z),
        (catalog("elliptic_log", c4e, "x", "y"), ELLLOG_Z),
    ]


def test_cochain_random_suite(rng):
    for frame, flavor in cochain_frames():
        spec = ResidueSpec(frame, flavor)
        n = frame.chart.dimension
        for _ in range(50):
            deg = rng.randint(1, min(3, n))
            w = rand_coframe(frame, rng, deg)
            assert cochain_check(w, spec), (frame.label, flavor, deg, str(w))


def test_cochain_lower_elliptic_on_zero_residue_forms(rng):
    c3e = Chart(["x", "y", "u"])
    ellf = catalog("elliptic", c3e, "x", "y")
    for _ in range(25):
        deg = rng.randint(1, 2)
        w = rand_coframe(ellf, rng, deg)
        if deg == 2:
            w = CoframeForm(ellf, 2, {i: c for i, c in w.comps.items() if i != (0, 1)})
        assert cochain_check(w, ResidueSpec(ellf, ELLIPTIC_R))
        assert cochain_check(w, ResidueSpec(ellf, ELLIPTIC_THETA))


def test_cochain_rejected_for_d_residue(rng):
    c3e = Chart(["x", "y", "u"])
    elf = catalog("elliptic_log", c3e, "x", "y")
    with pytest.raises(FlavorMismatch):
        cochain_check(rand_coframe(elf, rng, 2), ResidueSpec(elf, ELLLOG_D))


def test_residues_of_exact_forms_are_exact(rng):
    for frame, flavor in cochain_frames():
        spec = ResidueSpec(frame, flavor)
        for _ in range(10):
            eta = rand_coframe(frame, rng, 1)
            r = residue(algebroid_d(eta), spec)
            assert r == restricted_d(residue(eta, spec))


def test_elliptic_log_factorization_random(rng):
    for chart in (Chart(["x", "y", "u"]), Chart(["x", "y", "u", "v"])):
        elf = catalog("elliptic_log", chart, "x", "y")
        for deg in (1, 2, 3):
            for _ in range(15):
                w = rand_coframe(elf, rng, deg)
                ok, direct, composite = elliptic_log_factorization(w, elf)
                assert ok, (chart.variables, deg, str(direct), str(composite))


def test_log_spinor():
    pi, frame, _ = darboux_catalog("log", 4)
    cert = lift(pi, frame)
    om = dual_form(cert)
    assert str(om) == "e1^^e2 + e3^^e4"
    rep = cosymplectic_spinor(om, ResidueSpec(frame, LOG))
    assert rep.closed
    assert [str(r) for r in rep.rho] == ["-dx1", "-dx1^^dx2^^dx3"]
    assert not rep.rho_top.is_zero()
    assert all(flag for _, flag in rep.identities)
    # Res(omega^k) = k alpha ^ beta^(k-1), with alpha the engine residue
    assert str(rep.alpha) == "-dx1"
    assert str(rep.beta) == "dx2^^dx3"


def test_log_spinor_in_dimension_two():
    # n = 1: beta is 0 on the 1-variable locus and beta^0/0! = 1, so the
    # spinor is rho = [Res omega] and its top identity reads Res = Res
    c2 = Chart(["x", "y"])
    logf = catalog("log", c2, "x")
    om = CoframeForm(logf, 2, {(0, 1): 1})
    rep = cosymplectic_spinor(om, ResidueSpec(logf, LOG))
    assert str(rep.beta) == "0*dy" and str(rep.alpha) == "-dy"
    assert [str(r) for r in rep.rho] == ["-dy"]
    assert rep.closed and all(flag for _, flag in rep.identities)


def test_elliptic_zero_spinor():
    pi, frame, _ = darboux_catalog("elliptic_zero", 6)
    cert = lift(pi, frame)
    om = dual_form(cert)
    rep = cosymplectic_spinor(om, ResidueSpec(frame, ELLIPTIC_Q))
    assert rep.closed
    assert str(rep.alpha) == "-dx1" and str(rep.alpha2) == "-dx2"
    assert [str(r) for r in rep.rho] == ["-dx1^^dx2", "-dx1^^dx2^^dx3^^dx4"]
    assert all(flag for _, flag in rep.identities), rep.identities
    # 2-cosymplectic volume alpha1 ^ alpha2 ^ beta nonzero
    vol = rep.alpha.wedge(rep.alpha2).wedge(rep.beta)
    assert not vol.is_zero()


def test_elliptic_nonzero_spinor_rejected():
    pi, frame, _ = darboux_catalog("elliptic", 4, lam=1)
    cert = lift(pi, frame)
    om = dual_form(cert)
    with pytest.raises(NonzeroEllipticResidue):
        cosymplectic_spinor(om, ResidueSpec(frame, ELLIPTIC_Q))


def test_spinor_requires_closed_form():
    c2 = Chart(["z", "x1"])
    logf = catalog("log", c2, "z")
    x1 = Poly.var(c2, "x1")
    bad = CoframeForm(logf, 2, {(0, 1): x1 * x1 + 1})
    # d_A of x1^2 e1^^e2 is nonzero
    from divkit.frames import BadParams

    if not algebroid_d(bad).is_zero():
        with pytest.raises(BadParams):
            cosymplectic_spinor(bad, ResidueSpec(logf, LOG))


def _reordered(form, frame):
    """`form` over `frame`: the same catalog frame on a chart whose variables
    come in another order (each generator follows its variable)."""
    old = form.frame.chart.variables
    chart = frame.chart
    comps = {}
    for idx, c in form.comps.items():
        slots = [chart.index(old[i]) for i in idx]
        inversions = sum(a > b for a, b in itertools.combinations(slots, 2))
        comps[tuple(sorted(slots))] = c.restrict(chart) * (-1) ** inversions
    return CoframeForm(frame, form.degree, comps)


def test_elllog_z_residue_follows_the_variable_order(rng):
    # on chart x, z, y the slot of z lies between those of x and y, so the
    # residue's slot map reverses the order of the remaining slots
    xyz, xzy = Chart(["x", "y", "z"]), Chart(["x", "z", "y"])
    f_xyz = catalog("elliptic_log", xyz, "x", "y")
    f_xzy = catalog("elliptic_log", xzy, "x", "y")
    for w in [rand_coframe(f_xzy, rng, d) for d in (1, 2, 3)]:
        got = residue(w, ResidueSpec(f_xzy, ELLLOG_Z))
        ref = residue(_reordered(w, f_xyz), ResidueSpec(f_xyz, ELLLOG_Z))
        assert isinstance(got, CoframeForm) and isinstance(ref, CoframeForm)
        assert got.chart.variables == ("z", "y") and ref.chart.variables == ("y", "z")
        assert got == _reordered(ref, got.frame)

    # the job e1^^e2^^e3 on x, z, y against the same job on x, y, z
    job = "chart %s; w = e1^^e2^^e3; residue w via elllog_z on frame elliptic_log(x, y);"
    ref_cert, code = run_job(parse(job % "x, y, z"))
    assert code == 0 and ref_cert["payload"]["result"]["chart"] == ["y", "z"]
    top = CoframeForm(f_xyz, 3, {(0, 1, 2): Poly.const(xyz, 1)})
    ref = residue(top, ResidueSpec(f_xyz, ELLLOG_Z))
    assert ref_cert["payload"]["result"]["form"] == str(ref)
    # e_x^^e_z^^e_y = -e_x^^e_y^^e_z, so the residue is minus the reordered one
    want = -_reordered(ref, catalog("log", Chart(["z", "y"]), "y"))
    cert, code = run_job(parse(job % "x, z, y"))
    assert code == 0
    assert cert["payload"]["result"] == {
        "kind": "log_coframe",
        "chart": ["z", "y"],
        "form": str(want),
        "twisted": True,
    }


def test_elliptic_residue_on_a_point():
    # on a 2-variable chart the elliptic locus {x = y = 0} is a point, whose
    # chart has no variables: the residue there is the constant 1
    job = parse("chart x, y; w = e1^^e2; residue w via elliptic_q on frame elliptic(x, y);")
    cert, code = run_job(job)
    assert code == 0 and cert["verdict"] == "ok"
    result = cert["payload"]["result"]
    assert result == {"kind": "plain", "chart": [], "form": "1", "twisted": False}


def test_each_flavor_payload():
    # kind, chart and twisted follow from the residue's target: a plain
    # form on the locus, or a log coframe form (twisted d) for elllog_z
    lower = "(1 + u)*e1^^e3 + v*e2^^e4 + e3^^e4"
    cases = [
        ("log", "x, y, u", "(1 + y)*e1^^e2 + x*e1^^e3 + u*e2^^e3", "log(x)",
         "plain", ["y", "u"], "(-y - 1)*dy"),
        ("elliptic_q", "x, y, u", "(1 + u)*e1^^e2^^e3", "elliptic(x, y)",
         "plain", ["u"], "(u + 1)*du"),
        ("elliptic_r", "x, y, u, v", lower, "elliptic(x, y)",
         "plain", ["u", "v"], "(-u - 1)*du"),
        ("elliptic_theta", "x, y, u, v", lower, "elliptic(x, y)",
         "plain", ["u", "v"], "-v*dv"),
        ("elllog_z", "x, y, u", "(1 + u)*e1^^e2 + y*e1^^e3 + e2^^e3", "elliptic_log(x, y)",
         "log_coframe", ["y", "u"], "(u + 1)*e1 - e2"),
        ("elllog_d", "x, y, u", "(1 + u)*e1^^e2^^e3", "elliptic_log(x, y)",
         "plain", ["u"], "(u + 1)*du"),
    ]
    for flavor, chart, w, frame, kind, variables, form in cases:
        job = "chart %s; w = %s; residue w via %s on frame %s;" % (chart, w, flavor, frame)
        cert, code = run_job(parse(job))
        assert code == 0 and cert["verdict"] == "ok", (flavor, cert)
        assert cert["payload"] == {
            "flavor": flavor,
            "result": {
                "kind": kind,
                "chart": variables,
                "form": form,
                "twisted": kind == "log_coframe",
            },
        }, flavor


def test_elliptic_spinor_on_a_two_variable_chart_is_degenerate():
    # n = 1 is below the first nonzero elliptic rho, so the spinor has no
    # rho at all and its top residue Res_q(omega) is the zero just checked
    job = "chart x, y; w = (x^2+y^2)*e1^^e2; spinor w on frame elliptic(x, y) via elliptic;"
    cert, code = run_job(parse(job))
    assert code == 2 and cert["verdict"] == "error"
    assert cert["error"].startswith("DegenerateSpinor: ")
