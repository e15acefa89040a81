"""Poisson verification, divisor-type detection, lifting, modular fields.

Conventions fixed here once and used everywhere:

* sharp map: pi^#(alpha) = pi(alpha, .), anchored by
  hamiltonian_vf(Dx^^Dy, x) = Dy;
* modular vector field: V^i = sum_k d_k Pi^{ki} for the full antisymmetric
  coefficient matrix Pi, anchored so that f*Dx^^Dy on the plane has modular
  field (df/dx) Dy - (df/dy) Dx; the defining volume identity then reads
  L_{X_f} mu = -(L_V f) mu with X_f = pi^#(df) in the sharp convention
  above, and is re-verified symbolically at construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rings import Chart, ChartMismatch, InternalError, Poly, exact_divide, gcd_content
from .divisors import DivisorClass, classify, make_ideal, preserves
from .frames import (
    BadParams,
    NotInModule,
    NotLiftable,
    catalog,
    expand_in_frame,
    invert_antisym,
    pullback,
    pushforward,
)
from .multivector import (
    DegreeMismatch,
    DiffForm,
    Multivector,
    bivector_matrix,
    lie_derivative,
    partial_pfaffian,
    schouten_bracket,
)

# 0 first: the first point sampled is the origin
DEFAULT_GRID_VALUES = (0, -2, -1, 1, 2, 3)

# Every warning of a sampled (heuristic) certificate ends with this marker;
# `--strict` rejects exactly those.
SAMPLED = "is sampled, not exact"


class NotDivisorType(ValueError):
    pass


class ConventionCheckFailed(InternalError):
    pass


def check_poisson(pi):
    """(ok, jacobiator) -- exact zero test of [pi, pi]."""
    if pi.degree != 2:
        raise DegreeMismatch("check_poisson expects a bivector")
    jac = schouten_bracket(pi, pi)
    return jac.is_zero(), jac


# ---------------------------------------------------------------------------
# Degeneracy ideals and divisor type
# ---------------------------------------------------------------------------


class DegeneracyLevel:
    __slots__ = ("k", "generators", "principal", "generator")

    def __init__(self, k, generators):
        self.k = k
        self.generators = generators
        self.principal = False
        self.generator = None
        nonzero = [g for g in generators if not g.is_zero()]
        if not nonzero:
            return
        if any(g.is_constant() for g in nonzero):
            self.principal = True
            self.generator = Poly.const(nonzero[0].chart, 1)
            return
        norms = [g.unit_normalized() for g in nonzero]
        if all(g == norms[0] for g in norms):
            self.principal = True
            self.generator = norms[0]


def degeneracy_ideals(pi):
    """Per k, the component list of pi^k/k! (generators of the 2k-th
    degeneracy ideal), flagged when they reduce to a principal generator.

    Beyond the principal case these lists are generator data only; ideal
    membership for several generators is out of scope.
    """
    if pi.degree != 2:
        raise DegreeMismatch("expected a bivector")
    out = []
    for k in range(1, pi.chart.dimension // 2 + 1):
        pf = partial_pfaffian(pi, k)
        gens = [pf.comps[idx] for idx in sorted(pf.comps)]
        out.append(DegeneracyLevel(k, gens))
    return out


class DivisorTypeReport:
    __slots__ = ("m", "ideal", "line_part", "certificate", "divisor_class", "warnings")

    def __init__(self, m, ideal, line_part, certificate, divisor_class, warnings):
        self.m = m
        self.ideal = ideal
        self.line_part = line_part
        self.certificate = certificate
        self.divisor_class = divisor_class
        self.warnings = warnings


def sample_grid(chart, values=None):
    """Deterministic rational sample grid: coordinates from `values`.

    The enumeration stops after 3^n points, diagonal-shifted so every
    coordinate still sweeps all values."""
    values = tuple(values) if values is not None else DEFAULT_GRID_VALUES
    n = chart.dimension
    pts = []
    limit = 3**n
    for t, tup in enumerate(itertools.product(values, repeat=n)):
        if t >= limit:
            break
        shifted = tuple(values[(values.index(v) + t) % len(values)] for v in tup)
        pts.append(shifted)
    return pts


def _primitive_part(comps, g):
    """{idx: c/g} for a common divisor g of the components."""
    prim = {}
    for idx, c in comps.items():
        q = exact_divide(c, g)
        if q is None:  # pragma: no cover - g is a gcd of the components
            raise InternalError("gcd of the components does not divide them (internal error)")
        prim[idx] = q
    return prim


def _gcd_over_power(polys, f):
    """gcd_content(polys) for nonzero polys, with f^k split off first for the
    largest k such that f^k divides all of them: the normalized f^k times
    the gcd of the quotients, so the gcd runs on the smaller cofactors."""
    k = 0
    while not f.is_constant():
        quotients = []
        for p in polys:
            q = exact_divide(p, f)
            if q is None:
                break
            quotients.append(q)
        if len(quotients) < len(polys):
            break
        polys, k = quotients, k + 1
    if not k:
        return gcd_content(polys)
    return (f**k * gcd_content(polys)).unit_normalized()


def divisor_type(pi, grid_values=None):
    """Largest m with pi^m != 0, the extracted divisor ideal, and the line
    part W with pi^m/m! = g*W.  The line condition (W vanishes nowhere) is
    exact when every component of W is constant ("constant") or one of them
    is ("unit component"), otherwise certified on a deterministic sample grid
    and flagged as heuristic."""
    if pi.degree != 2:
        raise DegreeMismatch("expected a bivector")
    warnings = []
    ok, _ = check_poisson(pi)
    if not ok:
        warnings.append("bivector is not Poisson: divisor data only")
    chart = pi.chart
    m = 0
    pf = None
    for k in range(chart.dimension // 2, -1, -1):
        cand = partial_pfaffian(pi, k)
        if not cand.is_zero():
            m = k
            pf = cand
            break
    if m == 0:
        ideal = make_ideal(Poly.const(chart, 1))
        cls = classify(ideal)
        return DivisorTypeReport(0, ideal, Multivector.function(Poly.const(chart, 1)),
                                 "constant", cls, warnings)
    g = gcd_content(list(pf.comps.values()))
    w = Multivector(chart, 2 * m, _primitive_part(pf.comps, g))
    ideal = make_ideal(g)
    cls = classify(ideal)
    if all(c.is_constant() for c in w.comps.values()):
        cert = "constant"
    elif any(c.is_constant() for c in w.comps.values()):
        cert = "unit component"  # a nonzero constant component vanishes nowhere
    else:
        cert = "sampled"
        for p in sample_grid(chart, grid_values):
            if all(c.evaluate(p) == 0 for c in w.comps.values()):
                raise NotDivisorType(
                    "line section vanishes at sample point %s" % (tuple(map(str, p)),)
                )
        warnings.append("line-subbundle certificate " + SAMPLED)
    return DivisorTypeReport(m, ideal, w, cert, cls, warnings)


# ---------------------------------------------------------------------------
# Lifting through anchor frames
# ---------------------------------------------------------------------------


class LiftCertificate:
    __slots__ = ("frame", "lifted", "residual_ideal", "nondegenerate", "evidence", "warnings")

    def __init__(self, frame, lifted, residual_ideal, nondegenerate, evidence, warnings):
        self.frame = frame
        self.lifted = lifted  # Multivector whose indices refer to frame generators
        self.residual_ideal = residual_ideal
        self.nondegenerate = nondegenerate
        self.evidence = evidence
        self.warnings = warnings


def _anchor_pfaffian(pi, det):
    """Pf(pi_A) = Pf(pi) / det(rho) for a nonzero bivector pi on an even
    chart, with Pf(pi) = g^(n/2) Pf(pi/g) for the gcd g of pi's components:
    one Pfaffian, of the primitive part.  The power of det(rho) that divides
    every component is split off before the gcd runs."""
    chart = pi.chart
    n = chart.dimension
    g = _gcd_over_power(list(pi.comps.values()), det)
    pf = partial_pfaffian(Multivector(chart, 2, _primitive_part(pi.comps, g)), n // 2)
    pf = pf.comps.get(tuple(range(n)), Poly.zero(chart))
    scale = g ** (n // 2)
    quotient = exact_divide(scale, det)  # when it divides, the smaller factor
    if quotient is not None:
        return quotient * pf
    pf = exact_divide(scale * pf, det)
    if pf is None:  # Pf(rho Pi_A rho^T) = det(rho) Pf(Pi_A)
        raise InternalError("Pfaffian multiplicativity violated (internal error)")
    return pf


def _scan_grid(pf, grid_values):
    """(nondegenerate, evidence, warnings) of a non-constant Pfaffian from a
    scan of the grid product over the Pfaffian's own variables, which sees
    every value the full chart grid would: a zero at any real point, or two
    points of opposite sign (intermediate value theorem on the connected
    chart), is an exact proof of degeneracy; a grid without either gives a
    sampled certificate."""
    values = grid_values if grid_values is not None else (-2, -1, 0, 1, 2)
    names = sorted(pf.variables_used())
    signs = set()
    for p in itertools.product(values, repeat=len(names)):
        v = pf.evaluate(dict(zip(names, p)))
        signs.add(v > 0)
        if v == 0 or len(signs) > 1:
            return False, "Pfaffian %s vanishes somewhere" % pf, []
    warning = "nondegeneracy certificate " + SAMPLED
    return True, "Pfaffian nonvanishing on the sample grid", [warning]


def lift(pi, frame, grid_values=None):
    """Solve pi = rho pi_A rho^T exactly: `frames.pullback` takes pi_A =
    rho^-1 Pi rho^-T by two rounds of frame solves, and raises NotLiftable
    with the first entry that is not a polynomial.  The pushforward rho pi_A
    rho^T is checked to give pi back.

    On an even chart the lift is nondegenerate iff Pf(pi_A) = Pf(pi) /
    det(rho) has no real zero.  A constant nonzero Pf(pi_A) decides it.  A
    non-constant one is degenerate when it vanishes identically on the
    coordinate subspace where the variables of det(rho) are 0; otherwise a
    grid scan over the Pfaffian's own variables looks for a zero or a sign
    change, and a scan that finds neither gives a sampled certificate."""
    if pi.chart != frame.chart:
        raise ChartMismatch("bivector and frame on different charts")
    if pi.degree != 2:
        raise DegreeMismatch("expected a bivector")
    n = pi.chart.dimension
    lifted = pullback(frame, pi)
    if pushforward(frame, lifted) != pi:  # pragma: no cover - solving is exact
        raise InternalError("lift pushforward does not reproduce the bivector")
    cert = LiftCertificate(frame, lifted, None, False, "degenerate", [])
    if n % 2 or pi.is_zero():
        return cert
    pf = _anchor_pfaffian(pi, frame.det)
    if pf.is_zero():
        return cert
    cert.residual_ideal = make_ideal(pf)
    if pf.is_constant():
        cert.nondegenerate = True
        cert.evidence = "constant Pfaffian %s" % pf
    elif pf.substitute_zero(frame.det.variables_used()).is_zero():
        cert.evidence = "Pfaffian %s vanishes somewhere" % pf
    else:
        cert.nondegenerate, cert.evidence, cert.warnings = _scan_grid(pf, grid_values)
    return cert


# ---------------------------------------------------------------------------
# Hamiltonian, Poisson, and modular vector fields
# ---------------------------------------------------------------------------


def hamiltonian_vf(pi, f):
    """pi^#(df) with pi^#(alpha) = pi(alpha, .); equals -[pi, f]."""
    return -schouten_bracket(pi, Multivector.function(f))


def _coordinate_volume(chart):
    n = chart.dimension
    return DiffForm(chart, n, {tuple(range(n)): Poly.const(chart, 1)})


def modular_vf(pi):
    """Modular vector field for the coordinate volume mu.

    The sign convention is anchored to the plane example
    f*Dx^^Dy |-> (df/dx) Dy - (df/dy) Dx; the defining property
    L_{pi^#(df)} mu = -(L_V f) mu is re-verified for every coordinate
    function before returning.  A constant rescaling of mu leaves V
    unchanged; mu -> g*mu shifts it by hamiltonian_vf(pi, g)/g.
    """
    ok, _ = check_poisson(pi)
    if not ok:
        raise BadParams("modular field requires a Poisson bivector")
    chart = pi.chart
    m = bivector_matrix(pi)
    coeffs = []
    for i in range(chart.dimension):
        s = Poly.zero(chart)
        for k in range(chart.dimension):
            if m[k][i].is_zero():
                continue
            s = s + m[k][i].diff(chart.variables[k])
        coeffs.append(s)
    v = Multivector.vector(chart, coeffs)
    mu = _coordinate_volume(chart)
    for i, var in enumerate(chart.variables):
        xf = hamiltonian_vf(pi, Poly.var(chart, var))
        lhs = lie_derivative(xf, mu)
        want = (-coeffs[i]) * mu
        if lhs != want:
            raise ConventionCheckFailed(
                "modular defining property failed for coordinate %s" % var
            )
    return v


# ---------------------------------------------------------------------------
# Modular-foliation report
# ---------------------------------------------------------------------------


class ModularFoliationReport:
    __slots__ = (
        "frame",
        "hamiltonian_expansions",
        "modular_field",
        "modular_expansion",
        "ideal_certificates",
        "failures",
    )

    def __init__(self):
        self.frame = None
        self.hamiltonian_expansions = {}
        self.modular_field = None
        self.modular_expansion = None
        self.ideal_certificates = []
        self.failures = []

    @property
    def passed(self):
        return not self.failures


def modular_foliation_report(pi, frame):
    """Certify F_pi <= F_mod <= F_A for a lifted Poisson structure:
    coordinate Hamiltonian fields and the modular field must expand in the
    frame with polynomial coefficients, and the modular field must preserve
    every principal degeneracy ideal."""
    lift(pi, frame)  # raises NotLiftable on bad input
    rep = ModularFoliationReport()
    rep.frame = frame
    chart = pi.chart
    for var in chart.variables:
        h = hamiltonian_vf(pi, Poly.var(chart, var))
        try:
            rep.hamiltonian_expansions[var] = expand_in_frame(h, frame)
        except NotInModule as e:
            rep.hamiltonian_expansions[var] = None
            rep.failures.append("hamiltonian field of %s not in frame: %s" % (var, e.witness))
    v = modular_vf(pi)
    rep.modular_field = v
    try:
        rep.modular_expansion = expand_in_frame(v, frame)
    except NotInModule as e:
        rep.failures.append("modular field not in frame: %s" % e.witness)
    for level in degeneracy_ideals(pi):
        if not level.principal or level.generator is None:
            continue
        ideal = make_ideal(level.generator)
        ok, cert = preserves(v, ideal)
        rep.ideal_certificates.append((2 * level.k, ideal, ok, cert))
        if not ok:
            rep.failures.append("modular field does not preserve %s" % ideal)
    return rep


# ---------------------------------------------------------------------------
# Darboux model catalog
# ---------------------------------------------------------------------------


def _omega_pairs(chart, slots):
    """Standard symplectic bivector sum over consecutive slot pairs."""
    out = Multivector.zero(chart, 2)
    for a, b in zip(slots[::2], slots[1::2]):
        out = out + Multivector(chart, 2, {(a, b): Poly.const(chart, 1)})
    return out


def darboux_catalog(kind, dim, k=None, lam=None):
    """Local Darboux models, in Cartesian coordinates, as
    (pi, frame, divisor_class): the bivector, the anchor frame it lifts to,
    and its divisor class.

    kinds: log | bk (power k) | scattering | elliptic (parameter lam != 0)
           | elliptic_zero.  The Poisson identity is checked at construction.
    """
    if dim < 2 or dim % 2:
        raise BadParams("Darboux models live on even-dimensional charts")
    if kind in ("log", "bk", "scattering"):
        chart = Chart(["z"] + ["x%d" % i for i in range(1, dim)])
        z = Poly.var(chart, "z")
        if kind == "log":
            k = 1
        if kind in ("log", "bk"):
            if not isinstance(k, int) or k < 1:
                raise BadParams("bk model needs an integer power k >= 1")
            pi = (z**k) * Multivector(chart, 2, {(0, 1): Poly.const(chart, 1)})
            pi = pi + _omega_pairs(chart, list(range(2, dim)))
            frame = catalog("log", chart, "z") if k == 1 else catalog("bk", chart, "z", k)
            cls = (
                DivisorClass(DivisorClass.LOG)
                if k == 1
                else DivisorClass(DivisorClass.BPOWER, k)
            )
        else:
            frame = catalog("scattering", chart, "z")
            # closed nondegenerate scattering form with contact one-form
            # dx1 + x2 dx3 + x4 dx5 + ...; invert exactly and push forward.
            n = dim
            w = [[Poly.zero(chart) for _ in range(n)] for _ in range(n)]

            def setw(i, j, val):
                w[i][j] = val
                w[j][i] = -val

            setw(0, 1, Poly.const(chart, 1))
            for a in range(2, n, 2):
                setw(0, a + 1, Poly.var(chart, "x%d" % a))
                setw(a, a + 1, Poly.const(chart, Fraction(-1, 2)))
            pi = pushforward(frame, Multivector(chart, 2, invert_antisym(w)))
            cls = DivisorClass(DivisorClass.BPOWER, dim + 1)
    elif kind in ("elliptic", "elliptic_zero"):
        chart = Chart(["x", "y"] + ["x%d" % i for i in range(1, dim - 1)])
        x, y = Poly.var(chart, "x"), Poly.var(chart, "y")
        frame = catalog("elliptic", chart, "x", "y")
        if kind == "elliptic":
            lam = Fraction(1) if lam is None else Fraction(lam)
            if lam == 0:
                raise BadParams("elliptic model needs a nonzero residue parameter")
            pi = (lam * (x * x + y * y)) * Multivector(
                chart, 2, {(0, 1): Poly.const(chart, 1)}
            )
            pi = pi + _omega_pairs(chart, list(range(2, dim)))
        else:
            if dim < 4:
                raise BadParams("the zero-residue elliptic model needs dimension >= 4")
            euler = x * Multivector.basis_vector(chart, 0) + y * Multivector.basis_vector(chart, 1)
            rot = x * Multivector.basis_vector(chart, 1) - y * Multivector.basis_vector(chart, 0)
            pi = euler.wedge(Multivector.basis_vector(chart, 2))
            pi = pi + rot.wedge(Multivector.basis_vector(chart, 3))
            pi = pi + _omega_pairs(chart, list(range(4, dim)))
        cls = DivisorClass(DivisorClass.ELLIPTIC)
    else:
        raise BadParams("unknown Darboux model %r" % (kind,))
    if not check_poisson(pi)[0]:  # pragma: no cover - models are Poisson by construction
        raise InternalError("catalog model failed the Poisson check")
    return pi, frame, cls
