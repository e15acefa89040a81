"""Residue maps along catalog degeneracy loci, and cosymplectic spinors.

Orientation convention: the singular co-generators are extracted from the
RIGHT, i.e. a component is rewritten e^I = sigma * e^(I minus S) ^ e^S and
the residue keeps sigma times its coefficient, restricted to the locus.
With this convention the residue commutes exactly with the differentials
(plain d on the locus; for the elliptic-log residue onto Z the natural
twisted differential d - f^) and the elliptic-log factorization
Res_D = Res_{Z,D} o Res_Z holds with no correction factors.
"""

from __future__ import annotations

from .rings import InternalError
from .frames import BadParams, CoframeForm, algebroid_d, catalog, invert_antisym
from .multivector import (
    DiffForm,
    _accumulate,
    bivector_matrix,
    exterior_derivative,
    merge_indices,
    partial_pfaffian,
)


class FlavorMismatch(ValueError):
    pass


class NonzeroHigherResidue(ValueError):
    pass


class NonzeroEllipticResidue(ValueError):
    pass


class DegenerateSpinor(ValueError):
    pass


LOG = "log"
ELLIPTIC_Q = "elliptic_q"
ELLIPTIC_R = "elliptic_r"
ELLIPTIC_THETA = "elliptic_theta"
ELLLOG_Z = "elllog_z"
ELLLOG_D = "elllog_d"

FLAVORS = (LOG, ELLIPTIC_Q, ELLIPTIC_R, ELLIPTIC_THETA, ELLLOG_Z, ELLLOG_D)

# flavor -> (frame kinds, locus, extracted co-generators, forbidden
# co-generators); the last three are positions in the frame label
_TABLE = {
    LOG: (("log", "bk"), (1,), (1,), ()),
    ELLIPTIC_Q: (("elliptic",), (1, 2), (1, 2), ()),
    ELLIPTIC_R: (("elliptic",), (1, 2), (1,), (2,)),
    ELLIPTIC_THETA: (("elliptic",), (1, 2), (2,), (1,)),
    ELLLOG_Z: (("elliptic_log",), (1,), (2,), ()),
    ELLLOG_D: (("elliptic_log",), (1, 2), (1, 2), ()),
}


class ResidueSpec:
    """Frame + flavor; the locus variables are derived from the catalog label."""

    __slots__ = ("frame", "flavor", "locus")

    def __init__(self, frame, flavor):
        if frame.label is None:
            raise FlavorMismatch("residues are defined for catalog-labeled frames")
        if flavor not in FLAVORS:
            raise FlavorMismatch("unknown residue flavor %r" % (flavor,))
        kinds, locus = _TABLE[flavor][:2]
        kind = frame.label[0]
        if kind not in kinds:
            raise FlavorMismatch(
                "%s residue needs a frame of kind %s, not %r"
                % (flavor, " or ".join(kinds), kind)
            )
        self.locus = tuple(frame.label[i] for i in locus)
        for v in self.locus:
            if v not in frame.chart:
                raise FlavorMismatch("locus variable %r not on the chart" % (v,))
        self.frame = frame
        self.flavor = flavor


def _slots(frame, positions):
    """Chart slots of the variables at these positions of the frame label."""
    return {frame.chart.index(frame.label[i]) for i in positions}


class RestrictedForm:
    """Residue output: a plain form on the locus sub-chart, or (for the
    elliptic-log residue onto Z) a coframe form over the induced log frame,
    whose natural differential carries the isotropy twist."""

    __slots__ = ("kind", "chart", "form")

    def __init__(self, kind, chart, form):
        self.kind = kind  # "plain" | "log_coframe"
        self.chart = chart
        self.form = form

    @property
    def twisted(self):
        return self.kind == "log_coframe"

    def is_zero(self):
        return self.form.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RestrictedForm):
            return NotImplemented
        return self.kind == other.kind and self.form == other.form

    __hash__ = None

    def __str__(self):
        return str(self.form)

    __repr__ = __str__


def _sub_chart_data(frame, locus):
    chart = frame.chart
    sub = chart.subchart(set(locus))
    slot_map = {}
    for i, v in enumerate(chart.variables):
        if v not in locus:
            slot_map[i] = sub.index(v)
    return sub, slot_map


def _restrict_coeff(c, locus, sub):
    return c.substitute_zero(locus).restrict(sub)


def residue(w, spec, force=False):
    """Extract the singular co-generator coefficients named by the flavor
    and restrict them to the locus."""
    frame = spec.frame
    if w.frame != frame:
        raise FlavorMismatch("form is not expressed over the spec's frame")
    chart = frame.chart
    label = frame.label
    _, _, extracted, forbidden = _TABLE[spec.flavor]
    s = _slots(frame, extracted)
    forbidden = _slots(frame, forbidden)
    sub, slot_map = _sub_chart_data(frame, spec.locus)
    kind, form_type, space = "plain", DiffForm, sub
    if spec.flavor == ELLLOG_Z:
        # the swirl generator is the germinal isotropy along Z = {x = 0};
        # the Euler dual restricts to the log co-generator of y on Z
        slot_map[chart.index(label[1])] = slot_map.pop(chart.index(label[2]))
        kind, form_type, space = "log_coframe", CoframeForm, catalog("log", sub, label[2])

    if forbidden and not force:
        q = residue(w, ResidueSpec(frame, ELLIPTIC_Q))
        if not q.is_zero():
            raise NonzeroHigherResidue(
                "the %s residue is defined on forms with vanishing elliptic residue"
                % spec.flavor
            )

    comps = {}
    for idx, c in w.comps.items():
        iset = set(idx)
        if not s <= iset or forbidden & iset:
            continue
        rc = _restrict_coeff(c, spec.locus, sub)
        if rc.is_zero():
            continue
        # e^idx = sign * e^rest ^ e^s; the elllog_z slot map need not
        # preserve order, so re-sort with its sign too
        rest = tuple(i for i in idx if i not in s)
        sign = merge_indices(rest, tuple(sorted(s)))[0]
        moved, key = merge_indices(tuple(slot_map[i] for i in rest), ())
        _accumulate(comps, key, rc if sign * moved > 0 else -rc)

    deg = max(w.degree - len(s), 0)
    if deg > sub.dimension:
        # only possible for the lower elliptic residues, whose forbidden slot
        # removes one more direction; no component can survive then
        if comps:
            raise InternalError("residue above the locus dimension (internal error)")
        deg = sub.dimension
    return RestrictedForm(kind, sub, form_type(space, deg, comps))


def restricted_d(res):
    """The natural differential on a residue target: plain exterior d, or
    the twisted log-coframe differential d - f^ for the elliptic-log
    residue onto Z (the isotropy line is a nontrivial module there)."""
    if res.kind == "plain":
        return RestrictedForm("plain", res.chart, exterior_derivative(res.form))
    target = res.form.frame
    f1 = CoframeForm.basis(target, target.chart.index(target.label[1]))
    return RestrictedForm("log_coframe", res.chart, algebroid_d(res.form) - f1.wedge(res.form))


def cochain_check(w, spec, force=False):
    """Verify residue(d_A w) = d(residue(w)) exactly, with d the natural
    differential of the flavor's target complex.

    Not available for the elliptic-log residue onto D, which is not a
    cochain map for any untwisted differential; use
    elliptic_log_factorization instead."""
    if spec.flavor == ELLLOG_D:
        raise FlavorMismatch(
            "the residue onto D has no untwisted cochain identity; "
            "check the factorization Res_D = Res_{Z,D} o Res_Z instead"
        )
    lhs = residue(algebroid_d(w), spec, force=force)
    rhs = restricted_d(residue(w, spec, force=force))
    return lhs == rhs


def elliptic_log_factorization(w, frame):
    """Res_D = Res_{Z,D} o Res_Z, exactly, for elliptic-log frames."""
    direct = residue(w, ResidueSpec(frame, ELLLOG_D))
    step1 = residue(w, ResidueSpec(frame, ELLLOG_Z))
    target = step1.form.frame
    step2 = residue(step1.form, ResidueSpec(target, LOG))
    return direct == step2, direct, step2


# ---------------------------------------------------------------------------
# Cosymplectic spinors
# ---------------------------------------------------------------------------


def dual_form(cert):
    """Dual coframe 2-form of a nondegenerate lift with constant Pfaffian:
    invert the lifted bivector's coefficient matrix exactly."""
    p = bivector_matrix(cert.lifted)
    winv = invert_antisym(p)
    comps = {}
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            v = -winv[i][j]
            if not v.is_zero():
                comps[(i, j)] = v
    return CoframeForm(cert.frame, 2, comps)


class SpinorReport:
    __slots__ = (
        "flavor",
        "alpha",
        "alpha2",
        "beta",
        "rho",
        "rho_top",
        "closed",
        "identities",
        "chart",
    )

    def __init__(self):
        self.flavor = None
        self.alpha = None
        self.alpha2 = None
        self.beta = None
        self.rho = []
        self.rho_top = None
        self.closed = False
        self.identities = []
        self.chart = None


def _plain_part(w, spec):
    """Components of a coframe 2-form free of the flavor's extracted slots,
    pulled back to the locus sub-chart; 0 when the locus is too small to
    carry a form of that degree."""
    sing = _slots(spec.frame, _TABLE[spec.flavor][2])
    sub, slot_map = _sub_chart_data(spec.frame, spec.locus)
    if w.degree > sub.dimension:
        return DiffForm.zero(sub)
    comps = {}
    for idx, c in w.comps.items():
        if set(idx) & sing:
            continue
        rc = _restrict_coeff(c, spec.locus, sub)
        if not rc.is_zero():
            comps[tuple(slot_map[i] for i in idx)] = rc
    return DiffForm(sub, w.degree, comps)


def cosymplectic_spinor(omega, spec):
    """Residues of e^omega for a closed nondegenerate dual form over a log,
    b^k, or elliptic frame; certifies closedness, the nonzero top component,
    and the exact product identities of the catalog propositions.

    For the elliptic flavor the elliptic residue of omega must vanish
    (otherwise NonzeroEllipticResidue), and the exact identity certified is
    Res_q(omega^2/2!) = -Res_r(omega) ^ Res_theta(omega): the paper's
    inline display tracks the exponential's components, so the wedge-square
    statement carries the 1/2! normalization.
    """
    frame = spec.frame
    if omega.degree != 2:
        raise BadParams("spinors are built from 2-forms")
    if not algebroid_d(omega).is_zero():
        raise BadParams("the dual form must be d_A-closed")
    n2 = frame.chart.dimension
    if n2 % 2:
        raise BadParams("spinor extraction needs an even-dimensional chart")
    n = n2 // 2
    rep = SpinorReport()
    rep.flavor = spec.flavor

    # the flavor fixes the leading singular form and the first nonzero rho
    if spec.flavor == LOG:
        rep.alpha = residue(omega, spec)
        lead, first = rep.alpha.form, 1
        top_name = "Res(omega^n/n!) = Res(omega)^beta^(n-1)/(n-1)!"
    elif spec.flavor == ELLIPTIC_Q:
        q = residue(omega, spec)
        if not q.is_zero():
            raise NonzeroEllipticResidue(
                "elliptic residue of the dual form is %s != 0" % q
            )
        rep.alpha = residue(omega, ResidueSpec(frame, ELLIPTIC_R))
        rep.alpha2 = residue(omega, ResidueSpec(frame, ELLIPTIC_THETA))
        lead, first = -rep.alpha.form.wedge(rep.alpha2.form), 2
        top_name = "Res_q(omega^n/n!) = -Res_r^Res_theta^beta^(n-2)/(n-2)!"
    else:
        raise FlavorMismatch("spinor extraction is defined for log and elliptic flavors")

    rep.beta = _plain_part(omega, spec)
    rep.chart = rep.alpha.chart
    rep.rho = [residue(partial_pfaffian(omega, k), spec) for k in range(first, n + 1)]
    rep.rho_top = rep.rho[-1]
    if rep.rho_top.is_zero():
        raise DegenerateSpinor("top residue of e^omega vanishes; omega was degenerate")
    rep.closed = all(
        restricted_d(r).is_zero() for r in rep.rho + [rep.alpha, rep.alpha2] if r is not None
    )
    if rep.alpha2 is not None:
        rep.identities.append(
            ("Res_q(omega^2/2!) = -Res_r(omega)^Res_theta(omega)", rep.rho[0].form == lead)
        )
    # beta^0/0! = 1, whatever beta is
    top_expected = lead.wedge(partial_pfaffian(rep.beta, n - first)) if n > first else lead
    rep.identities.append((top_name, rep.rho_top.form == top_expected))
    return rep
