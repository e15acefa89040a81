"""Residue maps along catalog degeneracy loci, and cosymplectic spinors.

Orientation convention: the singular co-generators are extracted from the
RIGHT, i.e. a component is rewritten e^I = sigma * e^(I minus S) ^ e^S and
the residue keeps sigma times its coefficient, restricted to the locus.
With this convention the residue commutes exactly with the differentials
(plain d on the locus; for the elliptic-log residue onto Z the natural
twisted differential d - f^) and the elliptic-log factorization
Res_D = Res_{Z,D} o Res_Z holds with no correction factors.

`residue` returns the form itself: a DiffForm on the locus chart, whose
differential is plain d, or for the elliptic-log residue onto Z a
CoframeForm over the induced log frame, whose differential is d - f^
(`restricted_d` picks the one that fits the form's type).
"""

from __future__ import annotations

from .rings import InternalError
from .frames import BadParams, CoframeForm, algebroid_d, catalog, invert_antisym
from .multivector import (
    DiffForm,
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


def _restrict(w, spec, extracted, forbidden):
    """The components of w that carry every co-generator at the label
    positions `extracted` and none at `forbidden`: each is rewritten
    e^I = sigma * e^(I minus S) ^ e^S, and sigma times its coefficient is
    restricted to the locus.  Returns a DiffForm on the locus sub-chart, or
    for the elliptic-log residue onto Z a CoframeForm over the induced log
    frame.  Distinct components give distinct output keys."""
    frame = spec.frame
    chart, label = frame.chart, frame.label
    s = _slots(frame, extracted)
    forbidden = _slots(frame, forbidden)
    sub = chart.subchart(set(spec.locus))
    slot_map = {i: sub.index(v) for i, v in enumerate(chart.variables) if v not in spec.locus}
    form_type, space = DiffForm, sub
    if spec.flavor == ELLLOG_Z:
        # the swirl generator is the germinal isotropy along Z = {x = 0};
        # the Euler dual restricts to the log co-generator of y on Z
        slot_map[chart.index(label[1])] = slot_map.pop(chart.index(label[2]))
        form_type, space = CoframeForm, catalog("log", sub, label[2])

    comps = {}
    for idx, c in w.comps.items():
        iset = set(idx)
        if not s <= iset or forbidden & iset:
            continue
        rc = c.substitute_zero(spec.locus).restrict(sub)
        if rc.is_zero():
            continue
        # e^idx = sign * e^rest ^ e^s; the elllog_z slot map need not
        # preserve order, so re-sort with its sign too
        rest = tuple(i for i in idx if i not in s)
        sign = merge_indices(rest, tuple(sorted(s)))[0]
        moved, key = merge_indices(tuple(slot_map[i] for i in rest), ())
        comps[key] = rc if sign * moved > 0 else -rc

    deg = max(w.degree - len(s), 0)
    if deg > sub.dimension:
        # the slot map is injective, so no component can survive here
        if comps:
            raise InternalError("residue above the locus dimension (internal error)")
        deg = sub.dimension
    return form_type(space, deg, comps)


def residue(w, spec):
    """Extract the singular co-generator coefficients named by the flavor
    and restrict them to the locus: a DiffForm on the locus chart, or for
    `elllog_z` a CoframeForm over the induced log frame."""
    if w.frame != spec.frame:
        raise FlavorMismatch("form is not expressed over the spec's frame")
    _, _, extracted, forbidden = _TABLE[spec.flavor]
    # the lower elliptic residues need a vanishing elliptic residue
    if forbidden and not _restrict(w, spec, extracted + forbidden, ()).is_zero():
        raise NonzeroHigherResidue(
            "the %s residue is defined on forms with vanishing elliptic residue"
            % spec.flavor
        )
    return _restrict(w, spec, extracted, forbidden)


def restricted_d(form):
    """The natural differential on a residue target: plain exterior d, or
    the twisted log-coframe differential d - f^ for the elliptic-log
    residue onto Z (the isotropy line is a nontrivial module there)."""
    if isinstance(form, DiffForm):
        return exterior_derivative(form)
    target = form.frame
    f1 = CoframeForm.basis(target, target.chart.index(target.label[1]))
    return algebroid_d(form) - f1.wedge(form)


def cochain_check(w, spec):
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
    return residue(algebroid_d(w), spec) == restricted_d(residue(w, spec))


def elliptic_log_factorization(w, frame):
    """Res_D = Res_{Z,D} o Res_Z, exactly, for elliptic-log frames."""
    direct = residue(w, ResidueSpec(frame, ELLLOG_D))
    step1 = residue(w, ResidueSpec(frame, ELLLOG_Z))
    step2 = residue(step1, ResidueSpec(step1.frame, LOG))
    return direct == step2, direct, step2


# ---------------------------------------------------------------------------
# Cosymplectic spinors
# ---------------------------------------------------------------------------


def dual_form(cert):
    """Dual coframe 2-form -pi_A^-1 of a nondegenerate lift with constant
    Pfaffian, by the exact inverse of the lifted bivector's matrix."""
    return CoframeForm(cert.frame, 2, invert_antisym(bivector_matrix(cert.lifted)))


class SpinorReport:
    __slots__ = ("alpha", "alpha2", "beta", "rho", "rho_top", "closed", "identities")

    def __init__(self):
        self.alpha = None
        self.alpha2 = None
        self.beta = None
        self.rho = []
        self.rho_top = None
        self.closed = False
        self.identities = []


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
    if omega.degree != 2:
        raise BadParams("spinors are built from 2-forms")
    if not algebroid_d(omega).is_zero():
        raise BadParams("the dual form must be d_A-closed")
    n2 = spec.frame.chart.dimension
    if n2 % 2:
        raise BadParams("spinor extraction needs an even-dimensional chart")
    n = n2 // 2
    rep = SpinorReport()

    # the flavor fixes the leading singular form and the first nonzero rho
    if spec.flavor == LOG:
        rep.alpha = residue(omega, spec)
        lead, first = rep.alpha, 1
        top_name = "Res(omega^n/n!) = Res(omega)^beta^(n-1)/(n-1)!"
    elif spec.flavor == ELLIPTIC_Q:
        q = residue(omega, spec)
        if not q.is_zero():
            raise NonzeroEllipticResidue(
                "elliptic residue of the dual form is %s != 0" % q
            )
        # q = 0 is what the lower residues need, so extract them directly
        rep.alpha = _restrict(omega, spec, *_TABLE[ELLIPTIC_R][2:])
        rep.alpha2 = _restrict(omega, spec, *_TABLE[ELLIPTIC_THETA][2:])
        lead, first = -rep.alpha.wedge(rep.alpha2), 2
        top_name = "Res_q(omega^n/n!) = -Res_r^Res_theta^beta^(n-2)/(n-2)!"
    else:
        raise FlavorMismatch("spinor extraction is defined for log and elliptic flavors")

    # beta: the part of omega free of the extracted co-generators, on the locus
    rep.beta = _restrict(omega, spec, (), _TABLE[spec.flavor][2])
    rep.rho = [residue(partial_pfaffian(omega, k), spec) for k in range(first, n + 1)]
    # with n < first the top residue is Res_q(omega), the zero checked above
    if not rep.rho or rep.rho[-1].is_zero():
        raise DegenerateSpinor("top residue of e^omega vanishes; omega was degenerate")
    rep.rho_top = rep.rho[-1]
    rep.closed = all(
        restricted_d(r).is_zero() for r in rep.rho + [rep.alpha, rep.alpha2] if r is not None
    )
    if rep.alpha2 is not None:
        rep.identities.append(
            ("Res_q(omega^2/2!) = -Res_r(omega)^Res_theta(omega)", rep.rho[0] == lead)
        )
    # beta^0/0! = 1, whatever beta is
    top_expected = lead.wedge(partial_pfaffian(rep.beta, n - first)) if n > first else lead
    rep.identities.append((top_name, rep.rho_top == top_expected))
    return rep
