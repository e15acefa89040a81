"""Principal divisor ideals on a polynomial chart.

A divisor ideal is stored by a single normalized generator (content one,
positive leading coefficient); nowhere-dense vanishing is exactly
"generator is nonzero" for polynomials on R^n.  Classification into the
catalog (log, normal-crossing, b^k, elliptic, elliptic-log) is a sound but
deliberately incomplete pattern matcher: anything it cannot factor into
recognized atoms comes back Unclassified.
"""

from __future__ import annotations

from .rings import Poly, exact_divide, squarefree_part
from .multivector import Multivector


class ZeroGenerator(ValueError):
    pass


class Atom:
    """A recognized irreducible factor: linear with nonzero gradient, or a
    positive-definite quadratic in two chart variables."""

    LOG = "log_linear"
    ELLIPTIC = "elliptic_quadratic"

    __slots__ = ("kind", "poly", "pair")

    def __init__(self, kind, poly, pair=None):
        self.kind = kind
        self.poly = poly
        self.pair = pair  # the two variables of an elliptic atom

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.kind == other.kind
            and self.poly == other.poly
        )

    __hash__ = None

    def __repr__(self):
        return "Atom(%s, %s)" % (self.kind, self.poly)


class DivisorClass:
    """Classification tag; `args` carries j for normal crossings, k for b^k,
    or the member tags of a product."""

    TRIVIAL = "Trivial"
    LOG = "Log"
    NC_LOG = "NormalCrossingLog"
    BPOWER = "BPower"
    ELLIPTIC = "Elliptic"
    ELLIPTIC_LOG = "EllipticLog"
    PRODUCT = "Product"
    UNCLASSIFIED = "Unclassified"

    __slots__ = ("tag", "args")

    def __init__(self, tag, args=None):
        self.tag = tag
        self.args = args

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and (self.tag, self.args) == (
            other.tag,
            other.args,
        )

    __hash__ = None

    def __str__(self):
        if self.args is None:
            return self.tag
        if isinstance(self.args, (list, tuple)):
            return "%s(%s)" % (self.tag, ", ".join(str(a) for a in self.args))
        return "%s(%s)" % (self.tag, self.args)

    __repr__ = __str__


class DivisorIdeal:
    """Principal ideal with a normalized nonzero generator."""

    __slots__ = ("generator",)

    def __init__(self, generator):
        if generator.is_zero():
            raise ZeroGenerator("a zero section has dense zero set, not a divisor")
        self.generator = generator.unit_normalized()

    @property
    def chart(self):
        return self.generator.chart

    def __eq__(self, other):
        return isinstance(other, DivisorIdeal) and self.generator == other.generator

    __hash__ = None

    def __str__(self):
        return "<%s>" % self.generator

    __repr__ = __str__


def make_ideal(gen):
    return DivisorIdeal(gen)


def product(i, j):
    if i.chart != j.chart:
        raise ValueError("ideals on different charts")
    return DivisorIdeal(i.generator * j.generator)


def divides_ideal(i, j):
    """True when j = i * k for some divisor ideal k (exact generator division)."""
    if i.chart != j.chart:
        raise ValueError("ideals on different charts")
    return exact_divide(j.generator, i.generator) is not None


def preserves(v, ideal):
    """Does the vector field preserve the ideal?  Returns (flag, certificate)
    with L_v(gen) = certificate * gen on success."""
    if not isinstance(v, Multivector) or v.degree != 1:
        raise ValueError("preserves() expects a vector field")
    f = ideal.generator
    lie = v.apply_to(f)
    if lie.is_zero():
        return True, Poly.zero(f.chart)
    q = exact_divide(lie, f)
    if q is None:
        return False, None
    return True, q


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _is_linear_atom(p):
    """Linear polynomial with a nonzero (hence constant, nonvanishing) gradient."""
    if p.is_zero() or p.total_degree() != 1:
        return False
    return True


def _linear_gradient(p):
    return [p.diff(v).constant_value() for v in p.chart.variables]


def _is_elliptic_atom(p):
    """Homogeneous quadratic in exactly two chart variables with positive
    definite coefficient matrix (determinant and trace test on rationals)."""
    used = sorted(p.variables_used(), key=p.chart.index)
    if len(used) != 2 or p.total_degree() != 2:
        return None
    if not p.is_homogeneous():
        return None
    u, v = used
    iu, iv = p.chart.index(u), p.chart.index(v)

    def coeff(eu, ev):
        e = [0] * p.chart.dimension
        e[iu], e[iv] = eu, ev
        return p.coeff(e)

    a, b, c = coeff(2, 0), coeff(1, 1), coeff(0, 2)
    # matrix [[a, b/2], [b/2, c]] positive definite: a > 0 and 4 * det > 0
    if a > 0 and 4 * a * c > b * b:
        return (u, v)
    return None


def _may_be_elliptic_power(p):
    """Could the squarefree part of p be an elliptic atom?  Such an atom q is
    irreducible (it has no real linear factor), so p would be c*q^k:
    homogeneous of even degree in exactly two variables."""
    return len(p.variables_used()) == 2 and p.total_degree() % 2 == 0 and p.is_homogeneous()


def _divide_out(residual, p):
    """(residual / p^mult, mult) for the largest mult with p^mult | residual."""
    mult = 0
    while True:
        q = exact_divide(residual, p)
        if q is None:
            return residual, mult
        residual = q
        mult += 1


def classify(ideal):
    """Atom decomposition and catalog tag.  Sound but incomplete: returns
    Unclassified rather than guessing."""
    gen = ideal.generator
    if gen.is_constant():
        return DivisorClass(DivisorClass.TRIVIAL)
    chart = gen.chart
    residual = gen
    atoms = []

    # a coordinate's whole power comes off in one division
    for v in chart.variables:
        mult = residual.order_in(v)
        if mult:
            x = Poly.var(chart, v)
            residual = exact_divide(residual, x**mult)
            atoms.append((Atom(Atom.LOG, x), mult))

    # whole residual itself linear
    if _is_linear_atom(residual):
        atoms.append((Atom(Atom.LOG, residual.unit_normalized()), 1))
        residual = Poly.const(chart, residual.content())

    # an elliptic atom: the squarefree part of whatever remains (catching
    # powers of a single positive-definite quadratic)
    if _may_be_elliptic_power(residual):
        sq = squarefree_part(residual)
        pair = _is_elliptic_atom(sq)
        if pair:
            residual, mult = _divide_out(residual, sq)
            atoms.append((Atom(Atom.ELLIPTIC, sq.unit_normalized(), pair), mult))

    if not residual.is_constant():
        return DivisorClass(DivisorClass.UNCLASSIFIED)
    return _tag_from_atoms(atoms)


def _tag_from_atoms(atoms):
    lin = [(a, m) for a, m in atoms if a.kind == Atom.LOG]
    ell = [(a, m) for a, m in atoms if a.kind == Atom.ELLIPTIC]
    if len(lin) == 1 and not ell:
        a, m = lin[0]
        if m == 1:
            return DivisorClass(DivisorClass.LOG)
        return DivisorClass(DivisorClass.BPOWER, m)
    if lin and not ell and all(m == 1 for _, m in lin):
        grads = [_linear_gradient(a.poly) for a, _ in lin]
        if _pairwise_independent(grads):
            return DivisorClass(DivisorClass.NC_LOG, len(lin))
        return DivisorClass(DivisorClass.PRODUCT, [DivisorClass.LOG] * len(lin))
    if len(ell) == 1 and not lin and ell[0][1] == 1:
        return DivisorClass(DivisorClass.ELLIPTIC)
    if len(ell) == 1 and len(lin) == 1 and ell[0][1] == 1 and lin[0][1] == 1:
        a_lin = lin[0][0]
        a_ell = ell[0][0]
        if _linear_vanishes_on_pair_axis(a_lin.poly, a_ell.pair):
            return DivisorClass(DivisorClass.ELLIPTIC_LOG)
    members = []
    for a, m in atoms:
        base = DivisorClass.LOG if a.kind == Atom.LOG else DivisorClass.ELLIPTIC
        members.extend([base] * m)
    return DivisorClass(DivisorClass.PRODUCT, members)


def _pairwise_independent(grads):
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            gi, gj = grads[i], grads[j]
            # rank of the 2 x n matrix must be 2
            rank2 = False
            for a in range(len(gi)):
                for b in range(a + 1, len(gi)):
                    if gi[a] * gj[b] - gi[b] * gj[a] != 0:
                        rank2 = True
            if not rank2:
                return False
    return True


def _linear_vanishes_on_pair_axis(lin, pair):
    """Does the linear form vanish on {u = v = 0, other variables free}?"""
    return lin.substitute_zero(pair).is_zero()
