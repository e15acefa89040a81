"""Graded exterior calculus on a polynomial chart.

`Multivector` holds polyvector fields with Poly components over the basis
d/dx_{i1} ^ ... ^ d/dx_{ik}; `DiffForm` holds differential forms with Poly
components over dx_{i1} ^ ... ^ dx_{ik}.  Both, like the coframe forms
`frames.CoframeForm` and `dsl.CoframeExpr`, are thin subclasses of
`_Graded`, which implements the graded algebra once.

Every keyed sum of products here (wedge, contraction, pairing, Schouten,
Pfaffian, differential) collects the triples (sign, a, b) that land on each
output index tuple and sums them in one `rings.sum_products` call.  Plain d
is `differential` for the coordinate frame D_i, as d_A is for an anchor frame.

A coefficient is differentiated only in the variables it uses, so no
derivative taken here is zero: `derivative_table` collects those of all
components, {k: [(index tuple, d_k c)]}, for the Schouten contraction and
for the frame brackets of `frames`, and `differential` takes each
component's the same way.  Every index merge (wedge, contraction, d and
d_A, residues, the DSL's basis runs, the det sign of `frames`) goes through
`merge_indices`, whose results come from one bounded memo shared by all
callers: a run needs only a few hundred distinct merges.

The Schouten-Nijenhuis bracket of a p- and a q-vector is computed by the
coordinate contraction

    [P, Q] = sum_k dP/dD_k ^ d_k Q - (-1)^((p-1)(q-1)) dQ/dD_k ^ d_k P,

where dP/dD_k strikes D_k = d/dx_k from the right of each basis monomial
and d_k differentiates the coefficients, read from the derivative table
of the right operand.  It equals the decomposable
expansion

    [X1^...^Xp, Y1^...^Yq] = sum_{i,j} (-1)^(i+j) [Xi,Yj] ^ X...^Y...

extended bilinearly, and for a function g

    [X1^...^Xp, g] = sum_i (-1)^(p-i) Xi(g) X1^...^Xi-hat^...^Xp;

on vector fields it is the ordinary Lie bracket.  In [a, a] the two
contractions coincide, so it is 2 * (the first) for even degree and 0 for
odd degree, and is contracted once.  The k-th partial Pfaffian of a bivector
or 2-form pi is pi^k / k!, so printed values match the usual wedge-power
literals; it is computed without wedge powers, as the Pfaffians of pi on all
2k-subsets of the indices, by one memoized first-row expansion (the shape of
`frames._minor_table`), each expansion one `sum_products` call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .rings import ChartMismatch, Poly, sum_products


class DegreeMismatch(ValueError):
    pass


@lru_cache(maxsize=4096)
def merge_indices(a, b):
    """Sort the concatenation a + b of index tuples without repeats;
    (sign of the permutation, sorted tuple), or None if a and b share one.

    The few distinct merges a run needs repeat thousands of times, so every
    caller shares one bounded memo; its values are immutable."""
    if set(a) & set(b):
        return None
    merged = a + b
    # count inversions of the concatenation (insertion sort parity)
    sign = 1
    lst = list(merged)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


def derivative_table(comps, among=None):
    """{k: [(key, dc/dx_k)]} over the components {key: c}, in their order,
    for the k in `among` (every k if None); each c is differentiated only in
    the variables it uses, so no derivative in the table is zero."""
    table = {}
    for key, c in comps.items():
        vars_ = c.chart.variables
        for k in c.used_indices():
            if among is None or k in among:
                table.setdefault(k, []).append((key, c.diff(vars_[k])))
    return table


def _sum_groups(chart, groups):
    """{key: sum_products(chart, triples)} for groups {key: [(s, a, b), ...]},
    with the zero sums dropped."""
    res = {}
    for key, triples in groups.items():
        v = sum_products(chart, triples)
        if not v.is_zero():
            res[key] = v
    return res


class _Graded:
    """The graded algebra over {increasing index tuple: coefficient}.

    Subclasses supply only what differs between the kinds of element: what
    the indices refer to (`_space`), the printed basis names (`_basis_name`),
    and the extra slots a result carries over (`_like`).  Scalar
    coefficients become constant polynomials.
    """

    __slots__ = ("chart", "degree", "comps")
    _invalid = DegreeMismatch

    def __init__(self, chart, degree, comps=None):
        n = chart.dimension
        if degree < 0 or degree > n:
            raise self._invalid("degree %d out of range for %r" % (degree, chart))
        self.chart = chart
        self.degree = degree
        clean = {}
        if comps:
            for idx, c in comps.items():
                idx = tuple(idx)
                # -1 < idx[0] < idx[1] < ... < idx[-1] < n
                in_order = all(i < j for i, j in zip((-1,) + idx, idx + (n,)))
                if len(idx) != degree or not in_order:
                    raise self._invalid("bad index tuple %r for degree %d" % (idx, degree))
                if not isinstance(c, Poly):
                    c = Poly.const(chart, c)
                elif c.chart is not chart and c.chart != chart:
                    raise ChartMismatch("coefficient on %r for %r" % (c.chart, chart))
                if not c.is_zero():
                    clean[idx] = c
        self.comps = clean

    def _space(self):
        """What the indices refer to; the operands of an operation share it."""
        return self.chart

    @classmethod
    def _make(cls, chart, degree, comps):
        """An element over `comps` that are already clean (increasing
        indices, nonzero Poly coefficients on `chart`)."""
        out = object.__new__(cls)
        out.chart = chart
        out.degree = degree
        out.comps = comps
        return out

    def _like(self, degree, comps):
        """A result of the same kind over the same space, `comps` clean."""
        return self._make(self.chart, degree, comps)

    @classmethod
    def zero(cls, space, degree=0):
        return cls(space, degree, {})

    @classmethod
    def function(cls, p):
        """The degree-0 element p; a scalar carries no chart, so p must be a Poly."""
        if not isinstance(p, Poly):
            raise TypeError("function needs a Poly, not %s" % type(p).__name__)
        return cls(p.chart, 0, {(): p})

    def is_zero(self):
        return not self.comps

    def _same_space(self, other):
        a, b = self._space(), other._space()
        return a is b or a == b

    def _check(self, other):
        if not self._same_space(other):
            raise ChartMismatch("operands over different charts or frames")

    def _check_same_kind(self, other):
        if type(other) is not type(self):
            raise TypeError(
                "cannot combine %s with %s" % (type(self).__name__, type(other).__name__)
            )
        self._check(other)

    def __add__(self, other):
        self._check_same_kind(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeMismatch("cannot add degrees %d and %d" % (self.degree, other.degree))
        res = dict(self.comps)
        for idx, c in other.comps.items():
            res[idx] = res[idx] + c if idx in res else c
            if res[idx].is_zero():
                del res[idx]
        return self._like(self.degree, res)

    def __neg__(self):
        return self._like(self.degree, {i: -c for i, c in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        comps = {}
        for i, v in self.comps.items():
            v = v * c
            if not v.is_zero():
                comps[i] = v
        return self._like(self.degree, comps)

    def __mul__(self, c):
        if isinstance(c, (int, Fraction, Poly)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self._same_space(other):
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.comps == other.comps

    __hash__ = None

    def wedge(self, other):
        self._check_same_kind(other)
        deg = self.degree + other.degree
        if deg > self.chart.dimension:
            return self._like(self.chart.dimension, {})
        groups = {}
        for ia, ca in self.comps.items():
            for ib, cb in other.comps.items():
                m = merge_indices(ia, ib)
                if m is not None:
                    groups.setdefault(m[1], []).append((m[0], ca, cb))
        return self._like(deg, _sum_groups(self.chart, groups))

    def __str__(self):
        return _graded_str(self, self._basis_name)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class Multivector(_Graded):
    """Degree-k polyvector field with Poly components over increasing tuples."""

    __slots__ = ()

    def _basis_name(self, i):
        return "D" + self.chart.variables[i]

    @classmethod
    def basis_vector(cls, chart, i):
        return cls(chart, 1, {(i,): Poly.const(chart, 1)})

    @classmethod
    def vector(cls, chart, coeffs):
        """Vector field from a coefficient list (one Poly per variable)."""
        return cls(chart, 1, {(i,): c for i, c in enumerate(coeffs)})

    def vector_coeffs(self):
        if self.degree != 1:
            raise DegreeMismatch("not a vector field")
        zero = Poly.zero(self.chart)
        return [self.comps.get((i,), zero) for i in range(self.chart.dimension)]

    def apply_to(self, f):
        """Derivation action of a vector field on a Poly."""
        if self.degree != 1:
            raise DegreeMismatch("only vector fields act on functions")
        vars_ = self.chart.variables
        terms = [(1, c, f.diff(vars_[i])) for (i,), c in self.comps.items()]
        return sum_products(self.chart, terms)


class DiffForm(_Graded):
    """Degree-k differential form with Poly components over increasing tuples."""

    __slots__ = ()

    def _basis_name(self, i):
        return "d" + self.chart.variables[i]


def _graded_str(obj, basis_name):
    if not obj.comps:
        # a bare 0 would read back as a scalar: keep the kind and degree
        return "0*" + "^^".join(map(basis_name, range(obj.degree))) if obj.degree else "0"
    parts = []
    for idx in sorted(obj.comps):
        c = obj.comps[idx]
        basis = "^^".join(basis_name(i) for i in idx)
        cs = str(c)
        if not basis:
            parts.append(cs)
            continue
        if cs == "1":
            parts.append(basis)
        elif cs == "-1":
            parts.append("-" + basis)
        else:
            if ("+" in cs or (" - " in cs) or cs.startswith("(")) and not (
                cs.startswith("(") and cs.endswith(")")
            ):
                cs = "(%s)" % cs
            parts.append(cs + "*" + basis)
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------


def _contract(groups, a, b, sign):
    """Collect sign * sum_k da/dD_k ^ d_k b, where da/dD_k strikes D_k from the
    right of each index tuple of a: each product of a coefficient of a and a
    nonzero derivative of one of b, read from b's derivative table in the
    variables a strikes, goes into groups[index tuple] as a `sum_products`
    triple."""
    p = a.degree
    derivs = derivative_table(b.comps, {k for ia in a.comps for k in ia})
    for ia, ca in a.comps.items():
        for pos, k in enumerate(ia):
            db = derivs.get(k)
            if db is None:
                continue
            t = sign if (p - 1 - pos) % 2 == 0 else -sign
            rest = ia[:pos] + ia[pos + 1 :]
            for ib, d in db:
                m = merge_indices(rest, ib)
                if m is None:
                    continue
                s, idx = m
                groups.setdefault(idx, []).append((s * t, ca, d))


def schouten_bracket(a, b):
    """Schouten-Nijenhuis bracket of Multivectors; degree |a|+|b|-1.

    [a, b] = sum_k da/dD_k ^ d_k b - (-1)^((p-1)(q-1)) db/dD_k ^ d_k a, which
    equals the decomposable expansion; on vector fields this is the Lie
    bracket, and [v, f] = v(f) for functions f.
    """
    a._check(b)
    chart = a.chart
    p, q = a.degree, b.degree
    deg = p + q - 1
    if deg < 0:
        # [f, g] = 0 for functions; represent as the zero function
        return Multivector.zero(chart, 0)
    if deg > chart.dimension:
        # indices must repeat, so the bracket vanishes identically
        return Multivector.zero(chart, chart.dimension)
    groups = {}
    if a is b:
        # the second contraction is -(-1)^(p-1) times the first, so [a, a]
        # is 0 for odd p and twice the first contraction for even p
        if p % 2:
            return a._like(deg, {})
        _contract(groups, a, a, 2)
    else:
        _contract(groups, a, b, 1)
        _contract(groups, b, a, 1 if (p - 1) * (q - 1) % 2 else -1)
    return a._like(deg, _sum_groups(chart, groups))


# ---------------------------------------------------------------------------
# Contraction, pairing, Lie derivative, exterior derivative
# ---------------------------------------------------------------------------


def interior_product(v, w):
    """Contraction of a vector field into a DiffForm (first slot)."""
    if v.degree != 1:
        raise DegreeMismatch("interior product needs a vector field")
    v._check(w)
    if w.degree == 0:
        return DiffForm.zero(w.chart, 0)
    groups = {}
    vc = {i: c for (i,), c in v.comps.items()}
    for idx, c in w.comps.items():
        for pos, i in enumerate(idx):
            if i in vc:
                key = idx[:pos] + idx[pos + 1 :]
                groups.setdefault(key, []).append((-1 if pos % 2 else 1, c, vc[i]))
    return w._like(w.degree - 1, _sum_groups(w.chart, groups))


def pairing(form, mv):
    """Full pairing of a k-form with a k-multivector, a Poly."""
    form._check(mv)
    if form.degree != mv.degree:
        raise DegreeMismatch("pairing needs equal degrees")
    pairs = [(1, c, mv.comps[idx]) for idx, c in form.comps.items() if idx in mv.comps]
    return sum_products(form.chart, pairs)


def differential(w, anchor, structure):
    """Chevalley-Eilenberg differential of a form over generators e_i:
    anchor[i] lists the (j, c) with e_i = sum c*D_j, and structure maps each
    pair i < j to the c^k_ij of [e_i, e_j] = sum_k c^k_ij e_k.  With
    d f = sum_i e_i(f) e^i and d e^k = -sum_{i<j} c^k_ij e^i ^ e^j,
    d(f e^I) = d f ^ e^I + f sum_p (-1)^p d e^{I_p} ^ e^{I - I_p}.  Each
    component is differentiated once, only in the variables it uses, so no
    derivative is zero; zero structure coefficients are skipped before their
    indices are merged."""
    chart = w.chart
    if w.degree >= chart.dimension:
        return w._like(chart.dimension, {})
    vars_ = chart.variables
    groups = {}
    for idx, f in w.comps.items():
        derivs = {j: f.diff(vars_[j]) for j in f.used_indices()}
        for i, gen in enumerate(anchor):
            if i in idx:
                continue  # e^i ^ e^I = 0
            group = None
            for j, c in gen:
                df = derivs.get(j)
                if df is None:
                    continue
                if group is None:
                    s, key = merge_indices((i,), idx)
                    group = groups.setdefault(key, [])
                group.append((s, c, df))
        for pair, coeffs in structure.items():
            for pos, k in enumerate(idx):
                if coeffs[k].is_zero():
                    continue
                m = merge_indices(pair, idx[:pos] + idx[pos + 1 :])
                if m is not None:
                    t = m[0] if pos % 2 else -m[0]  # the sign of d e^k times (-1)^pos
                    groups.setdefault(m[1], []).append((t, f, coeffs[k]))
    return w._like(w.degree + 1, _sum_groups(chart, groups))


def exterior_derivative(w):
    """Exact exterior derivative of a DiffForm, the differential of the
    coordinate frame D_i with no structure coefficients; d o d = 0."""
    one = Poly.const(w.chart, 1)
    return differential(w, [((i, one),) for i in range(w.chart.dimension)], {})


def lie_derivative(v, t):
    """Lie derivative along a vector field: [v, .] on multivectors (and
    functions), Cartan's formula on forms."""
    if isinstance(t, Poly):
        return v.apply_to(t)
    if isinstance(t, Multivector):
        return schouten_bracket(v, t)
    if isinstance(t, DiffForm):
        return interior_product(v, exterior_derivative(t)) + exterior_derivative(
            interior_product(v, t)
        )
    raise TypeError("cannot take a Lie derivative of %r" % (t,))


def partial_pfaffian(pi, k):
    """k-th partial Pfaffian pi^k / k! of a 2-form or bivector.

    Its component on each increasing 2k-tuple S is the Pfaffian Pf(pi|S),
    expanded along S's first row in one `sum_products` call,

        Pf(S) = sum_j (-1)^(j-1) pi[s0, sj] Pf(S - {s0, sj});

    zero entries and zero sub-Pfaffians are skipped, and each sub-Pfaffian
    is memoized by its index tuple, once per call."""
    if pi.degree != 2:
        raise DegreeMismatch("partial Pfaffian needs a 2-form or bivector")
    chart = pi.chart
    if k < 0 or 2 * k > chart.dimension:
        raise ValueError("partial Pfaffian order %d out of range" % k)
    entries = pi.comps
    zero = Poly.zero(chart)
    one = Poly.const(chart, 1)
    memo = {}

    def pf(idx):
        if len(idx) < 3:
            return entries.get(idx, zero) if idx else one
        total = memo.get(idx)
        if total is None:
            first, rest = idx[0], idx[1:]
            terms = []
            for pos, j in enumerate(rest):
                a = entries.get((first, j))
                if a is None:
                    continue
                sub = pf(rest[:pos] + rest[pos + 1 :])
                if not sub.is_zero():
                    terms.append((-1 if pos % 2 else 1, a, sub))
            total = memo[idx] = sum_products(chart, terms)
        return total

    comps = {}
    for idx in combinations(range(chart.dimension), 2 * k):
        c = pf(idx)
        if not c.is_zero():
            comps[idx] = c
    return pi._like(2 * k, comps)


def bivector_matrix(pi):
    """Full antisymmetric coefficient matrix of a bivector."""
    n = pi.chart.dimension
    zero = Poly.zero(pi.chart)
    m = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), c in pi.comps.items():
        m[i][j] = c
        m[j][i] = -c
    return m

