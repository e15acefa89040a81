"""Exact multivariate polynomial arithmetic.

Coefficients are exact rationals, so every equality test in the engine is a
decision, never an approximation.  Polynomials live on a fixed `Chart` (an
ordered tuple of variable names, empty for a point, where every polynomial
is a constant); terms are stored as a map from packed monomials to nonzero
rational coefficients.

A monomial is packed into one Python `int` (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", 2007):
the exponent of variable i sits in a `FIELD_BITS`-bit field, variable 0 most
significant, and the total degree sits in one more field above them all.
The top bit of every field is a guard bit that a stored monomial keeps
clear, so an exponent, and the total degree, is at most `MAX_DEGREE` =
2**31 - 1.  With this layout

- integer order is graded lexicographic order (total degree first, then
  the leftmost variable strongest), the canonical order used for printing
  and for leading-term extraction, so `max` and `sorted` on the ints decide
  it;
- the monomial of a product is the sum of the two ints;
- m is divisible by g exactly when `((m | guard) - g) & guard == guard`
  (no field borrows from the one above, and a field keeps its guard bit
  exactly when its exponent in m is at least that in g).

Every product and power checks its total degree before it multiplies and
raises `DegreeCapExceeded` above `MAX_DEGREE`, so a carry between fields
never happens, or above the cap of the innermost enclosing `degree_cap`
block (`cli.main` opens one per command, from `DK_MAX_DEGREE`).
`Poly.terms` is a read-only view of the terms keyed by exponent tuples, for
callers that want them.  Outside this module only the DSL reader and the
frames' involutivity block touch the packed form.  The reader builds packed
monomials from `Chart._units`, adds `Poly._terms` into its term tables and
makes Polys of them with `_normed` and `Poly._make`.  The block tags a
frame's brackets in a field above the degree field, so a tagged row's
monomial is an int beyond every field; `sum_products` reads such a row's
degree from its degree fields, and `exact_divide` by an untagged divisor
reduces it tag by tag as it stands.

`sum_products` computes a sum of products s*a*b into one term dict, with the
checks of a single product, and normalizes once; it serves every sum of
products in the engine (minors, Pfaffians, matrix products, the graded
products wedge and contraction, the Schouten bracket, and both
differentials, d and d_A), which would otherwise build one Poly per product
and copy the running sum at every addition, the waste that Yan's geobuckets
("The geobucket data structure for polynomials", 1998) also remove.

`exact_divide` reduces the remainder from its leading term down, popping
the next term from a max-heap of the remainder's monomials (a stale entry,
whose term has cancelled, is skipped), so no step rescans the remainder.

A stored coefficient is an `int` when it is integral and a
`fractions.Fraction` (denominator > 1) only when it is not; a `float` never
enters.  Integer arithmetic is several times faster than `Fraction`
arithmetic, and Python promotes `int` to `Fraction` exactly where a
non-integral value arises, so `_norm` only has to demote a `Fraction` whose
denominator came out 1, and `_quo` divides exactly.  The accessors
`constant_value`, `content` and `evaluate` return `Fraction`.

`poly_gcd` is the heuristic gcd GCDHEU of Char, Geddes & Gonnet (J.
Symbolic Comput. 7, 1989) on the primitive integer parts of its inputs: set
the main variable to a large integer xi, take the gcd of the images
recursively down to integers, and rebuild a candidate from balanced xi-adic
digits.  It stays a decision because two conditions hold at every level:
xi >= 2*min(|f|, |g|) + 2 for the max norms of the primitive inputs, and the
candidate is accepted only if it divides both of them exactly.  After at most
`HEU_GCD_MAX` evaluation points per level, or before an evaluation whose
image would exceed `HEU_GCD_MAX_BITS` bits, the heuristic gives up, and the
primitive remainder sequence `_prs_gcd` decides instead.  `gcd_content`
takes the gcd of a list as one `poly_gcd` of its first member with a
weighted sum of the others, checked against each member by exact division;
only a member it fails to divide costs a further gcd.

A Poly is immutable once it is made: no code writes to its term dict
after wrapping it, so two things are computed once.  `unit_normalized`
returns its argument itself when that is normalized already (content 1,
positive leading coefficient), as a divisor ideal's generator, a gcd or
a parsed input usually is; and `str` keeps the printed form in the
`_str` slot, filled the first time it is asked for, so a value that a
certificate names twice is printed once.

There is no rational-function type: a fraction arises only as the witness of
a failed exact division (a lift, a frame expansion, an upper modification),
and `fraction_str` prints it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, isqrt, lcm
from types import MappingProxyType


class UnknownVariable(KeyError):
    pass


class ZeroPolynomial(ValueError):
    pass


class ChartMismatch(ValueError):
    pass


class DegreeCapExceeded(RuntimeError):
    pass


class InternalError(RuntimeError):
    """An invariant of divkit itself failed: a bug, not a bad input."""


# The DK_MAX_DEGREE cap in force, None outside every `degree_cap` block.
_degree_cap = ContextVar("degree_cap", default=None)


@contextmanager
def degree_cap(cap):
    """Cap the total degree of every product and power inside the block at
    `cap` (None: no cap below `MAX_DEGREE`); the outer cap is back on exit,
    also when the block raises."""
    token = _degree_cap.set(cap)
    try:
        yield
    finally:
        _degree_cap.reset(token)


FIELD_BITS = 32
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # the guard bit stays clear
_FIELD = (1 << FIELD_BITS) - 1


def _check_degree(d):
    """Refuse a total degree no packed monomial holds, or above the cap."""
    if d > MAX_DEGREE:
        raise DegreeCapExceeded("degree %d exceeds the limit %d of a monomial" % (d, MAX_DEGREE))
    cap = _degree_cap.get()
    if cap is not None and d > cap:
        raise DegreeCapExceeded("intermediate degree %d exceeds DK_MAX_DEGREE=%d" % (d, cap))


class Chart:
    """An ordered list of distinct variable names, with the bit layout of the
    packed monomials over them: `_shifts[i]` is the low bit of variable i's
    field, `_units[i]` the packed monomial of variable i itself (exponent 1
    and total degree 1), `_degree_shift` the low bit of the degree field and
    `_guard` the mask of the guard bits."""

    __slots__ = ("variables", "_index", "_shifts", "_units", "_degree_shift", "_guard")

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("chart variables must be distinct: %r" % (variables,))
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        self._shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._degree_shift = FIELD_BITS * n
        self._units = tuple((1 << s) | (1 << self._degree_shift) for s in self._shifts)
        self._guard = sum(1 << (s + FIELD_BITS - 1) for s in self._shifts + (self._degree_shift,))

    @property
    def dimension(self):
        return len(self.variables)

    def index(self, var):
        try:
            return self._index[var]
        except KeyError:
            raise UnknownVariable(var) from None

    def __contains__(self, var):
        return var in self._index

    def __eq__(self, other):
        return self is other or isinstance(other, Chart) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return "Chart(%s)" % ", ".join(self.variables)

    def subchart(self, removed):
        kept = [v for v in self.variables if v not in removed]
        return Chart(kept)

    def _pack(self, exps):
        """The packed monomial of an exponent tuple."""
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ValueError("exponent tuple %r has wrong length" % (exps,))
        if any(k < 0 for k in exps):
            raise ValueError("exponent tuple %r has a negative entry" % (exps,))
        m = sum(exps)
        if m > MAX_DEGREE:  # the fixed limit only: DK_MAX_DEGREE caps products
            _check_degree(m)
        for k in exps:
            m = (m << FIELD_BITS) | k
        return m

    def _unpack(self, m):
        """The exponent tuple of a packed monomial."""
        return tuple((m >> s) & _FIELD for s in self._shifts)


def _norm(c):
    """The stored form of an exact rational: an `int` when it is integral,
    else a `Fraction`; anything else (a float, say) is refused."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("expected an exact rational, got %r" % (c,))


def _quo(a, b):
    """Exact quotient of two stored coefficients, itself in stored form."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _norm(Fraction(a, b))


def _normed(terms):
    """Drop the zero coefficients of an accumulated term dict and demote
    integral `Fraction`s; `int` coefficients pass untouched."""
    return {m: c if type(c) is int else _norm(c) for m, c in terms.items() if c}


class Poly:
    """Exact multivariate polynomial over a chart; immutable once made.

    `_str` holds the printed form once `str` has computed it; a Poly that
    was never printed has the slot unset."""

    __slots__ = ("chart", "_terms", "_str")

    def __init__(self, chart, terms=None):
        """`terms` maps exponent tuples to exact rationals."""
        self.chart = chart
        self._terms = {}
        for exps, c in (terms or {}).items():
            c = _norm(c)
            if c:
                self._terms[chart._pack(exps)] = c

    @classmethod
    def _make(cls, chart, terms):
        """A Poly over a packed term dict whose coefficients are stored
        forms, none of them zero."""
        p = object.__new__(cls)
        p.chart = chart
        p._terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart):
        return cls._make(chart, {})

    @classmethod
    def const(cls, chart, c):
        c = _norm(c)
        return cls._make(chart, {0: c} if c else {})

    @classmethod
    def var(cls, chart, name):
        return cls._make(chart, {chart._units[chart.index(name)]: 1})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        """Read-only map from exponent tuples to coefficients."""
        exps = map(self.chart._unpack, self._terms)
        return MappingProxyType(dict(zip(exps, self._terms.values())))

    def coeff(self, exps):
        """The coefficient of the monomial with the given exponent tuple."""
        return self._terms.get(self.chart._pack(exps), 0)

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return not any(self._terms)  # the constant monomial packs to 0

    def is_homogeneous(self):
        shift = self.chart._degree_shift
        return len({m >> shift for m in self._terms}) <= 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial: %s" % self)
        return Fraction(self._terms.get(0, 0))

    def total_degree(self):
        if not self._terms:
            return -1
        return max(self._terms) >> self.chart._degree_shift

    def degree_in(self, var):
        s = self.chart._shifts[self.chart.index(var)]
        if not self._terms:
            return -1
        return max((m >> s) & _FIELD for m in self._terms)

    def order_in(self, var):
        """The least exponent of var over the terms of a nonzero polynomial:
        var^k divides it exactly for k up to it."""
        s = self.chart._shifts[self.chart.index(var)]
        return min((m >> s) & _FIELD for m in self._terms)

    def used_indices(self):
        """The chart indices of the variables with a positive exponent in
        some term, increasing."""
        seen = 0
        for m in self._terms:
            seen |= m
        return [i for i, s in enumerate(self.chart._shifts) if (seen >> s) & _FIELD]

    def variables_used(self):
        variables = self.chart.variables
        return {variables[i] for i in self.used_indices()}

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self._terms)
        return self.chart._unpack(m), self._terms[m]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("%r vs %r" % (self.chart, other.chart))

    def _operand(self, other):
        """other as a Poly on this chart, or None when it is neither a Poly
        nor an exact rational."""
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.chart, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        res = dict(self._terms)
        for m, c in other._terms.items():
            s = res.get(m, 0) + c
            if not s:
                del res[m]
            else:
                res[m] = s if type(s) is int else _norm(s)
        return Poly._make(self.chart, res)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.chart, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _norm(other)
            return Poly._make(self.chart, _normed({m: k * c for m, k in self._terms.items()}))
        return sum_products(self.chart, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        if k and self._terms:
            _check_degree(self.total_degree() * k)
        out = Poly.const(self.chart, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.chart, other)
        return self.chart == other.chart and self._terms == other._terms

    __hash__ = None

    def __bool__(self):
        return bool(self._terms)

    # -- calculus ----------------------------------------------------------

    def diff(self, var):
        """Exact formal partial derivative with respect to a chart variable."""
        i = self.chart.index(var)
        s, unit = self.chart._shifts[i], self.chart._units[i]
        res = {}
        for m, c in self._terms.items():
            k = (m >> s) & _FIELD
            if k:
                res[m - unit] = c * k
        return Poly._make(self.chart, _normed(res))

    def evaluate(self, point):
        """Evaluate at a rational point (int or Fraction coordinates) given as
        a dict or a full tuple; the value is a `Fraction`."""
        chart = self.chart
        if not isinstance(point, dict):
            point = dict(zip(chart.variables, point))
        point = {v: _norm(x) for v, x in point.items()}
        seen = 0
        for m in self._terms:
            seen |= m
        used = [
            (s, point[v]) for v, s in zip(chart.variables, chart._shifts) if (seen >> s) & _FIELD
        ]
        total = 0
        for m, c in self._terms.items():
            for s, x in used:
                k = (m >> s) & _FIELD
                if k:
                    c *= x**k
            total += c
        return Fraction(total)

    def substitute_zero(self, names):
        """Set the given variables to 0 (result stays on the same chart)."""
        chart = self.chart
        mask = 0
        for v in names:
            mask |= _FIELD << chart._shifts[chart.index(v)]
        return Poly._make(chart, {m: c for m, c in self._terms.items() if not m & mask})

    def restrict(self, subchart):
        """Move to a subchart; variables not in it must not occur."""
        pos = [self.chart.index(v) for v in subchart.variables]
        if not self.variables_used() <= set(subchart.variables):
            raise ValueError("polynomial %s uses variables outside %r" % (self, subchart))
        unpack, pack = self.chart._unpack, subchart._pack
        res = {}
        for m, c in self._terms.items():
            e = unpack(m)
            res[pack(e[i] for i in pos)] = c
        return Poly._make(subchart, res)

    # -- normalization -----------------------------------------------------

    def content(self):
        """Positive rational c with self/c integral, primitive; sign from the
        leading coefficient is NOT included (see `unit_normalized`)."""
        if not self._terms:
            return Fraction(0)
        return Fraction(*self._content())

    def _content(self):
        """The content of a nonzero Poly as (num, den): the gcd of the
        coefficients' numerators and the lcm of their denominators, which
        are coprime."""
        cs = self._terms.values()
        return int_gcd(*[c.numerator for c in cs]), lcm(*[c.denominator for c in cs])

    def unit_normalized(self):
        """Divide by content and flip sign so the leading coefficient is
        positive; a Poly that is so already is returned itself."""
        terms = self._terms
        if not terms:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        num, den = self._content()
        if terms[max(terms)] < 0:
            num = -num
        if num == den == 1:
            return self
        c = _quo(num, den)
        return Poly._make(self.chart, {m: _quo(k, c) for m, k in terms.items()})

    # -- printing ----------------------------------------------------------

    def __str__(self):
        try:
            return self._str
        except AttributeError:
            pass
        if not self._terms:
            return "0"
        seen = 0
        for m in self._terms:
            seen |= m
        # the variables in use, each with its printed powers, built once a call
        chart = self.chart
        used = [(s, {1: v}, v) for v, s in zip(chart.variables, chart._shifts) if (seen >> s) & _FIELD]
        parts = []
        for m, c in sorted(self._terms.items(), reverse=True):
            factors = []
            for s, powers, v in used:
                k = (m >> s) & _FIELD
                if k:
                    f = powers.get(k)
                    if f is None:
                        f = powers[k] = "%s^%d" % (v, k)
                    factors.append(f)
            mag = -c if c < 0 else c
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        out = self._str = out[2:] if out[0] == "+" else "-" + out[2:]
        return out

    def __repr__(self):
        return "Poly(%s)" % self


def sum_products(chart, triples):
    """The Poly sum of s*a*b over the triples (s, a, b), with s a nonzero int
    and a, b Polys on `chart`.

    Every product is written into one packed-monomial term dict, normalized
    once at the end, so a sum of many products builds no intermediate Poly
    and never copies a running sum.  Each product is checked as `Poly.__mul__`
    checks it: both operands on `chart` (else `ChartMismatch`), and its total
    degree against `_check_degree` before it multiplies.  An operand may be
    a tagged row (see the module docstring): its degree is then the largest
    of its degree fields."""
    shift = chart._degree_shift
    res = {}
    get = res.get
    for s, a, b in triples:
        if a.chart is not chart or b.chart is not chart:
            for p in (a, b):
                if p.chart != chart:
                    raise ChartMismatch("%r vs %r" % (chart, p.chart))
        ta, tb = a._terms, b._terms
        if not ta or not tb:
            continue
        d = (max(ta) >> shift) + (max(tb) >> shift)
        if d > _FIELD:  # a tagged row: read its degree fields, not its tags
            field = (_FIELD << shift).__and__
            d = (max(map(field, ta)) + max(map(field, tb))) >> shift
        _check_degree(d)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for m1, c1 in ta.items():
            c1 *= s
            for m2, c2 in tb.items():
                m = m1 + m2
                res[m] = get(m, 0) + c1 * c2
    return Poly._make(chart, _normed(res))


# ---------------------------------------------------------------------------
# Exact division, gcd, squarefree part
# ---------------------------------------------------------------------------


def exact_divide(f, g):
    """Quotient q with f = q*g exactly, or None when no such polynomial exists.

    A single polynomial is a Groebner basis of the ideal it generates, so
    leading-term reduction decides membership: the first irreducible leading
    term certifies non-divisibility.  The remainder's terms are reduced in
    decreasing order, each popped from a max-heap of negated packed
    monomials; a monomial enters the heap when it enters the remainder, and
    a popped monomial whose term has since cancelled is skipped.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(g)
    chart = f.chart
    if f.is_zero():
        return Poly.zero(chart)
    guard = chart._guard
    gm = max(g._terms)
    gc = g._terms[gm]
    g_tail = [(m, c) for m, c in g._terms.items() if m != gm]
    q = {}
    r = dict(f._terms)  # the remainder, reduced in place
    heap = [-m for m in r]
    heapify(heap)
    while heap:
        rm = -heappop(heap)
        rc = r.pop(rm, 0)
        if not rc:
            continue  # cancelled after it was pushed
        if ((rm | guard) - gm) & guard != guard:
            return None  # some exponent of rm is below that of g's leading term
        qm = rm - gm
        qc = _quo(rc, gc)
        q[qm] = qc
        for m, c in g_tail:
            m += qm
            s = r.get(m)
            if s is None:
                s = -qc * c
                heappush(heap, -m)
            else:
                s -= qc * c
                if not s:
                    del r[m]
                    continue
            r[m] = s if type(s) is int else _norm(s)
    return Poly._make(chart, q)


def _univar_view(f, i):
    """View f as univariate in variable i: dict degree -> coefficient Poly
    (the coefficient polys keep the full chart with slot i zeroed)."""
    s, unit = f.chart._shifts[i], f.chart._units[i]
    out = {}
    for m, c in f._terms.items():
        k = (m >> s) & _FIELD
        out.setdefault(k, {})[m - k * unit] = c  # distinct terms of f stay distinct
    return {d: Poly._make(f.chart, t) for d, t in out.items()}


def _shift_mul(p, i, d):
    step = d * p.chart._units[i]
    return Poly._make(p.chart, {m + step: c for m, c in p._terms.items()})


def _pseudo_rem(a, b, i):
    """Pseudo-remainder of a by b in variable i (coefficients multiplied up)."""
    db = b.degree_in(b.chart.variables[i])
    lb = _univar_view(b, i)[db]
    r = a
    var = a.chart.variables[i]
    while not r.is_zero() and r.degree_in(var) >= db:
        dr = r.degree_in(var)
        lr = _univar_view(r, i)[dr]
        r = lb * r - _shift_mul(lr, i, dr - db) * b
    return r


# At most this many evaluation points per recursion level (as sympy's
# HEU_GCD_MAX); the heuristic then gives up and the PRS decides.
HEU_GCD_MAX = 6
# The heuristic also gives up, before it evaluates, when xi^d, d the degree in
# the main variable, would have more than this many bits: the images would be
# too large to be worth their gcd (Char, Geddes & Gonnet abandon on size too).
HEU_GCD_MAX_BITS = 1 << 16


def poly_gcd(f, g):
    """GCD over Q[x1..xn], content-1 with positive leading coefficient.

    Computed by the heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symbolic
    Comput. 7, 1989; see `_heu_gcd`) on the primitive integer parts of f and
    g.  A candidate is accepted only when it divides both inputs exactly, so
    the result is a decision, not a guess; when the heuristic gives up, the
    primitive remainder sequence `_prs_gcd` computes the gcd instead.
    """
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.unit_normalized()
    if g.is_zero():
        return f.unit_normalized()
    h = _heu_gcd(f.unit_normalized(), g.unit_normalized())
    if h is None:
        h = _prs_gcd(f, g)
    return h.unit_normalized()


def _heu_gcd(f, g):
    """gcd over Z of two nonzero integer polynomials, content included (up to
    sign), or None when the heuristic gives up.

    The main variable x is set to an integer xi, the gcd of the images is
    computed recursively (down to `math.gcd` on integers) and a candidate is
    rebuilt from the balanced xi-adic digits of its coefficients.  The answer
    is exact because, at every level, (1) xi >= 2*min(|f|, |g|) + 2 for the
    max norms of the primitive parts (CGG Theorem 1), and (2) the primitive
    candidate is accepted only if it divides both primitive parts exactly.
    """
    cf, cg = int_gcd(*f._terms.values()), int_gcd(*g._terms.values())
    c = int_gcd(cf, cg)
    chart = f.chart
    if f.is_constant() or g.is_constant():
        return Poly.const(chart, c)
    f = Poly._make(chart, {m: k // cf for m, k in f._terms.items()})
    g = Poly._make(chart, {m: k // cg for m, k in g._terms.items()})
    i = max(chart.index(v) for v in f.variables_used() | g.variables_used())
    var = chart.variables[i]
    degree = max(f.degree_in(var), g.degree_in(var))
    norm = min(max(map(abs, f._terms.values())), max(map(abs, g._terms.values())))
    xi = 2 * norm + 29  # also >= 3, so the balanced digits terminate
    for _ in range(HEU_GCD_MAX):
        if xi.bit_length() * degree > HEU_GCD_MAX_BITS:
            return None
        ff, gg = _eval_at(f, i, xi), _eval_at(g, i, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _interpolate(h, i, xi).unit_normalized()
            if exact_divide(f, h) is not None and exact_divide(g, h) is not None:
                return h * c
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _eval_at(p, i, xi):
    """p with variable i set to the integer xi (its exponent 0 in every term)."""
    s, unit = p.chart._shifts[i], p.chart._units[i]
    res = {}
    for m, c in p._terms.items():
        k = (m >> s) & _FIELD
        if k:
            m -= k * unit
            c *= xi**k
        res[m] = res.get(m, 0) + c
    return Poly._make(p.chart, {m: c for m, c in res.items() if c})


def _interpolate(h, i, xi):
    """The polynomial in variable i whose coefficients are the balanced
    xi-adic digits, in (-xi/2, xi/2], of the coefficients of h (which does
    not involve variable i)."""
    half = xi // 2
    unit = h.chart._units[i]
    res = {}
    for m, c in h._terms.items():
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                res[m] = d
            c = (c - d) // xi
            m += unit
    return Poly._make(h.chart, res)


def _prs_gcd(f, g):
    """GCD over Q[x1..xn], content-1 with positive leading coefficient.

    Primitive Euclidean remainder sequence, recursing through the variables;
    no factorization is ever needed.  The fallback of `poly_gcd`.
    """
    chart = f.chart
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomial("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.unit_normalized()
    if g.is_zero():
        return f.unit_normalized()
    used = f.variables_used() | g.variables_used()
    if not used:
        return Poly.const(chart, 1)
    i = max(chart.index(v) for v in used)

    def content_pp(p):
        cont = gcd_content(list(_univar_view(p, i).values()))
        pp = exact_divide(p, cont)
        if pp is None:
            raise InternalError("content does not divide %s (internal error)" % p)
        return cont, pp

    cf, pf = content_pp(f)
    cg, pg = content_pp(g)
    c = poly_gcd(cf, cg)
    a, b = pf, pg
    var = chart.variables[i]
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, i)
        if r.is_zero():
            a, b = b, r
            break
        _, r = content_pp(r)
        a, b = b, r
    _, a = content_pp(a)
    return (c * a).unit_normalized()


def gcd_content(polys):
    """GCD of a list of polynomials, content-normalized; 1 when coprime.

    With p0 first and at least two others, g = gcd(p0, sum_k k*p_k) is taken
    once: every common divisor of the list divides that weighted sum, so it
    divides g.  Each other p is then trial-divided by g, and only a miss
    takes gcd(g, p), so g ends up dividing every p: it is the gcd, up to a
    unit.  A list of r + 1 members usually costs one gcd and r trial
    divisions, where a chain of pairwise gcds costs r gcds.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ZeroPolynomial("gcd of all-zero input")
    g, rest = polys[0], polys[1:]
    chart = g.chart
    if len(rest) >= 2:
        one = Poly.const(chart, 1)
        s = sum_products(chart, [(k, one, p) for k, p in enumerate(rest, 1)])
        if s:
            g = poly_gcd(g, s)
    for p in rest:
        if g.is_constant():
            break
        if exact_divide(p, g) is None:
            g = poly_gcd(g, p)
    return g.unit_normalized() if not g.is_constant() else Poly.const(chart, 1)


def squarefree_part(f):
    """Generator of the radical of <f>: f / gcd(f, all partials), normalized.

    Valid over characteristic zero; avoids any factorization.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree part of 0")
    polys = [f] + [f.diff(v) for v in f.chart.variables]
    polys = [p for p in polys if not p.is_zero()]
    g = gcd_content(polys)
    q = exact_divide(f, g)
    if q is None:
        raise InternalError("gcd with the partials does not divide %s (internal error)" % f)
    return q.unit_normalized()


# ---------------------------------------------------------------------------
# Printing failure witnesses
# ---------------------------------------------------------------------------


def fraction_str(num, den, power=1):
    """Print the fraction num/den^power in lowest terms, as `(num)/(g)`,
    `(num)/(g)^k` or `(num)/(h)`.

    g is den normalized (`unit_normalized`); the rational unit den/g goes
    into the numerator, and every whole factor g of the numerator cancels,
    so a fraction that is a polynomial prints as one.  A factor the rest of
    the numerator still shares with g^k is divided out of both by their
    `poly_gcd`, leaving the normalized denominator h."""
    g = den.unit_normalized()
    num = num * _quo(1, _quo(den.leading()[1], g.leading()[1]) ** power)
    while power:
        q = exact_divide(num, g)
        if q is None:
            break
        num, power = q, power - 1
    if not power:
        return str(num)
    gk = g**power
    common = poly_gcd(num, gk)
    if not common.is_constant():
        return "(%s)/(%s)" % (exact_divide(num, common), exact_divide(gk, common))
    return "(%s)/(%s)" % (num, g) + ("^%d" % power if power > 1 else "")
