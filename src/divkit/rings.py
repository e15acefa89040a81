"""Exact multivariate polynomial arithmetic.

Coefficients are exact rationals, so every equality test in the engine is a
decision, never an approximation.  Polynomials live on a fixed `Chart` (an
ordered tuple of variable names); terms are stored as a map from exponent
tuples to nonzero rational coefficients, with graded lexicographic order
(leftmost variable strongest) fixing the canonical term order used for
printing and for leading-term extraction.

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
`HEU_GCD_MAX` evaluation points per level the heuristic gives up, and the
primitive remainder sequence `_prs_gcd` decides instead.

There is no rational-function type: a fraction arises only as the witness of
a failed exact division (a lift, a frame expansion, an upper modification),
and `fraction_str` prints it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt
from operator import add, sub


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


# Optional global degree cap (set from the DK_MAX_DEGREE env var by the CLI).
_DEGREE_CAP = None


def set_degree_cap(cap):
    global _DEGREE_CAP
    _DEGREE_CAP = cap


class Chart:
    """An ordered list of distinct variable names."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("chart needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("chart variables must be distinct: %r" % (variables,))
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}

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
        return isinstance(other, Chart) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return "Chart(%s)" % ", ".join(self.variables)

    def subchart(self, removed):
        kept = [v for v in self.variables if v not in removed]
        return Chart(kept)


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


def _grlex(e):
    """Sort key of the graded lexicographic term order."""
    return (sum(e), e)


def _normed(terms):
    """Drop the zero coefficients of an accumulated term dict and demote
    integral `Fraction`s; `int` coefficients pass untouched."""
    return {e: c if type(c) is int else _norm(c) for e, c in terms.items() if c}


class Poly:
    """Exact multivariate polynomial over a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms=None, _clean=False):
        self.chart = chart
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            n = chart.dimension
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent tuple %r has wrong length" % (exps,))
                c = _norm(c)
                if c:
                    clean[tuple(exps)] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart):
        return cls(chart, {}, _clean=True)

    @classmethod
    def const(cls, chart, c):
        c = _norm(c)
        if not c:
            return cls.zero(chart)
        return cls(chart, {(0,) * chart.dimension: c}, _clean=True)

    @classmethod
    def var(cls, chart, name):
        i = chart.index(name)
        e = [0] * chart.dimension
        e[i] = 1
        return cls(chart, {tuple(e): 1}, _clean=True)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial: %s" % self)
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var):
        i = self.chart.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(self.chart.variables[i])
        return used

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatch("%r vs %r" % (self.chart, other.chart))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) + c
            if not s:
                del res[e]
            else:
                res[e] = s if type(s) is int else _norm(s)
        return Poly(self.chart, res, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.chart, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _norm(other)
            return Poly(self.chart, _normed({e: k * c for e, k in self.terms.items()}), _clean=True)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        res = {}
        get = res.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                res[e] = get(e, 0) + c1 * c2
        p = Poly(self.chart, _normed(res), _clean=True)
        cap = _DEGREE_CAP
        if cap is not None and p.total_degree() > cap:
            raise DegreeCapExceeded(
                "intermediate degree %d exceeds DK_MAX_DEGREE=%d" % (p.total_degree(), cap)
            )
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = Poly.const(self.chart, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    __hash__ = None

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ----------------------------------------------------------

    def diff(self, var):
        """Exact formal partial derivative with respect to a chart variable."""
        i = self.chart.index(var)
        res = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            res[tuple(ne)] = c * e[i]
        return Poly(self.chart, _normed(res), _clean=True)

    def evaluate(self, point):
        """Evaluate at a rational point (int or Fraction coordinates) given as
        a dict or a full tuple; the value is a `Fraction`."""
        variables = self.chart.variables
        if not isinstance(point, dict):
            point = dict(zip(variables, point))
        point = {v: _norm(x) for v, x in point.items()}
        total = 0
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if k:
                    c *= point[variables[i]] ** k
            total += c
        return Fraction(total)

    def substitute_zero(self, names):
        """Set the given variables to 0 (result stays on the same chart)."""
        idx = [self.chart.index(v) for v in names]
        res = {}
        for e, c in self.terms.items():
            if any(e[i] for i in idx):
                continue
            res[e] = c
        return Poly(self.chart, res, _clean=True)

    def restrict(self, subchart):
        """Move to a subchart; variables not in it must not occur."""
        pos = []
        for v in subchart.variables:
            pos.append(self.chart.index(v))
        keep = set(pos)
        res = {}
        for e, c in self.terms.items():
            if any(k and i not in keep for i, k in enumerate(e)):
                raise ValueError("polynomial %s uses variables outside %r" % (self, subchart))
            res[tuple(e[i] for i in pos)] = c
        return Poly(subchart, res, _clean=True)

    # -- normalization -----------------------------------------------------

    def content(self):
        """Positive rational c with self/c integral, primitive; sign from the
        leading coefficient is NOT included (see `unit_normalized`)."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, abs(c.numerator))
            den = den * c.denominator // int_gcd(den, c.denominator)
        return Fraction(num, den)

    def unit_normalized(self):
        """Divide by content and flip sign so the leading coefficient is positive."""
        if not self.terms:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        c = _norm(self.content())
        _, lc = self.leading()
        if lc < 0:
            c = -c
        return Poly(self.chart, {e: _quo(k, c) for e, k in self.terms.items()}, _clean=True)

    # -- printing ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.chart.variables[i])
                elif k > 1:
                    factors.append("%s^%d" % (self.chart.variables[i], k))
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        if out.startswith("+ "):
            out = out[2:]
        elif out.startswith("- "):
            out = "-" + out[2:]
        return out

    def __repr__(self):
        return "Poly(%s)" % self


# ---------------------------------------------------------------------------
# Exact division, gcd, squarefree part
# ---------------------------------------------------------------------------


def exact_divide(f, g):
    """Quotient q with f = q*g exactly, or None when no such polynomial exists.

    A single polynomial is a Groebner basis of the ideal it generates, so
    leading-term reduction decides membership: the first irreducible leading
    term certifies non-divisibility.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check(g)
    chart = f.chart
    if f.is_zero():
        return Poly.zero(chart)
    ge, gc = g.leading()
    g_terms = list(g.terms.items())
    q = {}
    r = dict(f.terms)  # the remainder, reduced in place
    while r:
        re = max(r, key=_grlex)
        qe = tuple(map(sub, re, ge))
        if min(qe) < 0:
            return None
        qc = _quo(r[re], gc)
        q[qe] = qc
        for e, c in g_terms:
            e = tuple(map(add, qe, e))
            s = r.get(e, 0) - qc * c
            if not s:
                del r[e]
            else:
                r[e] = s if type(s) is int else _norm(s)
    return Poly(chart, q, _clean=True)


def _univar_view(f, i):
    """View f as univariate in variable i: dict degree -> coefficient Poly
    (the coefficient polys keep the full chart with slot i zeroed)."""
    out = {}
    for e, c in f.terms.items():
        ne = list(e)
        ne[i] = 0
        out.setdefault(e[i], {})[tuple(ne)] = c  # distinct terms of f stay distinct
    return {d: Poly(f.chart, t, _clean=True) for d, t in out.items()}


def _shift_mul(p, i, d):
    res = {}
    for e, c in p.terms.items():
        ne = list(e)
        ne[i] += d
        res[tuple(ne)] = c
    return Poly(p.chart, res, _clean=True)


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
    cf, cg = int_gcd(*f.terms.values()), int_gcd(*g.terms.values())
    c = int_gcd(cf, cg)
    chart = f.chart
    if f.is_constant() or g.is_constant():
        return Poly.const(chart, c)
    f = Poly(chart, {e: k // cf for e, k in f.terms.items()}, _clean=True)
    g = Poly(chart, {e: k // cg for e, k in g.terms.items()}, _clean=True)
    i = max(chart.index(v) for v in f.variables_used() | g.variables_used())
    norm = min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values())))
    xi = 2 * norm + 29  # also >= 3, so the balanced digits terminate
    for _ in range(HEU_GCD_MAX):
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
    """p with variable i set to the integer xi (slot i of every exponent 0)."""
    res = {}
    for e, c in p.terms.items():
        k = e[i]
        if k:
            e = e[:i] + (0,) + e[i + 1:]
            c *= xi**k
        res[e] = res.get(e, 0) + c
    return Poly(p.chart, {e: c for e, c in res.items() if c}, _clean=True)


def _interpolate(h, i, xi):
    """The polynomial in variable i whose coefficients are the balanced
    xi-adic digits, in (-xi/2, xi/2], of the coefficients of h."""
    half = xi // 2
    res = {}
    for e, c in h.terms.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                res[e[:i] + (k,) + e[i + 1:]] = d
            c = (c - d) // xi
            k += 1
    return Poly(h.chart, res, _clean=True)


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
        view = _univar_view(p, i)
        coeffs = list(view.values())
        cont = coeffs[0]
        for c in coeffs[1:]:
            cont = poly_gcd(cont, c)
            if cont.is_constant():
                break
        cont = cont.unit_normalized() if not cont.is_constant() else Poly.const(chart, 1)
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
    """GCD of a list of polynomials, content-normalized; 1 when coprime."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ZeroPolynomial("gcd of all-zero input")
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.is_constant():
            break
    return g.unit_normalized() if not g.is_constant() else Poly.const(g.chart, 1)


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
