"""Lie algebroids of divisor-type presented by polynomial anchor frames.

A frame is a list of n polynomial vector fields (n = chart dimension) whose
coefficient matrix -- the anchor rho -- has nonzero determinant, so the frame
spans TX over the fraction field and the algebroid is almost-injective.

At construction the anchor is reduced once by fraction-free elimination over
constant pivots: each step pivots on a nonzero constant entry of least
Markowitz cost (r-1)(c-1) (Markowitz 1957), ties broken by position, and
clears its column with the polynomial multipliers e/p.  What no constant
pivot reaches is the Schur block S, which has no nonzero constant entry, and
det(rho) = +-(prod p) det(S) (the Schur-complement identity behind Bareiss
1968).  det(S) comes from S's table of minors; adj(S) is built from the same
table when a solve first needs it, so `poly_det` never builds it.  A solve
rho x = v runs the multipliers forward over v, takes S's part by Cramer's
rule with adj(S), and back-substitutes through the constant pivots, so every
component is a numerator over det(S); a back-substitution step drops the
products by zero components, and an exact step with none left is v_r / p.
The one elimination answers det (`poly_det`), solve and the antisymmetric
inverse (`invert_antisym`): frame expansion, the involutivity certificate,
the lift's pullback Pi_A = rho^-1 pi rho^-T and the dual forms -Pi_A^-1 all
go through it.  Every sum of products here (a minor's expansion, a matrix
product entry, a Cramer numerator) is one `rings.sum_products` call; the
bracket components are added straight into the tagged rows below.

The involutivity certificate solves every pairwise bracket back into the
frame, all denominators cancelling.  The brackets come from one table of the
nonzero derivatives d_l rho_kj of the anchor entries per generator, built by
`multivector.derivative_table` as the Schouten contraction builds its own:

    [e_i, e_j]^k = sum_l (rho_li d_l rho_kj - rho_lj d_l rho_ki),

and all of them are solved as one block: row k of the block holds component
k of every bracket, each bracket's terms tagged with its pair in a field
above the degree field of the packed monomials.  The forward pass and adj(S)
run once per row, not once per bracket, and one exact division by det(S)
per row of S decides, since back-substitution through constant pivots never
misses; a frame with no Schur block is involutive with no work at all.  The
structure coefficients are back-substituted from the reduced block only when
`AnchorFrame.structure` is first read (by d_A and the lower modification);
a zero bracket has all-zero coefficients.

The algebroid differential d_A is the Chevalley-Eilenberg differential of
the anchor and the certified structure coefficients c^k_ij:

    d_A f = sum_i rho(e_i)(f) e^i,    d_A e^k = -sum_{i<j} c^k_ij e^i ^ e^j,

extended to coframe forms as a graded derivation by
`multivector.differential`; plain d is the same differential for the
coordinate frame, the tangent algebroid TX.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import (
    FIELD_BITS,
    ChartMismatch,
    InternalError,
    Poly,
    _check_degree,
    _normed,
    exact_divide,
    fraction_str,
    sum_products,
)
from .divisors import DivisorClass, classify, divides_ideal, make_ideal, preserves
from .multivector import (
    Multivector,
    _Graded,
    bivector_matrix,
    derivative_table,
    differential,
    merge_indices,
)


class DegenerateFrame(ValueError):
    pass


class NotInvolutive(ValueError):
    def __init__(self, pair, witness):
        self.pair = pair
        self.witness = witness
        super().__init__(
            "bracket of generators %d,%d leaves the frame module: coefficient %s"
            % (pair[0] + 1, pair[1] + 1, witness)
        )


class NotInModule(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("vector field is not in the frame module: coefficient %s" % witness)


class NotLiftable(ValueError):
    def __init__(self, entry, witness):
        self.entry = entry
        self.witness = witness
        super().__init__(
            "no polynomial lift: entry (%d, %d) is %s" % (entry[0] + 1, entry[1] + 1, witness)
        )


class NotASubalgebroid(ValueError):
    pass


class NotDivisibleGenerator(ValueError):
    def __init__(self, index, witness):
        self.index = index
        self.witness = witness
        super().__init__(
            "generator %d is not divisible by the ideal generator (%s)" % (index + 1, witness)
        )


class UnsupportedOverlap(ValueError):
    pass


class BadParams(ValueError):
    pass


# ---------------------------------------------------------------------------
# Small exact linear algebra over Poly
# ---------------------------------------------------------------------------


def _minor_table(m, memo):
    """minor(rows, cols) = det of m on the increasing index tuples rows and
    cols, expanded along its first row in one `sum_products` call; zero
    entries and zero sub-minors are skipped and each sub-minor is memoized in
    `memo`, which the caller owns."""
    chart = m[0][0].chart
    one = Poly.const(chart, 1)

    def minor(rows, cols):
        if len(rows) < 2:
            return m[rows[0]][cols[0]] if rows else one
        total = memo.get((rows, cols))
        if total is None:
            row, rest = m[rows[0]], rows[1:]
            terms = []
            for pos, c in enumerate(cols):
                if row[c].is_zero():
                    continue
                sub = minor(rest, cols[:pos] + cols[pos + 1 :])
                if not sub.is_zero():
                    terms.append((-1 if pos % 2 else 1, row[c], sub))
            total = memo[rows, cols] = sum_products(chart, terms)
        return total

    return minor


def poly_det(m):
    return _Elimination(m).det


def poly_adjugate(m, memo=None):
    """adj(m) with m * adj(m) = det(m) * I; `memo` may hold the minors on
    trailing rows that a det of m by first-row expansion left behind."""
    n = len(m)
    memo = {} if memo is None else memo
    minor = _minor_table(m, memo)
    full = tuple(range(n))
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor(full[:i] + full[i + 1 :], full[:j] + full[j + 1 :])
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
        # minors on rows that skip row i serve no later row; keep the tails
        tails = {k: v for k, v in memo.items() if k[0][0] + len(k[0]) == n}
        memo.clear()
        memo.update(tails)
    return adj


def invert_antisym(m):
    """{(i, j): w_ij}, i < j, the nonzero upper-triangle entries of w = -m^-1
    for an antisymmetric Poly matrix m with constant nonzero determinant (all
    the catalog dual forms have one): column j of m^-1 solves m x = e_j."""
    elim = _Elimination(m)
    if not elim.det.is_constant() or elim.det.is_zero():
        raise BadParams("matrix inversion needs a constant nonzero determinant")
    chart, n = elim.chart, len(m)
    zero, one = Poly.zero(chart), Poly.const(chart, 1)
    comps = {}
    for j in range(1, n):
        col, _ = elim.solve([one if i == j else zero for i in range(n)])
        comps.update(((i, j), -col[i]) for i in range(j) if col[i])
    return comps


def mat_mul(a, b):
    chart = b[0][0].chart
    cols = list(zip(*b))
    return [
        [sum_products(chart, [(1, x, y) for x, y in zip(row, col)]) for col in cols] for row in a
    ]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def _constant_pivot(a, rows, cols):
    """(r, c) of the nonzero constant entry of a on the active rows and
    columns with the least Markowitz cost (r-1)(c-1), r and c the nonzero
    counts of its row and column there; the first in position on ties; None
    when no entry is a nonzero constant."""
    best = best_cost = None
    for r in rows:
        row = a[r]
        others = -1
        for c in cols:
            e = row[c]
            if not e or not e.is_constant():
                continue
            if others < 0:
                others = sum(1 for j in cols if row[j]) - 1
            cost = others and others * (sum(1 for t in rows if a[t][c]) - 1)
            if not cost:
                return r, c
            if best is None or cost < best_cost:
                best, best_cost = (r, c), cost
    return best


class _Elimination:
    """A square Poly matrix rho (an anchor, or the matrix of `poly_det` or
    `invert_antisym`) reduced over constant pivots (see the module docstring).

    `steps` lists, in pivot order, (r, c, inv, row, mults): pivot row r and
    column c, inv = 1/p for the constant pivot p, the pivot row's other
    nonzero entries [(j, e)] as reduced so far, and the multipliers [(t, e/p)]
    that cleared column c from the rows t still active.  `rows` and `cols`
    are the rows and columns of the Schur block S, increasing; `den` is
    det(S), from S's table of minors, and `det` is det(rho).  adj(S) is built
    from the same table when a solve first needs it (`adj`), so a det alone
    never pays for it.

    A solve is three passes, `forward`, `divide` and `back_substitute`, over
    a right-hand side of one Poly per row of rho.  A row may be tagged: it
    packs that component of several vectors, each vector's terms carrying
    its tag in a field above the degree field (`_bracket_rows`).  The
    multipliers and adj(S) are untagged, so every product keeps its tag,
    and an exact division by det(S) reduces a tagged row tag by tag: it
    misses when one vector's component misses.  A single vector is a block
    of one, untagged."""

    __slots__ = ("chart", "steps", "rows", "cols", "den", "det", "_adj", "_block", "_memo")

    def __init__(self, m):
        chart = self.chart = m[0][0].chart
        one = Poly.const(chart, 1)
        a = [row[:] for row in m]
        rows, cols = list(range(len(m))), list(range(len(m)))
        steps = []
        scale = 1
        while True:
            pivot = _constant_pivot(a, rows, cols)
            if pivot is None:
                break
            r, c = pivot
            p = a[r][c].leading()[1]
            inv = 1 if p == 1 else 1 / Fraction(p)
            rows.remove(r)
            cols.remove(c)
            pivot_row = [(j, a[r][j]) for j in cols if a[r][j]]
            mults = []
            for t in rows:
                e = a[t][c]
                if not e:
                    continue
                f = e if inv == 1 else e * inv
                mults.append((t, f))
                row = a[t]
                for j, x in pivot_row:
                    row[j] = sum_products(chart, [(1, row[j], one), (-1, f, x)])
            steps.append((r, c, inv, pivot_row, mults))
            scale *= p
        self.steps, self.rows, self.cols = steps, rows, cols
        self._adj = None
        if rows:
            s = self._block = [[a[r][c] for c in cols] for r in rows]
            # det(S) by minors; its memo starts adj(S), built on the first solve
            memo = self._memo = {}
            full = tuple(range(len(s)))
            self.den = _minor_table(s, memo)(full, full)
        else:
            self._adj, self.den = [], one
        # the sign of the row and the column order (pivots first, then S)
        scale *= merge_indices(tuple(step[0] for step in steps) + tuple(rows), ())[0]
        scale *= merge_indices(tuple(step[1] for step in steps) + tuple(cols), ())[0]
        self.det = self.den if scale == 1 else self.den * scale

    def forward(self, v):
        """(v', nums): v with the multipliers run forward over it, and the
        numerators adj(S) v'_S of S's part of the solution over det(S)."""
        chart = self.chart
        one = Poly.const(chart, 1)
        v = list(v)
        for r, _, _, _, mults in self.steps:
            vr = v[r]
            if vr:
                for t, f in mults:
                    v[t] = sum_products(chart, [(1, v[t], one), (-1, f, vr)])
        block = [v[r] for r in self.rows]
        return v, [sum_products(chart, [(1, a, b) for a, b in zip(row, block)]) for row in self.adj()]

    def divide(self, nums):
        """The quotients of nums by det(S), or None when one misses."""
        quotients = []
        for num in nums:
            q = exact_divide(num, self.den)
            if q is None:
                return None
            quotients.append(q)
        return quotients

    def back_substitute(self, v, block, exact=True):
        """x with rho x = v, from the forward-run v' and S's part `block` of
        x: the quotients when `exact`, else the numerators, and then every
        x_c = (v'_r det(S) - sum_j e_j N_j) / p is a numerator too.  Through
        constant pivots an exact step never misses."""
        chart = self.chart
        x = [None] * len(v)
        for c, q in zip(self.cols, block):
            x[c] = q
        unit = Poly.const(chart, 1) if exact else self.den
        for r, c, inv, row, _ in reversed(self.steps):
            subtract = [(-1, e, x[j]) for j, e in row if x[j]]
            if exact and not subtract:
                s = v[r]
            else:
                s = sum_products(chart, [(1, v[r], unit)] + subtract)
            x[c] = s if inv == 1 else s * inv
        return x

    def solve(self, v, numerators=False):
        """(x, True) with rho x = v when every x_k is a polynomial, else
        (N, False) with x = N / det(S); `numerators` asks for N in any case."""
        v, nums = self.forward(v)
        quotients = None if numerators else self.divide(nums)
        exact = quotients is not None
        return self.back_substitute(v, quotients if exact else nums, exact), exact

    def adj(self):
        """adj(S), from the table of minors that gave det(S)."""
        if self._adj is None:
            self._adj = poly_adjugate(self._block, self._memo)
            self._block = self._memo = None
        return self._adj


# ---------------------------------------------------------------------------
# Anchor frames
# ---------------------------------------------------------------------------


class AnchorFrame:
    """A divisor-type Lie algebroid presented by n vector-field generators."""

    __slots__ = ("chart", "generators", "det", "label", "_elim", "_reduced", "_structure")

    def __init__(self, chart, generators, label=None):
        if not chart.dimension:
            raise BadParams("a frame needs a chart of dimension at least 1")
        if len(generators) != chart.dimension:
            raise BadParams(
                "need %d generators on %r, got %d"
                % (chart.dimension, chart, len(generators))
            )
        for g in generators:
            if g.chart != chart:
                raise ChartMismatch("generator on a different chart")
            if g.degree != 1:
                raise BadParams("frame generators must be vector fields")
        self.chart = chart
        self.generators = list(generators)
        self._elim = _Elimination(self.matrix())
        self.det = self._elim.det
        if self.det.is_zero():
            raise DegenerateFrame(
                "anchor determinant vanishes identically; not of divisor-type"
            )
        self.label = label
        self._reduced = check_involutive(self)
        self._structure = None

    @property
    def structure(self):
        """The structure coefficients {(i, j): [c^k_ij for k]}, i < j, with
        [e_i, e_j] = sum_k c^k_ij e_k, back-substituted, the first time they
        are read, from the block that `check_involutive` reduced."""
        if self._structure is None:
            self._structure = _back_substituted(self)
            self._reduced = None
        return self._structure

    def matrix(self):
        """Anchor matrix R with R[j][i] = coefficient of D_j in generator i."""
        n = self.chart.dimension
        zero = Poly.zero(self.chart)
        m = [[zero for _ in range(n)] for _ in range(n)]
        for i, g in enumerate(self.generators):
            for (j,), c in g.comps.items():
                m[j][i] = c
        return m

    def __eq__(self, other):
        return (
            isinstance(other, AnchorFrame)
            and self.chart == other.chart
            and self.generators == other.generators
        )

    __hash__ = None

    def __str__(self):
        return "frame(%s)" % "; ".join(str(g) for g in self.generators)

    __repr__ = __str__


def expand_in_frame(v, frame):
    """Coefficients c with  sum_i c_i * generator_i = v, all polynomial.

    Solves through the frame's elimination record and demands exact
    cancellation of the det(S) denominators; the witness of a miss is the
    first coefficient, in generator order, that is not a polynomial.
    """
    if v.chart != frame.chart:
        raise ChartMismatch("vector field on a different chart")
    if v.degree != 1:
        raise BadParams("can only expand vector fields")
    x, exact = frame._elim.solve(v.vector_coeffs())
    if not exact:
        den = frame._elim.den
        num = next(num for num in x if exact_divide(num, den) is None)
        raise NotInModule(fraction_str(num, den))
    return x


def _bracket_rows(frame):
    """The n tagged rows that hold every bracket [e_i, e_j], i < j: row k
    holds component k of each, its terms tagged i*n + j.  Each product
    s * rho_li * d_l rho_kj over the derivative table (see the module
    docstring) is added straight into row k's term dict, the tag added to
    its packed monomial, with its degree checked as `sum_products` checks
    a product; each row is normalized once."""
    chart = frame.chart
    n = chart.dimension
    dshift = chart._degree_shift
    shift = dshift + FIELD_BITS
    # support[j]: (l, terms, degree) of each rho_lj; derivs[j]: {l: [(k, terms,
    # degree) of d_l rho_kj]} over the non-constant rho_kj
    support = [
        [(l, c._terms, max(c._terms) >> dshift) for (l,), c in g.comps.items() if c._terms]
        for g in frame.generators
    ]
    derivs = [
        {
            l: [(k, d._terms, max(d._terms) >> dshift) for (k,), d in entries]
            for l, entries in derivative_table(g.comps).items()
        }
        for g in frame.generators
    ]
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            tag = (i * n + j) << shift
            for s, a, b in ((1, i, j), (-1, j, i)):
                table = derivs[b]
                if not table:
                    continue
                for l, ta, da in support[a]:
                    for k, tb, db in table.get(l, ()):
                        _check_degree(da + db)
                        row = rows[k]
                        get = row.get
                        for m1, c1 in ta.items():
                            m1 += tag
                            if s < 0:
                                c1 = -c1
                            for m2, c2 in tb.items():
                                m = m1 + m2
                                row[m] = get(m, 0) + c1 * c2
    return [Poly._make(chart, _normed(row) if row else row) for row in rows]


def _untagged(chart, rows):
    """{(i, j): [component k of the bracket over k]} for the brackets with
    terms in tagged rows, in order of pairs."""
    n = chart.dimension
    shift = chart._degree_shift + FIELD_BITS
    low = (1 << shift) - 1
    cols = {}
    for k, row in enumerate(rows):
        for m, c in row._terms.items():
            col = cols.get(m >> shift)
            if col is None:
                col = cols[m >> shift] = [{} for _ in rows]
            col[k][m & low] = c
    return {divmod(t, n): [Poly._make(chart, terms) for terms in cols[t]] for t in sorted(cols)}


def check_involutive(frame):
    """Certify that every bracket [e_i, e_j] lies in the frame's module, or
    raise NotInvolutive with the first offending pair and its fractional
    witness.

    All brackets go through the elimination as one block of tagged rows:
    one forward pass, adj(S) once and one exact division by det(S) per row
    of S.  Back-substitution through constant pivots never misses, so those
    divisions decide; with S empty nothing can miss and nothing is done.
    On a miss each bracket is expanded alone, in order, for the first pair
    and its witness.  Returns the forward-run rows and S's quotients for
    `AnchorFrame.structure` to back-substitute, or None when S is empty."""
    elim = frame._elim
    if not elim.rows:
        return None
    rows = _bracket_rows(frame)
    if not any(rows):
        return rows, None
    v, nums = elim.forward(rows)
    quotients = elim.divide(nums)
    if quotients is None:
        chart = frame.chart
        for pair, col in _untagged(chart, rows).items():
            comps = {(k,): c for k, c in enumerate(col) if c}
            try:
                expand_in_frame(Multivector._make(chart, 1, comps), frame)
            except NotInModule as e:
                raise NotInvolutive(pair, e.witness) from None
        raise InternalError(  # pragma: no cover - the block misses only where a bracket does
            "a bracket missed in the block but not alone (internal error)"
        )
    return v, quotients


def _back_substituted(frame):
    """The structure table of `AnchorFrame.structure`: all-zero columns for
    the zero brackets, back-substitution of the reduced block for the rest
    (an empty S block is reduced here, as nothing was reduced before)."""
    chart = frame.chart
    n = chart.dimension
    zero = Poly.zero(chart)
    structure = {(i, j): [zero] * n for i in range(n) for j in range(i + 1, n)}
    v, quotients = frame._reduced or frame._elim.forward(_bracket_rows(frame))
    if any(v):
        structure.update(_untagged(chart, frame._elim.back_substitute(v, quotients)))
    return structure


def frame_divisor(frame):
    return make_ideal(frame.det)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _coord_fields(chart):
    return [Multivector.basis_vector(chart, i) for i in range(chart.dimension)]


# the kinds `catalog` builds
CATALOG_KINDS = frozenset(
    ["tx", "log", "zero", "bk", "scattering", "elliptic", "elliptic_log", "nc_log"]
)


def catalog(kind, chart, *params):
    """Catalog anchor frames; generators are ordered by chart variable slot.

    kinds: tx | log(z) | zero(z) | bk(z, k) | scattering(z) | elliptic(x, y)
           | elliptic_log(x, y) | nc_log(z1, ..., zj)
    """
    base = _coord_fields(chart)
    gens = list(base)
    if kind == "tx":
        label = ("tx",)
    elif kind in ("log", "zero", "scattering", "bk"):
        if kind == "bk":
            if len(params) != 2:
                raise BadParams("bk needs (variable, k)")
            z, k = params
            if not isinstance(k, int) or k < 1:
                raise BadParams("bk power must be an integer >= 1")
        else:
            if len(params) != 1:
                raise BadParams("%s needs the hypersurface variable" % kind)
            z, k = params[0], None
        iz = chart.index(z)
        zp = Poly.var(chart, z)
        if kind == "log":
            gens[iz] = zp * base[iz]
        elif kind == "bk":
            gens[iz] = (zp**k) * base[iz]
        elif kind == "zero":
            gens = [zp * g for g in base]
        elif kind == "scattering":
            gens = [zp * g for g in base]
            gens[iz] = zp * zp * base[iz]
        label = (kind, z) if k is None else (kind, z, k)
    elif kind in ("elliptic", "elliptic_log"):
        if len(params) != 2 or params[0] == params[1]:
            raise BadParams("%s needs two distinct variables" % kind)
        u, v = params
        iu, iv = chart.index(u), chart.index(v)
        up, vp = Poly.var(chart, u), Poly.var(chart, v)
        euler = up * base[iu] + vp * base[iv]
        if kind == "elliptic":
            rot = up * base[iv] - vp * base[iu]
            gens[iu], gens[iv] = euler, rot
        else:
            swirl = up * (vp * base[iu] - up * base[iv])
            gens[iu], gens[iv] = euler, swirl
        label = (kind, u, v)
    elif kind == "nc_log":
        if not params:
            raise BadParams("nc_log needs at least one hypersurface variable")
        if len(set(params)) != len(params):
            raise BadParams("nc_log variables must be distinct")
        for z in params:
            iz = chart.index(z)
            gens[iz] = Poly.var(chart, z) * base[iz]
        label = ("nc_log",) + tuple(params)
    else:
        raise BadParams("unknown catalog frame kind %r" % (kind,))
    return AnchorFrame(chart, gens, label=label)


def _modified_slots(frame):
    """Variable slots whose generator differs from the coordinate field, or
    None for frames outside the catalog (unlabeled or products)."""
    if frame.label is None or frame.label[0] == "product":
        return None
    return {
        i
        for i, g in enumerate(frame.generators)
        if g != Multivector.basis_vector(frame.chart, i)
    }


def fiber_product(fa, fb):
    """Fiber product of two catalog frames over the same chart.

    Supported: modifications touching disjoint variables (merge columns),
    with log x log delegating to the normal-crossing constructor; TX is the
    unit.  Anything overlapping raises UnsupportedOverlap.
    """
    if fa.chart != fb.chart:
        raise ChartMismatch("fiber product needs a common chart")
    sa, sb = _modified_slots(fa), _modified_slots(fb)
    if sa is None or sb is None:
        raise UnsupportedOverlap("fiber products are only defined for catalog frames")
    if not sa:
        return fb
    if not sb:
        return fa
    if sa & sb:
        raise UnsupportedOverlap(
            "supports overlap in variables %s"
            % sorted(fa.chart.variables[i] for i in sa & sb)
        )
    log_kinds = ("log", "nc_log")
    if fa.label[0] in log_kinds and fb.label[0] in log_kinds:
        zs = fa.label[1:] + fb.label[1:]
        return catalog("nc_log", fa.chart, *zs)
    gens = []
    for i in range(fa.chart.dimension):
        if i in sa:
            gens.append(fa.generators[i])
        elif i in sb:
            gens.append(fb.generators[i])
        else:
            gens.append(Multivector.basis_vector(fa.chart, i))
    label = ("product", fa.label, fb.label)
    return AnchorFrame(fa.chart, gens, label=label)


# ---------------------------------------------------------------------------
# Elementary modifications
# ---------------------------------------------------------------------------

_SMOOTH_TAGS = (
    DivisorClass.TRIVIAL,
    DivisorClass.LOG,
    DivisorClass.BPOWER,
    DivisorClass.ELLIPTIC,
)


def _require_smooth_ideal(ideal):
    tag = classify(ideal)
    if tag.tag not in _SMOOTH_TAGS:
        raise BadParams(
            "modification ideal %s is not smooth-supported in the catalog sense (%s)"
            % (ideal, tag)
        )
    return tag


def lower_modify(frame, keep, ideal):
    """Multiply the generators outside `keep` by the ideal generator.

    `keep` (0-based indices) must span a Lie subalgebroid along the zero
    locus: every kept generator preserves the ideal, and brackets of kept
    generators re-expand in kept generators modulo the ideal.  (Ideal
    preservation is needed on top of the bracket condition: a kept
    generator not tangent to the locus destroys involutivity.)
    """
    _require_smooth_ideal(ideal)
    keep = set(keep)
    n = frame.chart.dimension
    if not keep <= set(range(n)):
        raise BadParams("keep indices out of range")
    gen = ideal.generator
    for i in sorted(keep):
        ok, _ = preserves(frame.generators[i], ideal)
        if not ok:
            raise NotASubalgebroid(
                "kept generator e%d does not preserve %s" % (i + 1, ideal)
            )
    for i in sorted(keep):
        for j in sorted(keep):
            if j <= i:
                continue
            coeffs = frame.structure[(i, j)]
            for k in range(n):
                if k in keep or coeffs[k].is_zero():
                    continue
                if exact_divide(coeffs[k], gen) is None:
                    raise NotASubalgebroid(
                        "bracket [e%d, e%d] has component %s e%d not divisible by %s"
                        % (i + 1, j + 1, coeffs[k], k + 1, gen)
                    )
    gens = [
        g if i in keep else gen * g for i, g in enumerate(frame.generators)
    ]
    try:
        return AnchorFrame(frame.chart, gens, label=None)
    except NotInvolutive as e:  # pragma: no cover - theory says impossible
        raise InternalError("involutivity lost after lower modification: %s" % e)


def upper_modify(frame, kernel, ideal):
    """Divide the generators outside `kernel` by the ideal generator
    (inverse to lower_modify with matching data)."""
    _require_smooth_ideal(ideal)
    kernel = set(kernel)
    n = frame.chart.dimension
    if not kernel <= set(range(n)):
        raise BadParams("kernel indices out of range")
    gen = ideal.generator
    gens = []
    for i, g in enumerate(frame.generators):
        if i in kernel:
            gens.append(g)
            continue
        comps = {}
        for idx, c in g.comps.items():
            q = exact_divide(c, gen)
            if q is None:
                raise NotDivisibleGenerator(i, fraction_str(c, gen))
            comps[idx] = q
        gens.append(Multivector(frame.chart, 1, comps))
    try:
        return AnchorFrame(frame.chart, gens, label=None)
    except NotInvolutive as e:
        raise InternalError("involutivity lost after upper modification: %s" % e)


# ---------------------------------------------------------------------------
# Coframe forms and the algebroid differential
# ---------------------------------------------------------------------------


class CoframeForm(_Graded):
    """Differential form over a frame's dual coframe, Poly coefficients."""

    __slots__ = ("frame",)
    _invalid = BadParams

    def __init__(self, frame, degree, comps=None):
        self.frame = frame
        _Graded.__init__(self, frame.chart, degree, comps)

    def _space(self):
        return self.frame

    def _like(self, degree, comps):
        out = _Graded._like(self, degree, comps)
        out.frame = self.frame
        return out

    def _basis_name(self, i):
        return "e%d" % (i + 1)

    @classmethod
    def function(cls, frame, p):
        return cls(frame, 0, {(): p})

    @classmethod
    def basis(cls, frame, i):
        return cls(frame, 1, {(i,): Poly.const(frame.chart, 1)})


def algebroid_d(form):
    """d_A of a CoframeForm: the differential of the frame's generators and
    structure coefficients (see module docstring)."""
    anchor = [[(j, c) for (j,), c in g.comps.items()] for g in form.frame.generators]
    return differential(form, anchor, form.frame.structure)


def _two_rounds(elim, m, numerators):
    """Rows 0..n-2 of rho^-1 m rho^-T, by solves of m's columns and then of
    the rows of rho^-1 m, or None when a solve misses; with `numerators`,
    rows of N m N^T for N = det(S) rho^-1, which never miss."""
    first = []
    for col in mat_transpose(m):
        sol, exact = elim.solve(col, numerators)
        if not (exact or numerators):
            return None
        first.append(sol)
    rows = []
    for i in range(len(m) - 1):
        row, exact = elim.solve([sol[i] for sol in first], numerators)
        if not (exact or numerators):
            return None
        rows.append(row)
    return rows


def pullback(frame, pi):
    """The frame bivector pi_A with rho pi_A rho^T = pi, or NotLiftable.

    Two rounds of solves: X = rho^-1 Pi column by column, which is Pi_A
    rho^T and so polynomial whenever the lift exists, then row i of Pi_A =
    rho^-1 (row i of X).  On a miss both rounds run again on numerators, and
    the first entry (i, j), i < j, of N Pi N^T / det(S)^2 that is not a
    polynomial is the witness."""
    m = bivector_matrix(pi)
    n = len(m)
    rows = _two_rounds(frame._elim, m, False)
    if rows is not None:
        comps = {(i, j): row[j] for i, row in enumerate(rows) for j in range(i + 1, n)}
        return Multivector(frame.chart, 2, comps)
    den = frame._elim.den
    den2 = den * den
    for i, row in enumerate(_two_rounds(frame._elim, m, True)):
        for j in range(i + 1, n):
            if exact_divide(row[j], den2) is None:
                raise NotLiftable((i, j), fraction_str(row[j], den, 2))
    raise InternalError("pullback missed on polynomial entries (internal error)")  # pragma: no cover


def pushforward(frame, lifted):
    """Push a frame bivector (indices over the generators) to TX: the
    bivector of the matrix rho Pi_A rho^T.  Only its entries i < j are built,
    entry (i, j) as row i of rho Pi_A against row j of rho, so rows 0..n-2
    of rho Pi_A are all it needs."""
    chart = frame.chart
    rho = frame.matrix()
    left = mat_mul(rho[:-1], bivector_matrix(lifted))
    comps = {}
    for i, row in enumerate(left):
        for j in range(i + 1, len(rho)):
            comps[(i, j)] = sum_products(chart, [(1, x, y) for x, y in zip(row, rho[j])])
    return Multivector(chart, 2, comps)


# ---------------------------------------------------------------------------
# Ideal-algebroid verification report
# ---------------------------------------------------------------------------


class FrameIdealReport:
    __slots__ = ("frame", "ideal", "preserves_all", "certificates", "standard", "relation")

    def __init__(self, frame, ideal, preserves_all, certificates, standard, relation):
        self.frame = frame
        self.ideal = ideal
        self.preserves_all = preserves_all
        self.certificates = certificates
        self.standard = standard
        self.relation = relation


def verify_ideal_algebroid(frame, ideal):
    """Check that every generator preserves the ideal and whether the frame
    divisor reproduces it (standardness), reporting any divisibility found."""
    certs = [preserves(g, ideal) for g in frame.generators]
    fd = frame_divisor(frame)
    standard = fd == ideal
    if standard:
        relation = "frame divisor %s equals the ideal" % fd
    elif divides_ideal(fd, ideal):
        relation = "frame divisor %s divides %s" % (fd, ideal)
    elif divides_ideal(ideal, fd):
        relation = "%s divides the frame divisor %s" % (ideal, fd)
    else:
        relation = "frame divisor %s unrelated to %s" % (fd, ideal)
    return FrameIdealReport(
        frame, ideal, all(ok for ok, _ in certs), certs, standard, relation
    )
