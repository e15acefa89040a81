"""Lie algebroids of divisor-type presented by polynomial anchor frames.

A frame is a list of n polynomial vector fields (n = chart dimension) whose
coefficient matrix -- the anchor -- has nonzero determinant, so the frame
spans TX over the fraction field and the algebroid is almost-injective.
Involutivity is certified by solving every pairwise Lie bracket back into
the frame with Cramer's rule and demanding that all denominators cancel;
the adjugate comes from one memoized table of minors, and the determinant
from the adjugate's first column.  Every sum of products here (a minor's
expansion, a matrix product entry, a Cramer numerator) is one
`rings.sum_products` call.

The algebroid differential d_A is the Chevalley-Eilenberg differential of
the anchor and the certified structure coefficients c^k_ij:

    d_A f = sum_i rho(e_i)(f) e^i,    d_A e^k = -sum_{i<j} c^k_ij e^i ^ e^j,

extended to coframe forms as a graded derivation.
"""

from __future__ import annotations

from .rings import ChartMismatch, InternalError, Poly, exact_divide, fraction_str, sum_products
from .divisors import DivisorClass, classify, divides_ideal, make_ideal, preserves
from .multivector import (
    Multivector,
    _accumulate,
    _Graded,
    bivector_from_matrix,
    bivector_matrix,
    lie_bracket,
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
    full = tuple(range(len(m)))
    return _minor_table(m, {})(full, full)


def poly_adjugate(m):
    """adj(m) with m * adj(m) = det(m) * I."""
    n = len(m)
    memo = {}
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


def adjugate_and_det(m):
    """(adj(m), det(m)), the determinant taken from the adjugate's first
    column, det = sum_j m[0][j] adj[j][0], so one table of minors serves both."""
    adj = poly_adjugate(m)
    chart = m[0][0].chart
    return adj, sum_products(chart, [(1, m[0][j], adj[j][0]) for j in range(len(m))])


def invert_antisym(m):
    """Exact inverse of an antisymmetric Poly matrix with constant nonzero
    determinant (all the catalog dual forms have one)."""
    adj, det = adjugate_and_det(m)
    if not det.is_constant() or det.is_zero():
        raise BadParams("matrix inversion needs a constant nonzero determinant")
    c = det.constant_value()
    return [[adj[i][j] * (1 / c) for j in range(len(m))] for i in range(len(m))]


def mat_mul(a, b):
    chart = a[0][0].chart
    cols = list(zip(*b))
    return [
        [sum_products(chart, [(1, x, y) for x, y in zip(row, col)]) for col in cols] for row in a
    ]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


# ---------------------------------------------------------------------------
# Anchor frames
# ---------------------------------------------------------------------------


class AnchorFrame:
    """A divisor-type Lie algebroid presented by n vector-field generators."""

    __slots__ = ("chart", "generators", "det", "adj", "structure", "label")

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
        self.adj, self.det = adjugate_and_det(self.matrix())
        if self.det.is_zero():
            raise DegenerateFrame(
                "anchor determinant vanishes identically; not of divisor-type"
            )
        self.label = label
        self.structure = check_involutive(self)

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

    Solves by Cramer's rule over the fraction field and demands exact
    cancellation of the determinant denominators.
    """
    if v.chart != frame.chart:
        raise ChartMismatch("vector field on a different chart")
    if v.degree != 1:
        raise BadParams("can only expand vector fields")
    det = frame.det
    col = v.vector_coeffs()
    out = []
    for row in frame.adj:
        num = sum_products(frame.chart, [(1, a, c) for a, c in zip(row, col)])
        q = exact_divide(num, det)
        if q is None:
            raise NotInModule(fraction_str(num, det))
        out.append(q)
    return out


def check_involutive(frame):
    """Structure coefficients c^k_ij with [e_i, e_j] = sum_k c^k_ij e_k,
    or raise NotInvolutive with the offending pair and fractional witness."""
    n = frame.chart.dimension
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = lie_bracket(frame.generators[i], frame.generators[j])
            try:
                coeffs = expand_in_frame(br, frame)
            except NotInModule as e:
                raise NotInvolutive((i, j), e.witness) from None
            table[(i, j)] = coeffs
    return table


def frame_divisor(frame):
    return make_ideal(frame.det)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _coord_fields(chart):
    return [Multivector.basis_vector(chart, i) for i in range(chart.dimension)]


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
    """Chevalley-Eilenberg differential d_A of the frame (see module
    docstring): d_A(f e^I) = d_A f ^ e^I + f sum_p (-1)^p d_A e^{I_p} ^ e^{I - I_p}."""
    frame = form.frame
    n = frame.chart.dimension
    if form.degree >= n:
        return CoframeForm.zero(frame, n)
    res = {}

    def put(head, rest, v):
        m = merge_indices(head, rest)
        if m is not None and not v.is_zero():
            _accumulate(res, m[1], v if m[0] > 0 else -v)

    for idx, f in form.comps.items():
        for i, g in enumerate(frame.generators):
            if i not in idx:
                put((i,), idx, g.apply_to(f))
        for pos, k in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            for pair, coeffs in frame.structure.items():
                if not coeffs[k].is_zero():
                    v = f * coeffs[k]  # the sign of d_A e^k times (-1)^pos
                    put(pair, rest, v if pos % 2 else -v)
    return form._like(form.degree + 1, res)


def pushforward(frame, lifted):
    """Push a frame bivector (indices over the generators) to TX: the
    bivector of the matrix rho Pi_A rho^T."""
    rho = frame.matrix()
    m = mat_mul(mat_mul(rho, bivector_matrix(lifted)), mat_transpose(rho))
    return bivector_from_matrix(frame.chart, m)


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

    def __str__(self):
        lines = ["frame/ideal report for %s:" % self.ideal]
        for i, (ok, cert) in enumerate(self.certificates):
            lines.append(
                "  e%d preserves: %s%s"
                % (i + 1, "yes" if ok else "NO", " (certificate %s)" % cert if ok else "")
            )
        lines.append("  standard: %s (%s)" % ("yes" if self.standard else "no", self.relation))
        return "\n".join(lines)


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
