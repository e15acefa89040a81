"""Frame certification by elimination over constant pivots, against the
full-adjugate path it replaced.

The references below keep that path: the anchor's adjugate and determinant
from one table of minors (`conftest.adjugate_and_det`), Cramer's rule for frame
expansion and for the involutivity certificate, and the congruence
adj(rho) Pi adj(rho)^T divided by det(rho)^2 for the lift.  On seeded random
anchors -- with constant entries, with `Fraction` pivots, with no constant
entry at all, and singular ones -- the frames must agree with them on the
determinant, every structure coefficient, expansions and lift components,
and on the exact message of every NotInvolutive, NotInModule, NotLiftable
and DegenerateFrame.  The lifts, one skew congruence through the
elimination, meet Schur blocks of size 0 to 3, diagonal and dense, the zero
bivector, frames on a line, and a miss in the S x S products; a pullback off by one coefficient trips the
lift's pushforward check.  The determinant alone must agree with the
reference on dense matrices that leave a large Schur block.
Involutivity takes one block reduction of all the brackets per frame,
back-substitutes only when the structure is read, and on a failing frame
names the first bracket and the witness that solving each bracket alone
names.  The tagged bracket rows, every product added straight into one term
dict per row, match one `sum_products` call per bracket component
(`conftest.bracket_rows_reference`), also where components cancel.
"""

import random
import types
from fractions import Fraction

import pytest

from divkit.frames import (
    AnchorFrame,
    DegenerateFrame,
    NotInModule,
    NotInvolutive,
    NotLiftable,
    _Elimination,
    catalog,
    expand_in_frame,
    mat_mul,
    poly_det,
    pullback,
    pushforward,
)
from divkit import frames, poisson
from divkit.multivector import DiffForm, Multivector, bivector_matrix, schouten_bracket
from divkit.poisson import lift
from divkit.rings import (
    Chart,
    ChartMismatch,
    DegreeCapExceeded,
    InternalError,
    Poly,
    degree_cap,
    exact_divide,
    fraction_str,
    sum_products,
)

from conftest import (
    adjugate_and_det,
    bracket_rows_reference,
    mat_transpose,
    rand_multivector,
    rand_poly,
    rand_vector,
)

C1 = Chart(["x"])
C2 = Chart(["x", "y"])
C3 = Chart(["x", "y", "u"])
C4 = Chart(["x", "y", "u", "v"])


# ---------------------------------------------------------------------------
# References: the full adjugate of the anchor
# ---------------------------------------------------------------------------


def anchor(chart, gens):
    n = chart.dimension
    m = [[Poly.zero(chart) for _ in range(n)] for _ in range(n)]
    for i, g in enumerate(gens):
        for (j,), c in g.comps.items():
            m[j][i] = c
    return m


def reference_expand(v, adj, det):
    out = []
    for row in adj:
        num = sum_products(v.chart, [(1, a, c) for a, c in zip(row, v.vector_coeffs())])
        q = exact_divide(num, det)
        if q is None:
            raise NotInModule(fraction_str(num, det))
        out.append(q)
    return out


def reference_frame(chart, gens):
    """("frame", det, structure), or ("error", kind, message) as the
    adjugate path certified the frame."""
    adj, det = adjugate_and_det(anchor(chart, gens))
    if det.is_zero():
        return "error", "DegenerateFrame", "anchor determinant vanishes identically; not of divisor-type"
    structure = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            try:
                structure[(i, j)] = reference_expand(schouten_bracket(gens[i], gens[j]), adj, det)
            except NotInModule as e:
                return "error", "NotInvolutive", str(NotInvolutive((i, j), e.witness))
    return "frame", det, structure


def reference_lift(pi, frame):
    """The lifted components {(i, j): Poly}, or NotLiftable."""
    adj, det = adjugate_and_det(frame.matrix())
    det2 = det * det
    m = mat_mul(mat_mul(adj, bivector_matrix(pi)), mat_transpose(adj))
    comps = {}
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            q = exact_divide(m[i][j], det2)
            if q is None:
                raise NotLiftable((i, j), fraction_str(m[i][j], det, 2))
            if not q.is_zero():
                comps[(i, j)] = q
    return comps


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (NotInModule, NotLiftable) as e:
        return "error", type(e).__name__, str(e)


def frame_outcome(chart, gens):
    try:
        frame = AnchorFrame(chart, gens)
    except (DegenerateFrame, NotInvolutive) as e:
        return None, ("error", type(e).__name__, str(e))
    return frame, ("frame", frame.det, frame.structure)


# ---------------------------------------------------------------------------
# Random anchors
# ---------------------------------------------------------------------------


def rand_constant(rng, fractions):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(c, rng.choice([1, 2, 3, 5])) if fractions else c


def rand_nonconstant(chart, rng):
    p = rand_poly(chart, rng, max_degree=2, terms=2, zero_ok=False)
    if p.is_constant():
        p = p * Poly.var(chart, rng.choice(chart.variables))
    return p


def rand_anchor_gens(chart, rng, constants=True, fractions=False, singular=False):
    """Generators whose anchor has random entries: zeros, nonzero constants
    (when `constants`; `Fraction`s when `fractions`) and non-constant
    polynomials; with `singular`, the last column is a polynomial
    combination of the others."""
    n = chart.dimension
    cols = []
    for _ in range(n):
        col = []
        for _ in range(n):
            u = rng.random()
            if u < 0.3:
                col.append(Poly.zero(chart))
            elif constants and u < 0.65:
                col.append(Poly.const(chart, rand_constant(rng, fractions)))
            else:
                col.append(rand_nonconstant(chart, rng))
        cols.append(col)
    if singular:
        f = [rand_poly(chart, rng, max_degree=1, terms=2) for _ in range(n - 1)]
        cols[-1] = [sum_products(chart, [(1, f[k], cols[k][r]) for k in range(n - 1)]) for r in range(n)]
    return [Multivector.vector(chart, col) for col in cols]


def recombined_gens(frame, rng, fractions):
    """The frame's module on new generators: a random unit lower triangular
    polynomial recombination, each generator scaled by a nonzero constant
    (a `Fraction` when `fractions`), in a shuffled order."""
    chart = frame.chart
    gens = []
    for i, g in enumerate(frame.generators):
        g = Poly.const(chart, rand_constant(rng, fractions)) * g
        for j in range(i):
            if rng.random() < 0.6:
                g = g + rand_poly(chart, rng, max_degree=1, terms=2) * frame.generators[j]
        gens.append(g)
    rng.shuffle(gens)
    return gens


def catalog_frames():
    frames = []
    for chart in (C2, C3):
        frames += [
            catalog("tx", chart),
            catalog("log", chart, "x"),
            catalog("zero", chart, "x"),
            catalog("bk", chart, "x", 2),
            catalog("scattering", chart, "y"),
            catalog("elliptic", chart, "x", "y"),
            catalog("elliptic_log", chart, "x", "y"),
        ]
    frames += [catalog("nc_log", C4, "x", "u"), catalog("elliptic_log", C4, "y", "v")]
    return frames


def involutive_cases(rng):
    """(chart, gens) of involutive frames: the catalog, and recombinations
    of it with integer and with `Fraction` scales."""
    cases = []
    for frame in catalog_frames():
        cases.append((frame.chart, frame.generators))
        cases.append((frame.chart, recombined_gens(frame, rng, fractions=False)))
        cases.append((frame.chart, recombined_gens(frame, rng, fractions=True)))
    return cases


def random_cases(rng):
    cases = []
    for chart in (C2, C3, C4):
        for _ in range(12 if chart is C2 else 6):
            cases.append((chart, rand_anchor_gens(chart, rng)))
            cases.append((chart, rand_anchor_gens(chart, rng, fractions=True)))
            cases.append((chart, rand_anchor_gens(chart, rng, constants=False)))
            cases.append((chart, rand_anchor_gens(chart, rng, singular=True)))
    # triangular anchors with constants on the diagonal are involutive
    # often enough to reach expansions and lifts
    for chart in (C2, C3):
        for _ in range(6):
            gens = []
            for i in range(chart.dimension):
                col = [Poly.zero(chart)] * chart.dimension
                col[i] = Poly.const(chart, rand_constant(rng, True))
                for r in range(i + 1, chart.dimension):
                    col[r] = rand_poly(chart, rng, max_degree=1, terms=1)
                gens.append(Multivector.vector(chart, col))
            cases.append((chart, gens))
    return cases


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_frames_match_the_adjugate_path():
    rng = random.Random(2718)
    kinds = set()
    shapes = set()
    fraction_pivots = 0
    for chart, gens in involutive_cases(rng) + random_cases(rng):
        frame, got = frame_outcome(chart, gens)
        want = reference_frame(chart, gens)
        assert got == want, (chart, gens)
        kinds.add(want[0] if want[0] == "frame" else want[1])
        if frame is not None:
            elim = frame._elim
            shapes.add(("empty" if not elim.rows else "whole" if not elim.steps else "block"))
            fraction_pivots += any(isinstance(inv, Fraction) for _, _, inv, _, _ in elim.steps)
    assert kinds == {"frame", "NotInvolutive", "DegenerateFrame"}
    assert shapes == {"empty", "whole", "block"}
    assert fraction_pivots


def test_expansions_match_the_adjugate_path():
    rng = random.Random(3141)
    seen = {"value": 0, "error": 0}
    for chart, gens in involutive_cases(rng) + random_cases(rng):
        frame, _ = frame_outcome(chart, gens)
        if frame is None:
            continue
        adj, det = adjugate_and_det(frame.matrix())
        coeffs = [rand_poly(chart, rng, max_degree=1, terms=2) for _ in range(chart.dimension)]
        inside = Multivector.zero(chart, 1)
        for c, g in zip(coeffs, frame.generators):
            inside = inside + c * g
        assert expand_in_frame(inside, frame) == coeffs
        for v in (inside, rand_vector(chart, rng, max_degree=1), inside + rand_vector(chart, rng, 0)):
            got = outcome(expand_in_frame, v, frame)
            assert got == outcome(reference_expand, v, adj, det), (frame, v)
            seen[got[0]] += 1
    assert seen["value"] and seen["error"]


def schur_cases(rng):
    """(chart, gens) whose Schur blocks the other cases miss: nc_log on three
    coordinates, a diagonal block of size 3, and its recombinations, a dense
    one, on an odd and on an even chart; and frames on a line."""
    cases = []
    for chart in (C3, C4):
        frame = catalog("nc_log", chart, "x", "y", "u")
        cases.append((chart, frame.generators))
        cases.append((chart, recombined_gens(frame, rng, fractions=False)))
        cases.append((chart, recombined_gens(frame, rng, fractions=True)))
    cases.append((C1, catalog("tx", C1).generators))
    cases.append((C1, catalog("log", C1, "x").generators))
    return cases


def test_lifts_match_the_adjugate_path():
    rng = random.Random(1618)
    seen = {"value": 0, "error": 0}
    sizes, dense = set(), False

    def check(frame, pi):
        got = outcome(lambda p: pullback(frame, p).comps, pi)
        assert got == outcome(reference_lift, pi, frame), (frame, pi)
        seen[got[0]] += 1
        if got[0] == "error":
            with pytest.raises(NotLiftable) as e:
                lift(pi, frame)
            assert str(e.value) == got[2]
        return got

    for chart, gens in involutive_cases(rng) + random_cases(rng) + schur_cases(rng):
        frame, _ = frame_outcome(chart, gens)
        if frame is None:
            continue
        elim = frame._elim
        if chart.dimension < 2:
            # a line carries no bivector: the congruence of the empty matrix
            assert elim.congruence({}) == {} and elim.congruence({}, exact=False) == {}
            sizes.add(("line", len(elim.rows)))
            continue
        pa = rand_multivector(chart, rng, 2, max_degree=1)
        pi = pushforward(frame, pa)
        assert pullback(frame, pi) == pa
        det = frame.det
        others = (rand_multivector(chart, rng, 2, max_degree=1), det * rand_multivector(chart, rng, 2, 1))
        for pi in (pi,) + others + (Multivector.zero(chart, 2),):
            check(frame, pi)
        size = len(elim.rows)
        sizes.add(min(size, 3))
        # adj(S) = det(S) S^-1 is diagonal exactly when S is
        adj = elim.adj()
        dense |= size >= 3 and any(adj[k][l] for k in range(size) for l in range(size) if k != l)
    assert seen["value"] and seen["error"]
    assert sizes == {0, 1, 2, 3, ("line", 0), ("line", 1)} and dense
    # zero(x), S = diag(x, x): the one-sided rows adj(S) Pi / x^2 divide, and
    # the S x S entry x / x^2 is the miss
    x = Poly.var(C2, "x")
    got = check(catalog("zero", C2, "x"), x * Multivector(C2, 2, {(0, 1): Poly.const(C2, 1)}))
    assert got == ("error", "NotLiftable", "no polynomial lift: entry (1, 2) is (1)/(x)")


def test_lift_checks_its_pushforward(monkeypatch):
    # a pullback off by one coefficient is caught by rho pi_A rho^T == pi
    frame = catalog("elliptic_log", C4, "y", "v")
    pa = rand_multivector(C4, random.Random(99), 2, max_degree=1, density=1)
    pi = pushforward(frame, pa)
    assert lift(pi, frame).lifted == pa
    real = poisson.pullback

    def off_by_one(frame, pi):
        comps = dict(real(frame, pi).comps)
        comps[0, 1] = comps.get((0, 1), Poly.zero(C4)) + 1
        return Multivector(frame.chart, 2, comps)

    monkeypatch.setattr(poisson, "pullback", off_by_one)
    with pytest.raises(InternalError, match="^lift pushforward does not reproduce the bivector$"):
        lift(pi, frame)


def test_determinant_keeps_sign_and_pivot_scale():
    # pivots off the diagonal, a Fraction pivot and a Schur block: the
    # determinant is the signed product of the pivots times det(S)
    x, y = Poly.var(C2, "x"), Poly.var(C2, "y")
    dx, dy = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)
    frame = AnchorFrame(C2, [x * dx + Fraction(2, 3) * dy, Fraction(1, 2) * dx])
    assert frame.det == Poly.const(C2, Fraction(-1, 3))
    frame = AnchorFrame(C2, [y * dy, x * dx])
    assert frame.det == -(x * y)
    assert [frame._elim.rows, frame._elim.steps] == [[0, 1], []]


def test_graded_coefficients_must_live_on_the_chart():
    x, u = Poly.var(C3, "x"), Poly.var(C3, "u")
    with pytest.raises(ChartMismatch):
        DiffForm(C2, 0, {(): x * u})
    with pytest.raises(ChartMismatch):
        Multivector(C2, 1, {(0,): x})
    # an equal chart built separately is the same chart
    assert Multivector(Chart(["x", "y", "u"]), 1, {(0,): x}).comps == {(0,): x}


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name in the list it returns."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_involutivity_solves_only_the_nonzero_brackets(monkeypatch):
    # one block reduction per frame and no back-substitution until the
    # structure is read; a second read reuses the first
    rng = random.Random(1729)
    forward = counting(monkeypatch, _Elimination, "forward")
    back = counting(monkeypatch, _Elimination, "back_substitute")
    expand = counting(monkeypatch, frames, "expand_in_frame")
    zero_brackets = nonzero_brackets = 0
    shapes = set()
    for chart, gens in involutive_cases(rng):
        n = chart.dimension
        brackets = {(i, j): schouten_bracket(gens[i], gens[j]) for i in range(n) for j in range(i + 1, n)}
        nonzero = any(not br.is_zero() for br in brackets.values())
        for calls in (forward, back, expand):
            del calls[:]
        frame = AnchorFrame(chart, gens)
        block = bool(frame._elim.rows)
        shapes.add((block, nonzero))
        assert (len(forward), len(back), len(expand)) == (block and nonzero, 0, 0), frame
        structure = frame.structure
        assert frame.structure is structure
        assert (len(forward), len(back)) == (int(nonzero or not block), int(nonzero)), frame
        assert list(structure) == list(brackets)
        for pair, br in brackets.items():
            col = structure[pair]
            if br.is_zero():
                assert len(col) == n and all(type(c) is Poly and c == Poly.zero(chart) for c in col)
                zero_brackets += 1
            else:
                nonzero_brackets += 1
    assert expand == []
    assert zero_brackets and nonzero_brackets
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_failing_frames_name_the_first_bracket_of_the_per_bracket_path():
    # random anchors with several brackets outside the module: the block
    # decides, and the pair and witness are those of expanding each bracket
    # alone, in order, through the same elimination
    rng = random.Random(6174)
    several = 0
    for chart, gens in random_cases(rng):
        elim = _Elimination(anchor(chart, gens))
        if elim.det.is_zero():
            continue
        # the anchor's elimination, its brackets not yet certified
        uncertified = types.SimpleNamespace(chart=chart, _elim=elim)
        misses = []
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                try:
                    expand_in_frame(schouten_bracket(gens[i], gens[j]), uncertified)
                except NotInModule as e:
                    misses.append(((i, j), e.witness))
        if not misses:
            AnchorFrame(chart, gens)
            continue
        with pytest.raises(NotInvolutive) as e:
            AnchorFrame(chart, gens)
        assert (e.value.pair, e.value.witness) == misses[0], (chart, gens)
        several += len(misses) > 1
    assert several >= 20
    # S = [x] after the constant pivot: [e1, e2] = Dy = -y/x e1 + 1/x e2
    x, y = Poly.var(C2, "x"), Poly.var(C2, "y")
    dx, dy = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)
    with pytest.raises(NotInvolutive) as e:
        AnchorFrame(C2, [dx, y * dx + x * dy])
    assert str(e.value) == "bracket of generators 1,2 leaves the frame module: coefficient (-y)/(x)"


def test_a_frame_with_no_schur_block_is_involutive_with_no_work(monkeypatch):
    x, y = Poly.var(C2, "x"), Poly.var(C2, "y")
    dx, dy = Multivector.basis_vector(C2, 0), Multivector.basis_vector(C2, 1)
    forward = counting(monkeypatch, _Elimination, "forward")
    frame = AnchorFrame(C2, [dx, x * dx + y * dx + dy])
    assert frame._elim.rows == [] and frame._reduced is None and forward == []
    # [Dx, (x + y) Dx + Dy] = Dx = e1
    one, zero = Poly.const(C2, 1), Poly.zero(C2)
    assert frame.structure == {(0, 1): [one, zero]} and len(forward) == 1


def dense_few_constants(chart, rng, n):
    """An n x n matrix of linear forms in two variables each, plus a
    constant, with two nonzero constant entries in distinct rows and
    columns: at most two pivots, and a Schur block of size n-2 or more."""
    m = []
    for _ in range(n):
        row = []
        for _ in range(n):
            p = Poly.const(chart, rng.randint(-2, 2))
            for name in rng.sample(chart.variables, 2):
                p = p + rng.choice([-2, -1, 1, 2, 3]) * Poly.var(chart, name)
            row.append(p)
        m.append(row)
    for r, c in zip(rng.sample(range(n), 2), rng.sample(range(n), 2)):
        m[r][c] = Poly.const(chart, rand_constant(rng, True))
    return m


def test_determinant_alone_matches_the_adjugate_reference(monkeypatch):
    # the block fills in; det(S) comes from its minors and adj(S) is never built
    rng = random.Random(5656)
    chart = Chart(["x", "y", "u", "v", "w"])
    for n in (5, 6):
        for _ in range(2):
            m = dense_few_constants(chart, rng, n)
            want = adjugate_and_det(m)[1]
            with monkeypatch.context() as patched:
                patched.setattr(frames, "poly_adjugate", lambda *a: pytest.fail("poly_det built adj(S)"))
                assert poly_det(m) == want and not want.is_zero()
                assert len(_Elimination(m).rows) >= n - 2


def bracket_rows_outcome(rows_of, chart, gens, cap):
    """The term dicts of `rows_of` on a frame's generators under a degree
    cap, or DegreeCapExceeded: every product is checked, though a bracket's
    products are checked in another order than one component after another,
    so the degree an error names may differ."""
    frame = types.SimpleNamespace(chart=chart, generators=gens)
    try:
        with degree_cap(cap):
            return [row._terms for row in rows_of(frame)]
    except DegreeCapExceeded:
        return DegreeCapExceeded


def test_bracket_rows_match_one_sum_per_component():
    # random anchors with `Fraction` constants, recombined catalog frames,
    # and generators whose bracket components cancel: each product of
    # [e, 2e] and [e, e + c] has a partner of opposite sign
    rng = random.Random(4242)
    cases = [(chart, gens) for chart, gens in random_cases(rng) + involutive_cases(rng)]
    x, y, u = (Poly.var(C3, v) for v in ("x", "y", "u"))
    dx, dy, du = (Multivector.basis_vector(C3, i) for i in range(3))
    e = (x * y + Fraction(1, 2)) * dx + (u - x**2) * dy
    cases.append((C3, [e, 2 * e, du]))
    cases.append((C3, [e, e + Fraction(3, 2) * du, du]))
    capped = 0
    for chart, gens in cases:
        for cap in (None, 1, 2):
            want = bracket_rows_outcome(bracket_rows_reference, chart, gens, cap)
            got = bracket_rows_outcome(frames._bracket_rows, chart, gens, cap)
            assert got == want, (chart, gens, cap)
            capped += want is DegreeCapExceeded
    # [e, 2e] = 0, and the Dx component of [e, e + 3/2 Du] = -3/2 Dy cancels
    zero = rows_of_pairs(C3, cases[-2][1])
    assert (0, 1) not in zero and (0, 2) in zero
    col = rows_of_pairs(C3, cases[-1][1])[(0, 1)]
    assert col[0].is_zero() and col[1] == Fraction(-3, 2) and col[2].is_zero()
    assert capped


def rows_of_pairs(chart, gens):
    rows = frames._bracket_rows(types.SimpleNamespace(chart=chart, generators=gens))
    return frames._untagged(chart, rows)
