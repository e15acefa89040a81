"""The graded products and both differentials against plain reference loops.

Each reference below keeps the running-sum loop the operation used before it
collected its products per output index tuple for `rings.sum_products`:
every product is built as its own Poly and added into the result at once,
and a sum that reaches zero drops its entry.  The library results must
match them component for component, on inputs with `Fraction` coefficients,
with products that cancel to zero, and over every catalog frame.
"""

import itertools
import random
from fractions import Fraction

import pytest

from divkit.frames import CoframeForm, algebroid_d, catalog
from divkit.multivector import (
    DiffForm,
    Multivector,
    exterior_derivative,
    interior_product,
    merge_indices,
)
from divkit.rings import Chart, ChartMismatch, Poly

from conftest import rand_poly

C2 = Chart(["x", "y"])
C3 = Chart(["x", "y", "u"])
C4 = Chart(["w", "x", "y", "z"])


def catalog_frames():
    c3e = Chart(["x", "y", "z"])
    frames = []
    for chart in (C2, C3):
        frames += [
            catalog("tx", chart),
            catalog("log", chart, "x"),
            catalog("zero", chart, "y"),
            catalog("bk", chart, "x", 2),
            catalog("bk", chart, "y", 3),
            catalog("scattering", chart, "x"),
            catalog("elliptic", chart, "x", "y"),
            catalog("elliptic_log", chart, "x", "y"),
            catalog("nc_log", chart, "x", "y"),
        ]
    return frames + [
        catalog("elliptic_log", c3e, "x", "z"),
        catalog("nc_log", C4, "w", "y", "z"),
        catalog("elliptic", C4, "x", "z"),
    ]


# -- reference loops -----------------------------------------------------------


def _accumulate(res, key, v):
    old = res.get(key)
    if old is not None:
        v = old + v
    if v.is_zero():
        res.pop(key, None)
    else:
        res[key] = v


def permutation_sign(seq):
    """The sign of the permutation that sorts seq (distinct entries), from
    its cycles: each cycle of length L contributes (-1)^(L-1)."""
    target = sorted(range(len(seq)), key=seq.__getitem__)
    seen, sign = set(), 1
    for start in range(len(seq)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = target[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_merge_indices_against_permutation_parity():
    rng = random.Random(5)
    cases = [((), ()), ((2, 0), ()), ((), (1, 3)), ((3, 1, 2), (0,)), ((0, 1), (1,))]
    for _ in range(300):
        pool = rng.sample(range(9), rng.randint(0, 9))
        cut = rng.randint(0, len(pool))
        a, b = tuple(pool[:cut]), tuple(sorted(pool[cut:]))
        cases.append((a, b))
        if a and rng.random() < 0.3:
            # overlapping tuples
            cases.append((a, tuple(sorted(set(b) | {rng.choice(a)}))))
    overlapping = 0
    for a, b in cases:
        got = merge_indices(a, b)
        if set(a) & set(b):
            overlapping += 1
            assert got is None, (a, b)
        else:
            assert got == (permutation_sign(a + b), tuple(sorted(a + b))), (a, b)
        # served from the memo, the same as a fresh computation
        assert merge_indices(a, b) == merge_indices.__wrapped__(a, b) == got
    assert overlapping > 20


def ref_wedge(a, b):
    res = {}
    for ia, ca in a.comps.items():
        for ib, cb in b.comps.items():
            m = merge_indices(ia, ib)
            if m is None:
                continue
            sign, idx = m
            v = ca * cb
            _accumulate(res, idx, v if sign > 0 else -v)
    return res


def ref_interior_product(v, w):
    res = {}
    vc = {i: c for (i,), c in v.comps.items()}
    for idx, c in w.comps.items():
        for pos, i in enumerate(idx):
            if i not in vc:
                continue
            coeff = c * vc[i]
            if pos % 2 == 1:
                coeff = -coeff
            _accumulate(res, idx[:pos] + idx[pos + 1 :], coeff)
    return res


def ref_apply_to(v, f):
    out = Poly.zero(v.chart)
    for (i,), c in v.comps.items():
        out = out + c * f.diff(v.chart.variables[i])
    return out


def ref_exterior_derivative(w):
    chart = w.chart
    res = {}
    for idx, c in w.comps.items():
        for i, var in enumerate(chart.variables):
            dc = c.diff(var)
            if dc.is_zero():
                continue
            m = merge_indices((i,), idx)
            if m is None:
                continue
            sign, key = m
            _accumulate(res, key, dc if sign > 0 else -dc)
    return res


def ref_algebroid_d(form):
    frame = form.frame
    res = {}

    def put(head, rest, v):
        m = merge_indices(head, rest)
        if m is not None and not v.is_zero():
            _accumulate(res, m[1], v if m[0] > 0 else -v)

    for idx, f in form.comps.items():
        for i, g in enumerate(frame.generators):
            if i not in idx:
                put((i,), idx, ref_apply_to(g, f))
        for pos, k in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            for pair, coeffs in frame.structure.items():
                if not coeffs[k].is_zero():
                    v = f * coeffs[k]
                    put(pair, rest, v if pos % 2 else -v)
    return res


# -- random inputs -------------------------------------------------------------


def rand_coeff(chart, rng):
    """A polynomial with some non-integral coefficients, or zero."""
    p = rand_poly(chart, rng)
    if rng.random() < 0.5:
        p = p + rand_poly(chart, rng) * Fraction(rng.choice((1, -1)), rng.choice((2, 3, 6)))
    return p


def rand_comps(chart, rng, degree, density=0.7):
    comps = {}
    for idx in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < density:
            comps[idx] = rand_coeff(chart, rng)
    return comps


def check(got, degree, comps):
    assert got.degree == degree
    assert got.comps == comps
    assert all(not c.is_zero() for c in got.comps.values())


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("kind", [Multivector, DiffForm, CoframeForm])
def test_wedge_matches_the_reference_loop(rng, kind):
    frames = catalog_frames()
    for _ in range(40):
        if kind is CoframeForm:
            space = rng.choice(frames)
            chart = space.chart
        else:
            space = chart = rng.choice((C2, C3, C4))
        n = chart.dimension
        p, q = rng.randint(0, n), rng.randint(0, n)
        a = kind(space, p, rand_comps(chart, rng, p))
        b = kind(space, q, rand_comps(chart, rng, q))
        deg = min(p + q, n)
        check(a.wedge(b), deg, ref_wedge(a, b) if p + q <= n else {})
        if p % 2:
            # a ^ a of odd degree: every product cancels against its mirror
            assert a.wedge(a).comps == ref_wedge(a, a) == {}


def test_interior_product_matches_the_reference_loop(rng):
    for _ in range(60):
        chart = rng.choice((C2, C3, C4))
        n = chart.dimension
        v = Multivector(chart, 1, rand_comps(chart, rng, 1))
        k = rng.randint(0, n)
        w = DiffForm(chart, k, rand_comps(chart, rng, k))
        got = interior_product(v, w)
        check(got, max(k - 1, 0), ref_interior_product(v, w) if k else {})
        # i_v i_v w = 0: the two contractions cancel term by term
        if k >= 2:
            assert interior_product(v, got).is_zero()
            assert ref_interior_product(v, DiffForm(chart, k - 1, got.comps)) == {}


def test_pairing_and_apply_to_match_the_reference_loops(rng):
    for _ in range(60):
        chart = rng.choice((C2, C3, C4))
        v = Multivector(chart, 1, rand_comps(chart, rng, 1))
        f = rand_coeff(chart, rng)
        assert v.apply_to(f) == ref_apply_to(v, f)
    # sums that cancel to zero
    x, y = Poly.var(C2, "x"), Poly.var(C2, "y")
    f = x * x * y + Fraction(1, 2) * y**3 - x
    ham = Multivector.vector(C2, [f.diff("y"), -f.diff("x")])
    assert ham.apply_to(f).is_zero() and ref_apply_to(ham, f).is_zero()


def test_exterior_derivative_matches_the_reference_loop(rng):
    for _ in range(60):
        chart = rng.choice((C2, C3, C4))
        n = chart.dimension
        k = rng.randint(0, n)
        w = DiffForm(chart, k, rand_comps(chart, rng, k))
        dw = exterior_derivative(w)
        check(dw, min(k + 1, n), ref_exterior_derivative(w) if k < n else {})
        # d d w = 0: mixed partials cancel
        if k + 1 < n:
            assert exterior_derivative(dw).is_zero()
            assert ref_exterior_derivative(dw) == {}


def test_algebroid_d_matches_the_reference_loop_on_every_catalog_frame(rng):
    for frame in catalog_frames():
        n = frame.chart.dimension
        for k in range(n + 1):
            for _ in range(3):
                w = CoframeForm(frame, k, rand_comps(frame.chart, rng, k))
                dw = algebroid_d(w)
                check(dw, min(k + 1, n), ref_algebroid_d(w) if k < n else {})
                if k + 1 < n:
                    assert algebroid_d(dw).is_zero()
                    assert ref_algebroid_d(dw) == {}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_d_is_d_A_of_the_tangent_frame(rng, n):
    chart = Chart(["x", "y", "u", "v"][:n])
    tx = catalog("tx", chart)
    for k in range(n + 1):
        for _ in range(8):
            w = DiffForm(chart, k, rand_comps(chart, rng, k))
            assert algebroid_d(CoframeForm(tx, k, w.comps)).comps == exterior_derivative(w).comps


def test_chart_mismatch_still_raises(rng):
    x2, x3 = Poly.var(C2, "x"), Poly.var(C3, "x")
    with pytest.raises(ChartMismatch):
        DiffForm(C2, 1, {(0,): x2}).wedge(DiffForm(C3, 1, {(1,): x3}))
    with pytest.raises(ChartMismatch):
        interior_product(Multivector(C2, 1, {(0,): x2}), DiffForm(C3, 1, {(0,): x3}))
    with pytest.raises(ChartMismatch):
        Multivector(C2, 1, {(0,): x2}).apply_to(x3 * x3)
    # a coefficient on another chart meets the anchor's coefficients; plain d
    # now checks it too, where the old loop built a form with it unchecked
    with pytest.raises(ChartMismatch):
        exterior_derivative(DiffForm(C2, 0, {(): x3 * x3}))
    frame = catalog("log", C2, "x")
    with pytest.raises(ChartMismatch):
        algebroid_d(CoframeForm(frame, 0, {(): x3 * x3}))
    with pytest.raises(ChartMismatch):
        ref_algebroid_d(CoframeForm(frame, 0, {(): x3 * x3}))
