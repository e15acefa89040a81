"""Benchmark workloads: job source text plus the answer each job must give.

Every generated job is built with `polys` arithmetic, and its expected verdict
and key payload fields follow from the construction alone:

* `corpus`: the bundled jobs, compared byte for byte with their expected files.
* `dim_sweep`: charts of dimension 4..8 with low-degree coefficients:
  Poisson and non-Poisson bivectors, dense involutive custom frames and lifts
  through them.  Exercises multivector, frames, poisson and the
  mul/exact_divide/evaluate side of rings; never needs a gcd.
* `degree_sweep`: 2..4-variable charts with growing degree: classify of atom
  products (known tag) and of coordinate atoms times squares of non-catalog
  factors (Unclassified), and divisor jobs whose ideal <c> is found by
  gcd(a*c, b*c).  Exercises gcd/squarefree/exact_divide; has no frames.

Randomness comes from a `Draw`: the shape of every job (supports, exponents,
slots, which generators mix) is fixed per workload, and the seed picks the
positive coefficients.  Every seed therefore asks for the same kind and amount
of work with different numbers, which keeps run-to-run spread small.
"""

from __future__ import annotations

import random
from pathlib import Path

from polys import add, const, mul, normalize, power, product, scale, substitute_linear, to_str, var

WORKLOADS = ("corpus", "dim_sweep", "degree_sweep")


class Job:
    """A job's source text and its expected answer: either the exact
    certificate text or a map of certificate fields to values."""

    __slots__ = ("name", "source", "expect", "expect_text")

    def __init__(self, name, source, expect=None, expect_text=None):
        self.name = name
        self.source = source
        self.expect = expect or {}
        self.expect_text = expect_text


def check(job, cert, text):
    """None when the certificate is the expected one, else a description."""
    if job.expect_text is not None:
        return None if text == job.expect_text else "certificate differs from expected file"
    for key, want in job.expect.items():
        got = cert.get(key) if key == "verdict" else cert["payload"].get(key, "<missing>")
        if got != want:
            return "%s: expected %r, got %r" % (key, want, got)
    return None


class Draw:
    """`shape` decides structure and is the same for every seed; `value`
    decides coefficients and comes from the seed."""

    def __init__(self, workload, seed):
        self.shape = random.Random("shape:" + workload)
        self.value = random.Random("%s:%d" % (workload, seed))

    def coeff(self, bound):
        """A coefficient in 1..bound.  Positive coefficients never cancel, so
        term counts, and with them the work, follow from the shape alone."""
        return self.value.randint(1, bound)

    def poly(self, n, degree, terms, variables=None, bound=2, constant=False):
        """`terms` distinct monomials of total degree 1..`degree` (the first
        exactly `degree`) in `variables`; `constant` adds a nonzero constant
        term."""
        variables = list(range(n)) if variables is None else list(variables)
        support = []
        while len(support) < terms:
            e = [0] * n
            for _ in range(degree if not support else self.shape.randint(1, degree)):
                e[self.shape.choice(variables)] += 1
            if tuple(e) not in support:
                support.append(tuple(e))
        out = {e: self.coeff(bound) for e in support}
        if constant:
            out = add(out, const(n, self.coeff(bound) - out.get((0,) * n, 0)))
        return out

    def unimodular(self, n):
        """Integer matrix of determinant 1 and its inverse: a product of
        four elementary operations I + E_ij."""
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        inv = [row[:] for row in a]
        for _ in range(4):
            i, j = self.shape.sample(range(n), 2)
            for r in range(n):  # A <- A (I + E_ij)
                a[r][j] += a[r][i]
            for c in range(n):  # inv <- (I - E_ij) inv
                inv[i][c] -= inv[j][c]
        return a, inv


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus_jobs(corpus_dir, draw):
    jobs = []
    for path in sorted(Path(corpus_dir).glob("*.dk")):
        expected = path.with_suffix(".expected.json").read_text()
        jobs.append(Job(path.stem, path.read_text(), expect_text=expected))
    draw.value.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------


def names_for(n):
    return ["x%d" % (i + 1) for i in range(n)]


def chart_line(names):
    return "chart %s;\n" % ", ".join(names)


def coeff_text(p, names):
    return "(%s)" % to_str(p, names)


def bivector_text(m, names):
    """Bivector source from a full antisymmetric matrix of polys."""
    n = len(names)
    return " + ".join(
        "%s*D%s^^D%s" % (coeff_text(m[i][j], names), names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if m[i][j]
    )


def vector_text(col, names):
    return " + ".join(
        "%s*D%s" % (coeff_text(c, names), names[i]) for i, c in enumerate(col) if c
    )


def frame_text(cols, names):
    return "F = frame custom(%s);\n" % "; ".join(vector_text(c, names) for c in cols)


def antisym(n, entries):
    """Full antisymmetric matrix from {(i, j): poly} with i < j."""
    m = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), p in entries.items():
        m[i][j] = p
        m[j][i] = scale(p, -1)
    return m


def change_coordinates(m, a, inv):
    """The bivector with matrix m(x) in coordinates y = inv x, x = a y:
    m'(y) = inv m(a y) inv^T."""
    n = len(m)
    ms = [[substitute_linear(e, a) if e else {} for e in row] for row in m]
    out = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for l in range(k + 1, n):
            acc = {}
            for i in range(n):
                for j in range(n):
                    if inv[k][i] and inv[l][j] and ms[i][j]:
                        acc = add(acc, scale(ms[i][j], inv[k][i] * inv[l][j]))
            out[k][l] = acc
            out[l][k] = scale(acc, -1)
    return out


def pfaffian(m, idx):
    """Pfaffian of the principal submatrix on `idx` (expansion along its first row)."""
    n = len(m)
    if not idx:
        return const(n, 1)
    out = {}
    for t in range(1, len(idx)):
        a = m[idx[0]][idx[t]]
        if a:
            rest = pfaffian(m, idx[1:t] + idx[t + 1:])
            out = add(out, scale(mul(a, rest), 1 if t % 2 else -1))
    return out


# ---------------------------------------------------------------------------
# dim_sweep
# ---------------------------------------------------------------------------

# Lie algebra blocks: (dimension, structure constants {(i, j): {k: c}}).
_LIE_BLOCKS = (
    (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),  # so(3)
    (3, {(0, 1): {2: 1}}),  # Heisenberg
    (2, {(0, 1): {1: 1}}),  # aff(1)
    (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),  # sl(2)
)


def log_canonical(draw, n, slots):
    """sum q_ij x_i x_j D_i^D_j over the given slots: Poisson for any q.  The
    change of coordinates mixes the q_ij with signs; drawn from a wide range,
    they cancel for no seed, so every seed gives the same terms."""
    return {
        (i, j): scale(mul(var(n, i), var(n, j)), draw.coeff(10**6))
        for a, i in enumerate(slots)
        for j in slots[a + 1:]
    }


def lie_poisson(draw, n, slots):
    """Linear Poisson structure of a direct sum of Lie algebra blocks."""
    entries = {}
    pos = 0
    while pos < len(slots):
        fitting = [b for b in _LIE_BLOCKS if b[0] <= len(slots) - pos]
        if not fitting:
            break
        dim, consts = draw.shape.choice(fitting)
        block = slots[pos:pos + dim]
        for (i, j), out in consts.items():
            entries[(block[i], block[j])] = add(*[scale(var(n, block[k]), c) for k, c in out.items()])
        pos += dim
    return entries


def jacobiator_example(n):
    """Corpus job 01 on the first four slots: x1 D1^D2 + D3^D4 + D1^D4."""
    one = const(n, 1)
    return {(0, 1): var(n, 0), (2, 3): one, (0, 3): one}


def catalog_generators(n, kind, slots):
    """Columns of a catalog anchor matrix (generator i = column i) and its
    determinant, built here rather than taken from divkit."""
    cols = [[const(n, 1) if r == i else {} for r in range(n)] for i in range(n)]
    if kind == "log":
        (z,) = slots
        cols[z][z] = det = var(n, z)
    elif kind == "bk2":
        (z,) = slots
        cols[z][z] = det = var(n, z, 2)
    elif kind == "nc_log":
        for z in slots:
            cols[z][z] = var(n, z)
        det = product([var(n, z) for z in slots], n)
    elif kind in ("elliptic", "elliptic_log"):
        u, v = slots
        xu, xv = var(n, u), var(n, v)
        cols[u] = [{} for _ in range(n)]
        cols[v] = [{} for _ in range(n)]
        cols[u][u], cols[u][v] = xu, xv  # Euler field u Du + v Dv
        det = add(mul(xu, xu), mul(xv, xv))
        if kind == "elliptic":
            cols[v][u], cols[v][v] = scale(xv, -1), xu  # rotation u Dv - v Du
        else:
            cols[v][u], cols[v][v] = mul(xu, xv), scale(mul(xu, xu), -1)  # u (v Du - u Dv)
            det = scale(mul(xu, det), -1)
    else:
        raise ValueError(kind)
    return cols, det


def dense_frame(draw, n, kind, slots, fill):
    """Columns M * (catalog generators) with M unit lower triangular and
    linear off-diagonal entries: the same module as the catalog frame, hence
    involutive with the same determinant."""
    cols, det = catalog_generators(n, kind, slots)
    out = []
    for i in range(n):
        col = [dict(c) for c in cols[i]]
        for j in draw.shape.sample(range(i), min(i, fill)):
            m = draw.poly(n, 1, 2)
            for r in range(n):
                if cols[j][r]:
                    col[r] = add(col[r], mul(m, cols[j][r]))
        out.append(col)
    return out, det


def constant_symplectic(draw, n):
    """Constant antisymmetric matrix a J a^T, J the Darboux form on the
    first 2*(n//2) slots and det(a) = 1, so its Pfaffian is 1 for even n."""
    a, _ = draw.unimodular(n)
    m = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = sum(a[i][k] * a[j][k + 1] - a[i][k + 1] * a[j][k] for k in range(0, n - 1, 2))
            m[i][j], m[j][i] = const(n, c), const(n, -c)
    return m


def nondegenerate_bivector(draw, n, degree):
    """pi0 = a J a^T + (random entries of the given degree): for even n its
    Pfaffian has constant term 1, so it is never identically zero."""
    j = constant_symplectic(draw, n)
    if not degree:
        return j
    extra = antisym(n, {(a, b): draw.poly(n, degree, 2) for a in range(n) for b in range(a + 1, n)})
    return [[add(j[a][b], extra[a][b]) for b in range(n)] for a in range(n)]


# Frame kinds per chart dimension.  A lift is (frame kind, slot of the
# coordinate whose zero makes det(rho) vanish, degree of the non-constant part
# of pi0).  The sampled Pfaffian scan walks the grid with the first slot
# slowest, so the slot sets how far it runs before it meets a zero: about
# 2 * 5^(n - 1 - slot) points.
_VERIFY_KINDS = {4: "elliptic_log", 5: "nc_log", 6: "elliptic", 7: "bk2", 8: "elliptic_log"}
_LIFTS = {4: ("elliptic_log", 0, 1), 5: ("log", 3, 1), 6: ("elliptic_log", 2, 0), 7: ("nc_log", 5, 0)}
_LIFT_FAIL_KINDS = {4: "log", 6: "elliptic", 8: "elliptic_log"}
SLOT_COUNT = {"log": 1, "bk2": 1, "nc_log": 2, "elliptic": 2, "elliptic_log": 2}
# The n = 6 lift, which builds a 5^6-point sample grid, is the heaviest job;
# six copies make it about a fifth of a pass, so the 90th percentile falls
# inside its latency distribution rather than between two kinds of job.
LIFT_COPIES = {6: 6}
# Likewise eight Poisson checks of the same cost near the middle of a pass
# keep the median inside one kind of job.
LOGCANONICAL_COPIES = {5: 8}


def dim_sweep_jobs(draw, dims=(4, 5, 6, 7, 8)):
    return [job for n in dims for job in dim_jobs(draw, n)]


def lift_text(head, cols, pi, names):
    return head + frame_text(cols, names) + "pi = %s;\nlift pi to F;\n" % bivector_text(pi, names)


def dim_jobs(draw, n):
    """Poisson checks, a frame verification and lifts on one chart."""
    names = names_for(n)
    head = chart_line(names)
    slots = list(range(n))
    a, inv = draw.unimodular(n)
    jobs = []
    structures = [("logcanonical", log_canonical(draw, n, slots), True)
                  for _ in range(LOGCANONICAL_COPIES.get(n, 1))]
    structures += [
        ("liepoisson", lie_poisson(draw, n, slots), True),
        ("jacobiator", {**jacobiator_example(n), **lie_poisson(draw, n, slots[4:])}, False),
    ]
    for label, entries, poisson in structures:
        m = change_coordinates(antisym(n, entries), a, inv)
        jobs.append(
            Job(
                "check_poisson_%s_n%d" % (label, n),
                head + "pi = %s;\ncheck_poisson pi;\n" % bivector_text(m, names),
                {"verdict": "ok" if poisson else "fail", "poisson": poisson},
            )
        )

    kind = _VERIFY_KINDS[n]
    cols, det = dense_frame(draw, n, kind, draw.shape.sample(slots, SLOT_COUNT[kind]), 2)
    ideal = to_str(normalize(det), names)
    jobs.append(
        Job(
            "verify_frame_%s_n%d" % (kind, n),
            head + frame_text(cols, names) + "verify_frame F by ideal(%s);\n" % ideal,
            {"verdict": "ok", "standard": True, "ideal": ideal},
        )
    )

    shape = draw.shape.getstate()
    for _ in range(LIFT_COPIES.get(n, 1) if n in _LIFTS else 0):
        draw.shape.setstate(shape)  # copies share their shape, not their coefficients
        kind, vanishing, degree = _LIFTS[n]
        others = draw.shape.sample([s for s in slots if s != vanishing], SLOT_COUNT[kind] - 1)
        cols, det = dense_frame(draw, n, kind, [vanishing] + others, 1)
        pi0 = nondegenerate_bivector(draw, n, degree)
        det2 = mul(det, det)
        pi = [[mul(det2, e) if e else {} for e in row] for row in pi0]
        expect = {"verdict": "ok", "residual_ideal": None}
        if n % 2 == 0:
            # Pf(pi) = det * Pf(pi_A) and Pf(det^2 pi0) = det^n Pf(pi0)
            pf = mul(power(det, n - 1, n), pfaffian(pi0, slots))
            expect["residual_ideal"] = to_str(normalize(pf), names)
            expect["nondegenerate"] = False  # det vanishes on the grid
        jobs.append(Job("lift_%s_n%d" % (kind, n), lift_text(head, cols, pi, names), expect))

    if n in _LIFT_FAIL_KINDS:
        # constant symplectic pi: Pf(pi_A) = Pf(pi) / det is not a polynomial
        kind = _LIFT_FAIL_KINDS[n]
        cols, _ = dense_frame(draw, n, kind, draw.shape.sample(slots, SLOT_COUNT[kind]), 1)
        pi = constant_symplectic(draw, n)
        jobs.append(Job("lift_fail_%s_n%d" % (kind, n), lift_text(head, cols, pi, names), {"verdict": "fail"}))
    return jobs


# ---------------------------------------------------------------------------
# degree_sweep
# ---------------------------------------------------------------------------

SHAPES = ("bpower", "nc", "elliptic", "elliptic_log", "log_elliptic")
_COORDINATE_SHAPES = ("bpower", "nc")


def elliptic_quadratic(draw, n, u, v):
    """Positive definite a u^2 + b u v + c v^2 with a, b, c > 0: three terms
    that never cancel in products with positive polynomials, so the term
    counts, and with them the work, are the same for every seed."""
    a, c = draw.value.randint(1, 3), draw.value.randint(1, 3)
    b = draw.value.choice([t for t in range(1, 4) if t * t < 4 * a * c])
    return add(scale(var(n, u, 2), a), scale(mul(var(n, u), var(n, v)), b), scale(var(n, v, 2), c))


def atom_product(draw, n, shape):
    """A product of catalog atoms and the class tag the catalog gives it."""
    if shape == "bpower":
        k = draw.shape.randint(2, 4)
        return var(n, draw.shape.randrange(n), k), "BPower(%d)" % k
    if shape == "nc":
        j = draw.shape.randint(2, n)
        return product([var(n, i) for i in draw.shape.sample(range(n), j)], n), "NormalCrossingLog(%d)" % j
    u, v, *rest = draw.shape.sample(range(n), n)
    q = elliptic_quadratic(draw, n, u, v)
    if shape == "elliptic":
        return q, "Elliptic"
    if shape == "elliptic_log":
        return mul(var(n, u), q), "EllipticLog"
    if shape == "log_elliptic":
        k = draw.shape.randint(1, 2)
        return mul(var(n, rest[0], k), q), "Product(%s)" % ", ".join(["Log"] * k + ["Elliptic"])
    raise ValueError(shape)


def classify_job(n, name, gen, tag):
    names = names_for(n)
    ideal = to_str(normalize(gen), names)
    return Job(name, chart_line(names) + "classify %s;\n" % ideal,
               {"verdict": "ok", "class": tag, "ideal": ideal})


def degree_sweep_jobs(draw, charts=(2, 3, 4), square_degrees=(3, 4), divisor_degrees=(2, 3),
                      replicas=3):
    """Per replica and chart: classify of one atom product; classify of
    coordinate atoms times f^2 for each degree of f; divisor jobs with
    gcd(a*c, b*c) for each degree of a and b (charts of three or more
    variables).  Replicas lengthen a pass to hold the tail percentile's
    samples and average over more coefficients."""
    jobs = []
    for r in range(replicas):
        for n in charts:
            shapes = [s for s in SHAPES if n >= 3 or s != "log_elliptic"]
            shape = shapes[r % len(shapes)]
            atoms, tag = atom_product(draw, n, shape)
            jobs.append(classify_job(n, "classify_%s_n%d" % (shape, n), atoms, tag))
            for d in square_degrees:
                atoms, _ = atom_product(draw, n, draw.shape.choice(_COORDINATE_SHAPES))
                # the nonzero constant term keeps f prime to every coordinate
                # variable, so f^2 stays in the residual: Unclassified
                f = draw.poly(n, d, d, constant=True)
                jobs.append(classify_job(n, "classify_square_d%d_n%d" % (d, n), mul(atoms, mul(f, f)),
                                         "Unclassified"))
            if n >= 3:
                for d in divisor_degrees:
                    jobs.append(divisor_job(draw, n, d, draw.shape.choice(SHAPES)))
    return jobs


def divisor_job(draw, n, d, shape):
    """divisor of c*(a D1^D2 + b D1^D3 + D2^D3): the ideal is <gcd(a c, b c, c)>.
    a and b are x1 plus polynomials of degree d in the other variables, with
    constant terms 1 and 2; a is irreducible, being linear in x1 with unit
    coefficient, and does not divide b, so gcd(a, b) = 1 and the ideal is
    exactly <c>."""
    names = names_for(n)
    c, tag = atom_product(draw, n, shape)
    rest = list(range(1, n))
    fa, fb = draw.poly(n, d, d, rest), draw.poly(n, d, d, rest)
    a = add(var(n, 0), fa, const(n, 1 - fa.get((0,) * n, 0)))
    b = add(var(n, 0), fb, const(n, 2 - fb.get((0,) * n, 0)))
    pi = antisym(n, {(0, 1): mul(c, a), (0, 2): mul(c, b), (1, 2): c})
    return Job(
        "divisor_%s_d%d_n%d" % (shape, d, n),
        chart_line(names) + "pi = %s;\ndivisor pi;\n" % bivector_text(pi, names),
        {"verdict": "ok", "m": 1, "ideal": to_str(normalize(c), names), "class": tag},
    )


def make_jobs(workload, seed, corpus_dir):
    draw = Draw(workload, seed)
    if workload == "corpus":
        return corpus_jobs(corpus_dir, draw)
    if workload == "dim_sweep":
        return dim_sweep_jobs(draw)
    if workload == "degree_sweep":
        return degree_sweep_jobs(draw)
    raise ValueError("unknown workload %r" % (workload,))
