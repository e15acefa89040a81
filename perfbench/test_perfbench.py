"""Tests for the benchmark's own code: generators, span arithmetic, metric names.

    python3 -m pytest perfbench -q

Generated answers are checked against sympy, never against divkit.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import polys as P  # noqa: E402
import workloads as W  # noqa: E402
from spans import TARGETS, Tracer, self_times  # noqa: E402


def symbols(n):
    return sympy.symbols(W.names_for(n))


def to_sympy(p, syms):
    return sympy.Add(*[c * sympy.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in p.items()])


def from_text(text, syms):
    return sympy.sympify(text.replace("^", "**"), locals={str(s): s for s in syms})


def sym_matrix(m, syms):
    return sympy.Matrix([[to_sympy(e, syms) for e in row] for row in m])


def divides(d, p, syms):
    return sympy.div(sympy.expand(p), sympy.expand(d), *syms)[1] == 0


# ---------------------------------------------------------------------------
# polynomial helpers
# ---------------------------------------------------------------------------


def test_polys_match_sympy():
    draw = W.Draw("test", 1)
    syms = symbols(3)
    for _ in range(20):
        p = draw.poly(3, 3, 4)
        q = P.add(draw.poly(3, 2, 3, constant=True), P.const(3, -5))
        assert sympy.expand(to_sympy(P.mul(p, q), syms) - to_sympy(p, syms) * to_sympy(q, syms)) == 0
        assert sympy.expand(from_text(P.to_str(p, W.names_for(3)), syms) - to_sympy(p, syms)) == 0
        n = P.normalize(P.scale(p, -6))
        assert sympy.gcd_list(list(n.values())) == 1 and P.leading(n)[1] > 0


def test_to_str_is_canonical():
    x = P.var(2, 0)
    y = P.var(2, 1)
    p = P.add(P.scale(P.mul(x, x), -3), P.mul(x, y), P.const(2, 1), P.scale(y, 2))
    assert P.to_str(p, ["x", "y"]) == "-3*x^2 + x*y + 2*y + 1"


def test_unimodular_inverse():
    draw = W.Draw("test", 2)
    for n in (4, 6, 8):
        a, inv = draw.unimodular(n)
        assert sympy.Matrix(a).det() == 1
        assert sympy.Matrix(a) * sympy.Matrix(inv) == sympy.eye(n)


# ---------------------------------------------------------------------------
# dim_sweep constructions
# ---------------------------------------------------------------------------


def jacobiator(m, syms):
    n = len(syms)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                out.append(
                    sympy.expand(
                        sum(
                            m[l, i] * sympy.diff(m[j, k], syms[l])
                            + m[l, j] * sympy.diff(m[k, i], syms[l])
                            + m[l, k] * sympy.diff(m[i, j], syms[l])
                            for l in range(n)
                        )
                    )
                )
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_poisson_constructions(n):
    draw = W.Draw("test", n)
    syms = symbols(n)
    a, inv = draw.unimodular(n)
    slots = list(range(n))
    for entries, poisson in (
        (W.log_canonical(draw, n, slots), True),
        (W.lie_poisson(draw, n, slots), True),
        ({**W.jacobiator_example(n), **W.lie_poisson(draw, n, slots[4:])}, False),
    ):
        m = sym_matrix(W.change_coordinates(W.antisym(n, entries), a, inv), syms)
        assert (m + m.T).is_zero_matrix
        assert all(j == 0 for j in jacobiator(m, syms)) == poisson


def anchor(cols, syms):
    n = len(syms)
    return sympy.Matrix(n, n, lambda r, c: to_sympy(cols[c][r], syms))


@pytest.mark.parametrize("kind", ["log", "bk2", "nc_log", "elliptic", "elliptic_log"])
def test_dense_frames_are_involutive_with_catalog_det(kind):
    n = 4
    draw = W.Draw(kind, 0)
    syms = symbols(n)
    cols, det = W.dense_frame(draw, n, kind, draw.shape.sample(range(n), W.SLOT_COUNT[kind]), 2)
    r = anchor(cols, syms)
    d = to_sympy(det, syms)
    assert sympy.expand(r.det() - d) == 0
    adj = r.adjugate()
    for i in range(n):
        for j in range(i + 1, n):
            br = sympy.Matrix(
                [
                    sum(
                        r[l, i] * sympy.diff(r[k, j], syms[l]) - r[l, j] * sympy.diff(r[k, i], syms[l])
                        for l in range(n)
                    )
                    for k in range(n)
                ]
            )
            assert all(divides(d, e, syms) for e in adj * br)


def lifted(cols, pi, syms):
    """adj(rho) pi adj(rho)^T, which the lift divides by det(rho)^2."""
    adj = anchor(cols, syms).adjugate()
    return (adj * sym_matrix(pi, syms) * adj.T).applyfunc(sympy.expand)


def test_lift_constructions():
    n = 4
    draw = W.Draw("test", 3)
    syms = symbols(n)
    cols, det = W.dense_frame(draw, n, "elliptic_log", [2, 0], 1)
    d2 = to_sympy(P.mul(det, det), syms)
    pi0 = W.nondegenerate_bivector(draw, n, 1)
    pi = [[P.mul(P.mul(det, det), e) if e else {} for e in row] for row in pi0]
    m = lifted(cols, pi, syms)
    assert all(divides(d2, e, syms) for e in m)
    pa = m.applyfunc(lambda e: sympy.div(e, d2, *syms)[0])
    pf = sympy.expand(pa[0, 1] * pa[2, 3] - pa[0, 2] * pa[1, 3] + pa[0, 3] * pa[1, 2])
    want = P.mul(P.power(det, n - 1, n), W.pfaffian(pi0, list(range(n))))
    assert sympy.expand(pf - to_sympy(want, syms)) == 0 or sympy.expand(pf + to_sympy(want, syms)) == 0

    symplectic = W.constant_symplectic(draw, n)
    assert sym_matrix(symplectic, syms).det() == 1
    m = lifted(cols, symplectic, syms)
    assert not all(divides(d2, e, syms) for e in m)


def test_dim_sweep_job_kinds():
    jobs = W.dim_sweep_jobs(W.Draw("dim_sweep", 0), dims=(4, 5))
    assert {j.name.split("_n")[0] for j in jobs} >= {
        "check_poisson_logcanonical",
        "check_poisson_liepoisson",
        "check_poisson_jacobiator",
    }
    for j in jobs:
        assert j.source.startswith("chart x1, ")
        assert j.expect["verdict"] in ("ok", "fail")


# ---------------------------------------------------------------------------
# degree_sweep constructions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_atom_products_factor_as_claimed(n):
    draw = W.Draw("test", n)
    syms = symbols(n)
    for shape in W.SHAPES:
        if n < 3 and shape == "log_elliptic":
            continue
        poly, tag = W.atom_product(draw, n, shape)
        _, factors = sympy.factor_list(to_sympy(poly, syms), *syms)
        degrees = sorted(sympy.Poly(f, *syms).total_degree() for f, _ in factors)
        mults = sum(k for _, k in factors)
        if tag.startswith("BPower"):
            assert degrees == [1] and mults == int(tag[7:-1])
        elif tag.startswith("NormalCrossingLog"):
            assert degrees == [1] * int(tag[18:-1]) and mults == len(degrees)
        elif tag == "Elliptic":
            assert degrees == [2] and mults == 1
        elif tag == "EllipticLog":
            assert degrees == [1, 2] and mults == 2
        else:
            assert degrees == [1, 2] and mults == tag.count(",") + 1


def test_degree_sweep_answers_against_sympy():
    for job in W.degree_sweep_jobs(W.Draw("degree_sweep", 5), square_degrees=(3,), replicas=1):
        n = int(job.name.rsplit("_n", 1)[1])
        syms = symbols(n)
        if job.name.startswith("classify_square"):
            gen = from_text(job.expect["ideal"], syms)
            _, factors = sympy.factor_list(gen, *syms)
            # a repeated factor of degree >= 3 is not a catalog atom
            assert any(k >= 2 and sympy.Poly(f, *syms).total_degree() >= 3 for f, k in factors)
        elif job.name.startswith("divisor"):
            src = job.source.split("pi = ", 1)[1]
            coeffs = re.findall(r"\(([^()]*)\)\*D", src)
            ca, cb, c = (from_text(t, syms) for t in coeffs)
            g = sympy.gcd(sympy.gcd(ca, cb), c)
            assert sympy.expand(g - from_text(job.expect["ideal"], syms)) == 0
            assert sympy.gcd(sympy.cancel(ca / c), sympy.cancel(cb / c)) == 1


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_host_scale_uses_median_probe_near_the_work():
    import run as R

    host = R.Host()
    host.times = [0.0, 0.1, 0.2, 0.3, 5.0, 5.1, 5.2]
    idle, busy = R.PROBE_IDLE_S, 2 * R.PROBE_IDLE_S
    host.probes = [idle, idle, busy, idle, busy, busy, busy]
    # work in [0.1, 0.15]: the window holds the first four probes
    assert host.scale(0.1, 0.15) == pytest.approx(1.0)
    # work in [5.05, 5.1]: busy probes only, so its time is halved
    assert host.scale(5.05, 5.1) == pytest.approx(0.5)
    # no probe within the window: the three nearest ones
    host.times, host.probes = [0.0, 10.0, 20.0, 30.0], [idle, busy, busy, idle]
    assert host.scale(15.0, 15.1) == pytest.approx(0.5)
    assert host.slowdown() == pytest.approx(1.5)


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 7]; [5, 7] has child [5.5, 6.5];
    # a child running past its parent's end is clipped to the parent.
    starts = [0.0, 1.0, 5.0, 5.5, 8.0, 20.0, 21.0]
    ends = [10.0, 4.0, 7.0, 6.5, 12.0, 30.0, 22.0]
    parents = [-1, 0, 0, 2, 0, -1, 5]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 2 - 2, 3.0, 1.0, 1.0, 4.0, 9.0, 1.0])


def test_tracer_wraps_every_namespace_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from divkit import cli, dsl, frames, poisson, rings

    originals = (rings.Poly.__mul__, rings.Poly.__rmul__, poisson.mat_mul, frames.mat_mul)
    tracer = Tracer()
    tracer.install()
    try:
        assert poisson.mat_mul is frames.mat_mul and poisson.mat_mul is not originals[2]
        assert rings.Poly.__rmul__ is rings.Poly.__mul__
        src = "chart x, y, z;\npi = (x^2*y - y*z + 1)*(x*z^2 + y)*Dx^^Dy + Dy^^Dz;\ndivisor pi;\n"
        cli.certificate_json(cli.run_job(dsl.parse(src))[0])
    finally:
        tracer.uninstall()
    assert (rings.Poly.__mul__, rings.Poly.__rmul__, poisson.mat_mul, frames.mat_mul) == originals
    table, _ = tracer.summary()
    assert table["dsl.parse"][0] == 1 and table["rings.mul"][0] > 0
    assert table["rings.poly_gcd"][0] > 1 and tracer.maxima["rings.poly_gcd.max_depth"] > 1
    # self times of all spans add up to the time of the root spans
    roots = sum(
        tracer.span_end[i] - tracer.span_start[i] for i in range(len(tracer)) if tracer.span_parent[i] < 0
    )
    assert sum(s for _, s, _ in table.values()) == pytest.approx(roots)
    # inclusive poly_gcd time counts the outermost call once
    assert table["rings.poly_gcd"][1] <= table["rings.poly_gcd"][2] <= roots


# ---------------------------------------------------------------------------
# BENCHMARK.json and the run contract
# ---------------------------------------------------------------------------


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units():
    spec = bench_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    layer = {m["name"] for m in spec["per_layer"]}
    assert {name + suffix for name, _, _ in TARGETS for suffix in (".calls", ".self_s")} <= layer


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_declared_metrics(trace):
    proc = run_bench("corpus", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = bench_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
