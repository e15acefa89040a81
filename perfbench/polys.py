"""Integer polynomial arithmetic used to build benchmark jobs and their answers.

The benchmark never asks the code under test for an input or an expected
answer, so it carries its own small arithmetic: a polynomial in n variables is
a dict {exponent tuple: nonzero int}.  `to_str` prints in divkit's canonical
form (graded lex, leftmost variable strongest), so an expected payload string
can be compared with a certificate byte for byte.
"""

from __future__ import annotations

from math import gcd


def const(n, c):
    return {(0,) * n: c} if c else {}


def var(n, i, k=1):
    e = [0] * n
    e[i] = k
    return {tuple(e): 1}


def add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(p, c):
    return {e: c * v for e, v in p.items()} if c else {}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def product(polys, n):
    out = const(n, 1)
    for p in polys:
        out = mul(out, p)
    return out


def power(p, k, n):
    return product([p] * k, n)


def leading(p):
    e = max(p, key=lambda t: (sum(t), t))
    return e, p[e]


def normalize(p):
    """Content one and a positive graded-lex leading coefficient."""
    c = 0
    for v in p.values():
        c = gcd(c, v)
    if leading(p)[1] < 0:
        c = -c
    return {e: v // c for e, v in p.items()}


def substitute_linear(p, a):
    """p(A y): variable i becomes sum_m a[i][m] * y_m."""
    n = len(a)
    rows = [{tuple(int(k == m) for k in range(n)): a[i][m] for m in range(n) if a[i][m]}
            for i in range(n)]
    powers = [[const(n, 1)] for _ in range(n)]
    out = {}
    for e, c in p.items():
        term = const(n, c)
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(mul(powers[i][-1], rows[i]))
            if k:
                term = mul(term, powers[i][k])
        out = add(out, term)
    return out


def to_str(p, names):
    """divkit's canonical text for a polynomial."""
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [
            names[i] if k == 1 else "%s^%d" % (names[i], k) for i, k in enumerate(e) if k
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "%d*%s" % (mag, "*".join(factors))
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
