"""Outside-in span recorder for the traced benchmark run.

`Tracer.install` replaces each named divkit function or method with a
wrapper, in every divkit module namespace that holds it (so `poisson.mat_mul`
and `frames.mat_mul` are both wrapped, and a recursive call through the module
global shows up as a nested span).  Each call records one span: name, start,
end, parent span and job id.  Spans stay in memory, in flat arrays, until
`write` saves them; `summary` derives calls and self time per name, where self
time is the span's duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute): an attribute "Class.method" wraps a method.
TARGETS = (
    ("dsl.parse", "dsl", "parse"),
    ("dsl.tokenize", "dsl", "tokenize"),
    ("cli.run_job", "cli", "run_job"),
    ("cli.certificate_json", "cli", "certificate_json"),
    ("rings.mul", "rings", "Poly.__mul__"),
    ("rings.add", "rings", "Poly.__add__"),
    ("rings.exact_divide", "rings", "exact_divide"),
    ("rings.poly_gcd", "rings", "poly_gcd"),
    ("rings.squarefree_part", "rings", "squarefree_part"),
    ("rings.evaluate", "rings", "Poly.evaluate"),
    ("multivector.wedge", "multivector", "_Graded.wedge"),
    ("multivector.schouten_bracket", "multivector", "schouten_bracket"),
    ("multivector.partial_pfaffian", "multivector", "partial_pfaffian"),
    ("multivector.exterior_derivative", "multivector", "exterior_derivative"),
    ("divisors.classify", "divisors", "classify"),
    ("divisors.preserves", "divisors", "preserves"),
    ("frames.poly_det", "frames", "poly_det"),
    ("frames.poly_adjugate", "frames", "poly_adjugate"),
    ("frames.mat_mul", "frames", "mat_mul"),
    ("frames.expand_in_frame", "frames", "expand_in_frame"),
    ("frames.check_involutive", "frames", "check_involutive"),
    ("frames.pushforward", "frames", "pushforward"),
    ("poisson.lift", "poisson", "lift"),
    ("poisson.check_poisson", "poisson", "check_poisson"),
    ("poisson.divisor_type", "poisson", "divisor_type"),
    ("poisson.sample_grid", "poisson", "sample_grid"),
    ("residues.residue", "residues", "residue"),
    ("residues.cosymplectic_spinor", "residues", "cosymplectic_spinor"),
)

# Spans whose direct rings.evaluate children are sample-grid evaluations.
GRID_SCANS = ("poisson.lift", "poisson.divisor_type")


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []
        self._open = [0] * len(self.names)
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _wrapper(self, nid, fn, after):
        name_arr, start_arr, end_arr = self.span_name, self.span_start, self.span_end
        parent_arr, job_arr, stack, open_count = (
            self.span_parent,
            self.span_job,
            self._stack,
            self._open,
        )
        depth_key = self.names[nid] + ".max_depth"
        maxima = self.maxima

        def wrapper(*args, **kwargs):
            idx = len(name_arr)
            name_arr.append(nid)
            parent_arr.append(stack[-1] if stack else -1)
            job_arr.append(self.job)
            end_arr.append(0.0)
            stack.append(idx)
            open_count[nid] += 1
            if open_count[nid] > maxima[depth_key]:
                maxima[depth_key] = open_count[nid]
            start_arr.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[idx] = perf_counter()
                stack.pop()
                open_count[nid] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_hooks(self):
        counts, maxima = self.counts, self.maxima

        def mul(p):
            terms = getattr(p, "terms", None)
            if terms is None:
                return
            counts["rings.mul.terms_out"] += len(terms)
            if terms:
                d = max(map(sum, terms))
                if d > maxima["rings.mul.max_degree"]:
                    maxima["rings.mul.max_degree"] = d

        def exact_divide(q):
            if q is None:
                counts["rings.exact_divide.misses"] += 1

        def partial_pfaffian(pf):
            counts["multivector.partial_pfaffian.terms_out"] += sum(
                len(c.terms) for c in pf.comps.values()
            )

        def certificate_json(text):
            counts["cli.certificate_json.bytes"] += len(text.encode())

        def sample_grid(points):
            counts["poisson.sample_grid.points"] += len(points)

        return {
            "rings.mul": mul,
            "rings.exact_divide": exact_divide,
            "multivector.partial_pfaffian": partial_pfaffian,
            "cli.certificate_json": certificate_json,
            "poisson.sample_grid": sample_grid,
        }

    def install(self):
        """Wrap every target in every loaded divkit module that holds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "divkit" or k.startswith("divkit.")]
        hooks = self._after_hooks()
        for nid, (name, module, attr) in enumerate(TARGETS):
            owner = sys.modules["divkit." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrapper(nid, orig, hooks.get(name))
                for key, value in list(cls.__dict__.items()):
                    if value is orig:  # also catches aliases such as __rmul__
                        self._patches.append((cls, key, value))
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(nid, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def __len__(self):
        return len(self.span_name)

    def summary(self):
        """{name: (calls, self seconds, inclusive seconds)} and the number of
        grid evaluations.  Inclusive time counts each name's outermost spans
        only, so recursion is not counted twice."""
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        selfs = self_times(starts, ends, parents)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        above = [0] * len(names)  # bit set of the names among a span's ancestors
        grid = {self.names.index(n) for n in GRID_SCANS}
        evaluate = self.names.index("rings.evaluate")
        grid_evaluations = 0
        for i, nid in enumerate(names):
            p = parents[i]
            if p >= 0:
                above[i] = above[p] | (1 << names[p])
                if nid == evaluate and names[p] in grid:
                    grid_evaluations += 1
            calls[nid] += 1
            self_s[nid] += selfs[i]
            if not (above[i] >> nid) & 1:
                inclusive[nid] += ends[i] - starts[i]
        table = {n: (calls[i], self_s[i], inclusive[i]) for i, n in enumerate(self.names)}
        return table, grid_evaluations

    def write(self, path):
        """Header line (JSON) then the span arrays in binary, field by field."""
        header = {
            "names": self.names,
            "spans": len(self),
            "fields": [
                ["name", "H"],
                ["start", "d"],
                ["end", "d"],
                ["parent", "i"],
                ["job", "i"],
            ],
        }
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job):
                arr.tofile(f)


def self_times(starts, ends, parents):
    """Per span: duration minus the time its children cover, clipped to the
    span.  Children are visited in start order (span index order), so a sweep
    per parent measures the union of their intervals."""
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # end of the covered prefix of each span's interval
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = starts[i] if starts[i] > reach[p] else reach[p]
        hi = ends[i] if ends[i] < ends[p] else ends[p]
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]
