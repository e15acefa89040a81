"""Expression DSL: job files with a chart declaration, named definitions,
and one command.

    chart x, y, z, w;
    pi = x*Dx^^Dy + Dz^^Dw + Dx^^Dw;
    divisor pi;

Basis tokens: Dx, Dy, ... (one per chart variable) for vector fields,
dx, dy, ... for plain forms, e1, e2, ... for coframe generators (bound to a
frame by the command that uses them).  Operators: + - * ^ (scalar power)
and ^^ (wedge).  Rational literals are written 3/2.  Parentheses and unary
minus nest at most `MAX_NESTING` levels.  Numbers are ASCII digits.  A
token is its text, one `findall` match, and its kind is read off the text;
its source offset, and a `ParseError`'s line and column, are computed only
where an error is raised.

A literal sum is read without building a value per atom.  `Parser.term`
reads a product as a keyed term where it can: the coefficient's packed
term dict under a (kind, index tuple) key.  A run of `*`-joined factors,
each a number or a chart variable with an optional `^` and exponent
(`monomial_run`), is one coefficient and one packed monomial (a variable
adds `exponent * chart._units[i]`) under (Poly, ()).  A run `B1 ^^ B2 ...`
of basis tokens (`basis_run`), alone or after a scalar or polynomial
coefficient and `*`, is that coefficient under its class and sorted index.
Degrees are checked where a product of values would check them.
`expression` adds every keyed term of the first term's kind and degree,
and in a polynomial sum every scalar and Poly, into one {index: packed
term dict}, which `_keyed_value` normalizes once and turns into the
value; `add_runs` adds each further `+ run` or `- run` of a polynomial
sum straight into it.  A factor that is a parenthesized sum of runs,
`( [-] run + run ... )` not followed by `^`, is read by `paren_sum` with
the same `add_runs` into one Poly, which `term` puts under a basis run
after `*`.  The generic path, one value per atom combined by
`combine_mul`, `combine_wedge` and `combine_add`, reads everything else:
a number followed by `/` or `^`, a repeated `^`, a defined name, a basis
run with a repeated index, mixed kinds, an `e` index out of range or a
`*`, `^` or `^^` after it, a term of another kind or degree than the sum
so far, unary minus outside parentheses, and parentheses around anything
else, followed by `^` or at the nesting limit.  `_basis_token` alone says
what a basis token is, for both paths and for the names a definition may
not take.  A lone number, parenthesized or not, stays a `Fraction` and
any other run or sum is a Poly, so both paths give equal values of the
same type and degree, and the same errors.  Each value
a statement produces (a definition or a command operand) is then checked
whole against the degree cap by `Parser.checked`, so `DK_MAX_DEGREE` trips
on it however it is spelled.

Frames (`frame kind(args)`, `frame custom(g1; ...)`) and ideals
(`ideal(p)`) are atoms too.  A definition is one `expression`, and so is
each command operand of a value kind, whose class `_VALUE_KINDS` checks.

Each command's syntax is one `COMMANDS` entry, which both the parser and
the printer walk; a new command is that entry plus one branch in
`cli._dispatch`, which receives the operands in the entry's order.
"""

from __future__ import annotations

import itertools
import re
import string
from fractions import Fraction

from .rings import Chart, Poly, UnknownVariable, _check_degree, _normed
from .multivector import DiffForm, Multivector, _Graded, merge_indices
from .frames import CATALOG_KINDS, AnchorFrame, CoframeForm, catalog
from .divisors import DivisorIdeal, make_ideal


class ParseError(ValueError):
    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__("%d:%d: %s" % (line, col, message))


# Each command's syntax after its name: `{kind}` is an operand read by
# `Parser._read_operand` and printed by `value_to_source`, any other word a
# keyword.  The command tuple is (name, operands...) in template order.
COMMANDS = {
    "check_poisson": "{bivector}",
    "divisor": "{bivector}",
    "classify": "{poly_or_ideal}",
    "lift": "{bivector} to {frame}",
    "modular": "{bivector}",
    "residue": "{coform} via {flavor} on {frame}",
    "modify": "{side} {frame} {subset} by {ideal}",
    "verify_frame": "{frame} by {ideal}",
    "spinor": "{coform} on {frame} via {spinor_flavor}",
}

# a modification's side, and the keyword before its generator subset
_SUBSET_KEYWORD = {"lower": "keep", "upper": "kernel"}

KEYWORDS = frozenset(
    [*COMMANDS, "chart", "output", "frame", "custom", "ideal"]
    + [w for syntax in COMMANDS.values() for w in syntax.split() if w[0] != "{"]
    + [w for pair in _SUBSET_KEYWORD.items() for w in pair]
)

# One match per token: whitespace and comments are skipped before it, and
# end of input (text "") and any other character make every match succeed.
# The one group is the token's text.
_TOKEN_RE = re.compile(
    r"""\s*(?:\#[^\n]*\s*)*
    ( [0-9]+ | [A-Za-z_][A-Za-z_0-9]* | "[^"\n]*" | \^\^ | [-+*^(),;=/] | \Z | . )""",
    re.VERBOSE | re.DOTALL,
)

# the one-character texts that are tokens; any other (`$`, a lone `"`, a
# non-ASCII letter or digit) is a character no token takes
_ONE_CHAR_TOKENS = frozenset("-+*^(),;=/_" + string.ascii_letters + string.digits)


def _error_at(source, pos, message):
    """A ParseError at a source offset, with its 1-based line and column."""
    line_start = source.rfind("\n", 0, pos) + 1
    return ParseError(source.count("\n", 0, pos) + 1, pos - line_start + 1, message)


def _token_offset(source, i):
    """The source offset of token `i` of `tokenize(source)`."""
    return next(itertools.islice(_TOKEN_RE.finditer(source), i, None)).start(1)


def tokenize(source):
    """The token texts of `source`, ending with "" (end of input); the first
    character no token takes is a ParseError.  A text's kind is read off
    it: "^^" is a wedge, and any other is a number (`isdigit`), a name
    (`isidentifier`), a quoted string or a symbol.  The tests are exact,
    since every text returned matched one of the ASCII alternatives."""
    texts = _TOKEN_RE.findall(source)
    if len(texts) > 1 and texts[-2] == "":
        texts.pop()  # the empty match after one that skipped trailing space
    bad = [t for t in set(texts) if len(t) == 1 and t not in _ONE_CHAR_TOKENS]
    if bad:
        i = min(map(texts.index, bad))
        raise _error_at(source, _token_offset(source, i), "unexpected character %r" % texts[i])
    return texts


class CoframeExpr(_Graded):
    """Coframe expression over e1..en, not yet bound to a frame."""

    __slots__ = ()
    _basis_name = CoframeForm._basis_name

    def bind(self, frame):
        if frame.chart != self.chart:
            raise ValueError("form and frame charts differ")
        return CoframeForm(frame, self.degree, self.comps)


# each value operand kind: (its class, what an error says was expected)
_VALUE_KINDS = {
    "bivector": (Multivector, "a bivector"),
    "coform": (CoframeExpr, "a coframe form"),
    "frame": (AnchorFrame, "a frame name or 'frame <kind>(...)'"),
    "ideal": ((Poly, DivisorIdeal), "an ideal or a polynomial"),
    "poly_or_ideal": ((Poly, DivisorIdeal), "an ideal or a polynomial"),
}


class Job:
    __slots__ = ("chart", "definitions", "command", "output")

    def __init__(self):
        self.chart = None
        self.definitions = {}  # in definition order
        self.command = None
        self.output = None


_VAR_RE = re.compile(r"[a-z][a-z0-9_]*$")


# the most parentheses and unary minus signs around a factor; deeper nesting
# would run into the interpreter's recursion limit
MAX_NESTING = 100


# the key of a polynomial term: kind Poly, no index
_POLY_KEY = (Poly, ())


class Parser:
    def __init__(self, source, chart=None, definitions=None):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0  # parentheses and unary minus signs around the current factor
        self.job = Job()
        self.job.chart = chart
        self.job.definitions.update(definitions or {})

    # -- token helpers ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message, at=None):
        """Raise a ParseError at the token of index `at` (default: the next)."""
        at = self.pos if at is None else at
        raise _error_at(self.source, _token_offset(self.source, at), message)

    def expect(self, text):
        t = self.next()
        if t != text:
            self.fail("expected %r, found %r" % (text, t or "end of input"), self.pos - 1)

    def expect_ident(self, what="a name"):
        t = self.next()
        if not t.isidentifier():
            self.fail("expected %s, found %r" % (what, t or "end of input"), self.pos - 1)
        return t

    # -- grammar ------------------------------------------------------------

    def parse(self):
        while self.peek() != "":
            self.statement()
        if self.job.chart is None:
            self.fail("job has no chart declaration")
        if self.job.command is None:
            self.fail("job has no command")
        return self.job

    def statement(self):
        t = self.peek()
        if t == "chart":
            self.chart_decl()
        elif t == "output":
            self.next()
            s = self.next()
            if not s.startswith('"'):
                self.fail("expected a quoted output name", self.pos - 1)
            self.job.output = s[1:-1]
            self.expect(";")
        elif t in COMMANDS:
            if self.job.command is not None:
                self.fail("a job holds exactly one command")
            self.job.command = self.command()
            self.expect(";")
        elif t.isidentifier():
            self.assignment()
        else:
            self.fail("expected a statement, found %r" % t)

    def chart_decl(self):
        start = self.pos
        self.expect("chart")
        if self.job.chart is not None:
            self.fail("chart is already declared", start)
        names = self.separated(",", lambda: (self.pos, self.expect_ident("a variable name")))
        self.expect(";")
        seen = [v for _, v in names]
        for i, v in names:
            if not _VAR_RE.match(v):
                self.fail("variable names are lowercase identifiers: %r" % v, i)
            if v in KEYWORDS:
                self.fail("%r is reserved" % v, i)
            if re.match(r"e\d+$", v):
                self.fail("names e1, e2, ... are reserved for coframes", i)
        for i, v in names:
            for other in seen:
                if v != other and v == "d" + other:
                    self.fail(
                        "variable %r collides with the form token d%s" % (v, other), i
                    )
        if len(set(seen)) != len(seen):
            self.fail("chart variables must be distinct", start)
        self.job.chart = Chart(seen)

    def assignment(self):
        at = self.pos
        name = self.expect_ident()
        if name in KEYWORDS:
            self.fail("%r is reserved" % name, at)
        if name in self.need_chart(at):
            self.fail("%r is a chart variable" % name, at)
        if self._basis_token(name) is not None:
            self.fail("%r is a basis token" % name, at)
        self.expect("=")
        value = self.checked(self.expression())
        self.expect(";")
        if name in self.job.definitions:
            self.fail("%r is already defined" % name, at)
        self.job.definitions[name] = value

    def separated(self, sep, read):
        """The values of `read()`, called once and again after each `sep`."""
        items = [read()]
        while self.peek() == sep:
            self.next()
            items.append(read())
        return items

    def frame_spec(self):
        """A frame after its keyword: `kind(args)` or `custom(g; ...)`."""
        at = self.pos
        kind = self.expect_ident("a frame kind")
        chart = self.need_chart(at)
        self.expect("(")
        if kind == "custom":
            gens = self.separated(";", lambda: self.expr_value(Multivector, "a vector field"))
            self.expect(")")
            try:
                return AnchorFrame(chart, gens)
            except (ValueError, UnknownVariable) as e:
                self.fail("bad custom frame: %s" % e, at)
        args = [] if self.peek() == ")" else self.separated(",", self.frame_arg)
        self.expect(")")
        try:
            return catalog(kind, chart, *args)
        except (ValueError, UnknownVariable) as e:
            self.fail("bad frame %s(...): %s" % (kind, e), at)

    def frame_arg(self):
        t = self.next()
        if not (t.isidentifier() or t.isdigit()):
            self.fail("expected a variable or integer argument", self.pos - 1)
        return int(t) if t.isdigit() else t

    def need_chart(self, at):
        if self.job.chart is None:
            self.fail("declare the chart first", at)
        return self.job.chart

    def command(self):
        name = self.next()
        args = []
        for word in COMMANDS[name].split():
            if word[0] == "{":
                args.append(self._read_operand(word[1:-1], args))
            else:
                self.expect(word)
        return (name, *args)

    def _read_operand(self, kind, args):
        """One operand of the given kind; `args` holds those read before it."""
        if kind in _VALUE_KINDS:  # an `{ideal}` may be a polynomial
            v = self.expr_value(*_VALUE_KINDS[kind])
            return self.to_ideal(v) if kind == "ideal" else v
        if kind == "flavor":
            return self.expect_ident("a residue flavor")
        if kind == "spinor_flavor":
            return self.expect_ident("'log' or 'elliptic'")
        if kind == "side":
            t = self.next()
            if t not in _SUBSET_KEYWORD:
                self.fail("expected 'lower' or 'upper'", self.pos - 1)
            return t
        # subset: its keyword, then 1-based generator indices, maybe none
        want = _SUBSET_KEYWORD[args[0]]
        if self.next() != want:
            self.fail("expected %r" % want, self.pos - 1)
        return self.separated(",", self.generator_index) if self.peek().isdigit() else []

    def generator_index(self):
        t = self.next()
        if not t.isdigit():
            self.fail("expected a 1-based generator index", self.pos - 1)
        return int(t) - 1

    def to_ideal(self, v):
        """`v` if it is an ideal, else the ideal its polynomial generates."""
        if isinstance(v, DivisorIdeal):
            return v
        try:
            return make_ideal(v)
        except (ValueError, UnknownVariable) as e:
            self.fail("bad ideal generator: %s" % e)

    def expr_value(self, cls, what):
        """A value of class `cls` (a command operand, frame generator or
        ideal generator): one expression, whose value is then checked."""
        at = self.pos
        v = self.expression()
        if isinstance(v, (int, Fraction)) and issubclass(Poly, cls):
            v = Poly.const(self.need_chart(at), v)
        if not isinstance(v, cls):
            self.fail("expected %s" % what, at)
        return self.checked(v)

    def checked(self, v):
        """`v`, once its total degree (a graded value's largest coefficient
        degree) is within the degree cap; `x` or `x*2` multiplies no two
        polynomials, so no product checks it."""
        if isinstance(v, Poly):
            _check_degree(v.total_degree())
        elif isinstance(v, _Graded):
            _check_degree(max((c.total_degree() for c in v.comps.values()), default=-1))
        return v

    # -- expressions ---------------------------------------------------------

    def expression(self):
        """A sum of terms.  Every keyed term (see `term`) of the first
        term's kind and degree, and in a polynomial sum every scalar and
        Poly, is added into one {index: packed term dict}, which
        `_keyed_value` turns into the value once; in a polynomial sum,
        `add_runs` adds the monomial runs that follow without a `term`
        call.  The first term of another shape makes the sum that value,
        and `combine_add` adds it and each later term."""
        key, w = self.term()
        if self.peek() not in ("+", "-"):
            return w if key is None else self._keyed_value(key[0], len(key[1]), {key[1]: w})
        chart = self.job.chart
        sums = {}
        cls = degree = v = None  # the keyed sum's kind and degree; the sum, once a value
        op, at = "+", None  # the operator before the term, and its token index
        while True:
            if key is None and (isinstance(w, (int, Fraction)) or type(w) is Poly and w.chart == chart):
                key, w = _POLY_KEY, (w._terms if type(w) is Poly else {0: w})
            if v is None and key is not None and (cls is None or key[0] is cls and len(key[1]) == degree):
                cls, degree = key[0], len(key[1])
                acc = sums.setdefault(key[1], {})
                get = acc.get
                for m, c in w.items():
                    acc[m] = get(m, 0) + (c if op == "+" else -c)
                if cls is Poly:
                    self.add_runs(acc)
            else:
                if key is not None:
                    w = self._keyed_value(key[0], len(key[1]), {key[1]: w})
                if v is None and cls is not None:
                    v = self._keyed_value(cls, degree, sums)
                v = w if v is None else self.combine_add(v, w, op, at)
            if self.peek() not in ("+", "-"):
                return self._keyed_value(cls, degree, sums) if v is None else v
            at, op = self.pos, self.next()
            key, w = self.term()

    def _keyed_value(self, cls, degree, sums):
        """The value of a keyed sum of kind `cls` and `degree` from its
        {index: packed term dict}: a Poly (index ()) or a graded value."""
        chart = self.job.chart
        if cls is Poly:
            return Poly._make(chart, _normed(sums[()]))
        comps = {}
        for idx, terms in sums.items():
            terms = _normed(terms)
            if terms:
                comps[idx] = Poly._make(chart, terms)
        return cls._make(chart, degree, comps)

    def term(self):
        """A product, as one of
        - (None, value), read on the generic path;
        - ((kind, index tuple), the coefficient's packed term dict), when
          it is keyed: a monomial run (`monomial_run`), other than a lone
          number, with nothing multiplied onto it, is (Poly, ()); a basis
          run (`basis_run`) that ends the product, after a scalar or
          polynomial coefficient and `*`, or alone (coefficient 1), is its
          class and sorted index.  The run's sign is in the coefficient,
          whose degree is checked as multiplying it onto the basis would
          check it.
        A first factor in parentheses, which no run starts, is read by
        `paren_sum` where it can."""
        chart = self.job.chart
        if self.peek() == "(":
            v = self.paren_sum()
            if v is None:
                v = self.factor()
        else:
            run = self.monomial_run()
            if run is None:
                basis = self.basis_run()
                if basis is not None:
                    return basis[1], {0: basis[0]}
                v = self.factor()
            else:
                c, m, is_poly = run
                if is_poly and self.peek() not in ("*", "^^"):
                    return _POLY_KEY, {m: c}
                v = Poly._make(chart, {m: c} if c else {}) if is_poly else Fraction(c)
        while True:
            at, t = self.pos, self.peek()
            if t == "*":
                self.next()
                if isinstance(v, (int, Fraction)) or type(v) is Poly and v.chart == chart:
                    basis = self.basis_run()
                    if basis is not None:
                        sign, key = basis
                        if type(v) is Poly:
                            _check_degree(v.total_degree())
                            terms = v._terms
                        else:
                            terms = {0: v}
                        return key, (terms if sign > 0 else {m: -c for m, c in terms.items()})
                v = self.combine_mul(v, self.factor(), at)
            elif t == "^^":
                self.next()
                v = self.combine_wedge(v, self.factor(), at)
            else:
                return None, v

    def add_runs(self, acc):
        """Add each `+ run` or `- run` that follows, where the monomial run
        (`monomial_run`) is a whole term (no `*` or `^^` after it), into
        the packed term dict `acc`.  Stops at the first token that is no
        `+` or `-`, or before the operator of any other term, which `term`
        then reads."""
        tokens = self.tokens
        get = acc.get
        while True:
            at = self.pos
            op = tokens[at]
            if op != "+" and op != "-":
                return
            self.pos = at + 1
            run = self.monomial_run()
            if run is None or tokens[self.pos] in ("*", "^^"):
                self.pos = at
                return
            c, m, _ = run
            acc[m] = get(m, 0) + (c if op == "+" else -c)

    def paren_sum(self):
        """Read a parenthesized sum of monomial runs, `( [-] run + run ...)`
        with no `^` after it, into one Poly, by `add_runs` after the first
        run; a lone number, `(3)` or `(-3)`, stays a `Fraction`, as `atom`
        reads it.  None, reading nothing, for any other input, which the
        generic path then reads: a defined name, a basis token, a number
        followed by `/` or `^`, a nested `(`, a run followed by anything but
        `+`, `-` or `)`, a `^` after the `)`, or a parenthesis at the
        nesting limit (which the generic path reports).  The runs are read
        one level deeper, as `atom` reads them."""
        start = self.pos
        tokens = self.tokens
        negate = tokens[start + 1] == "-"
        if self.depth + 1 + negate > MAX_NESTING:
            return None
        self.pos = start + 1 + negate
        self.depth += 1
        run = self.monomial_run()
        if run is not None:
            c, m, is_poly = run
            acc = {m: -c if negate else c}
            first = self.pos
            self.add_runs(acc)
            i = self.pos
            if tokens[i] == ")" and tokens[i + 1] != "^":
                self.pos = i + 1
                self.depth -= 1
                if is_poly or i > first:
                    return Poly._make(self.job.chart, _normed(acc))
                return Fraction(acc[m])
        self.pos = start
        self.depth -= 1
        return None

    def basis_run(self):
        """Read a run B1 ^^ B2 ^^ ... of basis tokens (`_basis_token`) of
        one kind, each index in range and none repeated, not followed by
        `*`, `^` or `^^`, into (sign, (class, sorted index tuple)); None,
        reading nothing, for any other input, which the generic path then
        reads (and reports, if it is an error)."""
        chart, tokens, i = self.job.chart, self.tokens, self.pos
        if chart is None:
            return None
        n, cls, idx = len(chart._index), None, []
        while True:
            b = self._basis_token(tokens[i])
            if b is None or not 0 <= b[1] < n or b[1] in idx or cls is not None and b[0] is not cls:
                return None
            cls = b[0]
            idx.append(b[1])
            t = tokens[i + 1]
            if t != "^^":
                break
            i += 2
        if t in ("*", "^"):
            return None
        self.pos = i + 1
        if len(idx) == 1:
            return 1, (cls, tuple(idx))
        sign, key = merge_indices(tuple(idx), ())
        return sign, (cls, key)

    def _basis_token(self, name):
        """(class, 0-based index) of a basis token, `Dx`, `dx` or `e1`, that
        is no defined name and no chart variable; an `e` index may be out
        of range.  None for any other token."""
        index = self.job.chart._index
        if not name.isidentifier() or name in index or name in self.job.definitions:
            return None
        head, rest = name[0], name[1:]
        if head == "D" and rest in index:
            return Multivector, index[rest]
        if head == "d" and rest in index:
            return DiffForm, index[rest]
        if head == "e" and rest.isdigit():
            return CoframeExpr, int(rest) - 1
        return None

    def monomial_run(self):
        """Read a run of `*`-joined factors, each an integer or a chart
        variable with an optional `^` and integer exponent, straight into
        (coefficient, packed monomial, whether its value is a Poly); None
        when the first factor has another form.  A lone number is a
        `Fraction`; any product is a Poly, as `combine_mul` makes it.  The
        run stops before a `*` whose factor has another form, which `term`
        then multiplies onto the run's value.

        Degrees are checked where the generic path checks them: a written
        power x^e checks e, and multiplying a nonzero product by x^e checks
        the sum of their degrees (so `x` alone and a zero product check
        nothing)."""
        if self.depth > MAX_NESTING:
            self.fail("expression nests deeper than %d levels" % MAX_NESTING)
        chart = self.job.chart
        if chart is None:
            return None
        index, units, defined = chart._index, chart._units, self.job.definitions
        tokens = self.tokens
        i = self.pos
        end = None  # where the run read so far ends
        c, m, deg, is_poly = 1, 0, None, False  # deg: None before the first factor
        while True:
            t = tokens[i]
            if t.isdigit():
                if tokens[i + 1] in ("/", "^"):
                    break
                c *= int(t)
                i += 1
                if deg is None:
                    deg = 0
                else:
                    is_poly = True
            elif t in index and t not in defined:
                e = 1
                if tokens[i + 1] == "^":
                    exponent = tokens[i + 2]
                    if not exponent.isdigit() or tokens[i + 3] == "^":
                        break
                    e = int(exponent)
                    if e:
                        _check_degree(e)
                    i += 2
                i += 1
                if deg is None:
                    deg = e
                elif c:
                    deg += e
                    _check_degree(deg)
                if c:
                    m += units[index[t]] * e
                is_poly = True
            else:
                break
            end = i
            if tokens[i] != "*":
                break
            i += 1
        if end is None:
            return None
        self.pos = end
        return c, m, is_poly

    def factor(self):
        if self.depth > MAX_NESTING:
            self.fail("expression nests deeper than %d levels" % MAX_NESTING)
        at = self.pos
        if self.peek() == "-":
            self.next()
            self.depth += 1
            v = self.negate(self.factor(), at)
            self.depth -= 1
            return v
        v = self.atom()
        while self.peek() == "^":
            at = self.pos
            self.next()
            e = self.next()
            if not e.isdigit():
                self.fail("expected an integer exponent", at + 1)
            v = self.power(v, int(e), at)
        return v

    def atom(self):
        at = self.pos
        t = self.next()
        if t in ("(", "frame", "ideal"):
            self.depth += 1
            if t == "frame":
                v = self.frame_spec()
            elif t == "ideal":
                self.expect("(")
                v = self.expr_value(Poly, "a polynomial")
                self.expect(")")
                v = self.to_ideal(v)
            else:
                v = self.expression()
                self.expect(")")
            self.depth -= 1
            return v
        if t.isdigit():
            num = int(t)
            if self.peek() == "/":
                self.next()
                d = self.next()
                if not d.isdigit() or int(d) == 0:
                    self.fail("expected a nonzero integer denominator", at + 2)
                return Fraction(num, int(d))
            return Fraction(num)
        if t.isidentifier() and t not in KEYWORDS:
            return self.resolve(t, at)
        self.fail("expected a value, found %r" % (t or "end of input"), at)

    def resolve(self, name, at):
        if name in self.job.definitions:
            return self.job.definitions[name]
        chart = self.need_chart(at)
        if name in chart:
            return Poly.var(chart, name)
        basis = self._basis_token(name)
        if basis is None:
            hint = ""
            if name in CATALOG_KINDS and self.peek() == "(":
                hint = " (a catalog frame is written frame %s(...))" % name
            self.fail("unknown name %r%s" % (name, hint), at)
        cls, i = basis
        if not 0 <= i < chart.dimension:
            self.fail("coframe index e%d out of range" % (i + 1), at)
        return cls(chart, 1, {(i,): Poly.const(chart, 1)})

    # -- arithmetic dispatch --------------------------------------------------

    def to_poly(self, v):
        if isinstance(v, (int, Fraction)):
            return Poly.const(self.job.chart, v)
        return v

    def combine_add(self, a, b, op, at):
        a, b = self.to_poly(a), self.to_poly(b)
        try:
            return a + b if op == "+" else a - b
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot %s these values: %s" % ("add" if op == "+" else "subtract", e), at)

    def combine_mul(self, a, b, at):
        try:
            return self.to_poly(a) * b
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot multiply these values: %s" % e, at)

    def combine_wedge(self, a, b, at):
        if not (isinstance(a, _Graded) and isinstance(b, _Graded)):
            self.fail("wedge needs two graded factors", at)
        if type(a) is not type(b):
            self.fail("cannot wedge %s with %s" % (type(a).__name__, type(b).__name__), at)
        try:
            return a.wedge(b)
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot wedge these values: %s" % e, at)

    def negate(self, v, at):
        try:
            return -v
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot negate this value: %s" % e, at)

    def power(self, v, e, at):
        if isinstance(v, (int, Fraction, Poly)):
            return v**e
        self.fail("^ applies to scalars; use ^^ for the wedge", at)


def parse(source):
    return Parser(source).parse()


def parse_expression(source, chart, definitions=None):
    """Parse a single expression in a given chart context (used for
    round-tripping printed payload values)."""
    p = Parser(source, chart, definitions)
    v = p.expression()
    if p.peek() != "":
        p.fail("trailing input after expression")
    return v


# ---------------------------------------------------------------------------
# Canonical printing (the formatter used by `dk fmt`)
# ---------------------------------------------------------------------------


def value_to_source(v, names=None):
    """Source text of a value.  In a command, `names` maps the id of each
    defined value to its name: such a value prints as the name, and an
    inline ideal as its generator, which `{ideal}` and `{poly_or_ideal}`
    read back.  A definition (`names` None) spells an ideal `ideal(g)`."""
    if names is not None:
        if id(v) in names:
            return names[id(v)]
        if isinstance(v, DivisorIdeal):
            return str(v.generator)
    if isinstance(v, AnchorFrame):
        if v.label is not None and v.label[0] != "product":
            return "frame %s(%s)" % (v.label[0], ", ".join(str(a) for a in v.label[1:]))
        return "frame custom(%s)" % "; ".join(str(g) for g in v.generators)
    if isinstance(v, DivisorIdeal):
        return "ideal(%s)" % v.generator
    return str(v)


def format_job(job):
    """Canonical source text for a parsed job (stable under re-formatting)."""
    lines = ["chart %s;" % ", ".join(job.chart.variables)]
    for name, v in job.definitions.items():
        lines.append("%s = %s;" % (name, value_to_source(v)))
    if job.output:
        lines.append('output "%s";' % job.output)
    lines.append(command_to_source_named(job, job.command) + ";")
    return "\n".join(lines) + "\n"


def command_to_source_named(job, cmd):
    """Source text of a command, its syntax template filled with the
    operands; a defined value prints as its name."""
    names = {id(v): name for name, v in job.definitions.items()}
    operands = iter(cmd[1:])
    words = [cmd[0]]
    for word in COMMANDS[cmd[0]].split():
        if word == "{subset}":
            idx = ", ".join(str(i + 1) for i in next(operands))
            word = ("%s %s" % (_SUBSET_KEYWORD[cmd[1]], idx)).rstrip()  # empty: "keep by"
        elif word[0] == "{":
            word = value_to_source(next(operands), names)
        words.append(word)
    return " ".join(words)
