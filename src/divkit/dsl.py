"""Expression DSL: job files with a chart declaration, named definitions,
and one command.

    chart x, y, z, w;
    pi = x*Dx^^Dy + Dz^^Dw + Dx^^Dw;
    divisor pi;

Basis tokens: Dx, Dy, ... (one per chart variable) for vector fields,
dx, dy, ... for plain forms, e1, e2, ... for coframe generators (bound to a
frame by the command that uses them).  Operators: + - * ^ (scalar power)
and ^^ (wedge).  Rational literals are written 3/2.  Parentheses and unary
minus nest at most `MAX_NESTING` levels.  Tokens carry their source offset;
a `ParseError`'s line and column are computed from it where the error is
raised.  Numbers are ASCII digits.

A polynomial literal is read without building a value per atom:
`Parser.monomial_run` reads a run of `*`-joined factors, each a number or a
chart variable with an optional `^` and exponent, into one coefficient and
one packed monomial (a variable adds `exponent * chart._units[i]`), checking
degrees where a product of Polys would check them, and `expression` adds the
terms of a sum into one packed term dict, normalized once.  A graded literal
is read the same way: `Parser.basis_run` reads a run `B1 ^^ B2 ...` of basis
tokens into a sign and a sorted index tuple, and `expression` adds each
term's coefficient (a scalar or polynomial product before the run, or 1)
into one {index: packed term dict} for the whole sum, so the Multivector,
DiffForm or CoframeExpr is built once.  The generic path, one value per
atom combined by `combine_mul`, `combine_wedge` and `combine_add`, reads
everything else: a number followed by `/` or `^`, a repeated `^`, a defined
name, a basis run with a repeated index, mixed kinds, an `e` index out of
range or a `*`, `^` or `^^` after it, a term of another kind or degree than
the sum so far, parentheses and unary minus.  A lone number stays a
`Fraction` and any other run is a Poly, so both paths give equal values of
the same type and degree, and the same errors.  Each value a statement
produces (a definition or a command operand) is then checked whole against
the degree cap by `Parser.checked`, so `DK_MAX_DEGREE` trips on it however
it is spelled.

Each command's syntax is one `COMMANDS` entry, which both the parser and
the printer walk; a new command is that entry plus one branch in
`cli._dispatch`, which receives the operands in the entry's order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import Chart, Poly, _check_degree, _normed
from .multivector import DiffForm, Multivector, _Graded, merge_indices
from .frames import AnchorFrame, CoframeForm, catalog
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
# `eof` and `bad` (any other character) make every match succeed.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
    (?: (?P<num>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<str>"[^"\n]*")
      | (?P<wedge>\^\^)
      | (?P<sym>[-+*^(),;=/])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # offset in the source

    def __repr__(self):
        return "%s(%r)@%d" % (self.kind, self.text, self.pos)


def _error_at(source, pos, message):
    """A ParseError at a source offset, with its 1-based line and column."""
    line_start = source.rfind("\n", 0, pos) + 1
    return ParseError(source.count("\n", 0, pos) + 1, pos - line_start + 1, message)


def tokenize(source):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bad":
            raise _error_at(source, start, "unexpected character %r" % source[start])
        tokens.append(Token(kind, m.group(kind), start))
        if kind == "eof":
            return tokens


class CoframeExpr(_Graded):
    """Coframe expression over e1..en, not yet bound to a frame."""

    __slots__ = ()
    _basis_name = CoframeForm._basis_name

    def bind(self, frame):
        if frame.chart != self.chart:
            raise ValueError("form and frame charts differ")
        return CoframeForm(frame, self.degree, self.comps)


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

    def fail(self, message, tok=None):
        raise _error_at(self.source, (tok or self.peek()).pos, message)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.fail("expected %r, found %r" % (text, t.text or "end of input"), t)
        return t

    def expect_ident(self, what="a name"):
        t = self.next()
        if t.kind != "ident":
            self.fail("expected %s, found %r" % (what, t.text or "end of input"), t)
        return t

    # -- grammar ------------------------------------------------------------

    def parse(self):
        while self.peek().kind != "eof":
            self.statement()
        if self.job.chart is None:
            self.fail("job has no chart declaration")
        if self.job.command is None:
            self.fail("job has no command")
        return self.job

    def statement(self):
        t = self.peek()
        if t.text == "chart":
            self.chart_decl()
        elif t.text == "output":
            self.next()
            s = self.next()
            if s.kind != "str":
                self.fail("expected a quoted output name", s)
            self.job.output = s.text[1:-1]
            self.expect(";")
        elif t.text in COMMANDS:
            if self.job.command is not None:
                self.fail("a job holds exactly one command", t)
            self.job.command = self.command()
            self.expect(";")
        elif t.kind == "ident":
            self.assignment()
        else:
            self.fail("expected a statement, found %r" % t.text, t)

    def chart_decl(self):
        tok = self.expect("chart")
        if self.job.chart is not None:
            self.fail("chart is already declared", tok)
        names = [self.expect_ident("a variable name")]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_ident("a variable name"))
        self.expect(";")
        seen = []
        for t in names:
            v = t.text
            if not _VAR_RE.match(v):
                self.fail("variable names are lowercase identifiers: %r" % v, t)
            if v in KEYWORDS:
                self.fail("%r is reserved" % v, t)
            if re.match(r"e\d+$", v):
                self.fail("names e1, e2, ... are reserved for coframes", t)
            seen.append(v)
        for t, v in zip(names, seen):
            for other in seen:
                if v != other and v == "d" + other:
                    self.fail(
                        "variable %r collides with the form token d%s" % (v, other), t
                    )
        if len(set(seen)) != len(seen):
            self.fail("chart variables must be distinct", tok)
        self.job.chart = Chart(seen)

    def assignment(self):
        name_tok = self.expect_ident()
        name = name_tok.text
        if name in KEYWORDS:
            self.fail("%r is reserved" % name, name_tok)
        if self.job.chart is not None and name in self.job.chart:
            self.fail("%r is a chart variable" % name, name_tok)
        self.expect("=")
        t = self.peek()
        if t.text == "frame":
            self.next()
            value = self.frame_spec()
        elif t.text == "ideal":
            value = self.ideal_operand()
        else:
            value = self.checked(self.expression())
        self.expect(";")
        if name in self.job.definitions:
            self.fail("%r is already defined" % name, name_tok)
        self.job.definitions[name] = value

    def frame_spec(self):
        kind_tok = self.expect_ident("a frame kind")
        kind = kind_tok.text
        chart = self.need_chart(kind_tok)
        self.expect("(")
        if kind == "custom":
            gens = [self.expr_value(Multivector, "a vector field")]
            while self.peek().text == ";":
                self.next()
                gens.append(self.expr_value(Multivector, "a vector field"))
            self.expect(")")
            for g in gens:
                if g.degree != 1:
                    self.fail("custom frame generators must be vector fields", kind_tok)
            try:
                return AnchorFrame(chart, gens)
            except (ValueError, KeyError, TypeError) as e:
                self.fail("bad custom frame: %s" % e, kind_tok)
        args = []
        if self.peek().text != ")":
            while True:
                t = self.next()
                if t.kind == "ident":
                    args.append(t.text)
                elif t.kind == "num":
                    args.append(int(t.text))
                else:
                    self.fail("expected a variable or integer argument", t)
                if self.peek().text != ",":
                    break
                self.next()
        self.expect(")")
        try:
            return catalog(kind, chart, *args)
        except (ValueError, KeyError, TypeError) as e:
            self.fail("bad frame %s(...): %s" % (kind, e), kind_tok)

    def need_chart(self, tok):
        if self.job.chart is None:
            self.fail("declare the chart first", tok)
        return self.job.chart

    def command(self):
        name = self.next().text
        args = []
        for word in COMMANDS[name].split():
            if word[0] == "{":
                args.append(self._read_operand(word[1:-1], args))
            else:
                self.expect(word)
        return (name, *args)

    def _read_operand(self, kind, args):
        """One operand of the given kind; `args` holds those read before it."""
        if kind == "bivector":
            return self.expr_value(Multivector, "a bivector")
        if kind == "coform":
            return self.expr_value(CoframeExpr, "a coframe form")
        if kind == "frame":
            return self.frame_operand()
        if kind == "ideal":
            return self.ideal_operand()
        if kind == "flavor":
            return self.expect_ident("a residue flavor").text
        if kind == "spinor_flavor":
            return self.expect_ident("'log' or 'elliptic'").text
        if kind == "side":
            t = self.next()
            if t.text not in _SUBSET_KEYWORD:
                self.fail("expected 'lower' or 'upper'", t)
            return t.text
        if kind == "subset":
            want = _SUBSET_KEYWORD[args[0]]
            t = self.next()
            if t.text != want:
                self.fail("expected %r" % want, t)
            return self.index_list()
        # poly_or_ideal: a polynomial, or a named ideal
        return self.expr_value((Poly, DivisorIdeal), "an ideal or a polynomial")

    def index_list(self):
        idx = []
        t = self.peek()
        if t.kind != "num":
            return idx  # empty subset is allowed
        while True:
            t = self.next()
            if t.kind != "num":
                self.fail("expected a 1-based generator index", t)
            idx.append(int(t.text) - 1)
            if self.peek().text != ",":
                break
            self.next()
        return idx

    def operand(self):
        """A named value or inline expression."""
        t = self.peek()
        if t.kind == "ident" and t.text in self.job.definitions:
            self.next()
            return self.job.definitions[t.text]
        return self.expression()

    def frame_operand(self):
        t = self.peek()
        if t.kind == "ident" and t.text in self.job.definitions:
            v = self.job.definitions[t.text]
            if isinstance(v, AnchorFrame):
                self.next()
                return v
        if t.text == "frame":
            self.next()
            return self.frame_spec()
        self.fail("expected a frame name or 'frame <kind>(...)'", t)

    def ideal_operand(self):
        if self.peek().text == "ideal":
            self.next()
            self.expect("(")
            v = self.expr_value(Poly, "a polynomial")
            self.expect(")")
        else:
            v = self.expr_value((Poly, DivisorIdeal), "an ideal or a polynomial")
            if isinstance(v, DivisorIdeal):
                return v
        try:
            return make_ideal(v)
        except (ValueError, KeyError, TypeError) as e:
            self.fail("bad ideal generator: %s" % e)

    def expr_value(self, cls, what):
        tok = self.peek()
        v = self.operand()
        if isinstance(v, (int, Fraction)) and issubclass(Poly, cls):
            v = Poly.const(self.need_chart(tok), v)
        if not isinstance(v, cls):
            self.fail("expected %s" % what, tok)
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
        """A sum of terms, added into one keyed dict while every term has
        the same shape: a polynomial sum into one packed term dict, and a
        graded sum (each term a coefficient times a basis run, all of one
        kind and degree) into one {index: packed term dict}, each
        normalized once at the end.  A term of another shape makes the sum
        a value, built from the dict so far, and `combine_add` adds each
        later term to it."""
        w, key = self.term()
        if self.peek().text not in ("+", "-"):
            return self._value(w, key)
        chart = self.job.chart
        terms = {}
        get = terms.get
        graded = None  # (class, degree) of a graded sum, whose terms are in comps
        comps = {}
        v = None  # the sum, once it is neither
        first = True
        op = "+"
        while True:
            if first and type(key) is tuple:
                graded = key[0], len(key[1])
            if v is not None:
                v = self.combine_add(v, self._value(w, key), op)
            elif graded is not None:
                if type(key) is tuple and graded == (key[0], len(key[1])):
                    acc = comps.get(key[1])
                    if acc is None:
                        acc = comps[key[1]] = {}
                    add = acc.get
                    for m, c in w._terms.items():
                        acc[m] = add(m, 0) + (c if op == "+" else -c)
                else:
                    v = self.combine_add(self._graded_sum(graded, comps), self._value(w, key), op)
            elif type(key) is int:
                terms[key] = get(key, 0) + (w if op == "+" else -w)
            elif key is not None:
                v = self.combine_add(Poly._make(chart, _normed(terms)), self._value(w, key), op)
            elif isinstance(w, (int, Fraction)):
                terms[0] = get(0, 0) + (w if op == "+" else -w)
            elif type(w) is Poly and w.chart == chart:
                for k, c in w._terms.items():
                    terms[k] = get(k, 0) + (c if op == "+" else -c)
            elif first:
                v = w
            else:
                v = self.combine_add(Poly._make(chart, _normed(terms)), w, op)
            if self.peek().text not in ("+", "-"):
                if v is not None:
                    return v
                if graded is not None:
                    return self._graded_sum(graded, comps)
                return Poly._make(chart, _normed(terms))
            op = self.next().text
            w, key = self.term()
            first = False

    def _value(self, w, key):
        """The value of a term as `term` returns it."""
        if key is None:
            return w
        if type(key) is int:
            return self._monomial(w, key)
        cls, idx = key
        return cls._make(self.job.chart, len(idx), {idx: w} if w else {})

    def _graded_sum(self, graded, comps):
        """The value of a graded sum: class and degree, and its term dicts."""
        chart = self.job.chart
        cls, degree = graded
        clean = {}
        for idx, acc in comps.items():
            acc = _normed(acc)
            if acc:
                clean[idx] = Poly._make(chart, acc)
        return cls._make(chart, degree, clean)

    def term(self):
        """A product, as one of
        - (value, None);
        - (coefficient, packed monomial), when it is a monomial run, other
          than a lone number, with nothing multiplied onto it;
        - (Poly coefficient, (class, index tuple)), when it is a basis run
          (`basis_run`) that ends the product, after a scalar or polynomial
          coefficient and `*`, or alone (coefficient 1).  The run's sign is
          in the coefficient, whose degree is checked as multiplying it onto
          the basis would check it."""
        run = self.monomial_run()
        if run is None:
            basis = self.basis_run()
            if basis is not None:
                sign, key = basis
                return Poly.const(self.job.chart, sign), key
            v = self.factor()
        else:
            c, m, is_poly = run
            t = self.peek()
            if is_poly and t.text != "*" and t.kind != "wedge":
                return c, m
            v = self._monomial(c, m) if is_poly else Fraction(c)
        chart = self.job.chart
        while True:
            t = self.peek()
            if t.text == "*":
                self.next()
                if isinstance(v, (int, Fraction)) or type(v) is Poly and v.chart == chart:
                    basis = self.basis_run()
                    if basis is not None:
                        sign, key = basis
                        if type(v) is not Poly:
                            v = Poly.const(chart, v)
                        if v:
                            _check_degree(v.total_degree())
                        return (v if sign > 0 else -v), key
                v = self.combine_mul(v, self.factor(), t)
            elif t.kind == "wedge":
                self.next()
                v = self.combine_wedge(v, self.factor(), t)
            else:
                return v, None

    def basis_run(self):
        """Read a run B1 ^^ B2 ^^ ... of basis tokens of one kind (`Dx`,
        `dx` or `e1`, none of them a defined name) with no index repeated,
        not followed by `*`, `^` or `^^`, into (sign, (class, sorted index
        tuple)); None, reading nothing, for any other input, which the
        generic path then reads (and reports, if it is an error)."""
        chart = self.job.chart
        if chart is None:
            return None
        tokens = self.tokens
        i = self.pos
        first = self._basis_token(tokens[i])
        if first is None:
            return None
        cls, idx = first[0], [first[1]]
        while True:
            t = tokens[i + 1]
            if t.kind != "wedge":
                if t.text in ("*", "^"):
                    return None
                break
            b = self._basis_token(tokens[i + 2])
            if b is None or b[0] is not cls or b[1] in idx:
                return None
            idx.append(b[1])
            i += 2
        self.pos = i + 1
        if len(idx) == 1:
            return 1, (cls, tuple(idx))
        sign, key = merge_indices(tuple(idx), ())
        return sign, (cls, key)

    def _basis_token(self, t):
        """(class, 0-based index) of a basis token that is no defined name
        and no chart variable, with an `e` index in range; else None."""
        name = t.text
        if t.kind != "ident" or name in self.job.definitions:
            return None
        index = self.job.chart._index
        if name in index:
            return None
        head, rest = name[0], name[1:]
        if head == "D" and rest in index:
            return Multivector, index[rest]
        if head == "d" and rest in index:
            return DiffForm, index[rest]
        if head == "e" and rest.isdigit() and 1 <= int(rest) <= len(index):
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
            if t.kind == "num":
                if tokens[i + 1].text in ("/", "^"):
                    break
                c *= int(t.text)
                i += 1
                if deg is None:
                    deg = 0
                else:
                    is_poly = True
            elif t.kind == "ident" and t.text in index and t.text not in defined:
                e = 1
                if tokens[i + 1].text == "^":
                    exponent = tokens[i + 2]
                    if exponent.kind != "num" or tokens[i + 3].text == "^":
                        break
                    e = int(exponent.text)
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
                    m += units[index[t.text]] * e
                is_poly = True
            else:
                break
            end = i
            if tokens[i].text != "*":
                break
            i += 1
        if end is None:
            return None
        self.pos = end
        return c, m, is_poly

    def _monomial(self, c, m):
        return Poly._make(self.job.chart, {m: c} if c else {})

    def factor(self):
        if self.depth > MAX_NESTING:
            self.fail("expression nests deeper than %d levels" % MAX_NESTING)
        t = self.peek()
        if t.text == "-":
            self.next()
            self.depth += 1
            v = self.negate(self.factor(), t)
            self.depth -= 1
            return v
        v = self.atom()
        while self.peek().text == "^":
            op = self.next()
            e = self.next()
            if e.kind != "num":
                self.fail("expected an integer exponent", e)
            v = self.power(v, int(e.text), op)
        return v

    def atom(self):
        t = self.next()
        if t.text == "(":
            self.depth += 1
            v = self.expression()
            self.depth -= 1
            self.expect(")")
            return v
        if t.kind == "num":
            num = int(t.text)
            if self.peek().text == "/":
                self.next()
                d = self.next()
                if d.kind != "num" or int(d.text) == 0:
                    self.fail("expected a nonzero integer denominator", d)
                return Fraction(num, int(d.text))
            return Fraction(num)
        if t.kind == "ident":
            return self.resolve(t)
        self.fail("expected a value, found %r" % (t.text or "end of input"), t)

    def resolve(self, tok):
        name = tok.text
        if name in self.job.definitions:
            return self.job.definitions[name]
        chart = self.need_chart(tok)
        if name in chart:
            return Poly.var(chart, name)
        if name.startswith("D") and name[1:] in chart:
            return Multivector.basis_vector(chart, chart.index(name[1:]))
        if name.startswith("d") and name[1:] in chart:
            return DiffForm.basis_form(chart, chart.index(name[1:]))
        m = re.match(r"e(\d+)$", name)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= chart.dimension:
                self.fail("coframe index e%d out of range" % i, tok)
            return CoframeExpr(
                chart, 1, {(i - 1,): Poly.const(chart, 1)}
            )
        self.fail("unknown name %r" % name, tok)

    # -- arithmetic dispatch --------------------------------------------------

    def to_poly(self, v):
        if isinstance(v, (int, Fraction)):
            return Poly.const(self.job.chart, v)
        return v

    def combine_add(self, a, b, op):
        a, b = self.to_poly(a), self.to_poly(b)
        try:
            return a + b if op == "+" else a - b
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot %s these values: %s" % ("add" if op == "+" else "subtract", e))

    def combine_mul(self, a, b, tok):
        try:
            return self.to_poly(a) * b
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot multiply these values: %s" % e, tok)

    def combine_wedge(self, a, b, tok):
        if not (isinstance(a, _Graded) and isinstance(b, _Graded)):
            self.fail("wedge needs two graded factors", tok)
        if type(a) is not type(b):
            self.fail("cannot wedge %s with %s" % (type(a).__name__, type(b).__name__), tok)
        try:
            return a.wedge(b)
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot wedge these values: %s" % e, tok)

    def negate(self, v, tok):
        try:
            return -v
        except (ValueError, KeyError, TypeError) as e:
            self.fail("cannot negate this value: %s" % e, tok)

    def power(self, v, e, tok):
        if isinstance(v, (int, Fraction, Poly)):
            return v**e
        self.fail("^ applies to scalars; use ^^ for the wedge", tok)


def parse(source):
    return Parser(source).parse()


def parse_expression(source, chart, definitions=None):
    """Parse a single expression in a given chart context (used for
    round-tripping printed payload values)."""
    p = Parser(source, chart, definitions)
    v = p.expression()
    if p.peek().kind != "eof":
        p.fail("trailing input after expression")
    return v


# ---------------------------------------------------------------------------
# Canonical printing (the formatter used by `dk fmt`)
# ---------------------------------------------------------------------------


def value_to_source(v, names=None):
    """Source text of a value.  In a command, `names` maps the id of each
    defined value to its name: such a value prints as the name, and an
    inline ideal as its generator, which `{ideal}` reads back.  A
    definition (`names` None) spells an ideal `ideal(g)`."""
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
    if isinstance(v, _Graded) and v.is_zero() and v.degree:
        # a bare 0 would read back as a scalar: keep the kind and degree
        return "0*" + "^^".join(v._basis_name(i) for i in range(v.degree))
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
            word = "%s %s" % (_SUBSET_KEYWORD[cmd[1]], idx)
        elif word[0] == "{":
            word = value_to_source(next(operands), names)
        words.append(word)
    return " ".join(words)
