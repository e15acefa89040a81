"""Expression DSL: job files with a chart declaration, named definitions,
and one command.

    chart x, y, z, w;
    pi = x*Dx^^Dy + Dz^^Dw + Dx^^Dw;
    divisor pi;

Basis tokens: Dx, Dy, ... (one per chart variable) for vector fields,
dx, dy, ... for plain forms, e1, e2, ... for coframe generators (bound to a
frame by the command that uses them).  Operators: + - * ^ (scalar power)
and ^^ (wedge).  Rational literals are written 3/2.  Errors carry line and
column.

Each command's syntax is one `COMMANDS` entry, which both the parser and
the printer walk; a new command is that entry plus one branch in
`cli._dispatch`, which receives the operands in the entry's order.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import Chart, Poly
from .multivector import DiffForm, Multivector, _Graded
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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<str>"[^"\n]*")
      | (?P<wedge>\^\^)
      | (?P<sym>[-+*^(),;=/])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)@%d:%d" % (self.kind, self.text, self.line, self.col)


def tokenize(source):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(line, col, "unexpected character %r" % source[pos])
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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


class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0
        self.job = Job()

    # -- token helpers ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(tok.line, tok.col, message)

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
            value = self.expression()
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
        return v

    # -- expressions ---------------------------------------------------------

    def expression(self):
        v = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.term()
            v = self.combine_add(v, w, op)
        return v

    def term(self):
        v = self.factor()
        while True:
            t = self.peek()
            if t.text == "*":
                self.next()
                v = self.combine_mul(v, self.factor(), t)
            elif t.kind == "wedge":
                self.next()
                v = self.combine_wedge(v, self.factor(), t)
            else:
                return v

    def factor(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            return self.negate(self.factor())
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
            v = self.expression()
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

    def negate(self, v):
        return -v

    def power(self, v, e, tok):
        if isinstance(v, (int, Fraction, Poly)):
            return v**e
        self.fail("^ applies to scalars; use ^^ for the wedge", tok)


def parse(source):
    return Parser(source).parse()


def parse_expression(source, chart, definitions=None):
    """Parse a single expression in a given chart context (used for
    round-tripping printed payload values)."""
    p = Parser("")
    p.tokens = tokenize(source)
    p.pos = 0
    p.job.chart = chart
    p.job.definitions = dict(definitions or {})
    v = p.expression()
    t = p.peek()
    if t.kind != "eof":
        p.fail("trailing input after expression", t)
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
