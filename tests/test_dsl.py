from fractions import Fraction

import pytest

from divkit.rings import Chart, Poly
from divkit.multivector import DiffForm, Multivector
from divkit.divisors import DivisorIdeal
from divkit.frames import AnchorFrame
from divkit.dsl import MAX_NESTING, CoframeExpr, ParseError, format_job, parse, parse_expression


def test_parse_minimal_job():
    job = parse("chart x,y; pi = x*Dx^^Dy; check_poisson pi;")
    assert job.chart.variables == ("x", "y")
    assert job.command[0] == "check_poisson"
    pi = job.command[1]
    assert isinstance(pi, Multivector) and pi.degree == 2
    assert str(pi) == "x*Dx^^Dy"


def test_parse_divisor_job():
    job = parse(
        "chart x, y, z, w;\npi = x*Dx^^Dy + Dz^^Dw + Dx^^Dw;\ndivisor pi;\n"
    )
    assert job.command[0] == "divisor"
    assert str(job.command[1]) == "x*Dx^^Dy + Dx^^Dw + Dz^^Dw"


def test_unknown_name_has_position():
    with pytest.raises(ParseError) as e:
        parse("chart x,y; pi = q*Dx^^Dy; check_poisson pi;")
    assert e.value.line == 1 and e.value.col == 17
    assert "unknown name 'q'" in str(e.value)


# a bivector definition, its coefficient written on the second line
PAREN = "chart x, y;\npi = %s;\ncheck_poisson pi;\n"


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        ("# header\nchart x, y;  # two\np = x $ y;\nclassify p;\n", 3, 7,
         "unexpected character '$'"),
        ('chart x;\noutput "abc;\nclassify x;\n', 2, 8, "unexpected character '\"'"),
        ("chart x, y;\r\np = q;\r\nclassify p;\r\n", 2, 5, "unknown name 'q'"),
        ("chart x, y;\np = x\n\n\n", 5, 1, "expected ';', found 'end of input'"),
        ("  \n\t ", 2, 3, "job has no chart declaration"),
        ("chart x, y;\nclassify x;\n  classify y;\n", 3, 3, "a job holds exactly one command"),
        (None, 3, 3, "expected a value, found ')'"),  # parse_expression
        # unary minus on a value without one: at the minus sign, not a TypeError
        ("chart x, y;\nF = frame tx();\np = -F;\nclassify p;\n", 3, 5,
         "cannot negate this value: bad operand type for unary -: 'AnchorFrame'"),
        ("chart x, y;\nI = ideal(x);\np = x - -I;\n", 3, 9,
         "cannot negate this value: bad operand type for unary -: 'DivisorIdeal'"),
        # a definition may neither shadow a basis token nor precede the chart,
        # or `dk fmt` would print a job that reads otherwise
        ("chart x, y, z; w = Dx^^Dy; Dx = Dz; check_poisson Dy^^Dz + x*w;", 1, 28,
         "'Dx' is a basis token"),
        ("x = 2; chart x, y; classify y*x;", 1, 1, "declare the chart first"),
        # a command operand reads on past a defined name, as a definition does
        ("chart x, y; F = frame log(x); classify F + x;", 1, 42,
         "cannot add these values: unsupported operand type(s) for +: 'AnchorFrame' and 'Poly'"),
        ("chart x, y; I = ideal(x); classify I*x;", 1, 37,
         "cannot multiply these values: unsupported operand type(s) for *: 'DivisorIdeal' and 'Poly'"),
        # so does one that starts with an inline frame or ideal
        ("chart x; classify frame log(x) + x;", 1, 32,
         "cannot add these values: unsupported operand type(s) for +: 'AnchorFrame' and 'Poly'"),
        ("chart x; verify_frame frame tx() by ideal(x)*x;", 1, 45,
         "cannot multiply these values: unsupported operand type(s) for *: 'DivisorIdeal' and 'Poly'"),
        # a keyword where a value belongs is no name; a catalog kind called
        # without its keyword says how a catalog frame is written
        ("chart x, y;\nT = frame tx();\nmodify lower keep 2 by x;\n", 3, 14,
         "expected a value, found 'keep'"),
        ("chart x, y;\npi = x^2*Dx^^Dy;\nlift pi to log(x);\n", 3, 12,
         "unknown name 'log' (a catalog frame is written frame log(...))"),
        # a parenthesized coefficient that no sum of monomial runs reads
        # fails where the generic path fails
        (PAREN % "(x + )*Dx^^Dy", 2, 11, "expected a value, found ')'"),
        (PAREN % "(x + y*)*Dx^^Dy", 2, 13, "expected a value, found ')'"),
        (PAREN % "(x + y) Dx^^Dy", 2, 14, "expected ';', found 'Dx'"),
        (PAREN % "(x + y)*Dx^^Dy^2", 2, 20, "^ applies to scalars; use ^^ for the wedge"),
        (PAREN % "(x + y", 2, 12, "expected ')', found ';'"),
        (PAREN % "(x + q)*Dx^^Dy", 2, 11, "unknown name 'q'"),
        (PAREN % "(x^y + 1)*Dx^^Dy", 2, 9, "expected an integer exponent"),
    ],
    ids=["comment", "unterminated", "crlf", "eof", "blank", "second_command", "expression",
         "negated_frame", "negated_ideal", "basis_token_definition", "definition_before_chart",
         "frame_operand_sum", "ideal_operand_product", "inline_frame_sum",
         "inline_ideal_product", "keyword_operand", "catalog_kind_without_keyword",
         "paren_missing_run", "paren_trailing_star", "paren_no_star", "paren_basis_power",
         "paren_unclosed", "paren_unknown_name", "paren_bad_exponent"],
)
def test_parse_error_positions(source, line, col, message):
    with pytest.raises(ParseError) as e:
        if source is None:
            parse_expression("x +\n  y *\n  )", Chart(["x", "y"]))
        else:
            parse(source)
    assert (e.value.line, e.value.col) == (line, col)
    assert str(e.value) == "%d:%d: %s" % (line, col, message)


@pytest.mark.parametrize(
    "wrap, inner, deepest",
    [
        ("(%s)", "x", MAX_NESTING),
        ("-%s", "x", MAX_NESTING),
        # a parenthesized sum of monomial runs, and one whose unary minus is
        # one more level
        ("(%s)", "x + 2*x^2", MAX_NESTING),
        ("(%s)", "-x + 1", MAX_NESTING - 1),
    ],
    ids=["parentheses", "minus", "sum", "negated_sum"],
)
def test_nesting_is_bounded(wrap, inner, deepest):
    def nested(depth):
        text = inner
        for _ in range(depth):
            text = wrap % text
        return "chart x; p = %s; classify p;" % text

    want = parse_expression(inner, Chart(["x"]))
    assert parse(nested(deepest)).definitions["p"] == want
    for depth in (deepest + 1, 3000):
        with pytest.raises(ParseError, match="nests deeper than %d" % MAX_NESTING) as e:
            parse(nested(depth))
        # the error points at the first factor past the limit
        assert e.value.col == len("chart x; p = ") + MAX_NESTING + 2


def test_parenthesized_lone_number_stays_a_scalar():
    # `(3)` is the scalar 3, not a Poly, so a command that names it prints
    # the value, as it names a defined scalar
    from divkit.cli import run_job

    for text, printed in (("(3)", "3"), ("(-3)", "-3"), ("(3 + 0)", "p"), ("(x)", "p")):
        job = parse("chart x, y; p = %s; classify p;" % text)
        assert type(job.definitions["p"]) is (Fraction if printed != "p" else Poly), text
        assert run_job(job)[0]["command"] == "classify " + printed, text


def test_internal_type_errors_are_not_parse_errors(monkeypatch):
    # a frame constructor or `make_ideal` raises ValueError or
    # UnknownVariable on bad input; any other error is a fault in divkit
    # and escapes `parse` as it is
    from divkit import dsl, frames

    def boom(*args):
        raise TypeError("boom")

    monkeypatch.setattr(frames, "_bracket_rows", boom)
    for frame in ("frame custom(x*Dx; Dy)", "frame log(x)"):
        with pytest.raises(TypeError, match="boom"):
            parse("chart x, y; F = %s; verify_frame F by ideal(x);" % frame)
    monkeypatch.setattr(dsl, "make_ideal", boom)
    with pytest.raises(TypeError, match="boom"):
        parse("chart x, y; I = ideal(x); classify I;")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("chart x,y; check_poisson;")  # missing operand
    with pytest.raises(ParseError):
        parse("pi = x*Dx^^Dy;")  # no chart
    with pytest.raises(ParseError):
        parse("chart x,y; pi = x*Dx^^Dy; check_poisson pi; divisor pi;")  # two commands
    with pytest.raises(ParseError):
        parse("chart x, x; check_poisson Dx^^Dy;")  # duplicate variable
    with pytest.raises(ParseError):
        parse("chart e1, y; check_poisson De1^^Dy;")  # reserved name
    with pytest.raises(ParseError):
        parse("chart x,y; w = e9; residue w via log on frame log(x);")  # bad index
    for w in ("e1 + e1^^e2", "Dx + Dx^^Dy", "dx + dx^^dy", "e1^^Dx"):  # mixed degree or kind
        with pytest.raises(ParseError):
            parse("chart x,y; w = %s; residue w via log on frame log(x);" % w)
    for w in ("x + e1", "x + Dx"):  # a function plus a graded value
        with pytest.raises(ParseError) as e:
            parse("chart x,y; w = %s; residue w via log on frame log(x);" % w)
        assert "cannot add" in str(e.value) and "attribute" not in str(e.value)
    for w in ("F ^^ F", "I ^^ I"):  # values without a wedge
        with pytest.raises(ParseError, match="wedge needs two graded factors"):
            parse("chart x,y; F = frame log(x); I = ideal(x); w = %s; classify x;" % w)
    with pytest.raises(ParseError, match="bad ideal generator"):
        parse("chart x,y; I = ideal(0); classify I;")


def test_frames_and_ideals():
    job = parse(
        """
        chart x, y;
        F = frame elliptic_log(x, y);
        I = ideal(x*(x^2 + y^2));
        verify_frame F by I;
        """
    )
    assert isinstance(job.definitions["F"], AnchorFrame)
    assert isinstance(job.definitions["I"], DivisorIdeal)
    assert str(job.definitions["I"].generator) == "x^3 + x*y^2"


def test_custom_frame():
    job = parse(
        "chart x, y, z; F = frame custom(Dx + 2*x*Dz; Dy; (z - x^2)*Dz);"
        " verify_frame F by ideal(z - x^2);"
    )
    f = job.definitions["F"]
    assert [str(g) for g in f.generators] == ["Dx + 2*x*Dz", "Dy", "(-x^2 + z)*Dz"]


def test_rational_literals_and_power():
    job = parse("chart x,y; p = 3/2*x^2 - 1/2*y; classify p;")
    p = job.definitions["p"]
    assert p == Fraction(3, 2) * Poly.var(Chart(["x", "y"]), "x") ** 2 - Fraction(
        1, 2
    ) * Poly.var(Chart(["x", "y"]), "y")


def test_print_then_parse_polys(rng):
    from conftest import rand_poly

    chart = Chart(["x", "y", "z"])
    for _ in range(40):
        p = rand_poly(chart, rng, max_degree=4, terms=5)
        q = parse_expression(str(p), chart)
        if isinstance(q, (int, Fraction)):
            q = Poly.const(chart, q)
        assert q == p, str(p)


def test_print_then_parse_multivectors(rng):
    from conftest import rand_multivector

    chart = Chart(["x", "y", "z"])
    for deg in (1, 2, 3):
        for _ in range(15):
            m = rand_multivector(chart, rng, deg)
            if m.is_zero():
                continue
            q = parse_expression(str(m), chart)
            assert q == m, str(m)


def test_print_then_parse_forms(rng):
    from conftest import rand_poly

    chart = Chart(["x", "y", "z"])
    import itertools

    for deg in (1, 2):
        for _ in range(10):
            comps = {
                idx: rand_poly(chart, rng) for idx in itertools.combinations(range(3), deg)
            }
            w = DiffForm(chart, deg, comps)
            if w.is_zero():
                continue
            assert parse_expression(str(w), chart) == w
            ce = CoframeExpr(chart, deg, comps)
            if ce.is_zero():
                continue
            got = parse_expression(str(ce), chart)
            assert isinstance(got, CoframeExpr) and got.comps == ce.comps


def test_format_job_idempotent():
    src = """
    chart x , y ;
    pi   =  x^2*Dx^^Dy ;
    lift pi to frame log( x );
    """
    job = parse(src)
    once = format_job(job)
    twice = format_job(parse(once))
    assert once == twice
    assert "lift pi to frame log(x);" in once


def test_format_job_inlines_values():
    job = parse("chart x,y; modular x*Dx^^Dy;")
    out = format_job(job)
    assert out == "chart x, y;\nmodular x*Dx^^Dy;\n"


@pytest.mark.parametrize(
    "source, payload",
    [
        ("chart x; p = x; classify p + x;", {"ideal": "x", "class": "Log"}),
        ("chart x, y; p = x; check_poisson p*Dx^^Dy;", {"poisson": True}),
        ("chart x, y; I = ideal(x*y); classify I;",
         {"ideal": "x*y", "class": "NormalCrossingLog(2)"}),
    ],
    ids=["sum", "product", "named_ideal"],
)
def test_operand_starting_with_a_defined_name_reads_as_an_expression(source, payload):
    """A command operand that starts with a defined name reads on past it,
    as a definition's right-hand side does; a lone name is the defined value."""
    from divkit.cli import run_job

    cert, code = run_job(parse(source))
    assert code == 0 and cert["payload"] == payload
    assert run_job(parse(format_job(parse(source)))) == (cert, code)


def test_ideal_operand_accepts_a_constant():
    from divkit.cli import run_job

    jobs = (
        "chart x, y; verify_frame frame log(x) by %s;",
        "chart x, y; modify lower frame tx() keep 1 by %s;",
        "chart x, y; c = 3; verify_frame frame log(x) by %s;",
    )
    for job in jobs:
        for const in ("1", "3", "1/2", "c" if "c =" in job else "2"):
            got = run_job(parse(job % const))
            assert got == run_job(parse(job % ("ideal(%s)" % const))), (job, const)
            assert got[1] == 0 and got[0]["command"].endswith(" by 1")
        # dk fmt prints the unit ideal as `by 1`, which must parse back
        text = format_job(parse(job % "ideal(1)"))
        assert text.endswith(" by 1;\n") and format_job(parse(text)) == text
    for zero in ("0", "x - x", "ideal(0)"):
        with pytest.raises(ParseError, match="bad ideal generator"):
            parse("chart x, y; verify_frame frame log(x) by %s;" % zero)


def test_format_job_keeps_the_kind_of_a_zero_value():
    from divkit.cli import run_job

    jobs = (
        "chart x, y; pi = x*Dx^^Dy - x*Dx^^Dy; check_poisson pi;",
        "chart x, y; w = e1^^e2 - e1^^e2; residue w via log on frame log(x);",
        "chart x, y; spinor e1^^e2 - e1^^e2 on frame log(x) via log;",
    )
    for src in jobs:
        job = parse(src)
        text = format_job(job)
        assert "0*" in text, text
        assert run_job(parse(text)) == run_job(job), text
        assert format_job(parse(text)) == text


@pytest.mark.parametrize(
    "cap, source, raises",
    [
        (4, "x^5", True),
        (4, "x^3*y^2", True),
        (4, "x*x*x*x*x", True),
        (4, "x^2*y^2 + x^4", False),
        # a zero product checks no degree, as a product with the zero Poly does not
        (4, "x^3*0*y^2", False),
        (4, "0*x^3*y^2", False),
        (None, "x^2147483648", True),
        (None, "x^2147483647*x", True),
        (None, "x^2147483647 + y^2147483647", False),
    ],
)
def test_monomial_literals_check_degrees_like_products(cap, source, raises):
    from divkit import rings

    chart = Chart(["x", "y"])
    with rings.degree_cap(cap):
        if raises:
            with pytest.raises(rings.DegreeCapExceeded):
                parse_expression(source, chart)
        else:
            assert isinstance(parse_expression(source, chart), Poly)

