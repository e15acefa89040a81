import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from divkit.cli import bundled_corpus_dir, run_corpus, run_job, RunOptions
from divkit.dsl import parse


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, env=None, **kw):
    """Run ``python -m divkit.cli`` in a child process.

    The child imports divkit from this checkout's ``src`` (as conftest.py
    arranges for the pytest process), whatever the caller's PYTHONPATH.
    Without ``env`` it inherits the caller's environment minus
    DK_MAX_DEGREE, so only a test that passes a cap runs capped.
    """
    if env is None:
        env = {k: v for k, v in os.environ.items() if k != "DK_MAX_DEGREE"}
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "divkit.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_exit_codes(tmp_path):
    ok = write(tmp_path, "ok.dk", "chart x,y; check_poisson x*Dx^^Dy;")
    assert run_cli(["run", str(ok)]).returncode == 0
    bad = write(
        tmp_path, "bad.dk", "chart x,y,z,w; check_poisson x*Dx^^Dy + Dz^^Dw + Dx^^Dw;"
    )
    assert run_cli(["run", str(bad)]).returncode == 1
    syntax = write(tmp_path, "syntax.dk", "chart x,y; check_poisson q;")
    r = run_cli(["run", str(syntax), "--json"])
    assert r.returncode == 2
    assert json.loads(r.stdout)["verdict"] == "error"


def test_json_byte_stability(tmp_path):
    job = write(tmp_path, "j.dk", "chart x,y; pi = x^2*Dx^^Dy; lift pi to frame log(x);")
    a = run_cli(["run", str(job), "--json"]).stdout
    b = run_cli(["run", str(job), "--json"]).stdout
    assert a == b
    cert = json.loads(a)
    assert cert["payload"]["lifted"] == "x*e1^^e2"
    assert cert["payload"]["residual_ideal"] == "x"
    assert cert["payload"]["nondegenerate"] is False


def test_bundled_corpus_passes(capsys):
    assert run_corpus(bundled_corpus_dir(), RunOptions()) == 0
    out = capsys.readouterr().out
    assert "jobs match" in out


def test_corpus_perturbation_fails(tmp_path):
    src = bundled_corpus_dir()
    for f in src.iterdir():
        shutil.copy(f, tmp_path / f.name)
    target = tmp_path / "09_modular_x.expected.json"
    target.write_text(target.read_text().replace("Dy", "Dx"))
    r = run_cli(["corpus", str(tmp_path)])
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "09_modular_x.dk" in r.stdout


def test_corpus_empty(tmp_path):
    r = run_cli(["corpus", str(tmp_path)])
    assert r.returncode == 0
    assert "0 jobs" in r.stdout


def test_strict_rejects_heuristic(tmp_path):
    # rank-2 bivector in dim 4: the line certificate is sampled
    job = write(
        tmp_path,
        "s.dk",
        "chart x,y,z,w; pi = x*Dx^^Dy + x^2*Dx^^Dw; divisor pi;",
    )
    assert run_cli(["run", str(job)]).returncode == 0
    r = run_cli(["--strict", "run", str(job), "--json"])
    assert r.returncode == 2
    assert "heuristic" in json.loads(r.stdout)["error"]
    # so is a lift whose nondegeneracy is sampled (Pf = x^2 + 1)
    lifted = write(tmp_path, "l.dk", "chart x,y; pi = (x^2 + 1)*Dx^^Dy; lift pi to frame tx();")
    assert run_cli(["run", str(lifted)]).returncode == 0
    assert run_cli(["--strict", "run", str(lifted)]).returncode == 2
    # an exact certificate whose only warning is a non-Poisson input passes
    exact = write(
        tmp_path,
        "np.dk",
        "chart x,y,z,w; pi = x*Dx^^Dy + Dz^^Dw + Dx^^Dw; divisor pi;",
    )
    r = run_cli(["--strict", "run", str(exact), "--json"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["warnings"] == ["bivector is not Poisson: divisor data only"]


def test_seed_grid_override(tmp_path):
    # the default grid starts at the origin, where this line section vanishes
    job = write(
        tmp_path,
        "g.dk",
        "chart x,y,z; pi = x*Dx^^Dy + z*Dz^^Dy; divisor pi;",
    )
    assert run_cli(["run", str(job)]).returncode == 1
    # this one vanishes only where x = z = 7, off the default grid
    job = write(
        tmp_path,
        "g7.dk",
        "chart x,y,z; pi = (x - 7)*Dx^^Dy + (z - 7)*Dz^^Dy; divisor pi;",
    )
    assert run_cli(["run", str(job)]).returncode == 0
    r = run_cli(["--seed-grid", "7", "run", str(job), "--json"])
    assert r.returncode == 1
    assert "vanishes at sample point" in json.loads(r.stdout)["payload"]["reason"]


def test_degree_cap(tmp_path):
    job = write(tmp_path, "cap.dk", "chart x,y; p = x^9; classify p;")
    env = dict(os.environ, DK_MAX_DEGREE="4")
    r = run_cli(["run", str(job), "--json"], env=env)
    assert r.returncode == 2
    assert "DegreeCapExceeded" in json.loads(r.stdout)["error"]
    assert run_cli(["run", str(job)]).returncode == 0
    # dk fmt reports the overrun as dk run does, with no traceback
    r = run_cli(["fmt", str(job)], env=env)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: DegreeCapExceeded") and "Traceback" not in r.stderr


def test_degree_past_the_monomial_limit_is_an_error(tmp_path):
    # total degree 2^31 does not fit a packed monomial: the power is refused
    # before it multiplies, with no cap set
    job = write(tmp_path, "big.dk", "chart x; p = x^2147483648; classify p;")
    r = run_cli(["run", str(job)], timeout=30)
    assert r.returncode == 2
    assert "error: DegreeCapExceeded" in r.stdout


@pytest.mark.parametrize(
    "body", ["p = x^3 * x^3; classify p;", "F = frame custom(x^3*Dx; y^3*Dy);"]
)
def test_degree_cap_is_not_a_parse_error(tmp_path, body):
    # the cap trips inside an engine call the parser wraps
    job = write(tmp_path, "cap.dk", "chart x,y; " + body)
    r = run_cli(["run", str(job), "--json"], env=dict(os.environ, DK_MAX_DEGREE="4"))
    assert r.returncode == 2
    error = json.loads(r.stdout)["error"]
    assert "DegreeCapExceeded" in error and "ParseError" not in error


def test_fmt_roundtrip(tmp_path):
    job = write(
        tmp_path,
        "f.dk",
        "chart x , y;\n\nF = frame log( x) ;\npi = x^2 * Dx ^^ Dy;\nlift pi to F;\n",
    )
    r = run_cli(["fmt", str(job)])
    assert r.returncode == 0
    assert r.stdout == "chart x, y;\nF = frame log(x);\npi = x^2*Dx^^Dy;\nlift pi to F;\n"
    # idempotent
    again = write(tmp_path, "f2.dk", r.stdout)
    assert run_cli(["fmt", str(again)]).stdout == r.stdout
    # command forms the corpus lacks: the printed command, which is also the
    # certificate's `command`, then the same text again after a reparse
    from divkit.dsl import format_job

    cases = [
        ("chart x, y; F = frame log(x); lift x^2 * Dx^^Dy to F;", "lift x^2*Dx^^Dy to F"),
        ("chart x, y; verify_frame frame log(x) by ideal(x);", "verify_frame frame log(x) by x"),
        (
            "chart x, y, u; w = e1^^e2; F = frame elliptic_log(x, y);"
            " residue w via elllog_z on F;",
            "residue w via elllog_z on F",
        ),
        (
            "chart x, y, u, v; F = frame elliptic(x, y);"
            " spinor e1^^e3 + e2^^e4 on F via elliptic;",
            "spinor e1^^e3 + e2^^e4 on F via elliptic",
        ),
        (
            "chart x, y; F = frame tx(); I = ideal(x); modify lower F keep  by I;",
            "modify lower F keep  by I",
        ),
        ("chart x, y; modify upper frame tx() kernel 1, 2 by y;", "modify upper frame tx() kernel 1, 2 by y"),
        ("chart x, y; classify 3;", "classify 3"),
    ]
    for source, command in cases:
        job = parse(source)
        text = format_job(job)
        assert text.endswith("\n%s;\n" % command), text
        assert run_job(job)[0]["command"] == command
        assert format_job(parse(text)) == text


def test_run_job_api_residue_and_spinor():
    job = parse(
        "chart x, y; w = e1^^e2; residue w via log on frame log(x);"
    )
    cert, code = run_job(job)
    assert code == 0
    assert cert["payload"]["result"]["form"] == "-dy"
    job = parse(
        "chart x, y, u, v; w = e1^^e2 + e3^^e4;"
        " spinor w on frame elliptic(x, y) via elliptic;"
    )
    cert, code = run_job(job)
    assert code == 1
    assert "NonzeroEllipticResidue" in cert["payload"]["reason"]


def test_modify_commands():
    job = parse("chart x, y; T = frame tx(); modify lower T keep 2 by x;")
    cert, code = run_job(job)
    assert code == 0
    assert cert["payload"]["result"]["generators"] == ["x*Dx", "Dy"]
    job = parse("chart x, y; T = frame tx(); modify upper T kernel 2 by x;")
    cert, code = run_job(job)
    assert code == 1
    assert "NotDivisible" in cert["payload"]["reason"]


def test_frame_json_round_trip():
    from divkit.cli import frame_from_payload, frame_payload
    from divkit.frames import AnchorFrame, catalog
    from divkit.rings import Chart, Poly
    from divkit.multivector import Multivector

    c3 = Chart(["x", "y", "u"])
    frames = [
        catalog("log", c3, "x"),
        catalog("bk", c3, "u", 3),
        catalog("elliptic", c3, "x", "y"),
        catalog("elliptic_log", c3, "x", "y"),
        catalog("nc_log", c3, "x", "y"),
        catalog("scattering", c3, "u"),
    ]
    x3 = Poly.var(c3, "x")
    d = [Multivector.basis_vector(c3, i) for i in range(3)]
    frames.append(AnchorFrame(c3, [d[0] + x3 * d[2], d[1], d[2]]))
    for frame in frames:
        data = json.loads(json.dumps(frame_payload(frame)))
        back = frame_from_payload(data)
        assert back == frame
        assert back.label == frame.label
        assert back.det == frame.det


def test_output_name_echo():
    job = parse('chart x, y; output "anchor"; modular x*Dx^^Dy;')
    cert, code = run_job(job)
    assert code == 0 and cert["name"] == "anchor"


def test_non_involutive_custom_frame_is_an_error():
    from divkit.dsl import ParseError

    # [x*Dx, Dy + y*Dx] = -y*Dx does not re-expand polynomially
    with pytest.raises(ParseError) as e:
        parse(
            "chart x, y; F = frame custom(x*Dx; Dy + y*Dx);"
            " verify_frame F by ideal(x);"
        )
    assert "bad custom frame" in str(e.value)
    assert "leaves the frame module" in str(e.value)


def test_corpus_jobs_survive_formatting():
    from divkit.cli import certificate_json
    from divkit.dsl import format_job

    for jobfile in sorted(bundled_corpus_dir().glob("*.dk")):
        src = jobfile.read_text()
        job = parse(src)
        formatted = format_job(job)
        job2 = parse(formatted)
        cert1, code1 = run_job(job)
        cert2, code2 = run_job(job2)
        assert code1 == code2, jobfile.name
        assert certificate_json(cert1) == certificate_json(cert2), jobfile.name
        assert format_job(job2) == formatted, jobfile.name


def test_classify_named_ideal_and_elllog_residue():
    job = parse("chart x, y; I = ideal(x^2); classify I;")
    cert, code = run_job(job)
    assert code == 0
    assert cert["payload"] == {"class": "BPower(2)", "ideal": "x^2"}
    assert cert["command"] == "classify I"
    job = parse(
        "chart x, y, u; w = e1^^e2;"
        " residue w via elllog_z on frame elliptic_log(x, y);"
    )
    cert, code = run_job(job)
    assert code == 0
    res = cert["payload"]["result"]
    assert res["kind"] == "log_coframe" and res["twisted"] is True
    assert res["chart"] == ["y", "u"] and res["form"] == "e1"


def test_classify_scalars_like_constant_polynomials():
    from divkit.dsl import ParseError

    for scalar, poly in (("3", "3 + 0*x"), ("0", "x - x")):
        got = run_job(parse("chart x, y; classify %s;" % scalar))
        assert got == run_job(parse("chart x, y; classify %s;" % poly))
    cert, code = run_job(parse("chart x, y; classify 3;"))
    assert code == 0 and cert["payload"] == {"ideal": "1", "class": "Trivial"}
    cert, code = run_job(parse("chart x, y; classify 0;"))
    assert code == 2 and cert["error"].startswith("ZeroGenerator")
    with pytest.raises(ParseError, match="expected an ideal or a polynomial"):
        parse("chart x, y; classify Dx;")


def test_classify_elliptic_with_large_integer_coefficients():
    # det = 1: an inexact (float) definiteness test rounds it to 0
    job = parse("chart x, y; classify x^2 + 2000000000*x*y + 1000000000000000001*y^2;")
    cert, code = run_job(job)
    assert code == 0 and cert["payload"]["class"] == "Elliptic"


def test_lift_sign_change_proves_degeneracy():
    # Pf = 2x - 1 has no zero on the integer grid, but it is negative at
    # x = -2 and positive at x = 1, so it vanishes between them
    cert, code = run_job(parse("chart x, y; pi = (2*x - 1)*Dx^^Dy; lift pi to frame tx();"))
    assert code == 0 and cert["verdict"] == "ok"
    assert cert["payload"]["nondegenerate"] is False
    assert cert["payload"]["evidence"] == "Pfaffian 2*x - 1 vanishes somewhere"
    assert cert["warnings"] == []


def test_lift_degeneracy_on_the_frame_divisor_needs_no_grid_zero():
    # Pf(pi_A) = x vanishes where det(rho) = x does, a line that the grid
    # 1, 2 (`--seed-grid 1,2`) misses; the verdict is exact all the same
    grid = RunOptions(grid_values=(1, 2))
    cert, code = run_job(parse("chart x, y; pi = x^2*Dx^^Dy; lift pi to frame log(x);"), grid)
    assert code == 0 and cert["payload"]["nondegenerate"] is False
    assert cert["payload"]["evidence"] == "Pfaffian x vanishes somewhere"
    assert cert["warnings"] == []
    # det(rho) = 1 has no zero: a Pfaffian without one is still only sampled
    job = parse("chart x, y; pi = (x^2+y^2+1)*Dx^^Dy; lift pi to frame tx();")
    cert, code = run_job(job, grid)
    assert code == 0 and cert["payload"]["nondegenerate"] is True
    assert cert["warnings"] == ["nondegeneracy certificate is sampled, not exact"]


def test_internal_error_is_reported_as_such(tmp_path, monkeypatch, capsys):
    # break the lift's exact multiplicativity self-check: det(rho) must divide
    # Pf(pi); pi's components are coprime, so the division is not skipped
    import divkit
    from divkit import cli, poisson

    true_pfaffian = poisson.partial_pfaffian

    def broken(pi, k):
        top = tuple(range(2 * k))
        return poisson.Multivector(pi.chart, 2 * k, {top: true_pfaffian(pi, k).comps[top] + 1})

    monkeypatch.setattr(poisson, "partial_pfaffian", broken)
    monkeypatch.delenv("DK_MAX_DEGREE", raising=False)
    job = write(
        tmp_path, "j.dk", "chart x, y, u, v; pi = x*Dx^^Dy + Du^^Dv; lift pi to frame log(x);"
    )
    assert cli.main(["run", str(job), "--json"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "error"
    assert cert["error"] == "InternalError: Pfaffian multiplicativity violated (internal error)"
    assert issubclass(divkit.InternalError, RuntimeError)
    assert not issubclass(divkit.rings.DegreeCapExceeded, divkit.InternalError)


def test_internal_error_while_parsing_is_reported(tmp_path, monkeypatch, capsys):
    # frames are certified while the job is parsed
    from divkit import InternalError, cli, frames

    def broken(frame):
        raise InternalError("structure table is not antisymmetric")

    monkeypatch.setattr(frames, "check_involutive", broken)
    monkeypatch.delenv("DK_MAX_DEGREE", raising=False)
    job = write(tmp_path, "j.dk", "chart x, y; pi = x*Dx^^Dy; lift pi to frame log(x);")
    assert cli.main(["run", str(job), "--json"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "error"
    assert cert["error"].startswith("InternalError:")
    assert cli.main(["fmt", str(job)]) == 2
    assert capsys.readouterr().err.startswith("error: InternalError:")


def test_convention_check_failure_is_an_error(tmp_path, monkeypatch, capsys):
    from divkit import cli, poisson

    true_lie_derivative = poisson.lie_derivative
    monkeypatch.setattr(
        poisson, "lie_derivative", lambda v, w: 2 * true_lie_derivative(v, w)
    )
    monkeypatch.delenv("DK_MAX_DEGREE", raising=False)
    job = write(tmp_path, "j.dk", "chart x, y, z; pi1 = x*Dx^^Dy; modular pi1;")
    assert cli.main(["run", str(job), "--json"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "error"
    assert cert["error"].startswith("ConventionCheckFailed:")


def test_classify_divides_a_coordinate_power_at_once(tmp_path):
    # one exact division by x^k, not k divisions by x
    job = write(tmp_path, "big.dk", "chart x; p = x^2147483647; classify p;")
    r = run_cli(["run", str(job)], timeout=20)
    assert r.returncode == 0
    assert "class: BPower(2147483647)" in r.stdout


def test_classify_of_a_huge_degree_binomial_is_decided(tmp_path):
    # the heuristic gcd of squarefree_part would evaluate x at an integer to
    # the power 2^31 - 1; it gives up on the size and the PRS decides
    job = write(tmp_path, "big.dk", "chart x; p = x^2147483647 + 1; classify p;")
    r = run_cli(["run", str(job)], timeout=10)
    assert r.returncode == 0
    assert "class: Unclassified" in r.stdout
