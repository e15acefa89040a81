"""Command dispatcher, JSON certificate emission, and the corpus runner.

Exit codes: 0 for a positive verdict, 1 for a negative one (a failed check,
a non-liftable bivector, a corpus mismatch), 2 for errors (parse errors,
bad arguments, degree-cap overruns, internal errors).  Certificates are
canonical JSON: fixed key order, canonical term order in every printed
value, so runs are byte-stable.  `certificate_json` writes the bytes of
`json.dumps(cert, sort_keys=True, indent=2)` plus a newline, by a short
recursive writer whose strings go through the json module's C escaper;
`json.dumps` with an indent would take its pure-Python encoder.
`--strict` turns any certificate carrying a heuristic warning (sampled line
or nondegeneracy evidence) into an error; other warnings, such as a divisor
job's non-Poisson input, leave an exact certificate alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import dsl
from .rings import DegreeCapExceeded, InternalError, degree_cap
from .divisors import DivisorIdeal, classify, make_ideal
from .dsl import ParseError, parse
from .frames import (
    CoframeForm,
    NotASubalgebroid,
    NotDivisibleGenerator,
    NotInvolutive,
    frame_divisor,
    lower_modify,
    upper_modify,
    verify_ideal_algebroid,
)
from .multivector import _graded_str
from .poisson import (
    SAMPLED,
    NotDivisorType,
    NotLiftable,
    check_poisson,
    divisor_type,
    lift,
    modular_vf,
)
from .residues import (
    NonzeroEllipticResidue,
    NonzeroHigherResidue,
    FlavorMismatch,
    ResidueSpec,
    cosymplectic_spinor,
    residue,
)

SCHEMA = "divkit-certificate/1"


def frame_bivector_str(mv):
    """Print a frame bivector over the e-basis."""
    return _graded_str(mv, lambda i: "e%d" % (i + 1))


def frame_payload(frame):
    return {
        "chart": list(frame.chart.variables),
        "generators": [str(g) for g in frame.generators],
        "det": str(frame.det),
        "divisor": str(frame_divisor(frame).generator),
        "label": _label_json(frame.label),
    }


def _label_json(label):
    if label is None:
        return None
    return [_label_json(v) if isinstance(v, tuple) else v for v in label]


def _label_from_json(label):
    if label is None:
        return None
    return tuple(_label_from_json(v) if isinstance(v, list) else v for v in label)


def frame_from_payload(data):
    """Reconstruct (and re-certify) an anchor frame from its JSON payload."""
    from .rings import Chart
    from .frames import AnchorFrame
    from .dsl import parse_expression

    chart = Chart(data["chart"])
    gens = [parse_expression(s, chart) for s in data["generators"]]
    return AnchorFrame(chart, gens, label=_label_from_json(data.get("label")))


def restricted_payload(form):
    """A residue's target: a plain form on the locus, or a log coframe form
    whose differential carries the isotropy twist."""
    twisted = isinstance(form, CoframeForm)
    return {
        "kind": "log_coframe" if twisted else "plain",
        "chart": list(form.chart.variables),
        "form": str(form),
        "twisted": twisted,
    }


class RunOptions:
    __slots__ = ("strict",)

    def __init__(self, strict=False):
        self.strict = strict


def run_job(job, options=None):
    """Execute a parsed job; returns (certificate dict, exit code)."""
    options = options or RunOptions()
    cmd = job.command
    cert = {
        "schema": SCHEMA,
        "command": dsl.command_to_source_named(job, cmd),
        "chart": list(job.chart.variables),
        "verdict": "ok",
        "payload": {},
        "warnings": [],
    }
    if job.output:
        cert["name"] = job.output
    try:
        _dispatch(cmd, cert, options)
    except (ValueError, RuntimeError) as e:
        cert["verdict"] = "error"
        cert["error"] = "%s: %s" % (type(e).__name__, e)
    code = {"ok": 0, "fail": 1, "error": 2}[cert["verdict"]]
    sampled = options.strict and any(w.endswith(SAMPLED) for w in cert["warnings"])
    if sampled and cert["verdict"] != "error":
        cert["verdict"] = "error"
        cert["error"] = "strict mode: heuristic certificate rejected"
        code = 2
    return cert, code


def _dispatch(cmd, cert, options):
    """Run a command tuple, (name, operands...) in the order of the
    command's syntax in `dsl.COMMANDS`."""
    kind, *args = cmd
    payload = cert["payload"]

    if kind == "check_poisson":
        ok, jac = check_poisson(*args)
        payload["poisson"] = ok
        if not ok:
            payload["jacobiator"] = str(jac)
            cert["verdict"] = "fail"
        return

    if kind == "divisor":
        try:
            rep = divisor_type(*args)
        except NotDivisorType as e:
            payload["reason"] = str(e)
            cert["verdict"] = "fail"
            return
        payload["m"] = rep.m
        payload["ideal"] = str(rep.ideal.generator)
        payload["class"] = str(rep.divisor_class)
        payload["line_part"] = str(rep.line_part)
        payload["line_certificate"] = rep.certificate
        cert["warnings"].extend(rep.warnings)
        return

    if kind == "classify":
        (v,) = args
        ideal = v if isinstance(v, DivisorIdeal) else make_ideal(v)
        payload["ideal"] = str(ideal.generator)
        payload["class"] = str(classify(ideal))
        return

    if kind == "lift":
        pi, frame = args
        payload["frame"] = frame_payload(frame)
        try:
            c = lift(pi, frame)
        except NotLiftable as e:
            payload["witness"] = str(e.witness)
            payload["entry"] = [e.entry[0] + 1, e.entry[1] + 1]
            cert["verdict"] = "fail"
            return
        payload["lifted"] = frame_bivector_str(c.lifted)
        payload["residual_ideal"] = (
            str(c.residual_ideal.generator) if c.residual_ideal else None
        )
        payload["nondegenerate"] = c.nondegenerate
        payload["evidence"] = c.evidence
        cert["warnings"].extend(c.warnings)
        return

    if kind == "modular":
        payload["field"] = str(modular_vf(*args))
        return

    if kind == "residue":
        w, flavor, frame = args
        spec = ResidueSpec(frame, flavor)
        try:
            res = residue(w.bind(frame), spec)
        except NonzeroHigherResidue as e:
            payload["reason"] = str(e)
            cert["verdict"] = "fail"
            return
        payload["flavor"] = flavor
        payload["result"] = restricted_payload(res)
        return

    if kind == "modify":
        side, frame, idx, ideal = args
        payload["input"] = frame_payload(frame)
        payload["ideal"] = str(ideal.generator)
        try:
            out = (
                lower_modify(frame, idx, ideal)
                if side == "lower"
                else upper_modify(frame, idx, ideal)
            )
        except (NotASubalgebroid, NotDivisibleGenerator, NotInvolutive) as e:
            payload["reason"] = "%s: %s" % (type(e).__name__, e)
            cert["verdict"] = "fail"
            return
        payload["result"] = frame_payload(out)
        return

    if kind == "verify_frame":
        frame, ideal = args
        rep = verify_ideal_algebroid(frame, ideal)
        payload["frame"] = frame_payload(frame)
        payload["ideal"] = str(ideal.generator)
        # each generator is printed once, in the frame payload
        payload["preserves"] = [
            {"generator": g, "ok": ok, "certificate": str(c) if ok else None}
            for g, (ok, c) in zip(payload["frame"]["generators"], rep.certificates)
        ]
        payload["standard"] = rep.standard
        payload["relation"] = rep.relation
        if not rep.preserves_all:
            cert["verdict"] = "fail"
        return

    if kind == "spinor":
        w, frame, flavor = args
        if flavor not in ("log", "elliptic"):
            raise FlavorMismatch("spinor flavor must be 'log' or 'elliptic'")
        spec = ResidueSpec(frame, "log" if flavor == "log" else "elliptic_q")
        try:
            rep = cosymplectic_spinor(w.bind(frame), spec)
        except NonzeroEllipticResidue as e:
            payload["reason"] = "NonzeroEllipticResidue: %s" % e
            cert["verdict"] = "fail"
            return
        payload["alpha"] = str(rep.alpha)
        if rep.alpha2 is not None:
            payload["alpha2"] = str(rep.alpha2)
        payload["beta"] = str(rep.beta)
        payload["rho"] = [str(r) for r in rep.rho]
        payload["closed"] = rep.closed
        payload["rho_top_nonzero"] = not rep.rho_top.is_zero()
        payload["identities"] = [[name, bool(flag)] for name, flag in rep.identities]
        if not (rep.closed and payload["rho_top_nonzero"] and all(f for _, f in rep.identities)):
            cert["verdict"] = "fail"
        return

    raise ValueError("unknown command %r" % (kind,))


def certificate_json(cert):
    """The text of `json.dumps(cert, sort_keys=True, indent=2) + "\\n"`,
    written by `_write_json` as pieces joined once."""
    pieces = []
    _write_json(cert, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


def _write_json(v, nl, put):
    """Write v through `put`, piece by piece, as `json.dumps(v,
    sort_keys=True, indent=2)` writes it, for the types a certificate holds:
    dicts with str keys, lists, str, int, bool and None; any other type, as
    value or key, raises TypeError.  `nl` is the newline and indent that
    continue v's line.  Strings go through the json module's C escaper
    (`json.dumps` with an indent takes its pure-Python encoder, about twice
    as slow on a certificate), and each is copied once more, by the final
    join, however deep it sits."""
    if isinstance(v, str):
        put(_json_str(v))
    elif isinstance(v, dict):
        if not v:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(v):
            put(sep + _json_str(k) + ": ")
            _write_json(v[k], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(v, list):
        if not v:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            put(sep)
            _write_json(x, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif v is None:
        put("null")
    elif v is True:
        put("true")
    elif v is False:
        put("false")
    elif isinstance(v, int):
        put(int.__repr__(v))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(v).__name__)


def _human(cert):
    lines = ["command: %s" % cert["command"], "verdict: %s" % cert["verdict"]]
    if "error" in cert:
        lines.append("error: %s" % cert["error"])
    for k in sorted(cert["payload"]):
        lines.append("  %s: %s" % (k, cert["payload"][k]))
    for w in cert["warnings"]:
        lines.append("warning: %s" % w)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _error_cert(message, source_name):
    return {
        "schema": SCHEMA,
        "command": source_name,
        "verdict": "error",
        "error": message,
        "payload": {},
        "warnings": [],
    }


def _parse(source):
    """(job, None), or (None, error text) when the source does not parse,
    parsing overruns the degree cap, or an invariant fails while the job's
    frames are certified."""
    try:
        return parse(source), None
    except (ParseError, DegreeCapExceeded, InternalError) as e:
        return None, "%s: %s" % (type(e).__name__, e)


def _read(path):
    """(text, None), or (None, error text) when the job file cannot be read
    or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8"), None
    except (OSError, UnicodeDecodeError) as e:
        return None, "%s: %s" % (type(e).__name__, e)


def _out(text, end="\n"):
    """Print to stdout and flush.  When the reader has closed the pipe
    (`dk run job.dk | head -1`), the rest of the output goes to the null
    device, so the command ends quietly with its own exit code."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run_file(path, options, as_json):
    source, error = _read(path)
    if error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    job, error = _parse(source)
    cert, code = (_error_cert(error, str(path)), 2) if error else run_job(job, options)
    _out(certificate_json(cert) if as_json else _human(cert), end="" if as_json else "\n")
    return code


def bundled_corpus_dir():
    return Path(__file__).parent / "corpus"


def run_corpus(directory, options, write_expected=False):
    directory = Path(directory)
    if not directory.is_dir():
        print("error: %s: not a directory" % directory, file=sys.stderr)
        return 2
    jobs = sorted(directory.glob("*.dk"))
    if not jobs:
        _out("0 jobs")
        return 0
    failures = 0
    for jobfile in jobs:
        expected_file = jobfile.with_suffix(".expected.json")
        source, error = _read(jobfile)
        if not error:
            job, error = _parse(source)
        got = certificate_json(
            _error_cert(error, jobfile.name) if error else run_job(job, options)[0]
        )
        if write_expected:
            expected_file.write_text(got)
            _out("%-40s written" % jobfile.name)
            continue
        if not expected_file.exists():
            _out("%-40s MISSING expected file" % jobfile.name)
            failures += 1
            continue
        expected = expected_file.read_text()
        if got == expected:
            _out("%-40s pass" % jobfile.name)
        else:
            _out("%-40s FAIL" % jobfile.name)
            failures += 1
            for line in _diff_lines(expected, got):
                _out("    " + line)
    total = len(jobs)
    _out("%d/%d jobs match" % (total - failures, total))
    return 1 if failures else 0


def _diff_lines(expected, got, limit=12):
    import difflib

    out = []
    for line in difflib.unified_diff(
        expected.splitlines(), got.splitlines(), "expected", "got", lineterm=""
    ):
        out.append(line)
        if len(out) >= limit:
            out.append("...")
            break
    return out


def fmt_file(path):
    source, error = _read(path)
    if not error:
        job, error = _parse(source)
    if error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    _out(dsl.format_job(job), end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dk", description="symbolic Poisson/divisor/algebroid certifier"
    )
    parser.add_argument(
        "--strict", action="store_true", help="reject heuristic certificates"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run a job file")
    p_run.add_argument("file")
    p_run.add_argument("--json", action="store_true", help="emit the JSON certificate")
    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("dir", nargs="?", default=None)
    p_corpus.add_argument(
        "--write-expected",
        action="store_true",
        help="regenerate expected certificates (maintainers only)",
    )
    p_fmt = sub.add_parser("fmt", help="canonically format a job file")
    p_fmt.add_argument("file")
    args = parser.parse_args(argv)

    cap = os.environ.get("DK_MAX_DEGREE") or None  # empty is unset; "0" is a cap
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            cap = -1
        if cap < 0:
            print("error: DK_MAX_DEGREE must be a non-negative integer", file=sys.stderr)
            return 2

    options = RunOptions(strict=args.strict)

    with degree_cap(cap):
        if args.cmd == "run":
            return run_file(args.file, options, args.json)
        if args.cmd == "corpus":
            directory = args.dir or bundled_corpus_dir()
            return run_corpus(directory, options, write_expected=args.write_expected)
        return fmt_file(args.file)


if __name__ == "__main__":
    sys.exit(main())
