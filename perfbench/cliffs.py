"""The seed-commit cliffs, run once each under the benchmark's per-job limit.

    python3 perfbench/cliffs.py --seed N

These jobs stay out of the timed workloads, whose operations must all
complete; this script records whether each one is decided within the limit:

* the n = 8 elliptic_log lift of det(rho)^2 * (dense quadratic pi), whose
  sampled Pfaffian scan builds and walks a 5^8-point grid;
* the divisor job of the degree sweep with factors of degree 5, where
  gcd(a*c, b*c) runs the primitive remainder sequence on total degree 7.

Prints one JSON line per job.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from polys import mul
from run import JOB_LIMIT_S, SRC, Loop, _alarm
from workloads import (
    Draw,
    Job,
    antisym,
    bivector_text,
    catalog_generators,
    chart_line,
    check,
    divisor_job,
    names_for,
)


def lift_cliff(draw, n=8):
    names = names_for(n)
    _, det = catalog_generators(n, "elliptic_log", [0, 1])
    det2 = mul(det, det)
    pi0 = antisym(n, {(i, j): draw.poly(n, 2, 6) for i in range(n) for j in range(i + 1, n)})
    pi = [[mul(det2, e) if e else {} for e in row] for row in pi0]
    src = chart_line(names) + "pi = %s;\nlift pi to frame elliptic_log(x1, x2);\n" % bivector_text(pi, names)
    return Job("lift_elliptic_log_dense_quadratic_n8", src, {"verdict": "ok"})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from divkit import cli, dsl

    draw = Draw("cliffs", args.seed)
    jobs = [lift_cliff(draw), divisor_job(draw, 3, 5, "nc")]
    loop = Loop(jobs, dsl, cli, check)
    signal.signal(signal.SIGALRM, _alarm)
    for job in jobs:
        seconds = loop.run_one(job, 0)
        print(json.dumps({"job": job.name, "decided": seconds is not None, "seconds": seconds,
                          "limit_s": JOB_LIMIT_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
