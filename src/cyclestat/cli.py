"""Command-line front end.

Subcommands:

* ``stats``  -- statistics of one permutation, as a JSON record.
* ``orbit``  -- its hopping orbit: size, representative, optionally members.
* ``dist``   -- a distribution polynomial over a class/stratum, by the
  factorized route (a product of single-cycle distributions).
* ``verify`` -- print the reports that ``formulas.claim_reports`` yields
  for one claim of ``formulas.CLAIMS`` (or ``all``); that function fixes
  each claim's instances and checks them against the enumeration route.
  One JSON line per instance; exit status 0 iff at least one instance of
  each claim was checked and everything passed. A failing record carries
  the first differing coefficient as its witness; for ``egf`` the
  monomial's s and t exponents are the fixed-point and cyclic-valley counts.
  ``--lambda`` checks that one class and leaves the ``--n-max`` range
  empty, so ``cor3``, ``cor4`` and ``egf`` have no instances: named
  alone they exit 2, and ``verify all --lambda ...`` leaves them out.
* ``table``  -- machine-readable tables (counts, gamma coefficients,
  Eulerian coefficients) as CSV or JSON lines; a range with no rows,
  such as ``table snki --n-max 0``, is reported as an empty table.

All numeric output is exact (integers or p/q rationals as text, never
floats) and deterministically ordered, so identical invocations produce
byte-identical output. The guardrail applies only to enumeration, so
``dist`` never trips it while ``verify`` and ``table gamma`` honour it: at
most 10^8 class members, or ``CYCLESTAT_CLASS_CAP`` when that is set.
The same cap bounds the orbit that ``orbit`` walks.

Exit codes: 0 success / all checks passed; 1 at least one check failed;
2 usage or parse error, a bad ``CYCLESTAT_CLASS_CAP`` (for any command),
a claim with no instances or a table with no rows in the requested range;
3 enumeration guardrail tripped (a class or an orbit above the cap).
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import eulerian
from .enumeration import (
    ClassSpec,
    ClassTooLargeError,
    class_cap,
    dist_cval,
    dist_exc,
    dist_joint,
    partitions_of,
)
from .formulas import CLAIMS, claim_reports, egf_snki, theorem2_gamma
from .hopping import orbit
from .permutations import (
    CycleType,
    cycle_type,
    des,
    parse_permutation,
    stat_counts,
    to_cycle_form,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


class _BadInput(Exception):
    """Bad user input; :func:`main` prints it as one ``error:`` line."""


def _parse(parser, *args):
    """``parser(*args)``, with a ValueError it raises turned into bad input."""
    try:
        return parser(*args)
    except ValueError as err:
        raise _BadInput(err) from None


_JSON = json.JSONEncoder(sort_keys=True)


def _print_json(record: dict) -> None:
    print(_JSON.encode(record))


def cmd_stats(args) -> int:
    p = _parse(parse_permutation, args.perm)
    record = {
        "n": p.n,
        "word": list(p.word),
        "des": des(p),
        **stat_counts(p)._asdict(),
        "cycle_type": list(cycle_type(p).parts),
    }
    if args.cycles:
        record["cycles"] = str(to_cycle_form(p))
    _print_json(record)
    return EXIT_OK


def cmd_orbit(args) -> int:
    p = _parse(parse_permutation, args.perm)
    report = orbit(p, collect_members=args.members)
    record = {
        "size": report.size,
        "representative": list(report.representative.word),
        "cval": report.cval,
        "fix": report.fix,
    }
    if args.members:
        record["members"] = [list(m.word) for m in report.members]
    _print_json(record)
    return EXIT_OK


def cmd_dist(args) -> int:
    spec = _parse(ClassSpec.parse, args.spec)
    compute = {"exc": dist_exc, "cval": dist_cval, "joint": dist_joint}[args.stat]
    print(compute(spec))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.lam is not None:
        lambdas = [_parse(CycleType.from_text, args.lam)]
        n_max = 0
    else:
        n_max = args.n_max
        lambdas = [ct for n in range(0, n_max + 1) for ct in partitions_of(n)]
    claims = CLAIMS if args.claim == "all" else [args.claim]
    # With --lambda, ``all`` leaves out the claims with no instance in one class.
    optional = args.claim == "all" and args.lam is not None
    failures = 0
    unchecked = []
    for claim in claims:
        checked = 0
        for report in claim_reports(claim, n_max, lambdas):
            checked += 1
            failures += not report.passed
            _print_json(report.to_json_record())
        if not checked and not optional:
            unchecked.append(claim)
    if unchecked:
        print(
            f"error: no instances to check for {', '.join(unchecked)}"
            " in the requested range",
            file=sys.stderr,
        )
    if failures:
        return EXIT_FAIL
    return EXIT_USAGE if unchecked else EXIT_OK


def _csv_cell(value) -> str:
    """One CSV field: text quoted, a list comma-joined, a number as is."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def _emit_table(rows: list[dict], fields: list[str], fmt: str) -> int:
    """Print rows as JSON lines or CSV; an empty table is a usage error."""
    if not rows:
        raise _BadInput("no table rows in the requested range")
    if fmt == "json":
        for row in rows:
            _print_json(row)
        return EXIT_OK
    print(",".join(fields))
    for row in rows:
        print(",".join(_csv_cell(row[f]) for f in fields))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.what == "eulerian":
        rows = []
        for n in range(0, args.n_max + 1):
            poly = eulerian(n)
            coeffs = [int(poly.coefficient(0, j)) for j in range(0, n + 1)]
            rows.append({"n": n, "coefficients": coeffs})
        return _emit_table(rows, ["n", "coefficients"], args.format)
    if args.what == "snki":
        table = egf_snki(args.n_max) if args.n_max >= 1 else {}
        rows = [
            {"n": n, "k": k, "i": i, "count": count}
            for (n, k, i), count in sorted(table.items())
            if count
        ]
        return _emit_table(rows, ["n", "k", "i", "count"], args.format)
    # gamma: coefficients of dist_exc about (n-k)/2, one row per partition
    rows = []
    for n in range(1, args.n_max + 1):
        for ct in partitions_of(n):
            data = theorem2_gamma(ClassSpec.of_cycle_type(ct))
            gammas = list(data.by_no_double_ascent)
            rows.append({"lambda": str(ct), "n": n, "gammas": gammas})
    return _emit_table(rows, ["lambda", "n", "gammas"], args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclestat",
        description="Exact cyclic permutation statistics over conjugacy classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="statistics of one permutation")
    p_stats.add_argument("perm", help="one-line '3,7,1,...' or cycle '(3,1)(2)' text")
    p_stats.add_argument("--cycles", action="store_true", help="include cycle form")
    p_stats.set_defaults(func=cmd_stats)

    p_orbit = sub.add_parser("orbit", help="hopping orbit of one permutation")
    p_orbit.add_argument("perm")
    p_orbit.add_argument("--members", action="store_true", help="list all members")
    p_orbit.set_defaults(func=cmd_orbit)

    p_dist = sub.add_parser("dist", help="distribution polynomial over a class")
    p_dist.add_argument("spec", help="partition '1,5,5' / '1^1 5^2', or 'n=..,k=..[,i=..]'")
    p_dist.add_argument("--stat", choices=("exc", "cval", "joint"), default="exc")
    p_dist.set_defaults(func=cmd_dist)

    p_verify = sub.add_parser("verify", help="check identities over a range")
    p_verify.add_argument("claim", choices=(*CLAIMS, "all"))
    p_verify.add_argument("--n-max", type=int, default=5, dest="n_max")
    p_verify.add_argument("--lambda", dest="lam", default=None, help="single partition")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="emit machine-readable tables")
    p_table.add_argument("what", choices=("snki", "gamma", "eulerian"))
    p_table.add_argument("--n-max", type=int, default=6, dest="n_max")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse(class_cap)  # a bad cap is bad input, reported before any output
        return args.func(args)
    except _BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ClassTooLargeError as err:
        print(f"class too large: {err}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
