"""Command-line front end.

Subcommands:

* ``stats``  -- statistics of one permutation, as a JSON record.
* ``orbit``  -- its hopping orbit: size, representative, optionally members.
* ``dist``   -- a distribution polynomial over a class/stratum, by the
  factorized route (a product of single-cycle distributions).
* ``verify`` -- run a named identity check over a parameter range,
  always against the enumeration route; one JSON line per instance, exit
  status 0 iff at least one instance of each claim was checked and
  everything passed. A failing record carries the first differing
  coefficient as its witness; for ``egf`` the monomial's s and t
  exponents are the fixed-point and cyclic-valley counts.
* ``table``  -- machine-readable tables (counts, gamma coefficients,
  Eulerian coefficients) as CSV or JSON lines.

All numeric output is exact (integers or p/q rationals as text, never
floats) and deterministically ordered, so identical invocations produce
byte-identical output. The guardrail applies only to enumeration, so
``dist`` never trips it; it defaults to 10^8 class members, and ``verify``
reads an override from the environment variable ``CYCLESTAT_CLASS_CAP``.

Exit codes: 0 success / all checks passed; 1 at least one check failed;
2 usage or parse error, a bad ``CYCLESTAT_CLASS_CAP``, a claim with no
instances or a table with no rows in the requested range; 3 enumeration
guardrail tripped.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import GammaExpansionError, MultiPoly, eulerian
from .enumeration import (
    ClassSpec,
    ClassTooLargeError,
    count_snki,
    dist_cval,
    dist_exc,
    dist_joint,
    iter_class,
    partitions_of,
)
from .formulas import (
    VerificationReport,
    brenti,
    corollary2_check,
    corollary3_check,
    corollary4_check,
    egf_snki,
    lemma1_check,
    theorem1_joint,
    theorem2_check,
    theorem2_gamma,
    theorem4_check,
    theorem5_check,
    theorem6_cval,
)
from .hopping import orbit
from .permutations import (
    CycleType,
    cycle_type,
    des,
    parse_permutation,
    stat_counts,
    stat_sets,
    to_cycle_form,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3

VERIFY_CLAIMS = (
    "brenti",
    "theorem1",
    "lemma1",
    "theorem2",
    "theorem4",
    "theorem5",
    "theorem6",
    "cor2",
    "cor3",
    "cor4",
    "egf",
    "all",
)


def _class_cap() -> int | None:
    """The guardrail from ``CYCLESTAT_CLASS_CAP``; None when unset or empty."""
    raw = os.environ.get("CYCLESTAT_CLASS_CAP")
    if not raw:
        return None
    if not raw.strip().isdecimal():
        raise ValueError(
            f"CYCLESTAT_CLASS_CAP must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


def _print_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def cmd_stats(args) -> int:
    try:
        p = parse_permutation(args.perm)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    counts = stat_counts(p)
    record = {
        "n": p.n,
        "word": list(p.word),
        "des": des(p),
        "exc": counts.exc,
        "cval": counts.cval,
        "cpk": counts.cpk,
        "cdasc": counts.cdasc,
        "cddes": counts.cddes,
        "fix": counts.fix,
        "cycle_type": list(cycle_type(p).parts),
    }
    if args.cycles:
        record["cycles"] = str(to_cycle_form(p))
    _print_json(record)
    return EXIT_OK


def cmd_orbit(args) -> int:
    try:
        p = parse_permutation(args.perm)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
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
    try:
        spec = ClassSpec.parse(args.spec)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    compute = {"exc": dist_exc, "cval": dist_cval, "joint": dist_joint}[args.stat]
    print(compute(spec))
    return EXIT_OK


def _verify_instances(
    claim: str, n_max: int, lambdas: list[CycleType], cap: int | None
):
    """Yield one JSON record per checked instance of the claim."""
    if claim in ("brenti", "theorem1", "theorem6"):
        closed_form, enumerated = {
            "brenti": (brenti, dist_exc),
            "theorem1": (theorem1_joint, dist_joint),
            "theorem6": (theorem6_cval, dist_cval),
        }[claim]
        for ct in lambdas:
            spec = ClassSpec.of_cycle_type(ct)
            yield VerificationReport(
                claim,
                spec.instance(),
                lhs=closed_form(ct),
                rhs=enumerated(spec, route="enumerate", cap=cap),
            ).to_json_record()
    elif claim == "cor2":
        for ct in lambdas:
            try:
                corollary2_check(ct)
            except GammaExpansionError as err:
                residual = err.residual
            else:
                residual = MultiPoly.zero()
            yield VerificationReport(
                "cor2",
                ClassSpec.of_cycle_type(ct).instance(),
                lhs=residual,
                rhs=MultiPoly.zero(),
            ).to_json_record()
    elif claim == "lemma1":
        for n in range(1, n_max + 1):
            for ct in partitions_of(n):
                for p in iter_class(ClassSpec.of_cycle_type(ct), cap=cap):
                    if stat_sets(p).cdasc_set:
                        continue  # one representative per orbit
                    yield lemma1_check(p).to_json_record()
    elif claim in ("theorem2", "theorem4", "theorem5"):
        check = {
            "theorem2": theorem2_check,
            "theorem4": theorem4_check,
            "theorem5": theorem5_check,
        }[claim]
        for ct in lambdas:
            yield check(ClassSpec.of_cycle_type(ct)).to_json_record()
        if not _explicit_lambda(lambdas, n_max):
            for n in range(1, n_max + 1):
                for k in range(0, n + 1):
                    yield check(ClassSpec.with_fixed_points(n, k)).to_json_record()
    elif claim == "cor3":
        for n in range(1, n_max + 1):
            for k in range(0, n + 1):
                yield corollary3_check(n, k).to_json_record()
    elif claim == "cor4":
        for n in range(1, n_max + 1):
            for k in range(0, n + 1):
                for i in range(0, (n - k) // 2 + 1):
                    yield corollary4_check(n, k, i).to_json_record()
    elif claim == "egf":
        if n_max < 1:
            return
        table = egf_snki(n_max)
        for n in range(1, n_max + 1):
            cells = [(k, i) for k in range(n + 1) for i in range((n - k) // 2 + 1)]
            yield VerificationReport(
                "egf",
                {"n": n},
                lhs=MultiPoly({(k, i): table.get((n, k, i), 0) for k, i in cells}),
                rhs=MultiPoly(
                    {(k, i): count_snki(n, k, i, route="enumerate") for k, i in cells}
                ),
            ).to_json_record()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown claim {claim!r}")


def _explicit_lambda(lambdas: list[CycleType], n_max: int) -> bool:
    """True when the user pinned --lambda rather than ranging over n_max."""
    return len(lambdas) == 1 and lambdas[0].n > 0 and n_max == 0


def cmd_verify(args) -> int:
    try:
        cap = _class_cap()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.lam:
        try:
            lambdas = [CycleType.from_text(args.lam)]
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        n_max = 0
    else:
        n_max = args.n_max
        lambdas = [ct for n in range(0, n_max + 1) for ct in partitions_of(n)]
    claims = list(VERIFY_CLAIMS[:-1]) if args.claim == "all" else [args.claim]
    failures = 0
    unchecked = []
    try:
        for claim in claims:
            checked = 0
            for record in _verify_instances(claim, n_max, lambdas, cap):
                checked += 1
                if record["verdict"] != "pass":
                    failures += 1
                _print_json(record)
            if not checked:
                unchecked.append(claim)
    except ClassTooLargeError as err:
        print(f"class too large: {err}", file=sys.stderr)
        return EXIT_TOO_LARGE
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
        print("error: no table rows in the requested range", file=sys.stderr)
        return EXIT_USAGE
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
        try:
            table = egf_snki(args.n_max)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
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
    p_verify.add_argument("claim", choices=VERIFY_CLAIMS)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
