"""Mutation runner: does tier-1 catch a deliberate fault?

Each catalogue entry names a file, a snippet of its text, the text that
replaces it, and the expected outcome: ``killed`` (some tier-1 test must
fail) or ``equivalent`` (the mutant computes the same results, for the
reason given). For each entry the runner copies the repository to a
temporary directory, applies the mutant there and runs tier-1 with
``-x``; the working tree is never modified.

    python3 tests/mutation/run.py

prints one line per mutant, with the first test that killed it, then
the killed, survived and equivalent counts. The exit status is 0 when
every mutant behaved as the catalogue expects, 1 otherwise. pytest does
not collect this file, so tier-1 never runs it.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
)
TIMEOUT_S = 900  # a suite that hangs on a mutant counts as killing it


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    expect: str  # "killed" or "equivalent"
    reason: str


CATALOGUE = (
    Mutant(
        "theorem2-orbit-size",
        "src/cyclestat/formulas.py",
        "2 ** (n - k - 2 * cval)",
        "2 ** (n - k - cval)",
        "killed",
        "the orbit of a member with i cyclic valleys has 2^(n-k-2i) members",
    ),
    Mutant(
        "theorem5-one-sided-scale",
        "src/cyclestat/formulas.py",
        "rhs=report.rhs * scale",
        "rhs=report.rhs",
        "killed",
        "Theorem 5 clears both sides by 2^(n-k)",
    ),
    Mutant(
        "cor3-no-double-ascent-reading",
        "src/cyclestat/formulas.py",
        '_reconstruction_check("cor3", spec, theorem2_gamma(spec).by_orbit_scaling)',
        '_reconstruction_check("cor3", spec, theorem2_gamma(spec).by_no_double_ascent)',
        "equivalent",
        "both readings give the same polynomial whenever Theorem 2 holds",
    ),
    Mutant(
        "theorem2-readings-unchecked",
        "src/cyclestat/formulas.py",
        "if data.by_no_double_ascent != data.by_orbit_scaling:",
        "if False:",
        "killed",
        "Theorem 2 requires the two gamma readings to agree",
    ),
    Mutant(
        "main-bad-input-exit-fail",
        "src/cyclestat/cli.py",
        'print(f"error: {err}", file=sys.stderr)\n        return EXIT_USAGE',
        'print(f"error: {err}", file=sys.stderr)\n        return EXIT_FAIL',
        "killed",
        "bad input exits 2; 1 is kept for a failed check",
    ),
    Mutant(
        "snki-empty-range-calls-egf",
        "src/cyclestat/cli.py",
        "egf_snki(args.n_max) if args.n_max >= 1 else {}",
        "egf_snki(args.n_max)",
        "killed",
        "table snki --n-max 0 is an empty table, not a traceback",
    ),
    Mutant(
        "formulas-private-import",
        "src/cyclestat/formulas.py",
        "from .enumeration import (\n",
        "from .enumeration import (\n    _class_counts,\n",
        "killed",
        "formulas must not import private enumeration names",
    ),
    Mutant(
        "scalar-product-drops-order",
        "src/cyclestat/algebra.py",
        "return self._new(\n                {key: value * other",
        "return MultiPoly(\n                {key: value * other",
        "killed",
        "a series times a scalar is a series at the same order",
    ),
    Mutant(
        "extract-s-divides-by-t",
        "src/cyclestat/algebra.py",
        "self._divided(1, 0)",
        "self._divided(0, 1)",
        "killed",
        "extract_s_factor divides by s",
    ),
    Mutant(
        "gamma-term-exponent",
        "src/cyclestat/algebra.py",
        "_ONE_PLUS_T ** (m - 2 * i)",
        "_ONE_PLUS_T ** (m - i)",
        "killed",
        "the gamma basis is t^i (1+t)^(m-2i)",
    ),
    Mutant(
        "guardrail-at-cap",
        "src/cyclestat/enumeration.py",
        "if members > cap:",
        "if members >= cap:",
        "killed",
        "a class or orbit of exactly the cap is allowed",
    ),
    Mutant(
        "stratum-label-separator",
        "src/cyclestat/enumeration.py",
        'return ",".join(f"{key}={value}"',
        'return ";".join(f"{key}={value}"',
        "killed",
        "a stratum prints as the text ClassSpec.parse reads back",
    ),
    Mutant(
        "parse-drops-cval",
        "src/cyclestat/enumeration.py",
        'cval=fields.get("i")',
        "cval=None",
        "killed",
        "n=..,k=..,i=.. names a cell, not its stratum",
    ),
    Mutant(
        "memo-key-ignores-counts",
        "src/cyclestat/formulas.py",
        "lhs, rhs = _cleared_sides(m, frozenset(counts.items()))",
        "lhs, rhs = _cleared_sides.__dict__.setdefault("
        "m, _cleared_sides(m, frozenset(counts.items())))",
        "killed",
        "the cleared sides depend on the measured counts, not on m alone",
    ),
    Mutant(
        "stat-counts-wrong-list",
        "src/cyclestat/permutations.py",
        "return StatCounts(*map(len, _letter_classes(p)))",
        "exc, cval, cpk, cdasc, cddes, fix = map(len, _letter_classes(p))\n"
        "    return StatCounts(exc, cval, cpk, cdasc, cdasc, fix)",
        "killed",
        "each count is the length of its own class's list",
    ),
    Mutant(
        "cycle-dp-descent-slot",
        "src/cyclestat/enumeration.py",
        "((cpk, cdasc, cddes + 1), cpk),",
        "((cpk, cdasc, cddes + 1), cddes),",
        "killed",
        "a new double descent comes from a slot just before a peak",
    ),
    Mutant(
        "sqrt-cross-weight",
        "src/cyclestat/algebra.py",
        "_convolve(acc, g[i], g[d - i], -2)",
        "_convolve(acc, g[i], g[d - i], -1)",
        "killed",
        "each unequal pair g_i g_(d-i) occurs twice in the square",
    ),
    Mutant(
        "inverse-one-term-short",
        "src/cyclestat/algebra.py",
        "for i in range(1, d + 1):",
        "for i in range(1, d):",
        "killed",
        "the inverse's degree-d part sums f_i g_(d-i) up to i = d",
    ),
    Mutant(
        "brenti-multinomial-no-mult-factorial",
        "src/cyclestat/formulas.py",
        "denominator *= factorial(size) ** mult * factorial(mult)",
        "denominator *= factorial(size) ** mult",
        "killed",
        "equal cycles are unordered: the multinomial divides by m_i!",
    ),
    Mutant(
        "gamma-expand-one-short",
        "src/cyclestat/algebra.py",
        "for i in range(m // 2 + 1):",
        "for i in range(m // 2):",
        "killed",
        "a gamma expansion about m/2 has floor(m/2) + 1 terms",
    ),
    Mutant(
        "clean-order-boundary",
        "src/cyclestat/algebra.py",
        "if key[0] + key[1] > order:",
        "if key[0] + key[1] >= order:",
        "killed",
        "a series of order d keeps its terms of total degree d",
    ),
    Mutant(
        "verify-failed-check-exit-usage",
        "src/cyclestat/cli.py",
        "if failures:\n        return EXIT_FAIL",
        "if failures:\n        return EXIT_USAGE",
        "killed",
        "a failed check exits 1; 2 is kept for bad input",
    ),
    Mutant(
        "thm1-headroom-2",
        "src/cyclestat/formulas.py",
        "_theorem1_series(ct.n + 4)",
        "_theorem1_series(ct.n + 2)",
        "killed",
        "Theorem 1's product must keep a degree above n for the residue check",
    ),
    Mutant(
        "thm6-headroom-1",
        "src/cyclestat/formulas.py",
        "_theorem6_series(ct.n + 4)",
        "_theorem6_series(ct.n + 1)",
        "killed",
        "Theorem 6's product must keep a degree above n for the residue check",
    ),
    Mutant(
        "thm1-to-poly-slack",
        "src/cyclestat/formulas.py",
        'result.to_poly(ct.n), "theorem1_joint"',
        'result.to_poly(ct.n + 1), "theorem1_joint"',
        "killed",
        "the joint distribution of a class of n letters has total degree <= n",
    ),
    Mutant(
        "orbit-size-by-walk",
        "src/cyclestat/hopping.py",
        "size=len(words),",
        "size=walk,",
        "killed",
        "an orbit's size counts the distinct members the walk meets",
    ),
    Mutant(
        "orbit-counts-every-step",
        "src/cyclestat/hopping.py",
        "if len(words) > met:",
        "if True:",
        "killed",
        "Lemma 1's counts are of the distinct members the walk meets, not "
        "of its steps",
    ),
    Mutant(
        "valley-tables-keep-all",
        "src/cyclestat/enumeration.py",
        "c == e for c, e",
        "c <= e for c, e",
        "killed",
        "an orbit representative has no cyclic double ascent: exc = cval",
    ),
    Mutant(
        "orbit-representative-step-early",
        "src/cyclestat/hopping.py",
        "range(1, at + 1), words)\n"
        "    representative = Permutation._trusted(tuple(nxt[1:]))\n"
        "    _walk(nxt, prv, toggles, range(at + 1, walk), words)",
        "range(1, at), words)\n"
        "    representative = Permutation._trusted(tuple(nxt[1:]))\n"
        "    _walk(nxt, prv, toggles, range(at, walk), words)",
        "killed",
        "the walk meets the representative at the inverse Gray code of the "
        "double ascents' mask, not a step earlier",
    ),
    Mutant(
        "cycle-tables-stats-swapped",
        "src/cyclestat/enumeration.py",
        "pairs[0::2], pairs[1::2]",
        "pairs[1::2], pairs[0::2]",
        "killed",
        "the cycle tables list cval, then exc",
    ),
    Mutant(
        "core-cut-one-short",
        "src/cyclestat/formulas.py",
        "part.order - min(map(sum, part._terms))",
        "part.order - min(map(sum, part._terms)) - 1",
        "killed",
        "the core power is needed up to the product's order less the lowest "
        "degree of the Eulerian part, not a degree less",
    ),
    Mutant(
        "power-table-shift",
        "src/cyclestat/formulas.py",
        "in powers[j]._terms.items():",
        "in powers[j - 1]._terms.items():",
        "killed",
        "A_d(x) = sum_j c_j x^j reads x^j from the power table",
    ),
    Mutant(
        "packed-width-order",
        "src/cyclestat/algebra.py",
        "width = order + 1",
        "width = order",
        "killed",
        "a term within the order has t-degree up to the order, so the packing "
        "width must exceed it; a width of order loses the top degree",
    ),
    Mutant(
        "power-recurrence-weight",
        "src/cyclestat/algebra.py",
        "(k + 1) * i - d",
        "k * i - d",
        "killed",
        "the Euler operator gives d c g_d = sum ((k+1) i - d) f_i g_(d-i)",
    ),
    Mutant(
        "power-recurrence-divisor",
        "src/cyclestat/algebra.py",
        "_quotient(value, d * c)",
        "_quotient(value, d)",
        "killed",
        "the recurrence divides by d times the constant term, which is 2 in "
        "Theorem 6's core and a Fraction in the power tests",
    ),
    Mutant(
        "first-difference-order",
        "src/cyclestat/formulas.py",
        "for key in sorted(lhs._terms.keys() | rhs._terms.keys()):",
        "for key in sorted(lhs._terms.keys() | rhs._terms.keys(), reverse=True):",
        "killed",
        "the witness is the first differing coefficient in monomial order",
    ),
    Mutant(
        "lemma1-profile-exponent",
        "src/cyclestat/formulas.py",
        "* (one + s) ** (2 * cval)",
        "* (one + s) ** cval",
        "killed",
        "each cyclic valley contributes (1+s)^2 to the cleared right side",
    ),
    Mutant(
        "validate-word-duplicates",
        "src/cyclestat/permutations.py",
        "if seen[letter]:",
        "if False:",
        "killed",
        "a word with a repeated letter is not a permutation",
    ),
    Mutant(
        "egf-denominator-sign",
        "src/cyclestat/formulas.py",
        "return power if j % 2 == 0 else -power",
        "return power",
        "killed",
        "the odd terms of the EGF denominator come from -sinh and are negative",
    ),
)

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: text to mutate not found once in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tier1(root: Path) -> tuple[bool, str | None]:
    """(passed, first failing test) of tier-1 with -x in ``root``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + os.pathsep + path if path else "src")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--continue-on-collection-errors",
    ]
    try:
        done = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, None
    match = FAILED.search(done.stdout)
    return False, match.group(1) if match else f"exit {done.returncode}"


def main() -> int:
    start = time.perf_counter()
    tally = {"killed": 0, "survived": 0, "equivalent": 0}
    unexpected = 0
    for mutant in CATALOGUE:
        with tempfile.TemporaryDirectory(prefix="cyclestat-mutant-") as tmp:
            root = Path(tmp) / "repo"
            shutil.copytree(ROOT, root, ignore=IGNORED)
            apply(mutant, root)
            passed, killer = run_tier1(root)
        if not passed:
            outcome = "killed"
        elif mutant.expect == "equivalent":
            outcome = "equivalent"
        else:
            outcome = "survived"
        tally[outcome] += 1
        unexpected += outcome != mutant.expect
        detail = f"by {killer}" if killer else mutant.reason
        print(f"{outcome:10} {mutant.name}: {detail}", flush=True)
    wall = time.perf_counter() - start
    print(
        f"killed {tally['killed']}, survived {tally['survived']}, "
        f"equivalent {tally['equivalent']}; {unexpected} unexpected; {wall:.1f} s"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
