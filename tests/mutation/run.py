"""Mutation runner: does tier-1 catch a deliberate fault?

Each catalogue entry names a file, a snippet of its text, the text that
replaces it, and the expected outcome: ``killed`` (some tier-1 test must
fail) or ``equivalent`` (the mutant computes the same results, for the
reason given). For each entry the runner copies the repository to a
temporary directory, applies the mutant there and runs tier-1 with
``-x``, less ``tests/test_mutation_catalogue.py``, which checks this
catalogue against the unmutated tree; the working tree is never
modified.

    python3 tests/mutation/run.py [NAME ...]

runs the named entries, or every entry when no name is given, and
prints one line per mutant, with the first test that killed it, then
the killed, survived and equivalent counts. An unknown name stops the
run before any mutant is tried. The exit status is 0 when every mutant
behaved as the catalogue expects, 1 otherwise. pytest does not collect
this file, so tier-1 never runs it.
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
# Any applied mutant fails this file's check of the catalogue.
CATALOGUE_TEST = "tests/test_mutation_catalogue.py"


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
        "(data.by_orbit_scaling, _closed_form_gammas(spec))",
        "(_closed_form_gammas(spec),)",
        "killed",
        "Theorem 2 requires the two gamma readings to agree",
    ),
    Mutant(
        "theorem2-closed-form-unchecked",
        "src/cyclestat/formulas.py",
        "(data.by_orbit_scaling, _closed_form_gammas(spec))",
        "(data.by_orbit_scaling,)",
        "killed",
        "Theorem 2 requires the no-double-ascent counts to be the Q_a of the "
        "closed form, summed over the spec's classes",
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
        "table-gamma-reads-q-late",
        "src/cyclestat/cli.py",
        "joint.coefficient(a, a)",
        "joint.coefficient(a + 1, a + 1)",
        "killed",
        "table gamma publishes Q_a, the coefficient of s^a t^a in Theorem 1",
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
        "((cpk, cdasc), cpk),",
        "((cpk, cdasc), j - cdasc - 2 * cpk),",
        "killed",
        "a new double descent comes from a slot just before a peak",
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
        "verify-failed-check-exit-usage",
        "src/cyclestat/cli.py",
        "if failures:\n        return EXIT_FAIL",
        "if failures:\n        return EXIT_USAGE",
        "killed",
        "a failed check exits 1; 2 is kept for bad input",
    ),
    Mutant(
        "catalan-negative-binomial-sign",
        "src/cyclestat/formulas.py",
        "(-1) ** k * comb(k - top - 1, k)",
        "comb(k - top - 1, k)",
        "killed",
        "binom(N, k) with N < 0 is (-1)^k binom(k - N - 1, k); every Q_a with "
        "a <= K/2 reads it",
    ),
    Mutant(
        "residue-range-one-short",
        "src/cyclestat/formulas.py",
        "for a in range(len(p) + 2)",
        "for a in range(len(p) + 1)",
        "killed",
        "the residue check reads every Q_a up to a = deg P + 2",
    ),
    Mutant(
        "residue-start-one-high",
        "src/cyclestat/formulas.py",
        "for a in range(k // 2 + 1, len(q)):",
        "for a in range(k // 2 + 2, len(q)):",
        "killed",
        "a class has at most K/2 cyclic valleys, so Q_a must vanish from "
        "a = K/2 + 1 on, not only from a degree higher",
    ),
    Mutant(
        "theorem6-power-of-two-shift",
        "src/cyclestat/formulas.py",
        "c * 2 ** (k - 2 * a)",
        "c * 2 ** (k - a)",
        "killed",
        "Theorem 6 is sum_a Q_a 2^K x^a at x = t/4, so Q_a 2^(K-2a) t^a",
    ),
    Mutant(
        "theorem1-one-plus-t-exponent",
        "src/cyclestat/formulas.py",
        "c * comb(k - 2 * a, i)",
        "c * comb(k - a, i)",
        "killed",
        "z^a (1+t)^K = s^a t^a (1+t)^(K-2a) with z = st/(1+t)^2",
    ),
    Mutant(
        "orbit-size-by-walk",
        "src/cyclestat/hopping.py",
        "size=len(distinct),",
        "size=len(words),",
        "killed",
        "an orbit's size counts the distinct members the walk meets, not "
        "its steps",
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
        "representative=Permutation._trusted(words[at]),",
        "representative=Permutation._trusted(words[at - 1]),",
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
        "eulerian-row-unshifted",
        "src/cyclestat/formulas.py",
        "row[j] = c",
        "row[j - 1] = c",
        "killed",
        "A_d(X) = sum_j c_j X^(j+1) for d >= 1, where c_j counts the "
        "permutations of [d] with j descents: its lowest term is X, not 1",
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
        "relink-before-y",
        "src/cyclestat/hopping.py",
        "c = nxt[y]\n    nxt[y], prv[x], nxt[x], prv[c] = x, y, c, x",
        "c = prv[y]\n    nxt[c], prv[x], nxt[x], prv[y] = x, c, y, x",
        "killed",
        "a hopping letter is put back just after the letter y, not just before it",
    ),
    Mutant(
        "default-class-cap",
        "src/cyclestat/enumeration.py",
        "DEFAULT_CLASS_CAP = 10**8",
        "DEFAULT_CLASS_CAP = 10**12",
        "killed",
        "the default cap is the 10^8 members README and the CLI give; above "
        "2^38 it would let the walk of a 40-cycle's orbit start",
    ),
    Mutant(
        "orbit-members-unsorted",
        "src/cyclestat/hopping.py",
        "dict.fromkeys(sorted(words))",
        "dict.fromkeys(words)",
        "killed",
        "an orbit's members are sorted by word, not in the walk's nearly "
        "sorted order",
    ),
    Mutant(
        "bulk-wrap-words-misaligned",
        "src/cyclestat/permutations.py",
        "for _ in map(_set_word, members, words):",
        "for _ in map(_set_word, members[::-1], words):",
        "killed",
        "the bulk wrap pairs each word with its own member, in order, so the "
        "members it returns keep the words' order",
    ),
    Mutant(
        "cycle-tables-valley-pattern",
        "src/cyclestat/enumeration.py",
        'up.count(b"\\0\\1")',
        'up.count(b"\\1\\0")',
        "killed",
        "a cyclic valley is a descent into an ascent, a 01 of the ascent "
        "string; counting 10 keeps every class's distribution (reversing "
        "and complementing an order swaps them) but not each order's",
    ),
    Mutant(
        "egf-denominator-sign",
        "src/cyclestat/formulas.py",
        "(-1) ** (i + j % 2) * comb(j // 2, i)",
        "(-1) ** i * comb(j // 2, i)",
        "killed",
        "the odd terms of the EGF denominator come from -sinh and are negative",
    ),
    Mutant(
        "egf-exp-minus-x-unsigned",
        "src/cyclestat/formulas.py",
        "[(-1) ** j]",
        "[1]",
        "killed",
        "the fixed points leave through e^(-x), whose j!-scaled coefficients "
        "alternate in sign; without the signs the rows solve D d = e^x",
    ),
    Mutant(
        "eulerian-triangle-weights",
        "src/cyclestat/algebra.py",
        "(j + 1) * prev[j + 1] + (n - j) * prev[j]",
        "(n - j) * prev[j + 1] + (j + 1) * prev[j]",
        "killed",
        "a permutation of [n - 1] with j descents gives j + 1 of [n] with j "
        "descents, and one with j - 1 descents gives n - j",
    ),
    Mutant(
        "scalar-product-replaces-coefficients",
        "src/cyclestat/algebra.py",
        "MultiPoly({key: value * other for key, value in self._terms.items()})",
        "MultiPoly({key: other for key in self._terms})",
        "killed",
        "a polynomial times a scalar scales each coefficient",
    ),
    Mutant(
        "add-drops-right-operand",
        "src/cyclestat/algebra.py",
        "terms[key] = terms.get(key, 0) + value\n        return MultiPoly(terms)",
        "terms[key] = terms.get(key, 0) + value\n        return MultiPoly(self._terms)",
        "killed",
        "a sum holds the terms of both operands",
    ),
    Mutant(
        "clean-keeps-zero-terms",
        "src/cyclestat/algebra.py",
        "        if value:\n            out[key] = value",
        "        out[key] = value",
        "killed",
        "a polynomial stores no zero term, so a difference that cancels is zero",
    ),
    Mutant(
        "extract-t-accepts-constant",
        "src/cyclestat/algebra.py",
        "if any(b < 1 for _, b in self._terms):",
        "if any(b < 0 for _, b in self._terms):",
        "killed",
        "only a polynomial whose every term has a factor t divides by t",
    ),
    Mutant(
        "class-walk-word-drops-a-cycle",
        "src/cyclestat/enumeration.py",
        "_word_from_cycles(head, spec.n)",
        "_word_from_cycles(head[1:], spec.n)",
        "killed",
        "the class walk wraps its members unvalidated, so a word that is no "
        "permutation (zeros where a cycle's letters belong) must fail a test",
    ),
    Mutant(
        "block-word-drops-fixed-tail",
        "src/cyclestat/permutations.py",
        "word = list(range(1, n + 1))",
        "word = [0] * n",
        "killed",
        "a block's base word maps each letter in no long cycle to itself; "
        "left at 0, the unvalidated member is no permutation",
    ),
    Mutant(
        "block-counts-drop-prefix",
        "src/cyclestat/enumeration.py",
        "map(exc.__add__, excs)",
        "excs",
        "killed",
        "each key of a block adds the prefix's excedances to its last long "
        "cycle's",
    ),
    Mutant(
        "claim-row-theorem5-drops-strata",
        "src/cyclestat/formulas.py",
        '"theorem5": (_classes_then_strata, theorem5_check),',
        '"theorem5": (_classes, theorem5_check),',
        "killed",
        "Theorem 5 is checked on each class and then on each (n, k) stratum",
    ),
    Mutant(
        "claim-cells-one-short",
        "src/cyclestat/formulas.py",
        "for i in range((n - k) // 2 + 1)]",
        "for i in range((n - k) // 2)]",
        "killed",
        "a stratum of n letters with k fixed points has cells i = 0, ..., "
        "(n - k) // 2, so the largest valley count is checked too",
    ),
    Mutant(
        "claim-row-egf-from-two",
        "src/cyclestat/formulas.py",
        '"egf": (_lengths, _egf_check),',
        '"egf": (lambda n_max, lambdas: range(2, n_max + 1), _egf_check),',
        "killed",
        "the EGF table is checked from n = 1",
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
        "--continue-on-collection-errors", "--ignore", CATALOGUE_TEST,
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


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in CATALOGUE})
    if unknown:
        raise SystemExit(f"no catalogue entry named {', '.join(unknown)}")
    start = time.perf_counter()
    tally = {"killed": 0, "survived": 0, "equivalent": 0}
    unexpected = 0
    for mutant in CATALOGUE:
        if names and mutant.name not in names:
            continue
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
    sys.exit(main(sys.argv[1:]))
