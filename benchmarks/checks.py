"""Output checks that do not depend on library internals.

Every reference value here is recomputed from the definitions (cycle
walks, letter classification, partition and class-size counting, brute
force over ``itertools.permutations``), or comes from a public route of
the library that shares no code with the route under test (the closed
forms against the enumeration fold, and against each other). Outputs
arrive as plain data -- term dicts and words -- so that the negative
controls in ``test_benchmark.py`` can corrupt them directly.

Each ``check_*`` function returns a list of problem strings; an empty
list means the output is correct.
"""
from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import comb, factorial

Terms = dict[tuple[int, int], int]

# The claim vocabulary of ``cyclestat verify``; ``verify all`` must emit at
# least one record for each, or it passed vacuously.
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
)


# -- combinatorics from the definitions --------------------------------


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n as weakly increasing part tuples."""
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append(tuple(sorted((first,) + rest)))
    return out


def class_size(parts: tuple[int, ...]) -> int:
    """n!/z_lambda with z_lambda = prod i^(m_i) m_i!."""
    z = 1
    for size, mult in Counter(parts).items():
        z *= size**mult * factorial(mult)
    return factorial(sum(parts)) // z


def derangements(m: int) -> int:
    """Permutations of [m] without fixed points."""
    return sum((-1) ** j * factorial(m) // factorial(j) for j in range(m + 1))


def cycles_of(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a one-line word, each listed from its smallest letter."""
    seen = set()
    cycles = []
    for start in range(1, len(word) + 1):
        if start in seen:
            continue
        cycle = []
        a = start
        while a not in seen:
            seen.add(a)
            cycle.append(a)
            a = word[a - 1]
        cycles.append(tuple(cycle))
    return cycles


def letter_stats(word: tuple[int, ...]) -> dict:
    """fix, cval, cdasc, cddes, exc and cycle type straight from the
    definitions: compare each letter with its cycle neighbours."""
    n = len(word)
    pred = [0] * (n + 1)
    for i, a in enumerate(word, start=1):
        pred[a] = i
    stats = Counter()
    for i in range(1, n + 1):
        nxt, prv = word[i - 1], pred[i]
        if nxt == i:
            stats["fix"] += 1
        elif prv > i < nxt:
            stats["cval"] += 1
        elif prv < i < nxt:
            stats["cdasc"] += 1
        elif prv > i > nxt:
            stats["cddes"] += 1
        if i < nxt:
            stats["exc"] += 1
    return {
        "fix": stats["fix"],
        "cval": stats["cval"],
        "cdasc": stats["cdasc"],
        "cddes": stats["cddes"],
        "exc": stats["exc"],
        "type": tuple(sorted(len(c) for c in cycles_of(word))),
    }


def is_permutation(word) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


# -- checks ------------------------------------------------------------


def _t_marginal(joint: Terms) -> dict[int, int]:
    out: Counter = Counter()
    for (_, exc), count in joint.items():
        out[exc] += count
    return {k: v for k, v in out.items() if v}


def _s_marginal(joint: Terms) -> dict[int, int]:
    out: Counter = Counter()
    for (cval, _), count in joint.items():
        out[cval] += count
    return {k: v for k, v in out.items() if v}


def _univariate(terms: Terms, what: str, problems: list[str]) -> dict[int, int]:
    out = {}
    for (ds, dt), c in terms.items():
        if ds:
            problems.append(f"{what}: unexpected s^{ds} term")
        out[dt] = c
    return out


def brute_force_joint(n: int) -> dict[tuple[int, ...], Terms]:
    """{cycle type: {(cval, exc): count}} over all of S_n, by walking
    ``itertools.permutations``; affordable for n <= 7."""
    out: dict[tuple[int, ...], Counter] = {}
    for word in permutations(range(1, n + 1)):
        stats = letter_stats(word)
        out.setdefault(stats["type"], Counter())[stats["cval"], stats["exc"]] += 1
    return {parts: dict(counts) for parts, counts in out.items()}


def check_fold(
    parts: tuple[int, ...],
    joint: Terms,
    brenti: Terms,
    cval: Terms,
    brute: Terms | None = None,
) -> list[str]:
    """``dist_joint`` over one class: size and support, the t-marginal
    against ``brenti``, the s-marginal against ``theorem6_cval``, and,
    when given, every coefficient against brute force."""
    problems = []
    size = class_size(parts)
    if any(not isinstance(c, int) or c <= 0 for c in joint.values()):
        problems.append("non-positive or non-integer coefficient")
    total = sum(joint.values())
    if total != size:
        problems.append(f"coefficient sum {total} != n!/z_lambda = {size}")
    n, fixed = sum(parts), parts.count(1)
    nontrivial = len(parts) - fixed
    for s_deg, t_deg in joint:
        if not nontrivial <= s_deg <= (n - fixed) // 2 or not s_deg <= t_deg:
            problems.append(f"impossible monomial s^{s_deg} t^{t_deg}")
            break
    if _t_marginal(joint) != _univariate(brenti, "brenti", problems):
        problems.append("t-marginal differs from brenti")
    if _s_marginal(joint) != _univariate(cval, "theorem6_cval", problems):
        problems.append("s-marginal differs from theorem6_cval")
    if brute is not None and joint != brute:
        problems.append("differs from brute-force enumeration")
    return problems


def check_series(
    parts: tuple[int, ...], joint: Terms, cval: Terms, brenti: Terms
) -> list[str]:
    """theorem1_joint, theorem6_cval and brenti on one class agree."""
    problems = []
    size = class_size(parts)
    if sum(joint.values()) != size:
        problems.append(f"theorem1_joint coefficient sum != {size}")
    brenti_t = _univariate(brenti, "brenti", problems)
    if sum(brenti_t.values()) != size:
        problems.append(f"brenti coefficient sum != {size}")
    if _t_marginal(joint) != brenti_t:
        problems.append("theorem1_joint at s=1 differs from brenti")
    if _s_marginal(joint) != _univariate(cval, "theorem6_cval", problems):
        problems.append("theorem6_cval differs from the cval marginal of theorem1_joint")
    return problems


def check_egf(n_max: int, table: dict[tuple[int, int, int], int]) -> list[str]:
    """Each (n, k) row of the table sums over i to C(n,k) D_(n-k)."""
    problems = []
    rows: Counter = Counter()
    for (n, k, i), count in table.items():
        if not (1 <= n <= n_max and 0 <= k <= n and 0 <= i <= (n - k) // 2):
            problems.append(f"entry ({n},{k},{i}) out of range")
        if count < 0:
            problems.append(f"negative count at ({n},{k},{i})")
        rows[n, k] += count
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            want = comb(n, k) * derangements(n - k)
            if rows[n, k] != want:
                problems.append(f"row n={n}, k={k} sums to {rows[n, k]}, not {want}")
    return problems


def check_orbit(
    word: tuple[int, ...],
    members: list[tuple[int, ...]],
    representative: tuple[int, ...],
    size: int,
    cval: int,
    fix: int,
    psi_cases: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
) -> list[str]:
    """One orbit report and the psi images of its seed permutation.

    ``psi_cases`` holds (letters, psi(word, letters), psi(that, letters)).
    """
    problems = []
    base = letter_stats(word)
    invariant = (base["cval"], base["fix"], base["type"])
    expected = 2 ** (len(word) - base["fix"] - 2 * base["cval"])
    if (cval, fix) != (base["cval"], base["fix"]):
        problems.append("reported cval/fix differ from the oracle")
    if size != expected or len(members) != expected:
        problems.append(f"orbit size {size} / {len(members)} members, expected {expected}")
    if len(set(members)) != len(members):
        problems.append("repeated orbit member")
    if word not in members:
        problems.append("the seed permutation is not in its orbit")
    no_dasc = 0
    for member in members:
        if len(member) != len(word) or not is_permutation(member):
            problems.append(f"member {member} is not a permutation of [n]")
            continue
        stats = letter_stats(member)
        if (stats["cval"], stats["fix"], stats["type"]) != invariant:
            problems.append(f"member {member} changes cval, fix or cycle type")
        no_dasc += stats["cdasc"] == 0
    if no_dasc != 1:
        problems.append(f"{no_dasc} members without cyclic double ascents, expected 1")
    if representative not in members or letter_stats(representative)["cdasc"]:
        problems.append("representative is not the no-double-ascent member")
    for letters, image, back in psi_cases:
        stats = letter_stats(image) if is_permutation(image) else None
        if stats is None or (stats["cval"], stats["fix"], stats["type"]) != invariant:
            problems.append(f"psi on {letters} changes cval, fix or cycle type")
        if back != word:
            problems.append(f"psi on {letters} is not an involution")
    return problems


def check_verify(exit_code, records: list[dict]) -> list[str]:
    """A ``verify all`` run: exit 0, every record passes, no claim empty.

    Problems with one record are labelled ``record <index>``; problems
    with the run as a whole are labelled ``run``.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"run: exit code {exit_code}")
    per_claim = Counter(r.get("claim") for r in records)
    for claim in VERIFY_CLAIMS:
        if not per_claim[claim]:
            problems.append(f"run: claim {claim} emitted no records")
    for index, record in enumerate(records):
        if record.get("verdict") != "pass":
            problems.append(f"record {index}: {record.get('claim')} {record.get('verdict')}")
    return problems
