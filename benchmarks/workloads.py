"""The four workloads: seeded inputs, one timed pass, output checks.

Each workload is chosen so that one layer of the library does nearly all
of the work and the others nearly none (see README.md for the reasons
and the per-layer predictions). Inputs are plain tuples generated here
from the seed; the library receives only those inputs. Everything that
varies with the seed is stratified so that the amount of work in a pass
stays nearly the same from seed to seed, which keeps run-to-run spread
small.

A pass returns per-instance latencies, raw outputs and per-instance
errors. Checking happens afterwards, outside the timed region.

A pass also times a short fixed reference loop at its start and end and
every REF_EVERY_S in between, from a timer signal (SpeedProbe). The
hosts this runs on change speed by up to 2x, often for seconds at a
time; run.py divides each instance's latency by the reference loop's
time around it, which takes most of that change out.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import checks


REF_LOOP_ITERATIONS = 6_000  # 1 to 2 ms
REF_EVERY_S = 0.02
# Built once: tuples are objects the collector tracks, and a loop that made
# them would move the library's collections with every run of it.
_REF_KEYS = [(i % 97, i % 89) for i in range(REF_LOOP_ITERATIONS)]


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now: a dict of a few
    thousand small-tuple keys filled with int arithmetic, the kind of
    work the library does."""
    start = perf_counter()
    counts: dict = {}
    for i, key in enumerate(_REF_KEYS):
        counts[key] = counts.get(key, 0) + i * 3 // 7
    return perf_counter() - start


class SpeedProbe:
    """Times the reference loop when a pass starts and ends and, with
    ``timer``, every REF_EVERY_S of wall time from a SIGALRM handler, so
    also in the middle of a long instance.

    ``settle`` takes the probes' own time out of the instances they
    interrupted, and gives each instance the reference time that scales
    it: each stretch of the instance between probes counts at the mean
    loop time of the two probes around that stretch. Scaling a whole long
    instance by the probes just before and after it follows the machine
    worse than not scaling at all."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def __enter__(self):
        self._probe()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _on_timer(self, signum, frame):
        self._probe()

    def _probe(self) -> None:
        start = perf_counter()
        ref = reference_loop()
        self.starts.append(start)
        self.refs.append(ref)
        self.ends.append(perf_counter())

    def settle(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """For each (start, end) instance in time order, inside the
        ``with`` block: its time without the probes, and its reference
        time."""
        latencies, refs = [], []
        j = 0
        for t0, t1 in spans:
            while self.starts[j] < t0:
                j += 1
            k = j
            while self.starts[k] < t1:
                k += 1
            # Probes j..k-1 ran inside; probe j-1 is the last one before,
            # probe k the first one after (the entry and exit probes make
            # sure both exist).
            edges = [t0] + [t for i in range(j, k) for t in (self.starts[i], self.ends[i])] + [t1]
            around = self.refs[j - 1 : k + 1]
            work = scaled = 0.0
            for m in range(k - j + 1):
                stretch = edges[2 * m + 1] - edges[2 * m]
                work += stretch
                scaled += stretch / ((around[m] + around[m + 1]) / 2)
            latencies.append(work)
            refs.append(work / scaled if scaled > 0 else (around[0] + around[-1]) / 2)
        return latencies, refs


@dataclass
class PassResult:
    """``wall_s`` is the pass's time without the reference loops;
    ``ref_loop_s`` has the reference time that scales each instance
    (SpeedProbe.settle)."""

    wall_s: float
    latencies_s: list[float]
    ref_loop_s: list[float]
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _timed_calls(calls: list[Callable[[], object]], timer: bool) -> PassResult:
    spans, outputs, errors = [], [], []
    with SpeedProbe(timer) as probe:
        for call in calls:
            t0 = perf_counter()
            try:
                out, err = call(), None
            except Exception as exc:  # an instance that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            spans.append((t0, perf_counter()))
            outputs.append(out)
            errors.append(err)
    latencies, refs = probe.settle(spans)
    return PassResult(sum(latencies), latencies, refs, outputs, errors)


def _terms(poly) -> dict[tuple[int, int], int]:
    """Plain {(deg_s, deg_t): int} from a MultiPoly's public terms."""
    out = {}
    for key, value in poly.terms.items():
        out[key] = int(value) if value.denominator == 1 else value
    return out


def failed_count(inputs, problems) -> int:
    """Instances with at least one problem (problems are prefixed by the
    instance's label)."""
    labels = {problem.split(":", 1)[0] for problem in problems}
    return sum(1 for item in inputs if str(item) in labels)


# -- fold --------------------------------------------------------------

SHOWCASE = (1, 5, 5)  # README's 798,336-member class
FOLD_SMALL_N = 9
FOLD_BRUTE_N = 7  # classes this small are also checked coefficient by coefficient
FOLD_BAND = (10_000, 20_000)  # member counts of the drawn S_10/S_11 classes


def fold_band() -> list[tuple[int, ...]]:
    """S_10/S_11 classes with member counts inside FOLD_BAND, by size."""
    lo, hi = FOLD_BAND
    band = [
        parts
        for n in (10, 11)
        for parts in checks.partitions(n)
        if lo <= checks.class_size(parts) <= hi
    ]
    return sorted(band, key=lambda p: (checks.class_size(p), p))


def fold_inputs(seed: int) -> list[tuple[int, ...]]:
    """Every class of S_n for n <= 9, one class drawn from each pair of
    size-adjacent band classes (stratified, so the member total and the
    largest latencies hardly move with the seed), and the showcase.

    The order is fixed: instances this small (the median one takes a few
    milliseconds) change latency with what ran before them, so a seeded
    order would add spread between seeds that is not the library's."""
    rng = random.Random(seed)
    classes = [p for n in range(1, FOLD_SMALL_N + 1) for p in checks.partitions(n)]
    band = fold_band()
    strata = [band[i : i + 2] for i in range(0, len(band) - 1, 2)]
    if len(band) % 2:
        strata[-1].append(band[-1])
    classes += [rng.choice(stratum) for stratum in strata]
    classes.append(SHOWCASE)
    return classes


class Fold:
    name = "fold"

    def make_inputs(self, seed):
        return fold_inputs(seed)

    def prepare(self, cs, inputs):
        specs = [cs.ClassSpec.of_cycle_type(cs.CycleType(p)) for p in inputs]
        return [lambda spec=spec: cs.dist_joint(spec) for spec in specs]

    def timed_pass(self, cs, prepared, timer=True):
        return _timed_calls(prepared, timer)

    def check(self, cs, inputs, result):
        brute = {}
        for n in range(1, FOLD_BRUTE_N + 1):
            brute.update(checks.brute_force_joint(n))
        problems = []
        for parts, out, err in zip(inputs, result.outputs, result.errors):
            if err:
                problems.append(f"{parts}: {err}")
                continue
            ct = cs.CycleType(parts)
            found = checks.check_fold(
                parts,
                _terms(out),
                _terms(cs.brenti(ct)),
                _terms(cs.theorem6_cval(ct)),
                brute.get(parts),
            )
            problems += [f"{parts}: {p}" for p in found]
        return len(inputs), failed_count(inputs, problems), problems

    def sizes(self, inputs):
        return {
            "classes": len(inputs),
            "members": sum(checks.class_size(p) for p in inputs),
            "max_n": max(sum(p) for p in inputs),
        }


# -- series ------------------------------------------------------------

SERIES_N = range(11, 17)
SERIES_PER_N = 6
SERIES_EGF_N_MAX = 17  # fixed: one table per pass, the same work on every seed
SERIES_ROUTES = ("theorem1_joint", "theorem6_cval", "brenti")


def series_cost(parts: tuple[int, ...]) -> tuple[int, int]:
    """Sort key for the closed forms' work on one class beyond what n sets:
    each distinct part size i adds an Eulerian substitution of degree
    i - 1, and the fixed points shorten the core power."""
    return (sum(size - 1 for size in set(parts)), -parts.count(1))


def series_inputs(seed: int) -> list[tuple[str, object]]:
    """SERIES_PER_N distinct cycle types for each n in SERIES_N, one from
    each cost stratum of the partitions of n (so the work per pass hardly
    moves with the seed), each run through the three closed forms, plus
    one EGF table; seeded order."""
    rng = random.Random(seed)
    items: list[tuple[str, object]] = []
    for n in SERIES_N:
        ranked = sorted(checks.partitions(n), key=lambda p: (series_cost(p), p))
        width = len(ranked) / SERIES_PER_N
        for j in range(SERIES_PER_N):
            parts = rng.choice(ranked[round(j * width) : round((j + 1) * width)])
            items += [(route, parts) for route in SERIES_ROUTES]
    items.append(("egf_snki", SERIES_EGF_N_MAX))
    rng.shuffle(items)
    return items


class Series:
    name = "series"

    def make_inputs(self, seed):
        return series_inputs(seed)

    def prepare(self, cs, inputs):
        calls = []
        for route, arg in inputs:
            arg = arg if route == "egf_snki" else cs.CycleType(arg)
            # Look the route up at call time, so that layer wrappers apply.
            calls.append(lambda route=route, arg=arg: getattr(cs, route)(arg))
        return calls

    def timed_pass(self, cs, prepared, timer=True):
        return _timed_calls(prepared, timer)

    def check(self, cs, inputs, result):
        problems = []
        by_class: dict = {}
        for (route, arg), out, err in zip(inputs, result.outputs, result.errors):
            label = str((route, arg))
            if err:
                problems.append(f"{label}: {err}")
            elif route == "egf_snki":
                problems += [f"{label}: {p}" for p in checks.check_egf(arg, out)]
            else:
                by_class.setdefault(arg, {})[route] = _terms(out)
        for parts, outs in by_class.items():
            if len(outs) < len(SERIES_ROUTES):
                continue  # a route raised; already counted
            found = checks.check_series(
                parts, outs["theorem1_joint"], outs["theorem6_cval"], outs["brenti"]
            )
            # A disagreement cannot be pinned on one route: all three fail.
            problems += [f"{(r, parts)}: {p}" for p in found for r in SERIES_ROUTES]
        return len(inputs), failed_count(inputs, problems), problems

    def sizes(self, inputs):
        classes = {arg for route, arg in inputs if route != "egf_snki"}
        return {
            "classes": len(classes),
            "n_range": [min(SERIES_N), max(SERIES_N)],
            "egf_n_max": SERIES_EGF_N_MAX,
            "calls": len(inputs),
        }


# -- orbits ------------------------------------------------------------

ORBIT_N = (10, 14)
ORBIT_MAX_LOG2 = 12
ORBIT_PER_LOG2 = 8
ORBIT_PSI_SETS = 4


def _split(total: int, parts: int, minimum: int, rng: random.Random) -> list[int]:
    """A random composition of total into parts, each at least minimum."""
    spare = total - parts * minimum
    cuts = sorted(rng.randint(0, spare) for _ in range(parts - 1))
    bounds = [0] + cuts + [spare]
    return [minimum + bounds[i + 1] - bounds[i] for i in range(parts)]


def _cycle_with_valleys(letters: list[int], valleys: int, rng) -> list[int]:
    """A cyclic arrangement of letters with exactly ``valleys`` cyclic
    valleys: the smallest letters become valleys, the largest peaks, and
    the middle letters are dealt into the rising and falling runs between
    them, which makes each of those a double ascent or double descent."""
    letters = sorted(letters)
    lows = letters[:valleys]
    highs = letters[len(letters) - valleys :]
    middle = letters[valleys : len(letters) - valleys]
    rng.shuffle(lows)
    rng.shuffle(highs)
    runs: list[list[int]] = [[] for _ in range(2 * valleys)]
    for letter in middle:
        runs[rng.randrange(2 * valleys)].append(letter)
    cycle = []
    for j in range(valleys):
        cycle.append(lows[j])
        cycle += sorted(runs[2 * j])
        cycle.append(highs[j])
        cycle += sorted(runs[2 * j + 1], reverse=True)
    return cycle


def orbit_lengths(log2_size: int) -> range:
    """The lengths n in ORBIT_N that leave room for one cyclic valley."""
    return range(max(ORBIT_N[0], log2_size + 2), ORBIT_N[1] + 1)


def draw_orbit_word(log2_size: int, n: int, rng: random.Random) -> tuple[int, ...]:
    """A permutation of length n with n - fix - 2*cval == log2_size."""
    valleys = rng.randint(1, (n - log2_size) // 2)
    fixed = n - log2_size - 2 * valleys
    cycles = rng.randint(1, valleys)
    valley_split = _split(valleys, cycles, 1, rng)
    double_split = _split(log2_size, cycles, 0, rng)
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    word = list(range(1, n + 1))
    at = fixed
    for v, d in zip(valley_split, double_split):
        chunk = letters[at : at + 2 * v + d]
        at += 2 * v + d
        cycle = _cycle_with_valleys(chunk, v, rng)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            word[a - 1] = b
    return tuple(word)


def orbit_inputs(seed: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """ORBIT_PER_LOG2 permutations for every orbit size 2^0 .. 2^12, each
    with ORBIT_PSI_SETS random letter sets for psi, in order of orbit size
    (fixed, for the reason given in fold_inputs). Within a size the
    lengths n take turns, so the work per pass hardly moves with the
    seed; everything else about a permutation is drawn."""
    rng = random.Random(seed)
    items = []
    for log2_size in range(ORBIT_MAX_LOG2 + 1):
        lengths = orbit_lengths(log2_size)
        for j in range(ORBIT_PER_LOG2):
            n = lengths[j % len(lengths)]
            word = draw_orbit_word(log2_size, n, rng)
            letter_sets = tuple(
                tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                for _ in range(ORBIT_PSI_SETS)
            )
            items.append((word, letter_sets))
    return items


class Orbits:
    name = "orbits"

    def make_inputs(self, seed):
        return orbit_inputs(seed)

    def prepare(self, cs, inputs):
        calls = []
        for word, letter_sets in inputs:
            p = cs.Permutation(word)

            def call(p=p, letter_sets=letter_sets):
                report = cs.orbit(p, collect_members=True)
                return report, [cs.psi(p, letters) for letters in letter_sets]

            calls.append(call)
        return calls

    def timed_pass(self, cs, prepared, timer=True):
        return _timed_calls(prepared, timer)

    def check(self, cs, inputs, result):
        problems = []
        for (word, letter_sets), out, err in zip(inputs, result.outputs, result.errors):
            label = str((word, letter_sets))
            if err:
                problems.append(f"{label}: {err}")
                continue
            report, images = out
            cases = [
                (letters, image.word, cs.psi(image, letters).word)
                for letters, image in zip(letter_sets, images)
            ]
            found = checks.check_orbit(
                word,
                [m.word for m in report.members],
                report.representative.word,
                report.size,
                report.cval,
                report.fix,
                cases,
            )
            problems += [f"{label}: {p}" for p in found]
        return len(inputs), failed_count(inputs, problems), problems

    def sizes(self, inputs):
        log2 = [checks.letter_stats(w) for w, _ in inputs]
        return {
            "permutations": len(inputs),
            "n_range": list(ORBIT_N),
            "orbit_members": sum(
                2 ** (len(w) - s["fix"] - 2 * s["cval"]) for (w, _), s in zip(inputs, log2)
            ),
            "psi_sets_per_permutation": ORBIT_PSI_SETS,
        }


# -- verify ------------------------------------------------------------

VERIFY_ARGV = ["verify", "all", "--n-max", "7"]


class _RecordClock(io.TextIOBase):
    """Captured stdout that records, for every completed line, the span
    of work since the line before."""

    def __init__(self):
        self.chunks: list[str] = []
        self.spans: list[tuple[float, float]] = []
        self.resumed = perf_counter()

    def writable(self):
        return True

    def write(self, text):
        self.chunks.append(text)
        if "\n" in text:
            now = perf_counter()
            self.spans.append((self.resumed, now))
            self.spans += [(now, now)] * (text.count("\n") - 1)
            self.resumed = now
        return len(text)


def _parse_records(lines: list[str]) -> tuple[list[dict], list[str]]:
    records, unparsed = [], []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            unparsed.append(line)
    return records, unparsed


class Verify:
    """``cyclestat verify all --n-max 7`` in-process. The input is fixed:
    the seed does not change it."""

    name = "verify"

    def make_inputs(self, seed):
        return list(VERIFY_ARGV)

    def prepare(self, cs, inputs):
        import cyclestat.cli

        return lambda: cyclestat.cli.main(list(inputs))

    def timed_pass(self, cs, prepared, timer=True):
        with SpeedProbe(timer) as probe:
            out = _RecordClock()
            try:
                with contextlib.redirect_stdout(out):
                    code, err = prepared(), None
            except Exception as exc:
                code, err = None, f"{type(exc).__name__}: {exc}"
            except SystemExit as exc:  # argparse rejects its arguments this way
                code, err = exc.code, "SystemExit"
            end = perf_counter()
        # The work after the last record counts towards the pass, not to
        # any instance.
        latencies, refs = probe.settle(out.spans + [(out.resumed, end)])
        lines = "".join(out.chunks).splitlines()
        return PassResult(sum(latencies), latencies[:-1], refs[:-1], [(code, lines)], [err])

    def check(self, cs, inputs, result):
        (code, lines), err = result.outputs[0], result.errors[0]
        records, unparsed = _parse_records(lines)
        problems = [f"run: {err}"] if err else []
        problems += [f"run: unparseable output line {line[:60]!r}" for line in unparsed]
        problems += checks.check_verify(code, records)
        # One instance per record; a run-level problem (exception, exit
        # code, a claim without records) fails one more instance.
        bad = {p.split(":", 1)[0] for p in problems}
        attempted = len(records) + ("run" in bad)
        return max(attempted, 1), len(bad), problems

    def records(self, result) -> tuple[int, int]:
        """Emitted records, and those whose verdict is not ``pass``."""
        records, _ = _parse_records(result.outputs[0][1])
        return len(records), sum(1 for r in records if r.get("verdict") != "pass")

    def sizes(self, inputs):
        return {"argv": list(inputs)}


WORKLOADS = {w.name: w for w in (Fold(), Series(), Orbits(), Verify())}
