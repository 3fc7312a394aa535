"""Tests of the benchmark itself: negative controls for every output check,
the tail-percentile rule, scaling to reference speed, self time on
synthetic spans, and the tracer.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""
from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import cyclestat as cs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def terms(poly):
    return workloads._terms(poly)


# -- negative controls ---------------------------------------------------


def fold_outputs(parts):
    ct = cs.CycleType(parts)
    joint = terms(cs.dist_joint(cs.ClassSpec.of_cycle_type(ct)))
    return joint, terms(cs.brenti(ct)), terms(cs.theorem6_cval(ct))


@pytest.mark.parametrize("parts", [(1, 2, 3), (2, 2, 3), (1, 1, 4)])
def test_fold_check_accepts_correct_output(parts):
    joint, brenti, cval = fold_outputs(parts)
    brute = checks.brute_force_joint(sum(parts))[parts]
    assert checks.check_fold(parts, joint, brenti, cval, brute) == []


def test_fold_check_flags_one_corrupted_coefficient():
    parts = (1, 2, 3)
    joint, brenti, cval = fold_outputs(parts)
    key = sorted(joint)[0]
    assert checks.check_fold(parts, joint | {key: joint[key] + 1}, brenti, cval)


def test_fold_check_flags_a_moved_count_that_keeps_both_sums():
    # Moving one member between two monomials with the same exc keeps the
    # coefficient sum and the t-marginal; the s-marginal still catches it.
    parts = (7,)
    joint, brenti, cval = fold_outputs(parts)
    a, b = [k for k in sorted(joint) if k[1] == 3][:2]
    moved = dict(joint)
    moved[a] -= 1
    moved[b] += 1
    assert checks.check_fold(parts, moved, brenti, cval)


def test_fold_check_flags_a_swap_only_brute_force_sees():
    # Swap counts between (cval, exc) cells so both marginals survive.
    parts = (7,)
    joint, brenti, cval = fold_outputs(parts)
    brute = checks.brute_force_joint(7)[parts]
    swapped = dict(joint)
    for key, delta in (((1, 2), -1), ((2, 3), -1), ((1, 3), 1), ((2, 2), 1)):
        swapped[key] += delta
    assert checks.check_fold(parts, swapped, brenti, cval) == []
    assert checks.check_fold(parts, swapped, brenti, cval, brute)


def series_outputs(parts):
    ct = cs.CycleType(parts)
    return (
        terms(cs.theorem1_joint(ct)),
        terms(cs.theorem6_cval(ct)),
        terms(cs.brenti(ct)),
    )


def test_series_check_accepts_and_flags_one_coefficient():
    parts = (1, 2, 4)
    joint, cval, brenti = series_outputs(parts)
    assert checks.check_series(parts, joint, cval, brenti) == []
    key = sorted(joint)[-1]
    assert checks.check_series(parts, joint | {key: joint[key] + 1}, cval, brenti)
    key = sorted(cval)[0]
    assert checks.check_series(parts, joint, cval | {key: cval[key] - 1}, brenti)


def test_egf_check_accepts_and_flags_one_entry():
    table = cs.egf_snki(7)
    assert checks.check_egf(7, table) == []
    key = sorted(table)[len(table) // 2]
    assert checks.check_egf(7, table | {key: table[key] + 1})


def orbit_case(word, letter_sets):
    p = cs.Permutation(word)
    report = cs.orbit(p, collect_members=True)
    cases = []
    for letters in letter_sets:
        image = cs.psi(p, letters)
        cases.append((letters, image.word, cs.psi(image, letters).word))
    members = [m.word for m in report.members]
    return members, report, cases


def test_orbit_check_accepts_generated_permutations():
    for word, letter_sets in workloads.orbit_inputs(seed=5)[:12]:
        members, report, cases = orbit_case(word, letter_sets)
        assert checks.check_orbit(
            word, members, report.representative.word, report.size, report.cval, report.fix, cases
        ) == []


def test_orbit_check_flags_one_corrupted_member():
    word = (5, 1, 7, 3, 2, 6, 11, 8, 10, 4, 9)
    members, report, cases = orbit_case(word, [(7,)])
    rep = report.representative.word
    i = next(j for j, m in enumerate(members) if m not in (word, rep))
    member = list(members[i])
    member[0], member[1] = member[1], member[0]  # still a permutation
    corrupted = members[:i] + [tuple(member)] + members[i + 1 :]
    assert checks.check_orbit(word, corrupted, rep, report.size, report.cval, report.fix, cases)
    dropped = members[:i] + members[i + 1 :]
    assert checks.check_orbit(word, dropped, rep, report.size, report.cval, report.fix, cases)


def test_orbit_check_flags_a_bad_psi_image():
    word = (5, 1, 7, 3, 2, 6, 11, 8, 10, 4, 9)
    members, report, [(letters, image, back)] = orbit_case(word, [(7,)])
    args = (word, members, report.representative.word, report.size, report.cval, report.fix)
    assert checks.check_orbit(*args, [(letters, image, image)])
    assert checks.check_orbit(*args, [(letters, word[::-1], back)])


def test_generated_orbits_cover_every_size():
    sizes = [
        len(w) - s["fix"] - 2 * s["cval"]
        for w, s in ((w, checks.letter_stats(w)) for w, _ in workloads.orbit_inputs(seed=9))
    ]
    assert sorted(set(sizes)) == list(range(workloads.ORBIT_MAX_LOG2 + 1))
    assert all(sizes.count(d) == workloads.ORBIT_PER_LOG2 for d in set(sizes))


def test_verify_check():
    records = [{"claim": c, "verdict": "pass"} for c in checks.VERIFY_CLAIMS]
    assert checks.check_verify(0, records) == []
    assert checks.check_verify(1, records)
    assert checks.check_verify(0, records[1:])  # one claim emitted nothing
    failed = records[:3] + [dict(records[3], verdict="fail")] + records[4:]
    assert checks.check_verify(0, failed) == ["record 3: theorem2 fail"]


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("make", [workloads.fold_inputs, workloads.series_inputs, workloads.orbit_inputs])
def test_inputs_depend_only_on_the_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_fold_inputs_keep_the_showcase_and_distinct_classes():
    for seed in range(5):
        classes = workloads.fold_inputs(seed)
        assert workloads.SHOWCASE in classes
        assert len(set(classes)) == len(classes)


# -- statistics --------------------------------------------------------------


def test_tail_percentile_rule():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == pytest.approx(4.6)
    assert run.percentile(values, 100) == 5.0


# -- reference speed ---------------------------------------------------------


def test_speed_probe_takes_probes_out_and_weights_stretches():
    probe = workloads.SpeedProbe(timer=False)
    # Probes at [0, 1] (loop time 1), [5, 6] (3) and [10, 11] (1).
    probe.starts, probe.ends, probe.refs = [0.0, 5.0, 10.0], [1.0, 6.0, 11.0], [1.0, 3.0, 1.0]
    latencies, refs = probe.settle([(2.0, 4.0), (4.0, 8.0), (8.0, 8.0)])
    # The second instance runs 4 -> 5 and 6 -> 8 around the middle probe.
    assert latencies == [2.0, 3.0, 0.0]
    assert refs[0] == 2.0  # between the first two probes
    assert refs[1] == pytest.approx(3.0 / (1.0 / 2.0 + 2.0 / 2.0))
    assert refs[2] == 2.0


def test_speed_probe_timer_probes_inside_a_long_instance():
    with workloads.SpeedProbe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.1:
            pass
        span = (t0, perf_counter())
    assert len(probe.refs) >= 4  # entry, exit and at least two from the timer
    (latency,), _ = probe.settle([span])
    assert latency < span[1] - span[0]


def test_times_scale_to_reference_speed():
    ref = run.REF_LOOP_MS
    record = {"wall_s": 0.005, "latencies_ms": [1.0, 3.0], "ref_loop_ms": [ref, 2 * ref]}
    wall_s, latencies = run.at_reference_speed(record)
    assert latencies == pytest.approx([1.0, 1.5])
    assert wall_s == pytest.approx(0.005 * 2.5 / 4)


def test_unchecked_passes_take_the_checked_verdict_or_fail():
    checked = {"attempted": 4, "failed": 1, "digest": "a", "problems": ["x: wrong"]}
    same = {"attempted": None, "failed": None, "digest": "a", "problems": []}
    other = {"attempted": None, "failed": None, "digest": "b", "problems": []}
    run.settle_unchecked([checked, same, other])
    assert (same["attempted"], same["failed"]) == (4, 1)
    assert (other["attempted"], other["failed"]) == (4, 4)
    assert other["problems"]


def test_instance_latency_is_its_median_over_passes():
    assert run.instance_latencies([[1.0, 9.0], [3.0, 7.0], [2.0, 8.0]]) == [2.0, 8.0]


# -- self time ---------------------------------------------------------------


def test_self_time_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    assert tracer.self_times(parents, starts, ends) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # Children [1,5] and [3,7] overlap on [3,5]; [8,12] runs past the parent.
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    assert tracer.self_times(parents, starts, ends)[0] == pytest.approx(10 - 6 - 2)


def test_self_time_of_a_leaf_is_its_duration():
    assert tracer.self_times([-1], [1.5], [4.0]) == [2.5]


# -- tracer ------------------------------------------------------------------


def test_tracer_wraps_importers_and_restores():
    import cyclestat.formulas as formulas
    import cyclestat.hopping as hopping

    original_psi, original_orbit = hopping.psi, formulas.orbit
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cs.psi is hopping.psi is not original_psi
        assert formulas.orbit is cs.orbit is not original_orbit
        p = cs.Permutation((5, 1, 7, 3, 2, 6, 11, 8, 10, 4, 9))
        report = cs.orbit(p, collect_members=True)
        list(cs.iter_class(cs.ClassSpec.parse("1,3")))
        cs.dist_joint(cs.ClassSpec.parse("2,3"))
        cs.MultiPoly.t() * cs.MultiPoly.s()
    finally:
        spans.uninstall()
    assert hopping.psi is original_psi and formulas.orbit is original_orbit
    metrics = tracer.layer_metrics(spans.summary(), wall_s=1.0)
    assert metrics["hopping.orbit.calls"] == 1
    assert metrics["hopping.orbit.members"] == report.size == 8
    assert metrics["hopping.psi_per_member"] == 1.0
    assert metrics["enumeration.iter_class.yielded"] == 8
    assert metrics["enumeration.dist.calls"] == 1
    assert metrics["enumeration.dist.members"] == 20
    assert metrics["algebra.MultiPoly.mul.calls"] == 1
    assert metrics["algebra.MultiPoly.mul.term_products"] == 1
    assert metrics["permutations.Permutation.validations"] >= report.size
    assert all(v >= 0 for v in metrics.values())


def test_tracer_counts_errors():
    spans = tracer.Tracer()
    spans.install()
    try:
        with pytest.raises(ValueError):
            cs.egf_snki(0)
    finally:
        spans.uninstall()
    assert tracer.layer_metrics(spans.summary(), wall_s=1.0)["formulas.errors"] == 1.0

