import argparse
import hashlib
import json
import math
from fractions import Fraction

import pytest

import cyclestat.cli
import cyclestat.enumeration
import cyclestat.formulas
from cyclestat import ClassSpec, CycleType, dist_exc, gamma_expand, theorem1_joint
from cyclestat.algebra import GammaExpansion, MultiPoly
from cyclestat.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_TOO_LARGE,
    EXIT_USAGE,
    build_parser,
    main,
)
from cyclestat.formulas import CLAIMS


# SHA-256 of ``table gamma --n-max 9``, as the enumerated table printed it
GAMMA_9_CSV = "b1e989a49c62d11c5af8b03fba68eaa7fd841b46c25bb272cc906835587eee0b"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "stats", "(5,2,1)(6)(8)(11,9,10,4,3,7)")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["exc"] == 4 and record["cval"] == 3 and record["cpk"] == 3
        assert record["cdasc"] == 1 and record["cddes"] == 2 and record["fix"] == 2
        assert record["cycle_type"] == [1, 1, 3, 6]

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "stats", "1,2,3")
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["fix"] == 3
        assert all(record[key] == 0 for key in ("exc", "cval", "cpk", "cdasc", "cddes"))

    def test_cycles_flag(self, capsys):
        code, out, _ = run(capsys, "stats", "649237185", "--cycles")
        assert json.loads(out)["cycles"] == "(4,2)(7,1,6)(8)(9,5,3)"

    def test_cycles_flag_empty_permutation(self, capsys):
        code, out, _ = run(capsys, "stats", "()", "--cycles")
        assert code == EXIT_OK and json.loads(out)["cycles"] == "()"

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "stats", "2,2,1")
        assert code == EXIT_USAGE
        assert "duplicate" in err and not out


class TestOrbit:
    def test_three_cycle_members(self, capsys):
        code, out, _ = run(capsys, "orbit", "2,3,1", "--members")
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["size"] == 2
        assert record["members"] == [[2, 3, 1], [3, 1, 2]]

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "orbit", "1,2,3")
        assert json.loads(out)["size"] == 1

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "orbit", "2,2,1")
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "orbit", "(5,2,1)(6)(8)(11,9,10,4,3,7)")
        assert json.loads(out)["size"] == 8

    @pytest.mark.parametrize(
        "perm, size, digest",
        [
            (
                "(5,2,1)(6)(8)(11,9,10,4,3,7)",
                8,
                "f67f12c1dc8da3ba08e25a856c3803bf52fc18557ff805639c2b305d19d19ade",
            ),
            (
                "5,1,2,3,6,9,4,7,14,8,10,11,12,13",
                4096,
                "f6cc603af50475914dce3922d9b021e4d1ddcf1b7802aa5fe2aba368fa95296e",
            ),
        ],
        ids=["running-example", "n14-4096"],
    )
    def test_members_bytes(self, capsys, perm, size, digest):
        # SHA-256 of the stdout, pinned like verify's below
        code, out, _ = run(capsys, "orbit", perm, "--members")
        assert code == EXIT_OK
        assert json.loads(out)["size"] == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_orbit_above_class_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "4")
        code, out, err = run(capsys, "orbit", "(5,2,1)(6)(8)(11,9,10,4,3,7)")
        assert code == EXIT_TOO_LARGE
        assert not out and err.startswith("class too large:")

    def test_orbit_at_class_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "8")
        code, out, _ = run(capsys, "orbit", "(5,2,1)(6)(8)(11,9,10,4,3,7)")
        assert code == EXIT_OK and json.loads(out)["size"] == 8


class TestDist:
    def test_joint_small(self, capsys):
        code, out, _ = run(capsys, "dist", "3", "--stat", "joint")
        assert code == EXIT_OK and out.strip() == "s*t + s*t^2"

    def test_exc_identity_class(self, capsys):
        code, out, _ = run(capsys, "dist", "1,1,1", "--stat", "exc")
        assert code == EXIT_OK and out.strip() == "1"

    def test_cval(self, capsys):
        code, out, _ = run(capsys, "dist", "3", "--stat", "cval")
        assert code == EXIT_OK and out.strip() == "2*t"

    def test_stratum_spec(self, capsys):
        code, out, _ = run(capsys, "dist", "n=3,k=0", "--stat", "exc")
        assert code == EXIT_OK and out.strip() == "t + t^2"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "dist", "n=3,q=1")
        assert code == EXIT_USAGE and "error" in err

    @pytest.mark.parametrize(
        "spec", ["1^1 5^-1", "5^-1", "5^", "n=5,k=2,k=3", "n=5,n=6,k=1", "(1,2)(3)"]
    )
    def test_malformed_spec_is_a_usage_error(self, capsys, spec):
        code, out, err = run(capsys, "dist", spec)
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_partition_as_printed(self, capsys):
        # str(CycleType) and `table gamma` print partitions in parentheses
        code, out, _ = run(capsys, "dist", "(1,5,5)")
        assert code == EXIT_OK and out == run(capsys, "dist", "1,5,5")[1]
        code, out, _ = run(capsys, "dist", "()", "--stat", "exc")
        assert code == EXIT_OK and out.strip() == "1"

    def test_dist_ignores_class_cap(self, capsys, monkeypatch):
        # dist factorizes and visits no members
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "10")
        code, out, _ = run(capsys, "dist", "1,2,2", "--stat", "exc")
        assert code == EXIT_OK and out.strip() == "15*t^2"

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ("verify", claim, "--lambda", "1,2,2")
                for claim in (
                    "brenti",
                    "theorem1",
                    "theorem6",
                    "cor2",
                    "theorem2",
                    "theorem4",
                    "theorem5",
                )
            ),
            *(
                ("verify", claim, "--n-max", "5")
                for claim in ("lemma1", "cor3", "cor4", "egf")
            ),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_guardrail_distinct_exit(self, capsys, monkeypatch, argv):
        # every enumeration in verify honours the cap; (1,2,2) has 15
        # members and (5) has 24
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "10")
        code, _, err = run(capsys, *argv)
        assert code == EXIT_TOO_LARGE
        assert "class too large" in err


class TestVerify:
    def test_single_lambda(self, capsys):
        code, out, _ = run(capsys, "verify", "brenti", "--lambda", "1,1")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record == {
            "claim": "brenti",
            "instance": {"lambda": [1, 1]},
            "verdict": "pass",
        }

    def test_all_on_one_class(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--lambda", "1,2,2")
        assert code == EXIT_OK and not err
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["verdict"] == "pass" for r in records)
        # cor3, cor4 and egf, whose instances are not classes, are left out.
        assert {r["claim"] for r in records} == {
            "brenti", "theorem1", "lemma1", "theorem2",
            "theorem4", "theorem5", "theorem6", "cor2",
        }
        # One lemma1 record per orbit: the 15 members each form their own.
        assert len(records) == 7 + 15

    def test_malformed_lambda_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "brenti", "--lambda", "0")
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", " ", "()"])
    def test_empty_lambda_is_the_empty_partition(self, capsys, text):
        code, out, _ = run(capsys, "verify", "theorem1", "--lambda", text)
        assert code == EXIT_OK
        assert [json.loads(line) for line in out.splitlines()] == [
            {"claim": "theorem1", "instance": {"lambda": []}, "verdict": "pass"}
        ]

    def test_theorem1_range(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--n-max", "4")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["verdict"] == "pass" for r in records)
        assert len(records) == 1 + 1 + 2 + 3 + 5  # partitions of 0..4

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--n-max", "3")
        assert code == EXIT_OK
        assert all(
            json.loads(line)["verdict"] == "pass" for line in out.splitlines()
        )

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "all", "--n-max", "3")
        _, second, _ = run(capsys, "verify", "all", "--n-max", "3")
        assert first == second

    def test_choices_are_the_catalogue(self):
        subparsers = argparse._SubParsersAction
        (commands,) = [a for a in build_parser()._actions if isinstance(a, subparsers)]
        (claim,) = [a for a in commands.choices["verify"]._actions if a.dest == "claim"]
        assert set(claim.choices) == set(CLAIMS) | {"all"}
        (stat,) = [a for a in commands.choices["dist"]._actions if a.dest == "stat"]
        assert stat.choices == tuple(cyclestat.cli._DIST_STATS) == ("exc", "cval", "joint")

    def test_unknown_claim_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "theorem99"])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "cor3", "--lambda", "3"),
            ("verify", "egf", "--lambda", "3"),
            ("verify", "theorem1", "--n-max", "-1"),
        ],
    )
    def test_no_instances_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert argv[1] in err

    @pytest.mark.parametrize(
        "cap, argv",
        [
            ("abc", ("verify", "brenti", "--lambda", "3")),
            ("-5", ("verify", "brenti", "--lambda", "3")),
            ("1.5", ("verify", "brenti", "--lambda", "3")),
            ("abc", ("table", "gamma")),
        ],
        ids=["abc", "-5", "1.5", "table-gamma-abc"],
    )
    def test_bad_class_cap_is_a_usage_error(self, capsys, monkeypatch, cap, argv):
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", cap)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "CYCLESTAT_CLASS_CAP" in err

    def test_failure_carries_first_differing_coefficient(self, capsys, monkeypatch):
        real = cyclestat.formulas.theorem1_joint

        def off_by_one(ct):
            return real(ct) + MultiPoly.monomial(2, 3)

        monkeypatch.setattr(cyclestat.formulas, "theorem1_joint", off_by_one)
        code, out, _ = run(capsys, "verify", "theorem1", "--lambda", "1,2,2")
        assert code == EXIT_FAIL
        record = json.loads(out)
        assert record["verdict"] == "fail"
        assert record["witness"] == {
            "monomial": {"s": 2, "t": 3},
            "lhs": "1",
            "rhs": "0",
        }


    @pytest.mark.parametrize("bad", [Fraction(-2), Fraction(1, 2)], ids=str)
    def test_cor2_requires_nonnegative_integer_gammas(self, capsys, monkeypatch, bad):
        # one expansion per s-coefficient of the joint distribution of (3)
        expansions = iter(
            [
                GammaExpansion(2, (Fraction(0), Fraction(1))),
                GammaExpansion(2, (Fraction(1), bad)),
            ]
        )
        monkeypatch.setattr(
            cyclestat.formulas, "gamma_expand", lambda f, m: next(expansions)
        )
        code, out, _ = run(capsys, "verify", "cor2", "--lambda", "3")
        assert code == EXIT_FAIL
        record = json.loads(out)
        assert record["verdict"] == "fail"
        assert record["witness"] == {
            "monomial": {"s": 1, "t": 1},
            "lhs": str(bad),
            "rhs": "0",
        }

    def test_verify_all_bytes(self, capsys):
        # SHA-256 of the stdout, pinned so a refactor shows byte-identity
        code, out, _ = run(capsys, "verify", "all", "--n-max", "5")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 346
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "37906b6281de34b84b608f2d1987c81bf867316e32f82fb98038521155f79798"
        )

    def test_verify_all_bytes_to_seven_twice(self, capsys):
        # The benchmark's argv. The second run finds every process cache
        # filled by the first, and must print the same bytes.
        for _ in range(2):
            code, out, _ = run(capsys, "verify", "all", "--n-max", "7")
            assert code == EXIT_OK
            assert len(out.splitlines()) == 2992
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "dc90aecb6f9ebc3afefc86f247646d98174ee33ae964e24a5195b9f97da358f2"
            )


class TestTable:
    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            (
                ("gamma", "--n-max", "8", "--format", "csv"),
                67,
                "37bae698921939a61c9c1162ac68d5b12ebd1895486de0d2220df6fc6b90435b",
            ),
            (
                ("gamma", "--n-max", "8", "--format", "json"),
                66,
                "8307dddc3bf772f235fa9c59953edbdfc5ab30840369a2f22e1225981ae70dc9",
            ),
            (
                ("gamma", "--n-max", "16"),
                915,
                "0cc18ad3ec9d3cd96c98f159ab5a53325ac1b18ab133a4bddde691d2071f48df",
            ),
            (
                ("snki", "--n-max", "24"),
                1247,
                "789fa57e6cd667fd70df80eda38c34adafadf53861a9e03d340bdeae4c0d7e0d",
            ),
            (
                ("snki", "--n-max", "30"),
                2391,
                "d8afbe8241df96686e2ffcd29677ee3921c5aff26a89503b587ec3bac3879d18",
            ),
            (
                ("snki", "--n-max", "30", "--format", "json"),
                2390,
                "cdc1dfe5d4c431ad1bbdcd60780c34f606421c2acb2cfab6fc76b9aebcf56d95",
            ),
            (
                ("eulerian", "--n-max", "40"),
                42,
                "7d3b6f360d926b8de2353b331f1b88c16c5e37ed229d4cfc92b3664ebedf6df2",
            ),
            (
                ("eulerian", "--n-max", "40", "--format", "json"),
                41,
                "f3be02ac1be5147ecde93a5f04d412a33ea14f38e35cde0a11e7e51a45dc0f5a",
            ),
        ],
        ids=[
            "gamma-csv",
            "gamma-json",
            "gamma-16",
            "snki",
            "snki-30",
            "snki-30-json",
            "eulerian-40",
            "eulerian-40-json",
        ],
    )
    def test_table_bytes(self, capsys, argv, lines, digest):
        # SHA-256 of the stdout, pinned like verify's above
        code, out, _ = run(capsys, "table", *argv)
        assert code == EXIT_OK
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_eulerian_csv(self, capsys):
        code, out, _ = run(capsys, "table", "eulerian", "--n-max", "4", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "4,0,1,11,11,1"

    def test_snki_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "snki", "--n-max", "1")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,k,i,count", "1,1,0,1"]

    def test_snki_matches_enumeration(self, capsys):
        from cyclestat.enumeration import count_snki

        code, out, _ = run(capsys, "table", "snki", "--n-max", "5", "--format", "json")
        assert code == EXIT_OK
        for line in out.splitlines():
            row = json.loads(line)
            want = count_snki(row["n"], row["k"], row["i"], route="enumerate")
            assert row["count"] == want

    def test_snki_empty_range_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "table", "snki", "--n-max", "0")
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "what, n_max", [("eulerian", "-1"), ("gamma", "0")]
    )
    def test_empty_table_is_a_usage_error(self, capsys, what, n_max):
        code, out, err = run(capsys, "table", what, "--n-max", n_max)
        assert code == EXIT_USAGE
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_eulerian_json_bytes(self, capsys):
        code, out, _ = run(capsys, "table", "eulerian", "--n-max", "3", "--format", "json")
        assert code == EXIT_OK
        assert out == (
            '{"coefficients": [1], "n": 0}\n'
            '{"coefficients": [0, 1], "n": 1}\n'
            '{"coefficients": [0, 1, 1], "n": 2}\n'
            '{"coefficients": [0, 1, 4, 1], "n": 3}\n'
        )

    def test_gamma_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "table", "gamma", "--n-max", "4", "--format", "csv")
        assert code == EXIT_OK
        assert out == (
            "lambda,n,gammas\n"
            '"(1)",1,1\n'
            '"(2)",2,0,1\n'
            '"(1,1)",2,1\n'
            '"(3)",3,0,1\n'
            '"(1,2)",3,0,3\n'
            '"(1,1,1)",3,1\n'
            '"(4)",4,0,1,2\n'
            '"(1,3)",4,0,4\n'
            '"(2,2)",4,0,0,3\n'
            '"(1,1,2)",4,0,6\n'
            '"(1,1,1,1)",4,1\n'
        )

    def test_gamma_json(self, capsys):
        code, out, _ = run(capsys, "table", "gamma", "--n-max", "3", "--format", "json")
        assert code == EXIT_OK
        rows = {r["lambda"]: r["gammas"] for r in map(json.loads, out.splitlines())}
        assert rows["(3)"] == [0, 1]
        assert rows["(1,1,1)"] == [1]

    def test_gamma_ignores_class_cap(self, capsys, monkeypatch):
        # the table reads Theorem 1's closed form and enumerates no class
        code, uncapped, _ = run(capsys, "table", "gamma", "--n-max", "5")
        assert code == EXIT_OK
        monkeypatch.setenv("CYCLESTAT_CLASS_CAP", "0")
        code, capped, err = run(capsys, "table", "gamma", "--n-max", "5")
        assert code == EXIT_OK and not err
        assert capped == uncapped

    def test_gamma_enters_no_enumeration(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("table gamma entered the enumeration")

        monkeypatch.setattr(cyclestat.enumeration, "_iter_cycle_lists", refuse)
        monkeypatch.setattr(cyclestat.enumeration, "_enumerated_counts", refuse)
        code, out, _ = run(capsys, "table", "gamma", "--n-max", "9")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_9_CSV

    def test_gamma_sixteen_by_the_gamma_expansion(self, capsys):
        """The pinned ``table gamma --n-max 16`` by a second route: each
        class's factorized dist_exc, expanded about (n - m_1)/2. Its rows
        with n <= 9 are the table as enumeration printed it."""
        code, out, _ = run(capsys, "table", "gamma", "--n-max", "16", "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 914
        for row in rows:
            ct = CycleType.from_text(row["lambda"])
            assert row["n"] == ct.n
            exc = dist_exc(ClassSpec.of_cycle_type(ct))
            expansion = gamma_expand(exc, ct.n - ct.fixed_point_count)
            assert row["gammas"] == list(expansion.gammas), row["lambda"]
        _, out, _ = run(capsys, "table", "gamma", "--n-max", "16")
        lines = out.splitlines(keepends=True)
        assert lines[97].startswith('"(10)",10,')
        assert hashlib.sha256("".join(lines[:97]).encode()).hexdigest() == GAMMA_9_CSV

    def test_snki_thirty_by_the_exponential_formula(self, capsys):
        """The pinned ``table snki --n-max 30`` by a second route. With c_j
        the cval counts of the j-cycles, read off theorem1_joint((j,)),
        d_m = sum_(j>=2) C(m-1, j-1) c_j d_(m-j) counts the fixed-point-free
        permutations of [m] by cval (the exponential formula: the anchor's
        cycle has j letters), and cell (n, k, i) is C(n, k) [s^i] d_(n-k)."""
        cycles = {}
        for j in range(2, 31):
            counts = [0] * (j // 2 + 1)
            for (i, _), count in theorem1_joint(CycleType((j,))).terms.items():
                counts[i] += int(count)
            cycles[j] = counts
        free = [[1]]
        for m in range(1, 31):
            row = [0] * (m // 2 + 1)
            for j in range(2, m + 1):
                scale = math.comb(m - 1, j - 1)
                for a, x in enumerate(cycles[j]):
                    for b, y in enumerate(free[m - j]):
                        row[a + b] += scale * x * y
            free.append(row)
        expected = {
            (n, k, i): math.comb(n, k) * count
            for n in range(1, 31)
            for k in range(n + 1)
            for i, count in enumerate(free[n - k])
            if count
        }
        code, out, _ = run(capsys, "table", "snki", "--n-max", "30", "--format", "json")
        assert code == EXIT_OK
        published = {
            (r["n"], r["k"], r["i"]): r["count"] for r in map(json.loads, out.splitlines())
        }
        assert published == expected

    def test_eulerian_forty_by_the_alternating_sum(self, capsys):
        # The pinned ``table eulerian --n-max 40`` by the explicit formula:
        # the coefficient of t^k in A_n(t) is sum_(j<=k) (-1)^j C(n+1, j) (k-j)^n.
        code, out, _ = run(capsys, "table", "eulerian", "--n-max", "40", "--format", "json")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert [row["n"] for row in rows] == list(range(41))
        for row in rows:
            n = row["n"]
            expected = [
                sum((-1) ** j * math.comb(n + 1, j) * (k - j) ** n for j in range(k + 1))
                for k in range(n + 1)
            ]
            assert row["coefficients"] == expected, n
