import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner

from meetjoin import (CharacterizationMismatch, FinitePoset, NoMeetError, PosetFunction,
                      Subset, cli, det_general, eigen_sym, matrices, numtheory, poset)
from meetjoin.cli import RunConfig, _det_fields, _encode, _resolve, main, run
from meetjoin.definiteness import pd_oracle
from meetjoin.matrices import SymMatrix
from replies import ANY_MATRIX, NON_FINITE, write_any_matrix
from support import near_singular_matrices

WORKED_POSET = {"generated_by": [6, 10, 15], "set": [6, 10, 15]}
WORKED_VALUES = {"1": 0, "2": -1, "3": 3, "5": -2, "6": 5, "10": 2, "15": 3}


def invoke(args):
    return CliRunner().invoke(main, args)


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def test_check_pd_family_shorthand():
    result = invoke(["check-pd", "--set", "6,10,15", "--family", "power-gcd"])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["verdict"] == "positive-definite"
    assert body["method"] == "C3.4"
    assert body["psi"] == {
        "1": "1", "2": "1", "3": "2", "5": "4", "6": "2", "10": "4", "15": "8",
    }
    assert body["det"] == "660"
    assert body["flags"]["meet_closed"] is False


def test_check_pd_poset_and_values(tmp_path):
    write_json(tmp_path / "p.json", WORKED_POSET)
    write_json(tmp_path / "f.json", WORKED_VALUES)
    result = invoke([
        "check-pd", "--poset", str(tmp_path / "p.json"),
        "--values", str(tmp_path / "f.json"),
    ])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["verdict"] == "positive-definite"
    assert body["method"] == "oracle"
    assert body["certificate"]["minors"] == ["5", "9", "1"]
    assert body["psi"]["2"] == "-1"
    assert body["psi"]["5"] == "-2"
    assert body["det"] == "1"


def test_check_pd_det_is_the_same_on_every_route(tmp_path):
    write_json(tmp_path / "p.json", WORKED_POSET)
    cases = [
        ({"set_text": "1,2,3,6", "family": "power-gcd"}, "T3.1", None),
        ({"set_text": "1,2,3,6", "family": "reciprocal-power-lcm"}, "T3.2", None),
        ({"set_text": "6,10,15", "family": "power-gcd"}, "C3.4", None),
        # float values: the oracle decides, the determinant is pivoted
        ({"set_text": "6,10,15", "family": "power-gcd", "alpha": "1.5"},
         "oracle", None),
        # oracle: positive definite, refuted at the last minor, refuted at k=1
        ({}, "oracle", WORKED_VALUES),
        ({}, "oracle", dict(WORKED_VALUES, **{"15": 2})),
        ({}, "oracle", dict(WORKED_VALUES, **{"6": -5})),
    ]
    verdicts = []
    for n, (kwargs, method, values) in enumerate(cases):
        if values is not None:
            write_json(tmp_path / f"f{n}.json", values)
            kwargs = {"poset_path": str(tmp_path / "p.json"),
                      "values_path": str(tmp_path / f"f{n}.json")}
        config = RunConfig(command="check-pd", **kwargs)
        code, text = run(config)
        assert code == 0
        body = json.loads(text)
        assert body["method"] == method
        matrix = _resolve(config).matrix
        assert body["det"] == _encode(det_general(matrix))
        verdicts.append((body["verdict"], body["certificate"].get("minor_index")))
    assert verdicts[4:] == [
        ("positive-definite", None),
        ("not-positive-definite", 3),
        ("not-positive-definite", 1),
    ]


def count_assembly(monkeypatch) -> list:
    """Record the name of every meet or join matrix assembled from now on."""
    calls = []
    for name in ("meet_matrix", "join_matrix"):
        original = getattr(matrices, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("meetjoin")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_check_pd_assembles_its_matrix_once(monkeypatch):
    # The oracle decides float values; it must reuse the matrix the request
    # already built instead of assembling it a second time.
    calls = count_assembly(monkeypatch)
    code, text = run(RunConfig(
        command="check-pd", set_text="6,10,15", family="power-gcd", alpha="1.5",
    ))
    assert code == 0
    assert json.loads(text)["method"] == "oracle"
    assert calls == ["meet_matrix"]


@pytest.mark.parametrize("command, assembled", [
    ("build", ["join_matrix"]),
    ("classify", []),
    ("closure", []),
    # C3.6 decides it, and the join closure adds 3 members to 3, so the
    # complementary-minor det is refused and the det reads the matrix.
    ("check-pd", ["join_matrix"]),
])
def test_family_matrix_is_built_only_when_read(monkeypatch, command, assembled):
    calls = count_assembly(monkeypatch)
    code, _ = run(RunConfig(
        command=command, set_text="4,6,9", family="reciprocal-power-lcm",
    ))
    assert code == 0
    assert calls == assembled


@pytest.mark.parametrize("set_text, family, alpha, method, assembled", [
    # Closed sets: the sign test decides and det is the product of the masses.
    ("1,2,3,6", "power-gcd", "1", "T3.1", []),
    ("1,2,3,6", "reciprocal-power-lcm", "1", "T3.2", []),
    # C3.4 over the closure {2, 6, 10, 963761198400}, det through the
    # complementary minor on the one member it adds.
    ("963761198400,6,10", "power-gcd", "1", "C3.4", []),
    # C3.4, but the closure adds 4 members to 3: the minor gate refuses.
    ("6,10,15", "power-gcd", "1", "C3.4", ["meet_matrix"]),
    # A nonpositive mass leaves the exact oracle, and a float one.
    ("2,3", "power-gcd", "-1", "oracle", ["meet_matrix"]),
    ("6,10,15", "power-gcd", "1.5", "oracle", ["meet_matrix"]),
])
def test_check_pd_assembles_its_matrix_only_where_it_reads_it(
        monkeypatch, set_text, family, alpha, method, assembled):
    # The rules on the closure never read the matrix, nor does a det that
    # the masses give; the oracle and the direct det read one, built once.
    calls = count_assembly(monkeypatch)
    code, text = run(RunConfig(command="check-pd", set_text=set_text,
                               family=family, alpha=alpha))
    assert code == 0
    assert json.loads(text)["method"] == method
    assert calls == assembled


def test_the_direct_exact_det_is_refused_past_its_work_budget():
    # C3.4 decides check-pd on 2000 seeded divisors of 963761198400, and the
    # closure adds more members than the set has, so the det is the direct
    # one: a 2000 x 2000 Fraction elimination that ran for over 5 minutes.
    # Its work estimate, n^3 times the bits of the largest entry, is refused.
    big = random.Random(0).sample(numtheory.divisors(963761198400), 2000)
    code, text = run(RunConfig(command="check-pd", set_text=",".join(map(str, big)),
                               family="power-gcd"))
    assert code == 2
    assert json.loads(text)["error"] == {"type": "DeskScaleError", "message": (
        "the direct exact det of a 2000 x 2000 matrix with entries of up to 39 "
        "bits is estimated at 312000000000 work units (n^3 x bits), over the "
        "budget of 400000000")}


def test_the_direct_det_budget_admits_its_estimate(monkeypatch):
    # 4, 6, 9 under reciprocal-power-lcm take the direct det of a 3 x 3
    # matrix whose largest entry, 1/36, has 1 + 6 bits: 27 * 7 = 189 units.
    config = RunConfig(command="check-pd", set_text="4,6,9",
                       family="reciprocal-power-lcm")
    monkeypatch.setattr(matrices, "DIRECT_DET_WORK", 189)
    code, text = run(config)
    assert code == 0 and json.loads(text)["det"] == "25/7776"
    monkeypatch.setattr(matrices, "DIRECT_DET_WORK", 188)
    code, text = run(config)
    assert code == 2
    assert json.loads(text)["error"]["message"] == (
        "the direct exact det of a 3 x 3 matrix with entries of up to 7 bits is "
        "estimated at 189 work units (n^3 x bits), over the budget of 188")


def test_check_pd_builds_each_closure_once(monkeypatch):
    # Every route reads the closure kept on the subset; the float request
    # below built the meet closure four times before.
    original = poset._closure_result
    kinds = Counter()

    def counted(s, mask, kind):
        kinds[kind] += 1
        return original(s, mask, kind)

    monkeypatch.setattr(poset, "_closure_result", counted)
    requests = [
        ("6,10,15", "power-gcd", "1.5"),
        ("6,10,15", "power-gcd", "1"),
        ("1,2,3,6", "reciprocal-power-lcm", "1"),
        ("4,6,9", "reciprocal-power-lcm", "1"),
    ]
    for set_text, family, alpha in requests:
        kinds.clear()
        code, _ = run(RunConfig(
            command="check-pd", set_text=set_text, family=family, alpha=alpha,
        ))
        assert code == 0
        assert kinds and max(kinds.values()) == 1, (set_text, family, kinds)


def test_a_failed_closure_is_attempted_once(monkeypatch, tmp_path):
    # The any-matrix set has no meet closure.  classify_and_test, the tree
    # test and the closure vector each ran the failing meet closure: three
    # runs in one request.  The error is kept on the set instead, and each
    # later read raises a fresh one with the same text.
    original = poset._close
    ops = Counter()

    def counted(elements, op, *rest):
        ops[op.func.__name__] += 1
        return original(elements, op, *rest)

    monkeypatch.setattr(poset, "_close", counted)
    poset_path, values_path = write_any_matrix(ANY_MATRIX, tmp_path)
    config = RunConfig(command="check-pd", poset_path=poset_path,
                       values_path=values_path)
    code, text = run(config)
    assert code == 0
    assert json.loads(text)["method"] == "oracle"
    assert ops == {"meet": 1, "join": 1}
    s = _resolve(config).subset
    errors = []
    for _ in range(2):
        with pytest.raises(NoMeetError) as caught:
            poset.meet_closure(s)
        errors.append(caught.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])
    assert ops["meet"] == 2


def test_check_pd_runs_the_tree_characterizations_once(monkeypatch):
    # pd_tree and structure_flags both ask whether the set is a tree set;
    # they read one answer kept on the closure (two full runs before).
    original = poset._tree_characterizations
    sizes = []

    def counted(p, side, keep):
        sizes.append(keep.bit_count())
        return original(p, side, keep)

    monkeypatch.setattr(poset, "_tree_characterizations", counted)
    members = random.Random(0).sample(range(1, 3000), 100)
    code, _ = run(RunConfig(
        command="check-pd", set_text=",".join(map(str, members)),
        family="power-gcd", alpha="1.5",
    ))
    assert code == 0
    assert sizes == [160]


@pytest.mark.parametrize("command", ["classify", "check-pd"])
def test_divisor_requests_build_no_induced_poset(monkeypatch, command):
    # The tree test reads the parent's masks cut to the closure, so neither
    # closure restricts the parent; each built its induced poset before.
    original = poset._closure_result
    results = []

    def kept(s, members, kind):
        results.append(original(s, members, kind))
        return results[-1]

    monkeypatch.setattr(poset, "_closure_result", kept)
    divisors = ",".join(str(d) for d in range(1, 2521) if 2520 % d == 0)
    for family in ("power-gcd", "reciprocal-power-lcm"):
        results.clear()
        code, _ = run(RunConfig(command=command, set_text=divisors, family=family))
        assert code == 0
        assert sorted(r.kind for r in results) == ["join", "meet"]
        assert all("closed" not in vars(r) for r in results)


def test_float_check_pd_past_float_range():
    # The float minors overflowed to inf and nan around k = 40, and these
    # positive definite matrices (lambda_min 11.1) were refuted.
    for n in (80, 100):
        members = random.Random(0).sample(range(1, 3000), n)
        config = RunConfig(
            command="check-pd", set_text=",".join(map(str, members)),
            family="power-gcd", alpha="1.5",
        )
        code, text = run(config)
        assert code == 0
        body = json.loads(text, parse_constant=lambda name: pytest.fail(name))
        assert (body["verdict"], body["method"]) == ("positive-definite", "oracle")
        assert len(body["certificate"]["pivots"]) == n
        assert body["det"] is None and body["det_sign"] == 1
        spectrum = eigen_sym(_resolve(config).matrix)
        log_det = math.fsum(math.log10(v) for v in spectrum.eigenvalues)
        assert math.isclose(body["det_log10"], log_det, rel_tol=1e-9)


def count_to_float(monkeypatch) -> list:
    """Count the float copies of a matrix, one per float elimination."""
    calls = []
    original = matrices.SymMatrix.to_float

    def counted(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(matrices.SymMatrix, "to_float", counted)
    return calls


def test_float_check_pd_eliminates_once(monkeypatch, tmp_path):
    # The oracle reaches the last column of this power-gcd matrix, so det
    # is the product of its pivots and no second elimination runs.
    members = random.Random(0).sample(range(1, 3000), 80)
    config = RunConfig(command="check-pd", set_text=",".join(map(str, members)),
                       family="power-gcd", alpha="1.5")
    expected = run(config)
    calls = count_to_float(monkeypatch)
    assert run(config) == expected
    assert calls == [80]
    assert json.loads(expected[1])["method"] == "oracle"
    # Partial pivoting would swap at column 0 here; det still reads the
    # oracle's pivots.
    write_json(tmp_path / "p.json", {"n": 3, "relation": [[1, 2], [1, 3]],
                                     "labels": ["z", "x", "y"], "set": ["x", "y"]})
    write_json(tmp_path / "f.json", {"z": 2.0, "x": 1.0, "y": 5.0})
    calls.clear()
    code, text = run(RunConfig(command="check-pd", poset_path=str(tmp_path / "p.json"),
                               values_path=str(tmp_path / "f.json")))
    assert code == 0
    body = json.loads(text)
    assert (body["method"], body["certificate"]["pivots"], body["det"]) == (
        "oracle", [1.0, 1.0], 1.0)
    assert calls == [2]


def test_float_oracle_det_is_the_product_of_its_pivots(tmp_path):
    # Elimination with partial pivoting gave det -4.89e-17 here, against a
    # positive definite verdict from five positive pivots.  The exact det
    # of these float entries is 5.55e-17: both values are at rounding level,
    # and the product of the LDL^T pivots keeps the sign of the verdict.
    poset_path, values_path = write_any_matrix(ANY_MATRIX, tmp_path)
    config = RunConfig(command="check-pd", poset_path=poset_path,
                       values_path=values_path)
    assert _resolve(config).matrix.entries == ANY_MATRIX
    code, text = run(config)
    assert code == 0
    body = json.loads(text)
    assert (body["verdict"], body["method"]) == ("positive-definite", "oracle")
    pivots = body["certificate"]["pivots"]
    assert body["det"] > 0
    assert body["det"] == math.prod(pivots) == 1.0666882428558869e-17


def test_a_non_finite_float_pivot_is_refused(tmp_path):
    # The last LDL^T pivot is 1 - (1e300 / 1e-300) * 1e300 = -inf; it went
    # into the certificate, and the reply was refused with exit 1 as "Out
    # of range float values are not JSON compliant: -inf".
    poset_path, values_path = write_any_matrix(NON_FINITE, tmp_path)
    code, text = run(RunConfig(command="check-pd", poset_path=poset_path,
                               values_path=values_path))
    assert code == 2
    error = json.loads(text)["error"]
    assert error == {"type": "DeskScaleError", "message": (
        "the LDL^T pivot of column 2 is -inf: the float elimination left "
        "the float range")}


def test_float_oracle_det_agrees_with_its_verdict_near_singularity():
    # Where the oracle finds a matrix positive definite, det is the product
    # of its pivots and positive; partial pivoting gives some of these
    # matrices a det <= 0.
    decided = pivoted_nonpositive = 0
    for m in near_singular_matrices(random.Random(624), 3000):
        report = pd_oracle(m)
        if not report.is_positive_definite:
            continue
        decided += 1
        det = math.prod(report.certificate["pivots"])
        assert _det_fields(report, m) == {"det": det} and det > 0
        pivoted_nonpositive += det_general(m) <= 0
    assert decided > 1000 and pivoted_nonpositive > 20


@pytest.mark.parametrize("n", [200, 300])
def test_float_check_pd_at_the_target_size_eliminates_once(monkeypatch, n):
    # Partial pivoting swaps rows on both matrices; det is read off the
    # oracle's pivots, past the float range as their log10 sum.
    members = random.Random(0).sample(range(1, 3000), n)
    config = RunConfig(command="check-pd", set_text=",".join(map(str, members)),
                       family="power-gcd", alpha="1.5")
    calls = count_to_float(monkeypatch)
    code, text = run(config)
    assert code == 0 and calls == [n]
    body = json.loads(text)
    assert (body["verdict"], body["method"]) == ("positive-definite", "oracle")
    pivots = body["certificate"]["pivots"]
    assert len(pivots) == n
    assert body["det"] is None and body["det_sign"] == 1
    assert body["det_log10"] == math.fsum(math.log10(abs(p)) for p in pivots)


def test_mixed_values_gate_exactness_per_support(tmp_path):
    # 7.5 lies outside the closure of every set below, so the exact routes
    # still decide although the function as a whole is not exact.
    values = {str(d): d for d in (1, 2, 3, 5, 6, 10, 15)}
    values["7"] = 7.5
    write_json(tmp_path / "f.json", values)
    for members, method in (([1, 2, 3, 6], "T3.1"), ([6, 10, 15], "C3.4")):
        write_json(tmp_path / "p.json", {"generated_by": [6, 10, 15, 7],
                                         "set": members})
        code, text = run(RunConfig(
            command="check-pd", poset_path=str(tmp_path / "p.json"),
            values_path=str(tmp_path / "f.json"),
        ))
        assert code == 0
        body = json.loads(text)
        assert (body["verdict"], body["method"]) == ("positive-definite", method)
        # psi was left out whenever any value was a float, even off the closure
        certificate = body["certificate"]
        assert body["psi"] == dict(zip(map(str, certificate["support"]),
                                       certificate["masses"]))
    # a float inside the closure leaves only the tree rule and the oracle
    values["2"] = 2.5
    write_json(tmp_path / "f.json", values)
    code, text = run(RunConfig(
        command="check-pd", poset_path=str(tmp_path / "p.json"),
        values_path=str(tmp_path / "f.json"),
    ))
    assert code == 0
    assert json.loads(text)["method"] == "oracle"


def test_build_json_roundtrip():
    result = invoke(["build", "--set", "6,10,15", "--family", "power-gcd"])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["labels"] == [6, 10, 15]
    assert body["kind"] == "meet"
    assert body["exact"] is True
    entries = [[Fraction(v) for v in row] for row in body["matrix"]]
    assert entries == [
        [Fraction(6), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(10), Fraction(5)],
        [Fraction(3), Fraction(5), Fraction(15)],
    ]


def test_build_encodes_each_entry_as_alone(tmp_path):
    # Each distinct entry object is encoded once; a float 1.0 and an exact 1,
    # equal and of one hash, still encode apart.
    write_json(tmp_path / "p.json", {"divisors_of": 12})
    write_json(tmp_path / "f.json", {"1": 1.0, "2": 1, "3": "3/2", "4": 2.5,
                                     "6": -1, "12": 0})
    config = RunConfig(command="build", poset_path=str(tmp_path / "p.json"),
                       values_path=str(tmp_path / "f.json"))
    matrix = _resolve(config).matrix
    code, text = run(config)
    assert code == 0
    rows = json.loads(text)["matrix"]
    assert rows == [[_encode(v) for v in row] for row in matrix.entries]
    assert {type(v) for row in rows for v in row} == {float, str}


@pytest.mark.parametrize("alpha", ["1", "1.5"])
def test_build_csv_is_each_cell_rendered_alone(alpha):
    # Each distinct entry is rendered once and laid out by reference; the
    # text is the one rendering every cell on its own gives.
    members = random.Random(3).sample(range(1, 3000), 40)
    config = RunConfig(command="build", set_text=",".join(map(str, members)),
                       family="power-gcd", alpha=alpha, fmt="csv")
    matrix = _resolve(config).matrix
    assert matrix.is_exact == (alpha == "1")
    code, text = run(config)
    assert code == 0
    assert text == "".join(",".join(str(_encode(v)) for v in row) + "\n"
                           for row in matrix.entries)


def test_build_csv_min_matrix():
    result = invoke(["build", "--set", "1,2,3", "--family", "min",
                     "--format", "csv"])
    assert result.exit_code == 0
    assert result.output == "1,1,1\n1,2,2\n1,2,3\n"


def test_bounds_csv_columns():
    result = invoke(["bounds", "--set", "2,3,4",
                     "--family", "reciprocal-power-lcm", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "k,lambda,bound,ok"
    assert len(lines) == 4
    for line in lines[1:]:
        k, lam, bound, ok = line.split(",")
        assert ok == "true"
        assert float(lam) <= float(bound) + 1e-9


def test_bounds_json_verified():
    result = invoke(["bounds", "--set", "2,3,4",
                     "--family", "reciprocal-power-lcm"])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["kind"] == "join"
    assert body["verified"] is True
    assert body["lower"]["ok"] is True
    assert body["eigenvalues"] == sorted(body["eigenvalues"])
    assert len(body["permutation"]) == 3


def test_bounds_exit_two_when_unverified(tmp_path):
    write_json(tmp_path / "p.json", {"n": 3, "relation": [[1, 2], [2, 3]]})
    write_json(tmp_path / "f.json", {"1": 2, "2": 1, "3": 3})
    result = invoke([
        "bounds", "--poset", str(tmp_path / "p.json"),
        "--values", str(tmp_path / "f.json"),
    ])
    assert result.exit_code == 2
    body = json.loads(result.output)
    assert body["verified"] is False
    assert body["hypotheses"]["monotone_on_closure"] is False
    assert body["bounds"]


def test_closure_reports_added_members():
    result = invoke(["closure", "--set", "6,10,15", "--family", "power-gcd"])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["closed"] is False
    assert body["added"] == [1, 2, 3, 5]
    assert body["members"] == [1, 2, 3, 5, 6, 10, 15]


def test_classify_flags(tmp_path):
    write_json(tmp_path / "p.json",
               {"n": 3, "relation": [[1, 2], [2, 3]], "labels": ["a", "b", "c"]})
    result = invoke(["classify", "--poset", str(tmp_path / "p.json")])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["labels"] == ["a", "b", "c"]
    assert body["flags"] == {
        "a_set": True, "chain": True, "join_closed": True,
        "meet_closed": True, "vee_tree_set": True, "wedge_tree_set": True,
    }


def test_missing_file_exits_one():
    result = invoke(["classify", "--poset", "/nonexistent/p.json"])
    assert result.exit_code == 1
    body = json.loads(result.output)
    assert body["error"]["type"] == "FileNotFoundError"


def test_bad_json_exits_one_with_location(tmp_path):
    bad = tmp_path / "p.json"
    bad.write_text('{"n": 3,\n  "relation": [[1, 2]\n}', encoding="utf-8")
    result = invoke(["classify", "--poset", str(bad)])
    assert result.exit_code == 1
    body = json.loads(result.output)
    assert body["error"]["type"] == "ValueError"
    assert f"{bad}:3" in body["error"]["message"]


def test_duplicate_json_key_exits_two(tmp_path):
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    dup = tmp_path / "f.json"
    dup.write_text('{"1": 1, "1": 2, "2": 3}', encoding="utf-8")
    result = invoke(["check-pd", "--poset", str(tmp_path / "p.json"),
                     "--values", str(dup)])
    assert result.exit_code == 2
    body = json.loads(result.output)
    assert body["error"]["type"] == "DuplicateError"


def test_labels_that_print_alike_share_no_value(tmp_path):
    # Value keys are read as text, so labels 1 and "1" both took the value of
    # "1" and the singular matrix got a verdict (exit 0).
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]], "labels": [1, "1"]})
    write_json(tmp_path / "f.json", {"1": 5})
    for command in ("build", "check-pd", "bounds"):
        result = invoke([command, "--poset", str(tmp_path / "p.json"),
                         "--values", str(tmp_path / "f.json")])
        assert result.exit_code == 2
        error = json.loads(result.output)["error"]
        assert error == {"type": "DuplicateError",
                         "message": "labels 1 and '1' share a value key"}


def test_missing_values_exit_two(tmp_path):
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    write_json(tmp_path / "f.json", {"1": 1})
    result = invoke(["check-pd", "--poset", str(tmp_path / "p.json"),
                     "--values", str(tmp_path / "f.json")])
    assert result.exit_code == 2
    body = json.loads(result.output)
    assert body["error"]["type"] == "MissingValueError"


def test_input_source_is_exclusive(tmp_path):
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    both = invoke(["classify", "--poset", str(tmp_path / "p.json"),
                   "--set", "1,2"])
    assert both.exit_code == 1
    neither = invoke(["classify"])
    assert neither.exit_code == 1
    assert "exactly one" in json.loads(neither.output)["error"]["message"]


def test_family_requires_set(tmp_path):
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    result = invoke(["build", "--poset", str(tmp_path / "p.json"),
                     "--family", "min"])
    assert result.exit_code == 1


def test_kind_must_match_family():
    result = invoke(["build", "--set", "2,3",
                     "--family", "reciprocal-power-lcm", "--kind", "meet"])
    assert result.exit_code == 1
    assert "join" in json.loads(result.output)["error"]["message"]


@pytest.mark.parametrize("command", ["build", "check-pd", "bounds", "classify", "closure"])
def test_unknown_kind_exits_one(tmp_path, monkeypatch, command):
    # "Meet" was read as join: build returned the lcm matrix labelled
    # "Meet", closure and classify exited 0, bounds 2, and check-pd built
    # the lcm matrix before it exited 1.  The model refuses it unbuilt.
    calls = count_assembly(monkeypatch)
    write_json(tmp_path / "p.json", {"divisors_of": 12})
    code, text = run(RunConfig(command=command, poset_path=str(tmp_path / "p.json"),
                               function_tag="identity", kind="Meet"))
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "ValueError", "message": "kind must be 'meet' or 'join'",
    }
    assert calls == []


def test_tolerances_must_be_positive():
    result = invoke(["bounds", "--set", "2,3", "--family",
                     "reciprocal-power-lcm", "--tol", "0"])
    assert result.exit_code == 1


def test_check_pd_needs_a_function(tmp_path):
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    result = invoke(["check-pd", "--poset", str(tmp_path / "p.json")])
    assert result.exit_code == 1
    assert "--values or --function" in json.loads(result.output)["error"]["message"]


def test_function_tag_binds_by_label(tmp_path):
    write_json(tmp_path / "p.json", {"divisors_of": 6})
    result = invoke(["check-pd", "--poset", str(tmp_path / "p.json"),
                     "--function", "power", "--alpha", "2"])
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert body["verdict"] == "positive-definite"
    assert body["method"] == "T3.1"
    assert body["flags"]["meet_closed"] is True


FORK = {"n": 5, "relation": [[1, 3], [2, 3], [1, 4], [2, 5]],
        "labels": ["x1", "x2", "a", "b", "c"]}


def bottom_and_two(labels):
    """The poset file of a bottom element below two others."""
    return {"n": 3, "relation": [[1, 2], [1, 3]], "labels": labels}


@pytest.mark.parametrize("data, tag, alpha, label", [
    # 0 under a negative power raised ZeroDivisionError out of run.
    (bottom_and_two([0, 2, 3]), "reciprocal-power", "1", "0"),
    (bottom_and_two([0, 2, 3]), "power", "-1", "0"),
    (bottom_and_two([0, 2, 3]), "reciprocal-power", "1.5", "0"),
    # A negative label under a non-integral exponent gave a complex value,
    # refused as "unsupported value (-1.46...e-15-8j)".
    (bottom_and_two([-4, 2, 3]), "power", "1.5", "-4"),
    # Text labels were refused as "Invalid literal for Fraction: 'x1'".
    (FORK, "identity", "1", "'x1'"),
    (FORK, "power", "1.5", "'x1'"),
    # A negative label past the float range, under the same exponent.
    (bottom_and_two(["-1e400", 2, 3]), "power", "0.25", "'-1e400'"),
])
def test_named_function_refuses_a_label_it_is_undefined_at(
        tmp_path, data, tag, alpha, label):
    write_json(tmp_path / "p.json", data)
    code, text = run(RunConfig(command="check-pd", poset_path=str(tmp_path / "p.json"),
                               function_tag=tag, alpha=alpha))
    assert code == 1
    name = tag.replace("-", "_")
    assert json.loads(text)["error"] == {
        "type": "ValueError",
        "message": f"function {name!r} is not defined at label {label}",
    }


@pytest.mark.parametrize("labels, tag, alpha, method", [
    ([0, 2, 3], "identity", "1", "T3.1"),
    ([0, 2, 3], "power", "1.5", "oracle"),
    ([0, 2, 3], "reciprocal-power", "-1", "T3.1"),
    ([-4, 2, 3], "power", "2", "T3.1"),
    ([-4, 2, 3], "power", "-2", "T3.1"),
])
def test_named_function_on_zero_and_negative_labels(
        tmp_path, labels, tag, alpha, method):
    # Where the function is defined, 0 and negative labels still bind.
    write_json(tmp_path / "p.json", bottom_and_two(labels))
    code, text = run(RunConfig(command="check-pd", poset_path=str(tmp_path / "p.json"),
                               function_tag=tag, alpha=alpha))
    assert code == 0
    assert json.loads(text)["method"] == method


@pytest.mark.parametrize("files, flags, code, expected", [
    ({"p.json": [1, 2]}, {}, 1, "{p}: poset file must be a JSON object"),
    ({"p.json": {"relation": []}}, {}, 1,
     "{p}: need exactly one of n, divisors_of, generated_by"),
    ({"p.json": {"n": 2, "divisors_of": 6}}, {}, 1,
     "{p}: need exactly one of n, divisors_of, generated_by"),
    ({"p.json": {"divisors_of": 0}}, {}, 1,
     "{p}: divisors_of must be a positive integer"),
    ({"p.json": {"generated_by": []}}, {}, 1,
     "{p}: generated_by must be a nonempty list"),
    ({"p.json": {"n": 2, "relation": {"1": 2}}}, {}, 1,
     "{p}: relation must be a list of pairs"),
    ({"p.json": {"n": 2, "set": []}}, {}, 1,
     "{p}: set must be a nonempty list of labels"),
    ({"p.json": WORKED_POSET, "f.json": [1, 2]}, {"command": "check-pd"}, 1,
     "{f}: function table must be a JSON object"),
    ({"p.json": WORKED_POSET, "f.json": WORKED_VALUES},
     {"command": "check-pd", "function_tag": "identity"}, 1,
     "give --values or --function, not both"),
    ({}, {"set_text": " , "}, 1, "the set shorthand is empty"),
    # A table wrapped as {"values": {...}} is read as the inner table.
    ({"p.json": WORKED_POSET, "f.json": {"values": WORKED_VALUES}},
     {"command": "check-pd", "fmt": "csv"}, 0, "psi.2,-1"),
    # A list field is one CSV line, its items joined by ";".
    ({}, {"set_text": "6,10,15", "fmt": "csv"}, 0, "labels,6;10;15"),
])
def test_cli_refusals_and_accepted_shapes(tmp_path, files, flags, code, expected):
    paths = {}
    for name, data in files.items():
        write_json(tmp_path / name, data)
        paths[name[0]] = str(tmp_path / name)
    config = {"command": "classify"}
    if "p" in paths:
        config["poset_path"] = paths["p"]
    if "f" in paths:
        config["values_path"] = paths["f"]
    got, text = run(RunConfig(**{**config, **flags}))
    assert got == code
    expected = expected.format(**paths)
    if code == 0:
        assert expected in text.splitlines()
    else:
        assert json.loads(text)["error"] == {"type": "ValueError", "message": expected}


def test_reports_are_deterministic():
    args = ["check-pd", "--set", "6,10,15", "--family", "power-gcd"]
    first = invoke(args)
    second = invoke(args)
    assert first.output == second.output


def test_seed_and_config_echoed():
    result = invoke(["build", "--set", "1,2", "--family", "min"])
    body = json.loads(result.output)
    assert "seed" not in body["config"]
    assert body["config"]["command"] == "build"
    assert body["config"]["format"] == "json"


def test_integer_over_factor_cap_exits_two():
    # trial division of 10**14 + 31 took most of a second; it is refused
    result = invoke(["check-pd", "--set", f"6,{10**14 + 31}",
                     "--family", "power-gcd"])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "DeskScaleError"
    assert error["message"] == (
        "100000000000031 is over the factorization cap of 1000000000000"
    )


def test_lcm_closure_over_cap_exits_two():
    # The lcm closure of the first 16 primes has 2^16 - 1 elements; building
    # it did not finish in 60 s before the integer closures were capped.
    primes = "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53"
    result = invoke(["closure", "--set", primes, "--family", "reciprocal-power-lcm",
                     "--ambient", "closure"])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "DeskScaleError"
    assert error["message"] == "closure grew past the cap of 10000 elements"


def test_lcm_canonical_universe_is_capped_by_its_size():
    # The up-set below the lcm has 575 elements; it was refused because the
    # lcm has 32768 divisors.
    result = invoke(["build", "--set", "223092870,2756205443",
                     "--family", "reciprocal-power-lcm"])
    assert result.exit_code == 0
    assert json.loads(result.output)["labels"] == [223092870, 2756205443]


def test_closure_ambient_closes_the_set_once(monkeypatch):
    # The lcm closure of the first 12 primes was built over the integers and
    # then again over the poset built from it: two kernel runs, 7 s.
    calls = 0
    original = poset._close

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(poset, "_close", counted)
    monkeypatch.setattr(numtheory, "_close", counted)
    primes = "2,3,5,7,11,13,17,19,23,29,31,37"
    code, text = run(RunConfig(command="closure", set_text=primes,
                               family="reciprocal-power-lcm", ambient="closure"))
    assert code == 0
    assert len(json.loads(text)["members"]) == 2**12 - 1
    assert calls == 1


@pytest.mark.parametrize("ambient", ["closure", "canonical"])
def test_large_lcm_closure_takes_a_call_per_member_and_element(monkeypatch, ambient):
    # The lcm closure of the first 13 primes has 8191 elements.  Combining
    # each pair of it took C(8191, 2) = 33542145 calls, of math.lcm under
    # the closure ambient (15.5 s a request) and of the poset bound under
    # the canonical one (31.5 s), which is the join on the up masks.  The
    # canonical up-set is closed under lcm, so its closure is read off the
    # masks with no join at all.
    calls = 0

    def counted(original):
        def call(*args):
            nonlocal calls
            calls += 1
            return original(*args)
        return call

    lcm = counted(math.lcm)
    monkeypatch.setattr(math, "lcm", lcm)
    monkeypatch.setattr(poset, "join", counted(poset.join))
    kind, tag, _, unitary, universe = numtheory._INTEGER_FAMILIES["power_lcm_reciprocal"]
    monkeypatch.setitem(numtheory._INTEGER_FAMILIES, "power_lcm_reciprocal",
                        (kind, tag, lcm, unitary, universe))
    primes = "2,3,5,7,11,13,17,19,23,29,31,37,41"
    code, text = run(RunConfig(command="closure", set_text=primes,
                               family="reciprocal-power-lcm", ambient=ambient))
    assert code == 0
    assert len(json.loads(text)["members"]) == 2**13 - 1
    if ambient == "canonical":
        assert calls == 0
    else:
        assert 0 < calls <= 13 * (2**13 - 1)


def test_exact_exponent_over_cap_exits_two():
    # alpha 20 ran 15.7 s on these 80 integers, then failed to render det;
    # alpha 2000 on 2..41 did not finish in 90 s.  Both are refused at once.
    sample = ",".join(map(str, random.Random(0).sample(range(1, 3000), 80)))
    cases = [
        (sample, "power-gcd", "20", 4911),
        (sample, "power-gcd", "20.0", 4911),
        (sample, "min", "6", 1473),
        (",".join(map(str, range(2, 42))), "power-gcd", "2000", 99049),
    ]
    for set_text, family, alpha, digits in cases:
        code, text = run(RunConfig(
            command="check-pd", set_text=set_text, family=family, alpha=alpha,
        ))
        assert code == 2
        error = json.loads(text)["error"]
        assert error["type"] == "DeskScaleError"
        assert error["message"] == (
            f"exponent {int(float(alpha))} gives values with about {digits} "
            "digits on the diagonal, over the cap of 1000"
        )
    # under the cap: exact exponents up to 4 here, and float exponents whose
    # largest value stays in float range
    for alpha in ("4", "-4", "1.5", "20.5"):
        _resolve(RunConfig(command="check-pd", set_text=sample,
                           family="power-gcd", alpha=alpha))
    code, _ = run(RunConfig(command="check-pd", set_text="2,3",
                            family="power-gcd", alpha="-1000"))
    assert code == 0


def test_float_exponent_past_float_range_exits_two(tmp_path):
    # 2999**100.5 overflowed in NamedFunction.evaluate and escaped run().
    code, text = run(RunConfig(command="check-pd", set_text="2999", alpha="100.5"))
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "DeskScaleError"
    assert error["message"] == (
        "exponent 100.5 gives values near 1e349, past the float range of 1e308"
    )
    # the same rule for --function on the poset's labels, either sign
    write_json(tmp_path / "p.json", {"divisors_of": 2999, "set": [1]})
    for alpha, code in (("88.5", 0), ("-88.5", 0), ("90.5", 2), ("-90.5", 2)):
        result = invoke(["build", "--poset", str(tmp_path / "p.json"),
                         "--function", "power", "--alpha", alpha])
        assert result.exit_code == code, alpha
    assert json.loads(result.output)["error"]["type"] == "DeskScaleError"


def test_exponent_cap_reads_every_numeric_label(tmp_path, monkeypatch):
    # The cap counted only positive int labels: the text and the negative
    # labels below ran the whole decision on ~19000-digit values and were
    # refused only while rendering ("a rational of about 19432 digits").
    # Now each gets the up-front error of the int labels, before any value
    # is bound.
    path = tmp_path / "p.json"

    def refused(labels, alpha):
        write_json(path, {"n": 2, "relation": [[1, 2]], "labels": labels})
        code, text = run(RunConfig(command="check-pd", poset_path=str(path),
                                   function_tag="power", alpha=alpha))
        assert code == 2, labels
        error = json.loads(text)["error"]
        assert error["type"] == "DeskScaleError"
        return error["message"]

    def bind(self, poset):
        raise AssertionError("a refused exponent bound its values")

    with monkeypatch.context() as patch:
        patch.setattr(numtheory.NamedFunction, "bind", bind)
        for labels in ([2999999, 5999998], ["2999999", "5999998"],
                       [-2999999, -5999998], ["1/2999999", "-5999998"]):
            assert refused(labels, "3000") == (
                "exponent 3000 gives values with about 39766 digits on the "
                "diagonal, over the cap of 1000"
            )
        # a label past float range, which float() read as inf or 0.0
        assert refused(["2", "1e-400"], "1.5") == (
            "exponent 1.5 gives values near 1e600, past the float range of 1e308"
        )
        # a decimal exponent is counted, not expanded into a 10**9-digit int
        assert refused(["2", "1e999999999"], "1.5") == (
            "exponent 1.5 gives values near 1e1499999998, past the float "
            "range of 1e308"
        )
    # 0 and text that is no number are left to the function, which refuses
    # the text
    write_json(path, {"n": 2, "relation": [[1, 2]], "labels": [0, "x1"]})
    code, text = run(RunConfig(command="check-pd", poset_path=str(path),
                               function_tag="power", alpha="3000"))
    assert code == 1
    assert json.loads(text)["error"] == {
        "type": "ValueError",
        "message": "function 'power' is not defined at label 'x1'",
    }


def test_huge_decimal_exponent_in_value_text_is_refused_at_once(tmp_path):
    # Fraction expanded "1e10000000" into a 10000001-digit int (7.9 s, 48 MB)
    # that was refused only while rendering; now the text is refused before.
    write_json(tmp_path / "p.json", {"divisors_of": 4})
    write_json(tmp_path / "f.json", {"1": 1, "2": "1e10000000", "4": 3})
    write_json(tmp_path / "l.json", {"n": 2, "relation": [[1, 2]],
                                     "labels": ["2", "1e10000000"]})
    configs = [
        RunConfig(command="check-pd", poset_path=str(tmp_path / "p.json"),
                  values_path=str(tmp_path / "f.json")),
        RunConfig(command="check-pd", poset_path=str(tmp_path / "l.json"),
                  function_tag="identity"),
    ]
    for config in configs:
        start = time.perf_counter()
        code, text = run(config)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert json.loads(text)["error"] == {
            "type": "DeskScaleError",
            "message": "'1e10000000' has the decimal exponent 10000000, past "
                       "the cap of 1000 digits",
        }


@pytest.mark.parametrize("alpha, value", [
    ("2", "1/4"), ("1.5", 0.5 ** 1.5), ("-1.5", 0.5 ** -1.5)])
def test_a_fraction_label_binds_under_every_exponent(tmp_path, alpha, value):
    # "1/2" bound as 1/4 under --alpha 2 but was refused under --alpha 1.5:
    # the float exponent read the label through float().
    write_json(tmp_path / "p.json", bottom_and_two(["1/2", 2, 3]))
    code, text = run(RunConfig(command="build", poset_path=str(tmp_path / "p.json"),
                               function_tag="power", alpha=alpha))
    assert code == 0
    assert json.loads(text)["matrix"][0][0] == value


def test_a_label_ending_like_an_exponent_is_no_number(tmp_path):
    # The cap read "node2000" as a decimal exponent of 2000 and refused it as
    # 4002 digits; it is text the function is not defined at.
    write_json(tmp_path / "p.json", bottom_and_two(["node2000", 2, 3]))
    for alpha in ("2", "1.5"):
        code, text = run(RunConfig(command="check-pd",
                                   poset_path=str(tmp_path / "p.json"),
                                   function_tag="power", alpha=alpha))
        assert code == 1
        assert json.loads(text)["error"] == {
            "type": "ValueError",
            "message": "function 'power' is not defined at label 'node2000'",
        }


@pytest.mark.parametrize("label, tag, value", [
    ("1e400", "power", 1e100), ("1e400", "reciprocal-power", 1e-100),
    ("1e-400", "power", 1e-100), ("1e-400", "reciprocal-power", 1e100)])
def test_a_label_past_the_float_range_binds_where_its_power_is_inside(
        tmp_path, label, tag, value):
    # float("1e400") overflowed, so the request exited 2 as out of float
    # range; float("1e-400") is 0.0, so the reply showed 0.0.  The labels
    # inside the range keep the bits of their float power.
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]],
                                     "labels": ["3", label]})
    code, text = run(RunConfig(command="build", poset_path=str(tmp_path / "p.json"),
                               function_tag=tag, alpha="0.25"))
    assert code == 0
    low = 3.0 ** 0.25 if tag == "power" else 1.0 / 3.0 ** 0.25
    matrix = json.loads(text)["matrix"]
    assert matrix[:1] == [[low, low]] and matrix[1][0] == low
    assert matrix[1][1] == pytest.approx(value, rel=1e-15, abs=0)


def test_float_overflow_exits_two():
    # An exact exponent under the digit cap whose values still pass 1e308 as
    # floats: bounds raised "integer division result too large for a float".
    code, text = run(RunConfig(command="bounds", set_text="2999,2", alpha="100"))
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "DeskScaleError"
    assert "too large for a float" in error["message"]


def test_non_finite_numbers_give_an_error_reply(monkeypatch):
    # A report is strict JSON or an error reply, never NaN or Infinity.
    def strict(text):
        return json.loads(text, parse_constant=lambda name: pytest.fail(name))

    monkeypatch.setattr(cli, "_execute", lambda config, resolved: (0, {"x": math.nan}))
    code, text = run(RunConfig(command="build", set_text="6", family="min"))
    assert code == 1
    assert strict(text)["error"]["type"] == "ValueError"
    monkeypatch.undo()
    for tol in (math.nan, math.inf):
        code, text = run(RunConfig(command="bounds", set_text="6", tol=tol))
        assert code == 1
        body = strict(text)
        assert body["config"]["tol"] == str(tol)
        assert body["error"]["message"] == "tolerances must be positive and finite"


@pytest.mark.parametrize("value", [
    [], {}, [[], {}, ()], ((1, (2.5, ())), ()),
    {"label": "naïve ∧ ☃", "yes": True, "no": False, "none": None, 1: -0.0},
    {"matrix": ((1.0, 2 ** 70), (2 ** 70, "\n")), "rows": [[], [[1]]]},
    [{"a": [1, {"b": []}]}, 1e-320, [None, [True]]],
    {"exact": True,
     "matrix": [["1/2", 3, -0.0], [3, "-7/3", 1e-320], [-0.0, 1e-320, 2 ** 70]]},
    {"labels": [1, 2, 3], "matrix": [[1 / 3] * 3] * 3},  # one entry object
    {"matrix": [[2.5]]},
    {"kind": "meet", "matrix": [[",", '"'], ["\n", ",\n      "]]},
])
def test_writer_is_the_indented_json_layout(value):
    assert cli._json(value) == json.dumps(value, indent=2, allow_nan=False)


def test_writer_reads_text_labels_as_they_are(tmp_path):
    write_json(tmp_path / "p.json", bottom_and_two(["⊥", "naïve", "\u00e9\n"]))
    code, text = run(RunConfig(command="classify", poset_path=str(tmp_path / "p.json")))
    assert code == 0
    assert json.loads(text)["labels"] == ["⊥", "naïve", "\u00e9\n"]
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {"x": math.nan}, {"matrix": ((1.0, -math.inf), (-math.inf, 1.0))},
    {"a": [1, [math.inf]], "b": math.nan}, [2.0, {math.nan: 1}],
])
def test_writer_names_a_non_finite_float_as_json_does(value):
    # The C encoder leaves the value out of its message.
    with pytest.raises(ValueError) as expected:
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json(value)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


def test_an_int_over_the_digit_limit_is_a_value_error(monkeypatch):
    big = 10 ** sys.get_int_max_str_digits()
    for payload in ({"x": big}, {"matrix": ((1, big), (big, 1))}):
        monkeypatch.setattr(cli, "_execute", lambda config, model: (0, payload))
        code, text = run(RunConfig(command="build", set_text="6", family="min"))
        assert code == 1
        assert json.loads(text)["error"]["type"] == "ValueError"


def test_malformed_inputs_give_an_error_reply(tmp_path):
    # "1/0", "0/0" and a values table holding "1/0" raised ZeroDivisionError
    # out of run; "n": true passed as an int and gave a 1-element poset.
    # inf and nan values used to reach a verdict; binding now refuses them.
    # --alpha 1e400 read as inf was refused as a DeskScaleError (exit 2).
    # --alpha nan was refused as a bad function value, not as a bad number.
    write_json(tmp_path / "p.json", {"n": 3, "relation": [[1, 2], [2, 3]]})
    write_json(tmp_path / "true.json", {"n": True})
    alphas = {"1/0": "divides by zero", "0/0": "divides by zero",
              "nan": "'nan' is not a finite number",
              "abc": None, "": None,
              "1e400": "'1e400' is not a finite number",
              "-1e400": "'-1e400' is not a finite number",
              "inf": "'inf' is not a finite number"}
    cases = [
        (RunConfig(command=command, set_text="6,10,15", alpha=alpha), fragment)
        for alpha, fragment in alphas.items()
        for command in ("check-pd", "bounds")
    ]
    cases.append((RunConfig(command="classify",
                            poset_path=str(tmp_path / "true.json")),
                  "n must be a positive integer"))
    cases.append((RunConfig(command="build", poset_path=str(tmp_path / "p.json"),
                            function_tag="table"),
                  "unknown function tag 'table'"))
    values = {'"1/0"': "divides by zero",
              "Infinity": "values must be finite, not inf",
              "-Infinity": "values must be finite, not -inf",
              "NaN": "values must be finite, not nan"}
    for k, (value, fragment) in enumerate(values.items()):
        table = tmp_path / f"f{k}.json"
        table.write_text('{"1": 1.0, "2": 2.0, "3": %s}' % value, encoding="utf-8")
        cases.append((RunConfig(command="check-pd",
                                poset_path=str(tmp_path / "p.json"),
                                values_path=str(table)), fragment))
    for config, fragment in cases:
        code, text = run(config)
        assert code in (1, 2), config
        body = json.loads(text, parse_constant=lambda name: pytest.fail(name))
        assert set(body["error"]) == {"type", "message"}, config
        if fragment is not None:
            assert code == 1, config
            assert fragment in body["error"]["message"], config


def test_a_nonzero_alpha_below_the_float_range_is_refused(tmp_path):
    # float("1e-400") is 0.0, which became the exact exponent 0: check-pd on
    # 2, 3 answered not-positive-definite with det "0", though every mass
    # J_alpha(d) of a power-GCD matrix is positive for alpha > 0.  A zero
    # spelled as a float keeps the reply of the exponent 0.
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    runs = [["check-pd", "--set", "2,3", "--family", "power-gcd"],
            ["check-pd", "--poset", str(tmp_path / "p.json"), "--function", "power"]]
    for args in runs:
        for alpha in ("1e-400", "-1e-400", "0.0001e-400"):
            result = invoke([*args, "--alpha", alpha])
            assert result.exit_code == 1
            assert json.loads(result.output)["error"] == {
                "type": "ValueError",
                "message": f"{alpha!r} is not zero, but below the float range"}
        replies = []
        for alpha in ("0", "0.0", "-0.0", "0e-400"):
            result = invoke([*args, "--alpha", alpha])
            assert result.exit_code == 0
            body = json.loads(result.output)
            assert body.pop("config")["alpha"] == alpha
            replies.append(body)
        assert all(body == replies[0] for body in replies)


@pytest.mark.parametrize("alpha", ["nan", "NaN", "-nan", " nan "])
def test_nan_alpha_is_refused_as_a_number(alpha, tmp_path):
    # --alpha nan was read as a float and refused later as a function value.
    write_json(tmp_path / "p.json", {"n": 2, "relation": [[1, 2]]})
    runs = [["check-pd", "--set", "6,10,15", "--alpha", alpha],
            ["bounds", "--poset", str(tmp_path / "p.json"), "--function", "power",
             "--alpha", alpha]]
    for args in runs:
        result = invoke(args)
        assert result.exit_code == 1
        error = json.loads(result.output)["error"]
        assert error == {"type": "ValueError",
                         "message": f"{alpha!r} is not a finite number"}


def test_malformed_poset_files_are_refused(tmp_path):
    # Each was read as something else: "abc" as the labels a, b, c, an empty
    # list as the default labels, and true as the position 1.
    files = {
        "labels": {"n": 3, "relation": [[1, 2]], "labels": "abc"},
        "labels length": {"n": 3, "relation": [[1, 2]], "labels": []},
        "labels must": {"n": 2, "labels": [True, False]},
        "relation entries": {"n": 3, "relation": [[True, 2]]},
    }
    for k, (field, data) in enumerate(files.items()):
        write_json(tmp_path / f"p{k}.json", data)
        result = invoke(["classify", "--poset", str(tmp_path / f"p{k}.json")])
        assert result.exit_code == 1, data
        error = json.loads(result.output)["error"]
        assert error["type"] == "ValueError"
        assert field in error["message"], data


def test_long_chain_file_closes_fast(tmp_path):
    # Listed against its order; closing the relation took 17.8 s.
    n = 3000
    write_json(tmp_path / "p.json", {"n": n, "relation": [[i + 1, i] for i in range(1, n)],
                                     "set": [1, 2, 3]})
    start = time.perf_counter()
    result = invoke(["closure", "--poset", str(tmp_path / "p.json")])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    assert json.loads(result.output)["members"] == [3, 2, 1]


def test_gcud_closure_past_the_factorization_cap():
    # The closure ambient needs no factorization; gcud used to factorize.
    result = invoke(["check-pd", "--set", "10000000000000,6",
                     "--family", "gcud-power", "--ambient", "closure"])
    assert result.exit_code == 0, result.output


def test_exponent_cap_on_poset_labels(tmp_path):
    # The function is bound to every label, not only to the set's: the 24
    # divisors of 360 give ~30.7 digits per unit of the exponent.
    write_json(tmp_path / "p.json", {"divisors_of": 360, "set": [1]})
    for alpha, code in (("1", 0), ("32", 0), ("33", 2), ("1000000", 2)):
        result = invoke(["build", "--poset", str(tmp_path / "p.json"),
                         "--function", "power", "--alpha", alpha])
        assert result.exit_code == code, alpha
    assert json.loads(result.output)["error"]["type"] == "DeskScaleError"


def test_number_over_the_digit_limit_exits_two(tmp_path):
    # A det over the interpreter's integer string limit used to exit 1 with
    # Python's own ValueError; the limit itself is left as it is.
    limit = sys.get_int_max_str_digits()
    big = 10 ** (limit // 3 + 1)
    write_json(tmp_path / "p.json", {"n": 4, "relation": [[1, 2], [2, 3], [3, 4]]})
    write_json(tmp_path / "f.json", {str(k): k * big for k in range(1, 5)})
    code, text = run(RunConfig(
        command="check-pd", poset_path=str(tmp_path / "p.json"),
        values_path=str(tmp_path / "f.json"),
    ))
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "DeskScaleError"
    assert f"over the limit of {limit} digits" in error["message"]
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_build_entry_over_the_digit_limit_exits_two(fmt):
    # build hands its raw entries to the writer, which keeps the guard.
    # 2999**200 has 696 digits, under the exponent cap and over the
    # lowest limit the interpreter takes.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, text = run(RunConfig(command="build", set_text="2999,2", alpha="200",
                                   fmt=fmt))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    error = json.loads(text)["error"]
    assert error["type"] == "DeskScaleError"
    assert "over the limit of 640 digits" in error["message"]


def test_poset_file_over_cap_exits_two(tmp_path):
    # refused before build_poset allocates 10001 elements
    write_json(tmp_path / "p.json", {"n": 10001, "relation": [], "set": [1]})
    result = invoke(["classify", "--poset", str(tmp_path / "p.json")])
    assert result.exit_code == 2
    error = json.loads(result.output)["error"]
    assert error["type"] == "DeskScaleError"
    assert "poset of 10001 elements is over the cap of 10000" in error["message"]


def test_output_file(tmp_path):
    target = tmp_path / "report.json"
    result = invoke(["build", "--set", "1,2,3", "--family", "min",
                     "--output", str(target)])
    assert result.exit_code == 0
    assert result.output == ""
    body = json.loads(target.read_text(encoding="utf-8"))
    assert body["matrix"][2][2] == "3"


def test_an_unwritable_output_file_gets_an_error_reply(tmp_path):
    # Opening the file raised FileNotFoundError out of _emit: a traceback.
    target = tmp_path / "missing" / "x.json"
    result = invoke(["classify", "--set", "6,10", "--output", str(target)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not the FileNotFoundError
    assert json.loads(result.output)["error"]["type"] == "FileNotFoundError"
    assert not target.parent.exists()


def test_ambient_choice_changes_universe():
    closure = invoke(["closure", "--set", "4,6", "--family", "power-gcd",
                      "--ambient", "closure"])
    body = json.loads(closure.output)
    assert body["members"] == [2, 4, 6]
    canonical = invoke(["closure", "--set", "4,6", "--family", "power-gcd",
                        "--ambient", "canonical"])
    assert json.loads(canonical.output)["members"] == [2, 4, 6]


def test_a_failed_mass_cross_check_ends_check_pd(tmp_path, monkeypatch):
    # No closed superset decides here, so the reply computes psi over the
    # closure again.  A failed re-sum check there dropped the psi key and
    # exited 0; only a missing bound or float values leave psi out.
    write_json(tmp_path / "p.json", {"divisors_of": 12, "set": [2, 3]})
    write_json(tmp_path / "f.json",
               {"1": 1, "2": -1, "3": 2, "4": 5, "6": "1/2", "12": 7})
    config = RunConfig(command="check-pd", poset_path=str(tmp_path / "p.json"),
                       values_path=str(tmp_path / "f.json"))
    code, text = run(config)
    assert code == 0
    body = json.loads(text)
    assert body["method"] == "oracle" and "psi" in body

    def fails(*args):
        raise CharacterizationMismatch("psi masses do not re-sum to f")

    monkeypatch.setattr(cli, "_masses", fails)
    code, text = run(config)
    assert code == 2
    assert json.loads(text)["error"] == {
        "type": "CharacterizationMismatch",
        "message": "psi masses do not re-sum to f",
    }


def test_no_request_builds_an_order_dual(tmp_path, monkeypatch):
    # The join side reads the up masks; before, join closures, join tests
    # and join matrices ran the meet code on duals of the poset, the set
    # and the function.
    calls = Counter()

    def counted(cls):
        original = cls.dual

        def dual(self):
            calls[cls.__name__] += 1
            return original(self)
        monkeypatch.setattr(cls, "dual", dual)

    for cls in (FinitePoset, Subset, PosetFunction):
        counted(cls)
    write_json(tmp_path / "div.json", {"divisors_of": 12, "set": [2, 3, 4]})
    # x1 and x2 lie below a, x1 below b, x2 below c: b and c have no meet,
    # and x1 and x2 no join.
    write_json(tmp_path / "fork.json", {
        "n": 5, "relation": [[1, 3], [2, 3], [1, 4], [2, 5]],
        "labels": ["x1", "x2", "a", "b", "c"],
    })
    write_json(tmp_path / "fork_f.json", {"x1": 1, "x2": 2, "a": 3, "b": 4, "c": 5})
    requests = [dict(set_text="6,10,15,4", family="power-gcd"),
                dict(set_text="4,6,9,10", family="reciprocal-power-lcm")]
    for kind in ("meet", "join"):
        requests += [
            dict(poset_path=str(tmp_path / "div.json"), kind=kind,
                 function_tag="identity"),
            dict(poset_path=str(tmp_path / "fork.json"), kind=kind,
                 values_path=str(tmp_path / "fork_f.json")),
        ]
    codes = Counter()
    for command in ("build", "check-pd", "bounds", "classify", "closure"):
        for request in requests:
            code, _ = run(RunConfig(command=command, **request))
            codes[code] += 1
    assert set(codes) <= {0, 2} and codes[0] >= 20
    assert calls == Counter()
