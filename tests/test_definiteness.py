import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from meetjoin import (
    NOT_APPLICABLE,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    ClosureResult,
    NoJoinError,
    NoMeetError,
    NotClosedError,
    NotSupersetError,
    PosetFunction,
    PreconditionError,
    Subset,
    SymMatrix,
    build_named_matrix,
    build_poset,
    classify_and_test,
    divisor_down_set,
    down_set,
    join_closure,
    join_matrix,
    meet_closure,
    meet_matrix,
    monotonicity_from_pd,
    pd_join_closed,
    pd_meet_closed,
    pd_oracle,
    pd_superset_sufficient,
    pd_tree,
    structure_flags,
    total_order_poset,
    up_set,
)
from support import (
    cofactor_det,
    leading_minors_positive,
    random_divisor_lattice,
    random_function,
    random_intersection_lattice,
    random_join_closed_subset,
    random_meet_closed_subset,
    random_monotone_function,
    random_poset,
    random_rational,
    random_subset,
    random_tree_poset,
)


def random_sym(rng, n):
    rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j]
    return SymMatrix(tuple(tuple(r) for r in rows))


def test_oracle_matches_minor_oracle():
    rng = random.Random(701)
    for _ in range(150):
        m = random_sym(rng, rng.randint(1, 5))
        report = pd_oracle(m)
        assert report.is_positive_definite == leading_minors_positive(m)


def test_oracle_certificate_is_checkable():
    rng = random.Random(702)
    extra = [
        # rows with several distinct denominators each
        build_named_matrix("reciprocal-power-lcm", [2, 3, 4, 5]).matrix,
        build_named_matrix("reciprocal-power-lcm", [1, 2, 3, 6, 10], alpha=2).matrix,
        # refuted at k=1 by a zero minor
        SymMatrix(((0, 1), (1, 0))),
        SymMatrix(((0, 0), (0, 1))),
    ]
    for m in [random_sym(rng, rng.randint(1, 5)) for _ in range(80)] + extra:
        report = pd_oracle(m)
        minors = report.certificate["minors"]
        # every reported minor value must equal the cofactor determinant
        for k, value in enumerate(minors, start=1):
            rows = [[m.entry(i, j) for j in range(k)] for i in range(k)]
            assert value == cofactor_det(rows)
        if report.verdict == NOT_POSITIVE_DEFINITE:
            k = report.certificate["minor_index"]
            assert report.certificate["minor_value"] == minors[k - 1]
            assert minors[k - 1] <= 0
            # elimination stops at the first failing minor
            assert len(minors) == k
    for m in extra[2:]:
        assert pd_oracle(m).certificate["minor_index"] == 1


def test_oracle_float_tolerance():
    m = SymMatrix(((1.0, 0.0), (0.0, 1e-14)))
    assert pd_oracle(m).is_positive_definite
    assert not pd_oracle(m, tol=1e-9).is_positive_definite


def test_oracle_refuses_negative_or_infinite_tol():
    # Below zero the elimination ran on past a zero pivot and divided by
    # zero: at once in the float kernel, two steps later in Bareiss.
    swap = SymMatrix(((0.0, 1.0), (1.0, 0.0)))
    perm = SymMatrix(((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    for m, tol in ((swap, -1), (perm, -2), (swap, math.inf), (perm, math.nan)):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            pd_oracle(m, tol=tol)
    assert pd_oracle(perm, tol=Fraction(1, 2)).certificate["minor_index"] == 2


def test_float_oracle_verdict_matches_exact_minors():
    # Random symmetric matrices, mostly indefinite, and meet matrices of
    # strictly monotone positive functions on trees, positive definite by
    # T4.4.  Away from a zero leading minor the float verdict is exact.
    rng = random.Random(705)
    verdicts = Counter()
    for _ in range(200):
        p = random_tree_poset(rng, rng.randint(2, 6))
        for m in (
            random_sym(rng, rng.randint(1, 6)),
            meet_matrix(random_subset(rng, p), random_monotone_function(rng, p)),
        ):
            blocks = [[[m.entry(i, j) for j in range(k)] for i in range(k)]
                      for k in range(1, m.n + 1)]
            if any(abs(cofactor_det(b)) <= 1e-9 for b in blocks):
                continue
            floaty = SymMatrix(tuple(tuple(float(v) for v in r) for r in m.entries))
            verdict = pd_oracle(floaty).is_positive_definite
            assert verdict == leading_minors_positive(m)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 100


def test_sign_test_iff_oracle_meet():
    rng = random.Random(703)
    done = 0
    while done < 150:
        p = random_poset(rng)
        try:
            s = random_meet_closed_subset(rng, p)
        except NoMeetError:
            continue
        f = random_function(rng, p)
        report = pd_meet_closed(s, f)
        assert report.verdict != NOT_APPLICABLE
        oracle = pd_oracle(meet_matrix(s, f))
        assert report.verdict == oracle.verdict
        done += 1


def test_sign_test_iff_oracle_join():
    rng = random.Random(704)
    done = 0
    while done < 150:
        p = random_poset(rng)
        try:
            s = random_join_closed_subset(rng, p)
        except Exception:
            continue
        f = random_function(rng, p)
        report = pd_join_closed(s, f)
        assert report.verdict != NOT_APPLICABLE
        oracle = pd_oracle(join_matrix(s, f))
        assert report.verdict == oracle.verdict
        done += 1


def test_sign_test_not_applicable_on_open_sets():
    lat = divisor_down_set([6, 10, 15])
    s = lat.subset_of([6, 10, 15])
    f = PosetFunction.from_callable(lat.poset, Fraction)
    assert pd_meet_closed(s, f).verdict == NOT_APPLICABLE


def test_join_refutation_certificate_names_trailing_minor():
    # masses (-1, -1, 5): the first two multiply away in a trailing 2-minor
    # anchored at the first one, so the witness must anchor at the last
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (Fraction(3), Fraction(4), Fraction(5)))
    s = Subset.whole(p)
    report = pd_join_closed(s, f)
    assert report.verdict == NOT_POSITIVE_DEFINITE
    cert = report.certificate
    assert cert["masses"] == (Fraction(-1), Fraction(-1), Fraction(5))
    assert cert["minor_side"] == "trailing"
    assert cert["minor_index"] == 2
    m = join_matrix(s, f)
    k = cert["minor_index"]
    rows = [[m.entry(i, j) for j in range(m.n - k, m.n)]
            for i in range(m.n - k, m.n)]
    assert cofactor_det(rows) <= 0


def test_meet_refutation_certificate_names_leading_minor():
    rng = random.Random(705)
    found = 0
    while found < 40:
        p = random_poset(rng)
        try:
            s = random_meet_closed_subset(rng, p)
        except NoMeetError:
            continue
        f = random_function(rng, p)
        report = pd_meet_closed(s, f)
        if report.verdict != NOT_POSITIVE_DEFINITE:
            continue
        cert = report.certificate
        assert cert["minor_side"] == "leading"
        k = cert["minor_index"]
        m = meet_matrix(s, f)
        rows = [[m.entry(i, j) for j in range(k)] for i in range(k)]
        assert cofactor_det(rows) <= 0
        found += 1


def test_trailing_refutation_certificate_randomized():
    rng = random.Random(706)
    found = 0
    while found < 40:
        p = random_poset(rng)
        try:
            s = random_join_closed_subset(rng, p)
        except Exception:
            continue
        f = random_function(rng, p)
        report = pd_join_closed(s, f)
        if report.verdict != NOT_POSITIVE_DEFINITE:
            continue
        cert = report.certificate
        assert cert["minor_side"] == "trailing"
        k = cert["minor_index"]
        m = join_matrix(s, f)
        rows = [[m.entry(i, j) for j in range(m.n - k, m.n)]
                for i in range(m.n - k, m.n)]
        assert cofactor_det(rows) <= 0
        found += 1


def test_superset_sufficient_never_refutes():
    rng = random.Random(707)
    done = 0
    while done < 120:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            d = down_set(s)
            report = pd_superset_sufficient(s, d, f, "meet")
        except NoMeetError:
            continue
        assert report.verdict in (POSITIVE_DEFINITE, NOT_APPLICABLE)
        if report.verdict == POSITIVE_DEFINITE:
            assert pd_oracle(meet_matrix(s, f)).is_positive_definite
        done += 1


def test_superset_sufficient_accepts_closure_result():
    lat = divisor_down_set([6, 10, 15])
    s = lat.subset_of([6, 10, 15])
    f = PosetFunction.from_callable(lat.poset, Fraction)
    report = pd_superset_sufficient(s, meet_closure(s), f)
    assert report.verdict == POSITIVE_DEFINITE
    assert report.method == "C3.4"


def test_superset_sufficient_checks_a_hand_built_closure():
    # classify_and_test trusts the closures it builds; a caller's superset,
    # even one wrapped as a ClosureResult, is still checked.
    lat = divisor_down_set([6, 10, 15])
    s = lat.subset_of([6, 10, 15])
    f = PosetFunction.from_callable(lat.poset, Fraction)
    fake = lat.subset_of([2, 6, 10, 15])  # gcd(6, 15) = 3 is missing
    hand_built = ClosureResult(subset=fake, embed=(1, 2, 3), kind="meet")
    with pytest.raises(NotClosedError):
        pd_superset_sufficient(s, hand_built, f)
    with pytest.raises(NotClosedError):
        pd_superset_sufficient(s, fake, f, "meet")


def test_superset_must_cover_the_set():
    lat = divisor_down_set([6, 10, 15])
    s = lat.subset_of([6, 10, 15])
    f = PosetFunction.from_callable(lat.poset, Fraction)
    with pytest.raises(NotSupersetError):
        pd_superset_sufficient(s, lat.subset_of([1, 2, 3]), f, "meet")


def test_tree_rule_matches_oracle():
    rng = random.Random(708)
    for _ in range(120):
        p = random_tree_poset(rng, rng.randint(2, 8))
        s = random_subset(rng, p)
        f = random_monotone_function(rng, p, strict=True, positive=True)
        report = pd_tree(s, f, "meet")
        assert report.verdict == POSITIVE_DEFINITE
        assert pd_oracle(meet_matrix(s, f)).is_positive_definite


def test_tree_rule_names_failed_hypothesis():
    p = total_order_poset((1, 2, 3))
    s = Subset.whole(p)
    flat = PosetFunction(p, (1, 1, 2))
    report = pd_tree(s, flat, "meet")
    assert report.verdict == NOT_APPLICABLE
    assert "strictly order-preserving" in report.certificate["failed_hypothesis"]
    negative = PosetFunction(p, (-1, 0, 1))
    report = pd_tree(s, negative, "meet")
    assert report.verdict == NOT_APPLICABLE
    assert "positive" in report.certificate["failed_hypothesis"]


def test_tree_rule_float_hypotheses_only():
    p = total_order_poset((1, 2, 3))
    s = Subset.whole(p)
    f = PosetFunction(p, (0.5, 1.5, 2.5))
    report = pd_tree(s, f, "meet")
    assert report.verdict == POSITIVE_DEFINITE
    assert report.certificate.get("hypotheses_only") is True


def test_monotonicity_from_pd_on_trees():
    rng = random.Random(709)
    for _ in range(100):
        p = random_tree_poset(rng, rng.randint(2, 7))
        s = Subset.whole(p)
        f = random_monotone_function(rng, p, strict=True, positive=True)
        assert monotonicity_from_pd(s, f) is True


def test_monotonicity_from_pd_preconditions():
    # no minimum
    p = build_poset(3, [(1, 3), (2, 3)])
    s = Subset.whole(p)
    f = PosetFunction(p, (1, 1, 2))
    with pytest.raises(PreconditionError):
        monotonicity_from_pd(s, f)
    # Hasse diagram of the set is a diamond, not a tree
    q = build_poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    g = PosetFunction(q, (1, 2, 2, 3))
    with pytest.raises(PreconditionError):
        monotonicity_from_pd(Subset.whole(q), g)
    # inside the diamond, a side chain and its two ends are trees; the ends
    # cover each other in the set, though not in the diamond
    for labels in ([1, 2, 4], [1, 4]):
        assert monotonicity_from_pd(Subset.of_labels(q, labels), g) is True
    # not positive definite
    chain = total_order_poset((1, 2, 3))
    bad = PosetFunction(chain, (2, 1, 3))
    with pytest.raises(PreconditionError):
        monotonicity_from_pd(Subset.whole(chain), bad)


def test_classify_method_precedence():
    # closed set: settled by the sign test
    chain = total_order_poset((1, 2, 3))
    up = PosetFunction(chain, (1, 2, 3))
    assert classify_and_test(Subset.whole(chain), up, "meet").method == "T3.1"
    assert classify_and_test(Subset.whole(chain), up, "join").method == "T3.2"

    # open set with positive closure masses: settled by the superset rule
    lat = divisor_down_set([6, 10, 15])
    s = lat.subset_of([6, 10, 15])
    ident = PosetFunction.from_callable(lat.poset, Fraction)
    assert classify_and_test(s, ident, "meet").method == "C3.4"

    # float function on a tree: exact routes skipped, tree rule fires
    p = total_order_poset((1, 2, 4))
    f = PosetFunction(p, (0.5, 1.5, 2.5))
    s2 = Subset.of_labels(p, [1, 2, 4])
    assert classify_and_test(s2, f, "meet").method == "T4.4"


def test_classify_falls_back_to_oracle():
    lat = divisor_down_set([6, 10, 15])
    f = PosetFunction.from_table(
        lat.poset, {"1": 0, "2": -1, "3": 3, "5": -2, "6": 5, "10": 2, "15": 3}
    )
    s = lat.subset_of([6, 10, 15])
    report = classify_and_test(s, f, "meet")
    assert report.verdict == POSITIVE_DEFINITE
    assert report.method == "oracle"
    assert report.certificate["minors"] == (Fraction(5), Fraction(9), Fraction(1))


def test_classify_agrees_with_oracle_randomized():
    rng = random.Random(710)
    done = 0
    while done < 120:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            report = classify_and_test(s, f, "meet")
            oracle = pd_oracle(meet_matrix(s, f))
        except NoMeetError:
            continue
        assert report.is_positive_definite == oracle.is_positive_definite
        done += 1
    # both kinds, on monotone, float and mixed-value functions too; a dual
    # poset turns trees into join-tree sets
    rng = random.Random(7100)
    done = Counter()
    methods = Counter()
    while len(done) < 8 or min(done.values()) < 60:
        p = random_poset(rng)
        if rng.random() < 0.5:
            p = p.dual()
        s = random_subset(rng, p)
        kind = rng.choice(("meet", "join"))
        style = rng.choice(("exact", "monotone", "float", "mixed"))
        f = styled_function(rng, p, style, kind)
        try:
            report = classify_and_test(s, f, kind)
            build = meet_matrix if kind == "meet" else join_matrix
            oracle = pd_oracle(build(s, f))
        except (NoMeetError, NoJoinError):
            continue
        assert report.is_positive_definite == oracle.is_positive_definite
        done[kind, style] += 1
        methods[report.method] += 1
    assert set(methods) == {"T3.1", "T3.2", "C3.4", "C3.6", "T4.4", "oracle"}


def styled_function(rng, p, style, kind):
    """Exact random values, exact strictly monotone values (order-reversing
    for join), or either one with all or about a third of its values made
    floats."""
    if style == "exact":
        return random_function(rng, p)
    f = random_monotone_function(rng, p, reverse=kind == "join")
    if style == "monotone":
        return f
    if rng.random() < 0.5:
        f = random_function(rng, p)
    share = 1 if style == "float" else 0.3
    return PosetFunction(
        p, tuple(float(v) if rng.random() < share else v for v in f.values)
    )


def mass_function(rng, p, kind):
    """Values summed from masses, mostly positive, over the principal
    down-sets (meet) or up-sets (join) of the whole poset, so the masses
    over every down-set (up-set) are the same ones and often positive."""
    masses = [Fraction(rng.randint(-1, 6), rng.randint(1, 3)) for _ in range(p.n)]
    below = p.leq if kind == "meet" else (lambda y, x: p.leq(x, y))
    return PosetFunction(p, tuple(
        sum((masses[y] for y in range(p.n) if below(y, x)), Fraction(0))
        for x in range(p.n)
    ))


def test_closure_settles_the_down_set_and_tree_rules():
    # Why classify_and_test tries neither rule after the closure's masses.
    # (a) Let D be the closure and D' a larger closed superset.  Sending
    # each y of D' below D to the meet of the members of D above it
    # regroups the masses: psi_D(z) is the sum of the psi_D'(y) sent to z,
    # so positive masses over D' give positive masses over D.
    # (b) On a tree closure each principal down-set is a chain, so
    # psi(x) = f(x) - f(x-), and T4.4's hypotheses make every mass positive.
    rng = random.Random(713)
    makers = (
        random_poset,
        random_intersection_lattice,
        random_divisor_lattice,
        lambda r: random_tree_poset(r, r.randint(2, 9)),
    )
    hits = Counter()
    for _ in range(600):
        p = rng.choice(makers)(rng)
        kind = rng.choice(("meet", "join"))
        if kind == "join" and rng.random() < 0.5:
            p = p.dual()
        s = random_subset(rng, p)
        pick = rng.randrange(3)
        if pick == 0:
            f = random_function(rng, p)
        elif pick == 1:
            f = random_monotone_function(rng, p, reverse=kind == "join")
        else:
            f = mass_function(rng, p, kind)
        try:
            closure = meet_closure(s) if kind == "meet" else join_closure(s)
        except (NoMeetError, NoJoinError):
            continue
        by_closure = pd_superset_sufficient(s, closure, f)
        wide = down_set(s) if kind == "meet" else up_set(s)
        try:
            by_wide = pd_superset_sufficient(s, wide, f, kind)
        except (NotClosedError, NoMeetError, NoJoinError):
            by_wide = None
        if by_wide is not None and by_wide.is_positive_definite:
            hits["wide", len(wide) > len(closure.subset)] += 1
            assert by_closure.is_positive_definite
        if pd_tree(s, f, kind).is_positive_definite:
            hits["tree"] += 1
            assert by_closure.is_positive_definite
    assert hits["wide", True] >= 50 and hits["tree"] >= 50, hits


def test_structure_flags_none_when_undefined():
    p = build_poset(2, [])
    flags = structure_flags(Subset.whole(p))
    assert flags["meet_closed"] is None
    assert flags["join_closed"] is None
    assert flags["chain"] is False
