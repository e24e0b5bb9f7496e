import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
import textwrap
import time
from functools import partial

import pytest

import meetjoin
import meetjoin.poset as poset_module
from meetjoin import (
    CharacterizationMismatch,
    CycleError,
    DuplicateError,
    FinitePoset,
    NoJoinError,
    NoMeetError,
    PosetFunction,
    Subset,
    build_poset,
    classify_and_test,
    cover_graph,
    divisibility_poset,
    divisors,
    down_set,
    is_A_set,
    is_chain,
    is_join_closed,
    is_meet_closed,
    is_vee_tree_set,
    is_wedge_tree_set,
    join,
    join_closure,
    meet,
    meet_closure,
    structure_flags,
    total_order_poset,
    up_set,
)
from meetjoin.numtheory import build_named_matrix
from meetjoin.poset import _close, _closure
from support import (
    bitwise_restrict_masks,
    brute_join,
    fixpoint_build_poset,
    fixpoint_closure,
    forked_meet_tree,
    random_intersection_lattice,
    random_linear_extension,
    random_poset,
    random_relation_poset,
    random_subset,
    random_tree_poset,
    rescan_closure,
    scan_bounded_pairs_comparable,
    scan_cover_edges,
    scan_covers_at_most_one,
    spine_meet_tree,
)


def test_build_poset_reorders_to_linear_extension():
    # 3 sits below 1 and 2, so it must come first after sorting
    p = build_poset(3, [(3, 1), (3, 2)])
    assert p.labels[0] == 3
    assert p.leq(0, 1) and p.leq(0, 2)
    assert not p.leq(1, 2) and not p.leq(2, 1)


def test_indexing_is_linear_extension_randomized():
    rng = random.Random(401)
    for _ in range(60):
        p = random_poset(rng)
        for i in range(p.n):
            for j in range(p.n):
                if p.leq(i, j):
                    assert i <= j


def test_build_poset_takes_transitive_closure():
    p = build_poset(3, [(1, 2), (2, 3)])
    assert p.leq(p.index_of(1), p.index_of(3))


def test_cycle_raises():
    with pytest.raises(CycleError):
        build_poset(2, [(1, 2), (2, 1)])


def test_pair_out_of_range():
    with pytest.raises(IndexError):
        build_poset(2, [(1, 3)])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateError):
        build_poset(2, [(1, 2)], labels=("a", "a"))


def _seeded_relation(rng, n, cyclic):
    """Pairs of a hidden order listed in random order, against the input
    positions, with duplicates and self-pairs; ``cyclic`` adds back edges."""
    rank = rng.sample(range(n), n)
    relation = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                if rank[a - 1] < rank[b - 1] and rng.random() < 0.3]
    relation += [(a, a) for a in range(1, n + 1) if rng.random() < 0.1]
    relation += rng.sample(relation, min(len(relation), rng.randint(0, 3)))
    if cyclic:
        relation += [tuple(rng.sample(range(1, n + 1), 2))
                     for _ in range(rng.randint(1, 3))]
    rng.shuffle(relation)
    return relation


def test_build_poset_matches_the_fixpoint_reference():
    rng = random.Random(1401)
    for _ in range(2400):
        n = rng.randint(1, 10)
        relation = _seeded_relation(rng, n, cyclic=False)
        labels = None
        if rng.random() < 0.5:
            labels = [f"x{k}" for k in rng.sample(range(50), n)]
        p = build_poset(n, relation, labels=labels)
        q = fixpoint_build_poset(n, relation, labels=labels)
        assert (p._down, p._up, p.labels, p.source_order) == (
            q._down, q._up, q.labels, q.source_order
        ), (n, relation)
        assert p == q and hash(p) == hash(q)


def test_cycle_error_names_two_elements_on_one_cycle():
    rng = random.Random(1402)
    cyclic = 0
    for _ in range(1500):
        n = rng.randint(2, 10)
        relation = _seeded_relation(rng, n, cyclic=True)
        try:
            fixpoint_build_poset(n, relation)
        except CycleError:
            cyclic += 1
        else:
            build_poset(n, relation)
            continue
        with pytest.raises(CycleError) as err:
            build_poset(n, relation)
        match = re.fullmatch(r"elements (\d+) and (\d+) lie on a cycle",
                             str(err.value))
        a, b = int(match[1]) - 1, int(match[2]) - 1
        down = fixpoint_closure(n, relation)
        assert a != b and (down[a] >> b) & 1 and (down[b] >> a) & 1, relation
    assert cyclic > 500


def test_long_chains_build_fast():
    # The fixpoint closure took 17.8 s for a 3000-element chain file.
    n = 3000
    for relation in ([(i, i + 1) for i in range(1, n)],
                     [(i + 1, i) for i in range(1, n)]):
        start = time.perf_counter()
        p = build_poset(n, relation)
        assert time.perf_counter() - start < 1
        assert p.down_mask(n - 1) == (1 << n) - 1 and p.up_mask(0) == (1 << n) - 1
        assert p.labels == tuple(sorted(p.labels, reverse=relation[0][0] > 1))
    # The validating constructor took 5.2 s on this chain.
    start = time.perf_counter()
    chain = total_order_poset(range(n))
    assert time.perf_counter() - start < 1
    assert chain.labels == tuple(range(n)) and chain.down_mask(n - 1) == (1 << n) - 1


def test_from_leq_refuses_rows_of_the_wrong_length():
    chain = FinitePoset.from_leq([[True, True], [False, True]], labels="ab")
    assert chain == total_order_poset("ab")
    for rows in ([[True, True, True], [False, True]],
                 [[True, True], [False]],
                 [[True], [False, True]]):
        with pytest.raises(ValueError, match="entries, not 2"):
            FinitePoset.from_leq(rows)


@pytest.mark.parametrize("down, labels, error, message", [
    ((), None, ValueError, "a poset needs at least one element"),
    ((1, 8), None, ValueError, "down mask 1 out of range"),
    ((1, -1), None, ValueError, "down mask 1 out of range"),
    ((1, "3"), None, ValueError, "down mask 1 out of range"),
    ((1, 1), None, ValueError, "relation is not reflexive at index 1"),
    ((3, 2), None, ValueError,
     "indexing violates the linear-extension convention at index 0"),
    ((1, 3, 6), None, ValueError, "relation is not transitive at (1, 2)"),
    ((1, 3), ("a",), ValueError, "labels length must match element count"),
    ((1, 3), ("a", "a"), DuplicateError, "labels must be unique"),
])
def test_constructor_refuses_malformed_input(down, labels, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        FinitePoset(down, labels)


def test_from_leq_refuses_a_relation_that_is_not_transitive():
    # 0 <= 1 and 1 <= 2, but not 0 <= 2.
    rows = [[True, True, False], [False, True, True], [False, False, True]]
    with pytest.raises(ValueError, match=r"^relation is not transitive at \(1, 2\)$"):
        FinitePoset.from_leq(rows)


def test_meet_join_match_gcd_lcm():
    rng = random.Random(402)
    for _ in range(25):
        m = rng.choice([12, 30, 36, 60, 72, 210])
        p = divisibility_poset(divisors(m))
        for i in range(p.n):
            for j in range(p.n):
                a, b = p.labels[i], p.labels[j]
                assert p.labels[meet(p, i, j)] == math.gcd(a, b)
                assert p.labels[join(p, i, j)] == math.lcm(a, b)


def test_no_meet_and_no_join():
    # two incomparable points: no common bound either way
    p = build_poset(2, [])
    with pytest.raises(NoMeetError):
        meet(p, 0, 1)
    with pytest.raises(NoJoinError):
        join(p, 0, 1)


def test_join_matches_brute_force_least_upper_bound():
    rng = random.Random(411)
    for _ in range(60):
        p = random_poset(rng)
        for i in range(p.n):
            for j in range(p.n):
                expected = brute_join(p, i, j)
                if isinstance(expected, int):
                    assert join(p, i, j) == expected
                    continue
                message = f"{p.labels[i]!r} and {p.labels[j]!r} have no {expected}"
                with pytest.raises(NoJoinError) as err:
                    join(p, i, j)
                assert str(err.value) == message


def test_join_errors_name_the_pair():
    # 'a' and 'b' have no upper bound; 'c' and 'd' have two minimal ones
    p = build_poset(6, [(3, 5), (3, 6), (4, 5), (4, 6)],
                    labels=("a", "b", "c", "d", "e", "f"))
    cases = {
        ("a", "b"): "'a' and 'b' have no common upper bound",
        ("c", "d"): "'c' and 'd' have no least common upper bound",
    }
    for pair, message in cases.items():
        i, j = (p.index_of(lb) for lb in pair)
        with pytest.raises(NoJoinError) as err:
            join(p, i, j)
        assert str(err.value) == message
        s = Subset.of_labels(p, pair)
        for probe in (is_join_closed, join_closure, is_vee_tree_set):
            with pytest.raises(NoJoinError) as err:
                probe(s)
            assert str(err.value) == message


def test_meet_closure_is_meet_closed_and_contains_set():
    rng = random.Random(403)
    for _ in range(80):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            c = meet_closure(s)
        except NoMeetError:
            continue
        assert set(s.members) <= set(c.subset.members)
        assert is_meet_closed(c.subset)
        again = meet_closure(c.subset)
        assert again.subset.members == c.subset.members


def test_join_closure_dual():
    rng = random.Random(404)
    for _ in range(80):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            c = join_closure(s)
        except NoJoinError:
            continue
        assert set(s.members) <= set(c.subset.members)
        assert is_join_closed(c.subset)


def test_closures_match_a_full_rescan_of_each_round():
    # One pass over the members gives the members and the embedding of
    # rescanning every pair in every round.  It raises exactly when the
    # rescan does, with the same error type, and the pair it names has no
    # meet or join, in the same words.
    rng = random.Random(406)
    errors = 0
    for k in range(600):
        if k % 3 == 0:
            p = random_poset(rng)
        elif k % 3 == 1:
            p = random_intersection_lattice(rng, ground=rng.randint(3, 5))
        else:
            p = random_relation_poset(rng, rng.randint(2, 10))
        s = random_subset(rng, p, max_size=rng.randint(1, 9))
        for closure, op, error in ((meet_closure, meet, NoMeetError),
                                   (join_closure, join, NoJoinError)):
            try:
                expected = rescan_closure(s, op)
            except error as exc:
                errors += 1
                with pytest.raises(error) as got:
                    closure(s)
                assert type(got.value) is type(exc)
                named = str(got.value).partition(" have no ")[0]
                i, j = next((i, j) for i in range(p.n) for j in range(p.n)
                            if f"{p.labels[i]!r} and {p.labels[j]!r}" == named)
                with pytest.raises(error) as again:
                    op(p, i, j)
                assert str(again.value) == str(got.value)
                continue
            c = closure(s)
            assert (c.subset.members, c.embed) == expected
    assert errors > 100


def _count_bound_calls(monkeypatch) -> list:
    """The index pairs that ``meet`` and ``join`` are called on, from now."""
    calls = []

    def counted(op):
        def call(p, i, j):
            calls.append(frozenset((i, j)))
            return op(p, i, j)
        return call

    monkeypatch.setattr(poset_module, "meet", counted(meet))
    monkeypatch.setattr(poset_module, "join", counted(join))
    return calls


@pytest.mark.parametrize("closure", [meet_closure, join_closure])
def test_a_chain_closes_without_taking_a_bound(monkeypatch, closure):
    # The bound of a comparable pair is one of the two.  Combining each new
    # member with every one held took C(2000, 2) meets and 0.8 s here.
    calls = _count_bound_calls(monkeypatch)
    n = 2000
    p = build_poset(n, [(i + 1, i) for i in range(1, n)])
    assert closure(Subset.whole(p)).subset.members == tuple(range(n))
    assert calls == []


def test_skipping_comparable_pairs_keeps_the_closure_and_its_errors():
    # Without comparability masks the closure kernel combines each new
    # member with every member held.  Skipping the comparable ones makes
    # fewer calls and gives the same members, or names the same pair
    # without a bound; the closures of a request read the same kernel.
    rng = random.Random(414)
    errors = skipped = skipped_then_missing = 0
    for k in range(1500):
        if k % 3:
            p = random_relation_poset(rng, rng.randint(2, 16))
        else:
            p = random_poset(rng)
        s = random_subset(rng, p, max_size=rng.randint(1, 14))
        related = [p.down_mask(x) | p.up_mask(x) for x in range(p.n)]
        for kind, op in (("meet", meet), ("join", join)):
            outcomes, counts = [], []
            for masks in ((), (related.__getitem__,)):
                calls = []

                def counted(i, j):
                    calls.append((i, j))
                    return op(p, i, j)

                try:
                    outcomes.append(_close(s.members, counted, p.n, *masks))
                except (NoMeetError, NoJoinError) as exc:
                    outcomes.append((type(exc), str(exc)))
                counts.append(len(calls))
            assert outcomes[0] == outcomes[1]
            skipped += counts[1] < counts[0]
            if isinstance(outcomes[1][0], type):
                errors += 1
                skipped_then_missing += counts[1] < counts[0]
                with pytest.raises(outcomes[1][0], match=f"^{re.escape(outcomes[1][1])}$"):
                    _closure(s, kind)
            else:
                assert _closure(s, kind).subset.members == outcomes[1]
    assert errors > 500 and skipped > 500 and skipped_then_missing > 100


@pytest.mark.parametrize("closure", [meet_closure, join_closure])
def test_closure_combines_each_pair_once(monkeypatch, closure):
    # Combining every pair of the closure D once took C(|D|, 2) meets; one
    # pass over the members needs fewer, and still combines no pair twice.
    pairs = _count_bound_calls(monkeypatch)
    lat = divisibility_poset(divisors(720720))
    rng = random.Random(407)
    for _ in range(3):
        s = Subset(lat, tuple(sorted(rng.sample(range(lat.n), 40))))
        pairs.clear()
        size = len(closure(s).subset)
        assert size > 60
        assert pairs and len(set(pairs)) == len(pairs)
        assert len(pairs) < math.comb(size, 2)


def test_closure_members_are_pairwise_meets():
    # nothing beyond s and products of its pairwise meets is added
    rng = random.Random(405)
    for _ in range(40):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            c = meet_closure(s)
        except NoMeetError:
            continue
        got = set(c.subset.members)
        grown = set(s.members)
        changed = True
        while changed:
            changed = False
            for a in list(grown):
                for b in list(grown):
                    m = meet(p, a, b)
                    if m not in grown:
                        grown.add(m)
                        changed = True
        assert got == grown


def test_cover_graph_of_divisor_lattice_of_30():
    p = divisibility_poset(divisors(30))
    g = cover_graph(p)
    assert len(g.edges) == 12
    # covers in a divisor lattice are prime-ratio steps
    for i, j in g.edges:
        ratio = p.labels[j] // p.labels[i]
        assert p.labels[j] % p.labels[i] == 0
        assert ratio in (2, 3, 5)


def test_cover_walk_matches_the_interval_scan():
    # The walk takes one step per cover edge; the reference tests the
    # interval of every comparable pair.  Whole posets, their duals and
    # restricted subsets, which hold pairs with no cover between them.  Cut
    # to a member mask, the walk gives the induced order's covers in parent
    # indices; numbered by place among the members, they are the cover
    # graph of the restriction, on the poset and on its order dual.  Both
    # sides walk these covers, so the walk takes no side.
    rng = random.Random(1811)
    for k in range(200):
        if k % 3:
            p = random_poset(rng)
        else:
            p = random_relation_poset(rng, rng.randint(2, 12))
        s = random_subset(rng, p)
        for q in (p, p.dual(), s.restrict(), s.dual().restrict()):
            assert cover_graph(q).edges == scan_cover_edges(q)
        for q, t in ((p, s), (p.dual(), s.dual())):
            place = {m: r for r, m in enumerate(t.members)}
            walked = sorted(
                (place[i], place[j])
                for i, j in poset_module._cover_edges(q, t.member_mask())
            )
            assert tuple(walked) == cover_graph(t.restrict()).edges


def test_chain_detection():
    p = total_order_poset((3, 7, 9))
    assert is_chain(Subset.whole(p))
    q = build_poset(3, [(1, 2), (1, 3)])
    assert not is_chain(Subset.whole(q))
    assert is_chain(Subset.of_labels(q, [1, 2]))


def test_tree_characterizations_never_disagree():
    rng = random.Random(406)
    for _ in range(150):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            is_wedge_tree_set(s)
        except NoMeetError:
            pass
        try:
            is_vee_tree_set(s)
        except NoJoinError:
            pass
        # CharacterizationMismatch escaping would fail the test by itself
    # The canonical lcm closure of the first 13 primes, 8191 elements: the
    # join side walks the meet side's covers, and its answers are the meet
    # side's on the order dual.
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    model = build_named_matrix("power_lcm_reciprocal", primes, ambient="canonical")
    d = join_closure(model.subset).subset
    p, keep = d.parent, d.member_mask()
    assert keep.bit_count() == 8191 and not is_vee_tree_set(model.subset)
    assert poset_module._tree_characterizations(p, "join", keep) == (
        poset_module._tree_characterizations(
            p.dual(), "meet", poset_module._reverse_mask(keep, p.n)))


def test_tree_mask_checks_match_the_pair_scans():
    # "Covers at most one" and "bounded pairs are comparable" read masks; the
    # count list and the index-pair scan in support.py are the references.
    # Whole posets (lattices and not) and meet closures on the meet side,
    # the same posets and join closures on the join side; closures without
    # all bounds are skipped.  On any finite order the two hold together:
    # both say it is a forest.  The checks read the parent's masks cut to
    # the closure, so the references run on the closure's induced order, or
    # on its order dual for the join side.
    rng = random.Random(1507)
    outcomes = set()
    for k in range(300):
        if k % 3:
            p = random_poset(rng)
        else:
            p = random_relation_poset(rng, rng.randint(2, 12))
        s = random_subset(rng, p)
        cases = [(Subset.whole(p), "meet", p), (Subset.whole(p), "join", p.dual())]
        try:
            d = meet_closure(s).subset
            cases.append((d, "meet", d.restrict()))
        except NoMeetError:
            pass
        try:
            d = join_closure(s).subset
            cases.append((d, "join", d.restrict().dual()))
        except NoJoinError:
            pass
        for d, kind, q in cases:
            _, covers, _, bounded = poset_module._tree_characterizations(
                d.parent, kind, d.member_mask()
            )
            assert covers == scan_covers_at_most_one(q)
            assert bounded == scan_bounded_pairs_comparable(q)
            outcomes.add((covers, bounded))
    assert outcomes == {(False, False), (True, True)}


def test_tree_cross_check_raises_under_optimize():
    # The chain 2 | 4 | 12 is the meet closure of itself in divisors(12).
    # Its four characterizations agree on each side; a poset whose up(2)
    # lacks 4 splits them on the meet side, where the check of bounded
    # pairs reads the up masks, and one whose down(12) lacks 4 splits them
    # on the join side: the cover walk, which reads the down masks, finds
    # 2 covered twice, and the chain tests there read down(12) through leq
    # and as the masks away from the bound.  The check must raise with
    # asserts stripped by -O too.
    script = textwrap.dedent("""
        from meetjoin import (
            CharacterizationMismatch, Subset, divisibility_poset, divisors,
            is_vee_tree_set, is_wedge_tree_set, meet_closure,
        )
        from meetjoin.poset import _restore_poset
        s = Subset.of_labels(divisibility_poset(divisors(12)), [2, 4, 12])
        closed = meet_closure(s).closed
        print(is_wedge_tree_set(s), is_vee_tree_set(s))
        down, up = list(closed._down), list(closed._up)
        up[0] &= ~(1 << 1)
        down[2] &= ~(1 << 1)
        for name, lie, test in (
            ("up", _restore_poset(closed.labels, None, closed._down, tuple(up)),
             is_wedge_tree_set),
            ("down", _restore_poset(closed.labels, None, tuple(down), closed._up),
             is_vee_tree_set),
        ):
            try:
                test(Subset.whole(lie))
            except CharacterizationMismatch as exc:
                print(name, test.__name__, exc)
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "True True",
            "up is_wedge_tree_set meet-tree characterizations disagree: "
            "(True, True, True, False)",
            "down is_vee_tree_set join-tree characterizations disagree: "
            "(True, False, False, False)",
        ]


def test_a_set_is_undefined_when_a_member_pair_has_no_meet():
    # a lies above x1 and x2, b above x1 and c above x2.  The meets of a
    # with b and c, x1 and x2, are incomparable, but b and c have no meet:
    # the test is undefined, not False.  Stopping at the first incomparable
    # pair of meets would answer False.
    p = build_poset(5, [(1, 3), (2, 3), (1, 4), (2, 5)],
                    labels=["x1", "x2", "a", "b", "c"])
    s = Subset.of_labels(p, ["a", "b", "c"])
    with pytest.raises(NoMeetError, match="^'b' and 'c' have no common lower bound$"):
        is_A_set(s)
    assert structure_flags(s)["a_set"] is None


def test_a_set_stops_at_the_first_incomparable_meet(monkeypatch):
    # is_A_set met all C(120, 2) = 7140 pairs of a 120-subset of
    # divisors(720720) before it tested the meets for a chain.  With the
    # meet closure kept on the set, every pair has a meet, and the first
    # meet incomparable with one before it decides.
    universe = divisors(720720)
    p = divisibility_poset(universe)
    members = random.Random(0).sample(universe, 120)
    found = []

    def counted(q, i, j):
        found.append(meet(q, i, j))
        return found[-1]

    monkeypatch.setattr(poset_module, "meet", counted)
    assert is_A_set(Subset.of_labels(p, members)) is False
    assert len(found) == 7140
    first = next(k for k, z in enumerate(found)
                 if any(not (p.leq(y, z) or p.leq(z, y)) for y in found[:k]))
    kept = Subset.of_labels(p, members)
    meet_closure(kept)
    found.clear()
    assert is_A_set(kept) is False
    assert len(found) == first + 1 < 300


def test_pair_meets_follow_the_listing():
    # 1 lies below 2 and 3, and 4 has no lower bound in common with them.
    # Listed 2, 3, 4 the first pair meets outside the set; listed 4, 2, 3
    # the first pair has no meet.  Dually for joins, with 1 above 2 and 3.
    p = build_poset(4, [(1, 2), (1, 3)])
    two, three, four = (p.index_of(lb) for lb in (2, 3, 4))
    pairs = poset_module._pair_meets(p, (two, three, four), meet)
    assert next(pairs) == p.index_of(1)
    with pytest.raises(NoMeetError, match="^2 and 4 have no common lower bound$"):
        next(pairs)
    assert is_meet_closed(Subset(p, (two, three, four))) is False
    with pytest.raises(NoMeetError, match="^4 and 2 have no common lower bound$"):
        is_meet_closed(Subset(p, (four, two, three)))
    q = build_poset(4, [(2, 1), (3, 1)])
    two, three, four = (q.index_of(lb) for lb in (2, 3, 4))
    pairs = poset_module._pair_meets(q, (two, three, four), join)
    assert next(pairs) == q.index_of(1)
    with pytest.raises(NoJoinError, match="^2 and 4 have no common upper bound$"):
        next(pairs)
    assert is_join_closed(Subset(q, (two, three, four))) is False
    with pytest.raises(NoJoinError, match="^4 and 2 have no common upper bound$"):
        is_join_closed(Subset(q, (four, two, three)))


def test_subsets_of_tree_orders_are_tree_sets():
    rng = random.Random(407)
    for _ in range(60):
        p = random_tree_poset(rng, rng.randint(2, 9))
        s = random_subset(rng, p)
        assert is_wedge_tree_set(s)


def test_forked_tree_fixture():
    _, s = forked_meet_tree()
    assert is_wedge_tree_set(s)
    assert not is_A_set(s)


def test_spine_fixture_is_a_set():
    _, s = spine_meet_tree()
    assert is_A_set(s)
    assert is_wedge_tree_set(s)


def test_a_set_implies_wedge_tree_set():
    rng = random.Random(408)
    hits = 0
    for _ in range(300):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            if is_A_set(s):
                hits += 1
                assert is_wedge_tree_set(s)
        except NoMeetError:
            continue
    assert hits > 20


def test_chains_are_a_sets():
    p = total_order_poset((1, 2, 3, 4))
    assert is_A_set(Subset.whole(p))


def test_dual_roundtrip_and_tree_duality():
    rng = random.Random(409)
    for _ in range(50):
        p = random_poset(rng)
        assert p.dual().dual() == p and p.dual().dual()._up == p._up
        for i in range(p.n):
            for j in range(p.n):
                assert p.dual().leq(p.n - 1 - j, p.n - 1 - i) == p.leq(i, j)
        s = random_subset(rng, p)
        assert s.dual().dual() == s and s.dual().dual().parent._up == s.parent._up
        assert s.dual().labels == s.labels[::-1]
        try:
            left = is_wedge_tree_set(s)
        except NoMeetError:
            continue
        try:
            right = is_vee_tree_set(s.dual())
        except NoJoinError:
            continue
        assert left == right


def test_down_set_and_up_set():
    p = divisibility_poset(divisors(12))
    s = Subset.of_labels(p, [4, 6])
    assert down_set(s).labels == (1, 2, 3, 4, 6)
    assert up_set(s).labels == (4, 6, 12)


def test_dual_keeps_source_order():
    p = build_poset(3, [(3, 1), (3, 2)])
    assert p.source_order == (2, 0, 1)
    assert p.dual().dual() == p and p.dual().dual()._up == p._up
    assert p.dual().dual().source_order == (2, 0, 1)


def test_duals_are_built_on_each_call():
    # Duals of a poset and of a subset were cached on them and linked back
    # both ways; no request reads a dual, so nothing is kept now.
    p = build_poset(3, [(3, 1), (3, 2)])
    s = Subset.whole(p)
    assert "_dual" not in FinitePoset.__slots__
    assert p.dual() is not p.dual() and p.dual() == p.dual()
    assert p.dual().source_order == (1, 0, 2)
    assert s.dual() is not s.dual() and s.dual() == s.dual()
    assert "_dual" not in vars(s)


def test_posets_pickle_and_deepcopy():
    # Both used to raise "FinitePoset is immutable" while restoring state.
    p = total_order_poset((1, 2, 3))
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q is not p
    assert q.labels == (1, 2, 3)
    assert q.dual().dual() == q and q.dual().dual()._up == q._up
    whole = Subset.whole(p)
    whole.dual()
    copied = copy.deepcopy(whole)
    assert copied == whole and copied.parent is not p
    assert copied.dual().parent == copied.parent.dual()
    assert copied.dual().parent._up == copied.parent.dual()._up
    # source_order and labels survive both routes
    r = build_poset(3, [(3, 1), (3, 2)], labels=("a", "b", "c"))
    for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert clone.source_order == (2, 0, 1)
        assert clone.labels == r.labels
        assert clone == r
    closure = meet_closure(Subset.whole(r))
    closed = closure.closed
    copied = copy.deepcopy(closure)
    assert copied.closed == closed and copied.closed is not closed
    report = classify_and_test(whole, PosetFunction(p, (1, 2, 3)))
    assert pickle.loads(pickle.dumps(report)) == report


def test_subset_rejects_bad_listing():
    p = total_order_poset((1, 2, 3))
    with pytest.raises(ValueError) as err:
        Subset(p, (2, 0))  # 1 below 3, listed after it
    assert str(err.value) == (
        "listing is incompatible with the order: member 0 lies below member 2"
    )
    with pytest.raises(ValueError):
        Subset(p, ())
    with pytest.raises(ValueError):
        Subset(p, (0, 0))


def test_listing_error_names_the_first_offending_pair():
    rng = random.Random(412)
    checked = 0
    for _ in range(200):
        p = random_poset(rng)
        members = list(range(p.n))
        rng.shuffle(members)
        members = members[:rng.randint(1, p.n)]
        offending = [
            (members[a], members[b])
            for a in range(len(members))
            for b in range(a + 1, len(members))
            if p.less(members[b], members[a])
        ]
        if not offending:
            assert Subset(p, tuple(members)).members == tuple(members)
            continue
        upper, lower = offending[0]
        with pytest.raises(ValueError) as err:
            Subset(p, tuple(members))
        assert str(err.value) == (
            "listing is incompatible with the order: "
            f"member {lower} lies below member {upper}"
        )
        checked += 1
    assert checked > 50


def test_poset_is_immutable():
    p = total_order_poset((1, 2))
    with pytest.raises(AttributeError):
        p.n = 5


def test_restrict_matches_the_validating_constructor():
    # restrict reads the parent's masks and skips validation; the result
    # must be the poset the validating constructor builds from leq.
    rng = random.Random(411)
    for _ in range(200):
        p = random_poset(rng)
        s = random_subset(rng, p)
        for sub in (s, s.dual(), meet_closure(s).subset):
            q = sub.restrict()
            k = len(sub)
            ms, leq = sub.members, sub.parent.leq
            down = [sum(1 << a for a in range(k) if leq(ms[a], ms[b]))
                    for b in range(k)]
            ref = FinitePoset(down, labels=sub.labels)
            assert q == ref and q.source_order is None
            assert [q.up_mask(i) for i in range(k)] == [
                ref.up_mask(i) for i in range(k)
            ]
            assert q.dual() == ref.dual()


def test_whole_restriction_matches_the_validating_constructor():
    # The whole parent in index order keeps its masks; its input positions
    # (source_order) are the parent's, not the restriction's.
    rng = random.Random(412)
    reordered = 0
    for _ in range(100):
        n = rng.randint(2, 12)
        p = random_relation_poset(rng, n)
        reordered += p.source_order != tuple(range(n))
        q = Subset.whole(p).restrict()
        ref = FinitePoset([p.down_mask(i) for i in range(n)], labels=p.labels)
        assert q == ref and q.source_order is None
        assert [q.up_mask(i) for i in range(n)] == [ref.up_mask(i) for i in range(n)]
        assert q.dual() == ref.dual()
    assert reordered > 50


def test_whole_chain_restricts_fast():
    # Moving each member's bits one at a time took 2.4 s on a 2000-chain.
    n = 3000
    p = build_poset(n, [(i + 1, i) for i in range(1, n)])
    start = time.perf_counter()
    q = Subset.whole(p).restrict()
    assert time.perf_counter() - start < 0.5
    assert q.down_mask(n - 1) == (1 << n) - 1 and q.up_mask(0) == (1 << n) - 1


def test_restrict_masks_match_the_bitwise_reference():
    # restrict builds the masks of any listing but the whole parent from the
    # induced covers; moving each member's bits one at a time is the reference.
    rng = random.Random(413)
    relisted = 0
    for _ in range(300):
        p = random_poset(rng)
        s = random_subset(rng, p, max_size=12)
        subs = [s, random_linear_extension(rng, s), s.dual(), meet_closure(s).subset]
        if p.n > 1:
            subs.append(Subset(p, tuple(range(1, p.n))))  # all but the first
        for sub in subs:
            relisted += list(sub.members) != sorted(sub.members)
            q = sub.restrict()
            down, up = bitwise_restrict_masks(sub)
            assert [q.down_mask(k) for k in range(q.n)] == down
            assert [q.up_mask(k) for k in range(q.n)] == up
    assert relisted > 50


def test_chain_minus_its_bottom_restricts_fast():
    # Moving each member's bits one at a time took 1.28 s on a 2000-chain
    # and 2.99 s on a 3000-chain with the bottom left out.
    n = 2000
    p = build_poset(n, [(i + 1, i) for i in range(1, n)])
    start = time.perf_counter()
    q = Subset(p, tuple(range(1, n))).restrict()
    assert time.perf_counter() - start < 0.05
    assert q.down_mask(n - 2) == (1 << n - 1) - 1 and q.up_mask(0) == (1 << n - 1) - 1


def test_closures_are_kept_per_subset():
    p = divisibility_poset(divisors(60))
    s = Subset.of_labels(p, [4, 6, 10, 15])
    shown = repr(s)
    closure = meet_closure(s)
    assert meet_closure(s) is closure
    assert join_closure(s) is join_closure(s)
    # the cache is no field: equality, hashing and repr ignore it
    fresh = Subset.of_labels(p, [4, 6, 10, 15])
    assert fresh == s and hash(fresh) == hash(s) and repr(s) == shown
    # copies leave it behind and build an equal closure of their own
    for clone in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert clone == s and repr(clone) == shown
        assert not any(key.startswith("_") for key in vars(clone))
        assert meet_closure(clone) == closure and meet_closure(clone) is not closure
        assert join_closure(clone) == join_closure(s)


def test_restrict_keeps_order():
    rng = random.Random(410)
    for _ in range(30):
        p = random_poset(rng)
        s = random_subset(rng, p)
        q = s.restrict()
        for a in range(len(s)):
            for b in range(len(s)):
                assert q.leq(a, b) == p.leq(s.members[a], s.members[b])
