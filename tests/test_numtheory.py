import copy
import itertools
import json
import math
import pickle
import random
import time
from fractions import Fraction
from functools import partial

import pytest

from meetjoin import (
    is_join_closed,
    is_meet_closed,
    structure_flags,
    DeskScaleError,
    DuplicateError,
    MatrixModel,
    NoJoinError,
    NamedFunction,
    build_named_matrix,
    build_poset,
    divides_unitarily,
    divisibility_poset,
    divisor_down_set,
    divisors,
    factorize,
    gcd_closure,
    gcud,
    gcud_closure,
    join,
    join_matrix,
    join_closure,
    jordan_totient,
    lcm_closure,
    lcm_up_set,
    meet,
    meet_closure,
    meet_matrix,
    normalize_family,
    unitary_divisibility_poset,
    unitary_divisor_down_set,
    unitary_divisors,
)
from meetjoin.cli import parse_poset_file
from meetjoin import mobius, numtheory, poset
from support import (fixpoint_integer_closure, outcome, scan_gcud, scan_is_closed,
                     scan_structure_flags)
from meetjoin.numtheory import DEFAULT_CAP, FACTOR_CAP
from meetjoin.poset import Subset, _restore_poset

from support import scan_divisibility_poset


def moebius_nt(m):
    total = 0
    for d in divisors(m):
        total += 1 if d == 1 else _mu(d)
    return _mu(m)


def _mu(m):
    facs = factorize(m)
    if any(e > 1 for e in facs.values()):
        return 0
    return (-1) ** len(facs)


def test_factorize_roundtrip():
    rng = random.Random(901)
    for _ in range(200):
        m = rng.randint(1, 100000)
        facs = factorize(m)
        assert math.prod(p**e for p, e in facs.items()) == m
        for p in facs:
            assert all(p % q != 0 for q in range(2, p)) and p >= 2


def test_divisors_brute_force():
    for m in list(range(1, 120)) + [360, 1001, 9973]:
        assert divisors(m) == tuple(d for d in range(1, m + 1) if m % d == 0)


def test_jordan_frozen_values():
    assert jordan_totient(1, 6) == 2
    assert jordan_totient(2, 4) == 12
    assert jordan_totient(1, 1) == 1
    assert jordan_totient(Fraction(7, 2), 1) == 1
    assert jordan_totient(0, 7) == 0
    assert jordan_totient(0, 1) == 1
    assert jordan_totient(-1, 2) == Fraction(-1, 2)


def test_jordan_exactness_by_alpha_kind():
    assert isinstance(jordan_totient(2, 12), int)
    assert isinstance(jordan_totient(Fraction(4, 2), 12), int)
    assert isinstance(jordan_totient(-1, 6), Fraction)
    val = jordan_totient(0.5, 4)
    assert isinstance(val, float)
    assert abs(val - (2.0 - math.sqrt(2.0))) < 1e-12


def test_jordan_is_moebius_transform_of_power():
    # J_a(m) = sum over d | m of d^a * mu(m/d), checked exactly
    for alpha in (1, 2, 3):
        for m in range(1, 201):
            expected = sum(d**alpha * _mu(m // d) for d in divisors(m))
            assert jordan_totient(alpha, m) == expected


def test_jordan_resums_to_power():
    for alpha in (1, 2):
        for m in (1, 6, 12, 36, 90):
            assert sum(jordan_totient(alpha, d) for d in divisors(m)) == m**alpha


def test_unitary_divisors_direct_scan():
    for m in list(range(1, 100)) + [360, 720]:
        direct = tuple(
            d for d in range(1, m + 1) if m % d == 0 and math.gcd(d, m // d) == 1
        )
        assert unitary_divisors(m) == direct
        for d in direct:
            assert divides_unitarily(d, m)
        assert not divides_unitarily(2, 4)


def test_gcud_frozen_values():
    assert gcud(4, 2) == 1
    assert gcud(12, 18) == 1
    assert gcud(12, 12) == 12
    assert gcud(12, 4) == 4
    assert gcud(12, 15) == 3


def test_gcud_properties():
    rng = random.Random(902)
    for _ in range(200):
        a, b = rng.randint(1, 400), rng.randint(1, 400)
        g = gcud(a, b)
        assert divides_unitarily(g, a) and divides_unitarily(g, b)
        assert gcud(b, a) == g
        assert gcud(a, a) == a
        # greatest: no larger common unitary divisor exists
        for d in unitary_divisors(a):
            if d > g:
                assert not divides_unitarily(d, b)


def test_gcud_matches_the_unitary_divisor_scan():
    rng = random.Random(1403)
    for _ in range(600):
        shared = math.prod(p ** rng.randint(0, 2) for p in (2, 3, 5, 7))
        a = shared * math.prod(p ** rng.randint(0, 2) for p in (2, 3, 11))
        b = shared * math.prod(p ** rng.randint(0, 2) for p in (3, 5, 13))
        for x, y in ((a, b), (rng.randint(1, 5000), rng.randint(1, 5000))):
            assert gcud(x, y) == scan_gcud(x, y), (x, y)
    for bad in (0, -4, True, 2.0, "6"):
        with pytest.raises(ValueError, match="not a positive integer"):
            gcud(bad, 6)
        with pytest.raises(ValueError, match="not a positive integer"):
            gcud(6, bad)


def test_gcud_needs_no_factorization():
    big = 2**60 * 10**9 + 1
    assert gcud(big * 3, big * 9) == big
    assert gcud(2**60 * 3**2 * 5, 2**60 * 3 * 7) == 2**60
    members = [10**12 + k for k in (3, 7, 9, 13, 21, 39)]
    start = time.perf_counter()
    closure = gcud_closure(members)
    assert time.perf_counter() - start < 0.2
    assert set(members) < set(closure)


def test_gcud_is_meet_in_unitary_poset():
    lat = unitary_divisor_down_set([12, 18, 20])
    p = lat.poset
    for a in p.labels:
        for b in p.labels:
            m = meet(p, p.labels.index(a), p.labels.index(b))
            assert p.labels[m] == gcud(a, b)


def test_closures_fixpoints():
    assert gcd_closure([6, 10, 15]) == (1, 2, 3, 5, 6, 10, 15)
    assert lcm_closure([2, 3]) == (2, 3, 6)
    assert gcud_closure([12, 18]) == (1, 12, 18)
    with pytest.raises(DuplicateError):
        gcd_closure([6, 6])
    with pytest.raises(ValueError):
        lcm_closure([0, 3])


def test_gcd_closure_combines_each_pair_once(monkeypatch):
    # Combining every pair of the closure once took C(|D|, 2) gcd calls; one
    # pass over the members needs fewer, and still no pair twice.
    pairs = []
    original = math.gcd

    def counted(a, b):
        pairs.append(frozenset((a, b)))
        return original(a, b)

    monkeypatch.setattr(math, "gcd", counted)
    rng = random.Random(11)
    for _ in range(3):
        pairs.clear()
        closed = gcd_closure(rng.sample(range(1, 3000), 40))
        assert len(set(pairs)) == len(pairs)
        assert len(pairs) < math.comb(len(closed), 2)


def test_integer_closures_match_the_pair_fixpoint():
    # The one-pass kernel against adding every pair until nothing changes,
    # directly and through the closure ambient, where a cap of 16 must refuse
    # exactly the sets whose closure is larger.
    rng = random.Random(12)
    cases = ((gcd_closure, math.gcd, "power-gcd"),
             (lcm_closure, math.lcm, "reciprocal-power-lcm"),
             (gcud_closure, gcud, "gcud-power"))
    refused = 0
    for _ in range(120):
        members = rng.sample(range(1, 400), rng.randint(1, 7))
        for closure, op, family in cases:
            expected = fixpoint_integer_closure(members, op)
            assert closure(members) == expected
            if len(expected) > 16:
                refused += 1
                with pytest.raises(DeskScaleError, match="^closure grew past the cap of 16 elements$"):
                    build_named_matrix(family, members, ambient="closure", cap=16)
            else:
                model = build_named_matrix(family, members, ambient="closure", cap=16)
                assert model.poset.labels == expected
    assert refused > 20


def test_divisor_down_set_examples():
    lat = divisor_down_set([6, 10, 15])
    assert lat.poset.labels == (1, 2, 3, 5, 6, 10, 15)
    assert 6 in lat and 30 not in lat
    assert len(lat) == 7


def test_lcm_up_set_examples():
    assert set(lcm_up_set([2, 3]).poset.labels) == {2, 3, 6}
    assert set(lcm_up_set([6, 10, 15]).poset.labels) == {6, 10, 15, 30}


def test_lcm_up_set_avoids_trial_division():
    # the lcm is far too large to factorize; the members' factorizations
    # must drive the enumeration
    p, q = 1_000_000_007, 998_244_353
    lat = lcm_up_set([p, q])
    assert set(lat.poset.labels) == {p, q, p * q}
    mixed = lcm_up_set([2**20, 3**12])
    assert len(mixed) == 21 + 13 - 1
    assert min(mixed.poset.labels) == 3**12


def test_canonical_universes_match_their_definitions():
    # One interval builder serves all three canonical universes; each must
    # list exactly the defining set and order it as the pair scan does, on
    # sets with nested members and on antichains.
    rng = random.Random(1201)
    cases = []
    for _ in range(20):
        cases.append(rng.sample(range(1, 200), rng.randint(1, 5)))
        top = rng.choice((720720, 2**4 * 3**3 * 5**2 * 7, 30030, 997 * 12))
        chain = [rng.choice(divisors(top))]
        for _ in range(rng.randint(1, 4)):
            chain.append(rng.choice([d for d in divisors(top) if d % chain[-1] == 0]))
        cases.append(sorted(set(chain) | set(rng.sample(divisors(top), 3))))
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17], 4)
        cases.append([primes[0] * primes[1], primes[1] * primes[2],
                      primes[2] * primes[3], primes[3] ** 2])
    assert any(a != b and b % a == 0 for s in cases for a in s for b in s)
    for s in cases:
        lcm = math.lcm(*s)
        want = {
            lcm_up_set: {d for d in divisors(lcm) if any(d % x == 0 for x in s)},
            divisor_down_set: {d for x in s for d in divisors(x)},
            unitary_divisor_down_set: {d for x in s for d in unitary_divisors(x)},
        }
        for build, universe in want.items():
            lat = build(s)
            unitary = build is unitary_divisor_down_set
            assert lat.universe == tuple(sorted(universe)), (build.__name__, s)
            scan = scan_divisibility_poset(universe, unitary)
            assert lat.poset == scan and hash(lat.poset) == hash(scan)
            assert lat.poset._up == scan._up


def test_lcm_up_set_counts_its_own_elements():
    # The cap was checked against the 32768 divisors of the lcm, so this
    # 575-element up-set was refused.
    s = [223092870, 2756205443]
    lat = lcm_up_set(s)
    assert len(lat) == 575
    lcm = math.lcm(*s)
    assert lat.universe == tuple(sorted({x * d for x in s for d in divisors(lcm // x)}))
    # The 2**19 multiples of 2 are refused before any is listed.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71]
    start = time.perf_counter()
    with pytest.raises(
        DeskScaleError, match="^universe of at least 524288 elements is over the cap of 10000$"
    ):
        lcm_up_set(primes)
    assert time.perf_counter() - start < 1.0


def test_lcm_up_set_stops_listing_once_the_union_passes_the_cap(monkeypatch):
    # Each of the 14 intervals of 2**13 multiples fits the cap, and the
    # union was checked only once complete: 114688 integers were listed
    # before the 16383-element universe was refused.
    listed = []
    original = numtheory._expand_divisors

    def counted(*args):
        out = original(*args)
        listed.append(len(out))
        return out

    monkeypatch.setattr(numtheory, "_expand_divisors", counted)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    with pytest.raises(
        DeskScaleError, match="^universe of at least 12288 elements is over the cap of 10000$"
    ):
        lcm_up_set(primes)
    assert sum(listed) <= DEFAULT_CAP + 2**13


def test_matrix_model_refuses_an_unknown_kind():
    # Any kind but "meet" was read as join: the model assembled an lcm
    # matrix labelled with the unknown kind.
    lattice = divisor_down_set([12])
    subset = Subset.whole(lattice.poset)
    f = NamedFunction("identity").bind(lattice.poset)
    for kind in ("x", "Meet", None):
        with pytest.raises(ValueError, match="^kind must be 'meet' or 'join'$"):
            MatrixModel(kind, lattice.poset, subset, f)
    assert MatrixModel("join", lattice.poset, subset, f).matrix == join_matrix(subset, f)


def test_desk_scale_cap():
    with pytest.raises(DeskScaleError):
        divisor_down_set([720720], cap=16)
    with pytest.raises(DeskScaleError):
        lcm_up_set([2, 3, 5, 7, 11, 13], cap=16)
    # The lcm closure of n primes has 2^n - 1 elements: n=16 did not finish
    # in 60 s before the integer closures were capped at DEFAULT_CAP.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    assert len(lcm_closure(primes[:8])) == 2**8 - 1
    start = time.perf_counter()
    with pytest.raises(DeskScaleError, match="past the cap of 10000 elements"):
        lcm_closure(primes)
    assert time.perf_counter() - start < 1.0
    assert factorize(10**12) == {2: 12, 5: 12}
    with pytest.raises(DeskScaleError):
        factorize(10**12 + 1)


def test_meet_join_match_arithmetic():
    lat = divisor_down_set([6, 10, 15, 30])
    p = lat.poset
    for a in p.labels:
        for b in p.labels:
            i, j = p.labels.index(a), p.labels.index(b)
            assert p.labels[meet(p, i, j)] == math.gcd(a, b)
            assert p.labels[join(p, i, j)] == math.lcm(a, b)


def test_named_function_evaluation():
    f = NamedFunction("power", alpha=2)
    assert f.evaluate(3) == Fraction(9)
    assert f.is_exact
    g = NamedFunction("reciprocal_power", alpha=1)
    assert g.evaluate(4) == Fraction(1, 4)
    h = NamedFunction("power", alpha=0.5)
    assert not h.is_exact
    assert abs(h.evaluate(4) - 2.0) < 1e-12
    ident = NamedFunction("identity")
    assert ident.evaluate(7) == Fraction(7)
    # Past the float range, only a power that is itself past it is refused.
    huge = NamedFunction("power", alpha=0.75).evaluate(10 ** 400)
    assert huge == pytest.approx(1e300, rel=1e-15)
    tiny = NamedFunction("power", alpha=0.5).evaluate(Fraction(1, 10 ** 600))
    assert tiny == pytest.approx(1e-300, rel=1e-15, abs=0)
    with pytest.raises(OverflowError):
        NamedFunction("power", alpha=0.8).evaluate(10 ** 400)


def test_integral_powers_of_int_labels_match_the_fraction_power():
    # Int labels take an int power; the value, its type, and the error of
    # 0 under a negative exponent are those of the Fraction power.
    for tag in ("power", "reciprocal_power"):
        for alpha in (-3, -1, 0, 1, 2, 5):
            f = NamedFunction(tag, alpha)
            e = alpha if tag == "power" else -alpha
            for m in (-7, -1, 1, 2, 12, 10 ** 30):
                value = f.evaluate(m)
                assert type(value) is Fraction and value == Fraction(m) ** e
            assert f.evaluate("3/2") == Fraction(3, 2) ** e
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    f.evaluate(0)
                with pytest.raises(ValueError, match="is not defined at label 0"):
                    f._at_label(0)
            else:
                assert f.evaluate(0) == Fraction(0) ** e


def test_build_min_matrix_example():
    model = build_named_matrix("min", [1, 2, 3])
    assert model.matrix.entries == (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(2)),
        (Fraction(1), Fraction(2), Fraction(3)),
    )
    assert model.kind == "meet"


def test_build_power_lcm_reciprocal_example():
    model = build_named_matrix("power_lcm_reciprocal", [2, 3], alpha=1)
    assert model.matrix.entries == (
        (Fraction(1, 2), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 3)),
    )
    assert model.kind == "join"


def test_build_power_gcd_matches_generic():
    model = build_named_matrix("power_gcd", [6, 10, 15], alpha=2)
    direct = meet_matrix(model.subset, model.function)
    assert model.matrix.entries == direct.entries
    assert model.matrix.entry(0, 1) == Fraction(4)
    assert model.matrix.is_exact


def test_build_gcud_power_uses_unitary_meet():
    model = build_named_matrix("gcud_power", [12, 18], alpha=1)
    assert model.matrix.entries == (
        (Fraction(12), Fraction(1)),
        (Fraction(1), Fraction(18)),
    )


def test_build_max_is_join_of_chain():
    model = build_named_matrix("max", [2, 5, 9])
    s, f = model.subset, model.function
    assert model.kind == "join"
    assert model.matrix.entries == join_matrix(s, f).entries
    assert model.matrix.entry(0, 2) == Fraction(9)


def test_build_irrational_alpha_goes_float():
    model = build_named_matrix("power_gcd", [4, 6], alpha=0.5)
    assert not model.matrix.is_exact
    assert abs(model.matrix.entry(0, 0) - 2.0) < 1e-12
    assert abs(model.matrix.entry(0, 1) - math.sqrt(2.0)) < 1e-12


def test_build_canonical_ambient():
    closure = build_named_matrix("power_gcd", [4, 6], ambient="closure")
    canonical = build_named_matrix("power_gcd", [4, 6], ambient="canonical")
    assert set(closure.poset.labels) == {2, 4, 6}
    assert set(canonical.poset.labels) == {1, 2, 3, 4, 6}
    assert closure.matrix.entries == canonical.matrix.entries


def test_closure_ambient_honours_cap():
    # The closure ambient used DEFAULT_CAP whatever the caller gave and built
    # a 1023-element poset here; the canonical ambient refused it.  Its up-set
    # has 1023 elements too, and the 512 multiples of 2 alone pass the cap.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(DeskScaleError, match="^closure grew past the cap of 16 elements$"):
        build_named_matrix("reciprocal-power-lcm", primes, ambient="closure", cap=16)
    with pytest.raises(
        DeskScaleError, match="^universe of at least 512 elements is over the cap of 16$"
    ):
        build_named_matrix("reciprocal-power-lcm", primes, ambient="canonical", cap=16)
    assert build_named_matrix("reciprocal-power-lcm", primes, ambient="closure").poset.n == 1023


def test_closure_ambient_keeps_the_kernel_closure():
    # Under the closure ambient the poset is the closure of the set, and the
    # subset keeps it: it equals a fresh closure run on a copy of the subset.
    for family in ("power-gcd", "reciprocal-power-lcm", "gcud-power", "min", "max"):
        for seed in range(12):
            r = random.Random(seed)
            members = r.sample(range(1, 300), r.randint(2, 8))
            model = build_named_matrix(family, members, ambient="closure")
            closure = meet_closure if model.kind == "meet" else join_closure
            kept = model.subset.__dict__[f"_{model.kind}_closure"]
            assert closure(model.subset) is kept
            fresh = closure(Subset(model.poset, model.subset.members))
            assert fresh is not kept
            assert kept.subset.members == fresh.subset.members == tuple(range(model.poset.n))
            assert kept.embed == fresh.embed
            assert kept.closed == fresh.closed


def test_family_normalization():
    assert normalize_family("reciprocal_power_lcm") == "power_lcm_reciprocal"
    assert normalize_family("power-gcd") == "power_gcd"
    with pytest.raises(ValueError):
        normalize_family("power_of_love")
    with pytest.raises(ValueError):
        build_named_matrix("power_gcd", [4, 6], ambient="everything")


def test_divisibility_poset_labels_ascend():
    p = divisibility_poset((15, 3, 1, 5))
    assert p.labels == (1, 3, 5, 15)
    q = unitary_divisibility_poset((12, 1, 18))
    assert q.labels == (1, 12, 18)


def test_divisibility_orders_match_the_pair_scan(tmp_path):
    # Every integer order is read off exponent vectors and built without
    # validation; each must equal the pair scan built through the public,
    # validating constructor, and survive dual, pickle and copy.
    rng = random.Random(1101)
    cases = []
    for _ in range(25):
        s = rng.sample(range(1, 3000), rng.randint(1, 10))
        cases += [(divisor_down_set(s).poset, False),
                  (unitary_divisor_down_set(s).poset, True),
                  (lcm_up_set(s[:4]).poset, False)]
        u = divisors(720720)
        cases += [(divisor_down_set(rng.sample(u, 12)).poset, False),
                  (lcm_up_set(rng.sample(u, 12)).poset, False)]
        for family, unitary in (("power_gcd", False), ("power_lcm_reciprocal", False),
                                ("gcud_power", True)):
            s = rng.sample(range(1, 400), rng.randint(2, 7))
            model = build_named_matrix(family, s, ambient="closure")
            cases.append((model.poset, unitary))
        # Arbitrary values, past the factorization cap too, with 1 or without.
        values = set(rng.sample(range(1, 10**15), rng.randint(1, 6)))
        values |= {rng.randint(1, 40) * v for v in values}
        values |= set(rng.sample(range(2, 500), rng.randint(1, 8)))
        if rng.random() < 0.5:
            values.add(1)
        for unitary in (False, True):
            make = unitary_divisibility_poset if unitary else divisibility_poset
            cases.append((make(values), unitary))
    assert any(max(p.labels) > FACTOR_CAP for p, _ in cases)
    for k, data in enumerate(({"divisors_of": 720720}, {"divisors_of": 1},
                              {"generated_by": [12, 18, 35, 1]},
                              {"generated_by": [2**10, 3**6, 999983]})):
        path = tmp_path / f"p{k}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        cases.append((parse_poset_file(str(path))[0], False))
    for p, unitary in cases:
        want = scan_divisibility_poset(p.labels, unitary)
        assert p.labels == want.labels
        assert p._down == want._down and p._up == want._up, p
        assert p == want and hash(p) == hash(want)
        assert p.dual() == want.dual() and p.dual()._up == want.dual()._up
        assert p.dual().dual() == p and p.dual().dual()._up == p._up
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p and clone._up == p._up


def test_mask_closure_matches_the_combining_kernel(monkeypatch):
    # A canonical universe is closed under gcd, gcud or lcm, so its closures
    # on that side are read off the masks, one AND per element, and never
    # reach poset._close.  They must equal what the kernel builds by
    # combining the members, and so must the closure on the other side of
    # the dual, which the mark follows.
    combine = poset._close
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return combine(*args)

    monkeypatch.setattr(poset, "_close", counted)
    rng = random.Random(3001)
    builds = ((divisor_down_set, "meet"), (unitary_divisor_down_set, "meet"),
              (lcm_up_set, "join"))
    for top in (60, 3000, 10**6, 720720, 963761198400):
        for build, kind in builds:
            for _ in range(4):
                pool = divisors(top) if rng.random() < 0.5 else range(1, min(top, 3000))
                gens = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
                p = build(gens).poset
                assert p._bounded == kind
                for size in (1, 2, 5, 20):
                    members = rng.sample(range(p.n), min(size, p.n))
                    s = Subset(p, tuple(sorted(members)))
                    bound = meet if kind == "meet" else join
                    want = combine(s.members, partial(bound, p), p.n)
                    got = poset._kept_closure(s, kind)
                    assert got.subset.members == want, (build.__name__, gens, members)
                    assert [got.subset.members[k] for k in got.embed] == list(s.members)
                    other = "join" if kind == "meet" else "meet"
                    dual = poset._kept_closure(s.dual(), other).subset.members
                    assert dual == tuple(p.n - 1 - m for m in reversed(want))
    assert calls == 0


def test_the_bounded_mark_survives_copies_and_dual_swaps_it():
    for build, kind, other in ((divisor_down_set, "meet", "join"),
                               (unitary_divisor_down_set, "meet", "join"),
                               (lcm_up_set, "join", "meet")):
        p = build([12, 18, 35]).poset
        assert p._bounded == kind
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert clone == p and clone._bounded == kind
        assert p.dual()._bounded == other
        assert pickle.loads(pickle.dumps(p.dual()))._bounded == other
        assert p.dual().dual()._bounded == kind
        # Equality and hashing ignore the mark.
        plain = _restore_poset(p.labels, None, p._down, p._up)
        assert plain._bounded is None
        assert plain == p and hash(plain) == hash(p)
    for p in (divisibility_poset([2, 3, 12]), build_poset(3, [(1, 2), (2, 3)]),
              build_named_matrix("power_gcd", [4, 6], ambient="closure").poset):
        assert p._bounded is None


def test_the_divisibility_survives_copies_and_duals():
    # Beside the mark, a canonical universe keeps its primes, whether its
    # order is unitary, the top whose quotients key the lcm up-set, and the
    # count of element-prime pairs that routes its masses.  Copies and the
    # dual keep it, and the steps built from it check against their masks.
    for build, unitary, top in ((divisor_down_set, False, None),
                                (unitary_divisor_down_set, True, None),
                                (lcm_up_set, False, 1260)):
        p = build([12, 18, 35]).poset
        keys = p.labels if top is None else [top // y for y in p.labels]
        omega = (len(factorize(k)) for k in keys)
        assert p._divisibility == ((2, 3, 5, 7), unitary, top, sum(omega))
        for clone in (p, pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
                      p.dual(), p.dual().dual()):
            assert clone._divisibility == p._divisibility
            assert sum(map(len, mobius._prime_steps(clone))) == p._divisibility.weight
    for p in (divisibility_poset([2, 3, 12]), build_poset(3, [(1, 2), (2, 3)]),
              build_named_matrix("power_gcd", [4, 6], ambient="closure").poset):
        assert p._divisibility is None


def test_unmarked_posets_close_through_the_kernel(monkeypatch):
    # A poset of unknown completeness, and the side of a canonical universe
    # that can lack a bound, still combine the members, with the same errors.
    combine = poset._close
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return combine(*args)

    monkeypatch.setattr(poset, "_close", counted)
    chain = build_poset(5, [(k, k + 1) for k in range(1, 5)])
    assert meet_closure(Subset(chain, (1, 3))).subset.members == (1, 3)
    assert calls == 1
    lattice = divisor_down_set([2, 3])
    with pytest.raises(NoJoinError, match="^2 and 3 have no common upper bound$"):
        join_closure(lattice.subset_of([2, 3]))
    assert calls == 2


def _closedness_outcomes(t, seen):
    """Check both closedness probes and the flags of ``t`` against the pair
    scan, fresh and with the closure kept; note each side and answer."""
    p = t.parent
    for kind, op, probe in (("meet", meet, is_meet_closed),
                            ("join", join, is_join_closed)):
        want = outcome(scan_is_closed, t, op)
        assert outcome(probe, Subset(p, t.members)) == want
        kept = Subset(p, t.members)
        outcome(poset._closure, kept, kind)  # keeps the closure, or its failure
        assert outcome(probe, kept) == want
        side = "bounded" if p._bounded == kind else "other"
        seen.add((side, want if isinstance(want, bool) else None))
    flags = structure_flags(Subset(p, t.members))
    assert list(flags.items()) == list(scan_structure_flags(t).items())


def test_closedness_on_canonical_universes_equals_the_pair_scan():
    # On the side bounded by construction closedness is read off the
    # closure, which the masks give, and elsewhere off a kept closure or by
    # the row scan.  Each answer, or error, equals that of one bound per
    # member pair, on both sides of all three canonical universes and their
    # duals, for random sets and their closures; so do the flags.
    rng = random.Random(3205)
    seen = set()
    for top in (60, 3000, 720720, 963761198400):
        for build in (divisor_down_set, unitary_divisor_down_set, lcm_up_set):
            for _ in range(3):
                pool = divisors(top) if rng.random() < 0.5 else range(1, min(top, 3000))
                gens = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
                universe = build(gens).poset
                sides = (universe, universe.dual())
                for p, size in itertools.product(sides, (1, 2, 5, 20)):
                    s = Subset(p, tuple(sorted(rng.sample(range(p.n), min(size, p.n)))))
                    closures = [outcome(poset._closure, s, k) for k in ("meet", "join")]
                    for t in [s] + [Subset(p, c.subset.members) for c in closures
                                    if isinstance(c, poset.ClosureResult)]:
                        _closedness_outcomes(t, seen)
    assert seen == {("bounded", True), ("bounded", False),
                    ("other", True), ("other", False), ("other", None)}
