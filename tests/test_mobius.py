import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import meetjoin
from meetjoin import (
    CharacterizationMismatch,
    DeskScaleError,
    DuplicateError,
    ExactArithmeticError,
    MissingValueError,
    NamedFunction,
    NoJoinError,
    NoMeetError,
    PhiVector,
    PosetFunction,
    PsiVector,
    Subset,
    build_named_matrix,
    classify_and_test,
    divisibility_poset,
    divisor_down_set,
    divisors,
    down_set,
    factorize,
    join_closure,
    lcm_up_set,
    meet_closure,
    mobius_table,
    phi,
    psi,
    total_order_poset,
    unitary_divisor_down_set,
    up_set,
)
from meetjoin import mobius
from meetjoin.cli import RunConfig, run
from meetjoin.mobius import _number, _rational
from meetjoin.poset import _kept_closure, _restore_poset
from support import (
    random_function,
    random_linear_extension,
    random_monotone_function,
    random_poset,
    random_rational,
    random_relation_poset,
    random_subset,
    scan_is_order_preserving,
)


def moebius_nt(n):
    # number-theoretic Moebius function, written out independently
    if n == 1:
        return 1
    factors = {}
    rest, d = n, 2
    while d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def test_mobius_on_chain():
    p = total_order_poset((1, 2, 3, 4))
    table = mobius_table(p).mu
    for a in range(4):
        for b in range(4):
            if a == b:
                assert table[a][b] == 1
            elif b == a + 1:
                assert table[a][b] == -1
            else:
                assert table[a][b] == 0


def test_mobius_on_divisor_lattice_matches_arithmetic():
    for m in (12, 30, 36, 60, 210):
        p = divisibility_poset(divisors(m))
        table = mobius_table(p).mu
        for a in range(p.n):
            for b in range(p.n):
                if p.leq(a, b):
                    assert table[a][b] == moebius_nt(p.labels[b] // p.labels[a])
                else:
                    assert table[a][b] == 0


def test_mobius_randomized_never_fails_inversion():
    # the zeta-inversion check inside mobius_table raises on failure
    rng = random.Random(501)
    for _ in range(60):
        mobius_table(random_poset(rng))


def test_psi_resums_to_f():
    rng = random.Random(502)
    for _ in range(80):
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            d = meet_closure(s).subset
        except Exception:
            d = Subset.whole(p)
        vec = psi(d, f)
        assert vec.resums_to(f)


def test_phi_resums_to_f():
    rng = random.Random(503)
    for _ in range(80):
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            b = join_closure(s).subset
        except Exception:
            b = Subset.whole(p)
        vec = phi(b, f)
        assert vec.resums_to(f)
        # the same check written out over principal up-sets
        ms = b.members
        for k in range(len(ms)):
            total = sum(
                (vec[v] for v in range(len(ms)) if p.leq(ms[k], ms[v])),
                Fraction(0),
            )
            assert total == f.values[ms[k]]


def test_psi_equals_mobius_convolution():
    # The masses over a listed set d are the Moebius convolution of f over
    # the subposet d induces, in the listing of d: over the whole poset,
    # over meet and join closures, down- and up-sets, and over a random
    # linear extension of the whole poset, which need not ascend.
    rng = random.Random(504)
    more = random.Random(1504)
    relisted = 0
    for _ in range(40):
        p = random_poset(rng)
        f = random_function(rng, p)
        s = random_subset(more, p)
        extension = random_linear_extension(more, Subset.whole(p))
        relisted += extension.members != tuple(range(p.n))
        sets = [Subset.whole(p), down_set(s), up_set(s), extension]
        for close in (meet_closure, join_closure):
            try:
                sets.append(close(s).subset)
            except (NoMeetError, NoJoinError):
                pass
        for d in sets:
            q = d.restrict()
            g = f.restrict(d).values
            mu = mobius_table(q).mu
            below = tuple(
                sum((g[v] * mu[v][k] for v in range(q.n) if q.leq(v, k)), Fraction(0))
                for k in range(q.n)
            )
            above = tuple(
                sum((g[v] * mu[k][v] for v in range(q.n) if q.leq(k, v)), Fraction(0))
                for k in range(q.n)
            )
            assert psi(d, f).values == below
            assert phi(d, f).values == above
    assert relisted >= 10


def test_resums_to_refuses_a_foreign_function():
    # A function on divisors(60) made resums_to answer False, and one on a
    # 2-chain raised IndexError; a vector shorter than its set was kept.
    p = divisibility_poset(divisors(12))
    f = PosetFunction.from_callable(p, Fraction)
    d = Subset.whole(p)
    for q in (divisibility_poset(divisors(60)), total_order_poset((1, 2))):
        g = PosetFunction.from_callable(q, Fraction)
        for vec in (psi(d, f), phi(d, f)):
            with pytest.raises(
                ValueError, match="^subset and function live on different posets$"
            ):
                vec.resums_to(g)
    for masses in (PsiVector, PhiVector):
        with pytest.raises(ValueError, match="one mass per member"):
            masses(d, psi(d, f).values[:-1])


def test_mass_check_raises_under_optimize():
    # With asserts stripped by -O the re-sum check must still run.  The walk
    # gathers along one mask and the check re-sums along the other, so a
    # poset whose down(4) lacks 2, or whose up(2) lacks 4, fails the check
    # in psi and in phi alike.
    script = textwrap.dedent("""
        from fractions import Fraction
        from meetjoin import (
            CharacterizationMismatch, PosetFunction, Subset,
            divisibility_poset, divisors, phi, psi,
        )
        from meetjoin.poset import _restore_poset
        p = divisibility_poset(divisors(12))
        two, four = p.index_of(2), p.index_of(4)
        down, up = list(p._down), list(p._up)
        down[four] &= ~(1 << two)
        up[two] &= ~(1 << four)
        for name, lie in (
            ("down", _restore_poset(p.labels, None, tuple(down), p._up)),
            ("up", _restore_poset(p.labels, None, p._down, tuple(up))),
        ):
            f = PosetFunction.from_callable(lie, Fraction)
            for masses in (psi, phi):
                try:
                    masses(Subset.whole(lie), f)
                except CharacterizationMismatch:
                    print(name, masses.__name__, "raised")
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "down psi raised", "down phi raised", "up psi raised", "up phi raised",
    ]


def test_psi_chain_is_difference_of_consecutive_values():
    rng = random.Random(505)
    p = total_order_poset((2, 4, 8, 16, 32))
    f = random_function(rng, p)
    vec = psi(Subset.whole(p), f)
    assert vec[0] == f.values[0]
    for k in range(1, 5):
        assert vec[k] == f.values[k] - f.values[k - 1]


def test_phi_chain_is_difference_downward():
    rng = random.Random(506)
    p = total_order_poset((2, 4, 8, 16, 32))
    f = random_function(rng, p)
    vec = phi(Subset.whole(p), f)
    assert vec[4] == f.values[4]
    for k in range(4):
        assert vec[k] == f.values[k] - f.values[k + 1]


def test_worked_mass_vector():
    lat = divisor_down_set([6, 10, 15])
    f = PosetFunction.from_table(
        lat.poset, {"1": 0, "2": -1, "3": 3, "5": -2, "6": 5, "10": 2, "15": 3}
    )
    vec = psi(Subset.whole(lat.poset), f)
    assert vec.values == (
        Fraction(0), Fraction(-1), Fraction(3), Fraction(-2),
        Fraction(3), Fraction(5), Fraction(2),
    )
    assert vec.labels == (1, 2, 3, 5, 6, 10, 15)


def test_masses_require_exact_values():
    p = total_order_poset((1, 2))
    f = PosetFunction(p, (0.5, 1.5))
    with pytest.raises(ExactArithmeticError):
        psi(Subset.whole(p), f)
    with pytest.raises(ExactArithmeticError):
        phi(Subset.whole(p), f)


def test_from_table_missing_and_duplicate():
    p = total_order_poset((1, 2, 3))
    with pytest.raises(MissingValueError) as err:
        PosetFunction.from_table(p, {"1": 5})
    assert "2" in str(err.value) and "3" in str(err.value)
    with pytest.raises(DuplicateError):
        PosetFunction.from_table(p, {"1": 5, 1: 6, "2": 0, "3": 0})
    with pytest.raises(ValueError):
        PosetFunction.from_table(p, {"1": 0, "2": 0, "3": 0, "9": 1})


def test_value_coercion():
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (1, "2/3", Fraction(5)))
    assert f.is_exact
    assert f.values[1] == Fraction(2, 3)
    g = PosetFunction(p, (1, 0.5, 2))
    assert not g.is_exact
    with pytest.raises(TypeError):
        PosetFunction(p, (True, 1, 2))


def test_non_finite_values_are_refused():
    # With inf as a value, classify_and_test said positive-definite by T4.4
    # and meet_bounds reported verified bounds ending in inf; nan passed the
    # strict monotonicity probe.
    p = total_order_poset((1, 2, 3))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            PosetFunction(p, (1.0, 2.0, bad))
        with pytest.raises(ValueError, match="must be finite"):
            PosetFunction.from_table(p, {"1": bad, "2": 2, "3": 3})
    for text in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="divides by zero"):
            PosetFunction(p, (1, 2, text))


def test_monotonicity_probes():
    p = divisibility_poset((1, 2, 4))
    up = PosetFunction(p, (1, 2, 3))
    assert up.is_order_preserving(strict=True)
    assert not up.is_order_reversing()
    flat = PosetFunction(p, (1, 1, 2))
    assert flat.is_order_preserving()
    assert not flat.is_order_preserving(strict=True)
    # restricted to one element everything is monotone
    one = Subset.of_labels(p, [2])
    assert flat.is_order_preserving(strict=True, within=one)
    # order-reversing against a scan of the relation
    rng = random.Random(508)
    for _ in range(60):
        q = random_poset(rng)
        g = random_function(rng, q)
        s = random_subset(rng, q)
        for strict in (False, True):
            expected = all(
                g.values[x] > g.values[y] if strict else g.values[x] >= g.values[y]
                for x in s.members for y in s.members if q.less(x, y)
            )
            assert g.is_order_reversing(strict, within=s) == expected


def test_order_preserving_matches_the_pair_scan():
    # is_order_preserving reads each element's down mask inside the domain;
    # the ordered index-pair scan in support.py is the reference.
    rng = random.Random(1508)
    outcomes = set()
    for k in range(300):
        if k % 3:
            p = random_poset(rng)
        else:
            p = random_relation_poset(rng, rng.randint(2, 12))
        if k % 2:
            f = random_function(rng, p)
        else:
            f = random_monotone_function(rng, p, strict=rng.random() < 0.5)
        for within in (None, random_subset(rng, p), Subset.whole(p)):
            for strict in (False, True):
                got = f.is_order_preserving(strict, within)
                assert got == scan_is_order_preserving(f, strict, within)
                assert f.is_order_reversing(strict, within) == scan_is_order_preserving(
                    f.dual(), strict, None if within is None else within.dual()
                )
                outcomes.add(got)
    assert outcomes == {False, True}


def test_labels_that_print_alike_are_refused():
    p = total_order_poset((1, "1", 2))
    with pytest.raises(DuplicateError, match="^labels 1 and '1' share a value key$"):
        PosetFunction.from_table(p, {"1": 5, "2": 6})


def test_restrict_matches_parent_values():
    rng = random.Random(507)
    p = random_poset(rng)
    s = random_subset(rng, p)
    f = random_function(rng, p)
    g = f.restrict(s)
    for t, m in enumerate(s.members):
        assert g.values[t] == f.values[m]


def test_number_edge_cases():
    # The exact-type shortcut for Fraction and finite float must not let
    # through what the isinstance chain refuses, nor change what it returns.
    with pytest.raises(TypeError, match="boolean"):
        _number(True)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            _number(bad)

    class Real(float):
        pass

    class Ratio(Fraction):
        pass

    class Whole(int):
        pass

    for value in (Real(2.5), Ratio(2, 3), Fraction(2, 3), 2.5, -0.0):
        assert _number(value) is value
    for value in (Whole(7), 7):
        out = _number(value)
        assert type(out) is Fraction and out == 7
    with pytest.raises(ValueError, match="must be finite"):
        _number(Real("inf"))
    with pytest.raises(TypeError, match="unsupported value"):
        _number("1")


def test_numeric_text_is_read_by_one_reader():
    assert _rational(" -1/2 ") == Fraction(-1, 2)
    assert _rational("2.5e-3") == Fraction(1, 400)
    assert _rational("1_0e1_0") == 10 ** 11
    for text in ("1e1000", "1e-1000"):
        assert _rational(text) in (10 ** 1000, Fraction(1, 10 ** 1000))
    # a decimal exponent past the cap is refused before 10**k is built
    for text in ("1e1001", "-2.5E-1001", " 0e10000000000 "):
        with pytest.raises(DeskScaleError, match="decimal exponent"):
            _rational(text)
    # text that only ends like an exponent is no number
    for text in ("node2000", "e2000", "1e5e2000", "1/2e2000", "inf", "nan", "x1"):
        with pytest.raises(ValueError):
            _rational(text)
    with pytest.raises(ValueError, match="divides by zero"):
        _rational("1/0")


def _walked(d, f, kind):
    # The masses of the walk: the same set and values on an unmarked copy
    # of the parent, which has no divisibility structure to route by.
    p = d.parent
    plain = _restore_poset(p.labels, None, p._down, p._up)
    masses = psi if kind == "meet" else phi
    return masses(Subset(plain, d.members), PosetFunction(plain, f.values)).values


def test_prime_masses_equal_the_walk():
    # On seeded sets of all three canonical universes, the unitary one
    # included, the prime-wise masses over the whole universe and over
    # closures of seeded subsets equal the walk's, for named functions at
    # several exponents and for seeded rational values, on the bounded
    # side and on the other side of the dual, which keeps the structure.
    # The walk over a whole universe past 600 elements takes seconds.
    rng = random.Random(3101)
    builds = ((divisor_down_set, "meet", "power"),
              (unitary_divisor_down_set, "meet", "power"),
              (lcm_up_set, "join", "reciprocal_power"))
    compared = {True: 0, False: 0}  # by whether the set is the whole universe
    for top in (60, 3000, 10**6, 720720, 963761198400):
        for build, kind, tag in builds:
            for _ in range(3):
                pool = divisors(top) if rng.random() < 0.5 else range(1, min(top, 3000))
                gens = rng.sample(pool, min(len(pool), rng.randint(1, 6)))
                p = build(gens).poset
                sets = [Subset.whole(p)] if p.n <= 600 else []
                for size in (1, 2, 5, 20):
                    members = sorted(rng.sample(range(p.n), min(size, p.n)))
                    sets.append(_kept_closure(Subset(p, tuple(members)), kind).subset)
                functions = [NamedFunction(tag, alpha).bind(p) for alpha in (1, 2, 3)]
                functions.append(PosetFunction(p, [
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(p.n)]))
                other = "join" if kind == "meet" else "meet"
                for d in sets:
                    for f in functions:
                        want = _walked(d, f, kind)
                        assert mobius._prime_masses(d, f, kind) == want, (gens, d.labels)
                        dual = mobius._prime_masses(d.dual(), f.dual(), other)
                        assert dual == want[::-1]
                        compared[len(d) == p.n] += 1
    assert compared[True] >= 200 and compared[False] >= 400, compared


def test_masses_take_the_route_that_counts_less_work(monkeypatch):
    # The walk visits the pairs of its gather and its re-sum, each weighed
    # as WALK_PAIR_COST steps, the prime-wise route 2 * weight + |U| steps.
    # On the full divisor sets of the bench, under both families, the route
    # counts less (about 300-400 steps against 1032-1800 pairs), and so it
    # does on the seed-0 sets of 80 integers below 3000 (1444-1635 steps
    # against 1024-1453 pairs), over their meet closures.  Two hundred of
    # the divisors of 720720 under reciprocal-power-lcm take the route over
    # a closure that is not the whole universe.  The closures of a few
    # members in a large universe keep the walk: 4 members among the 6720
    # divisors of 963761198400, 3 among the 575 elements of an lcm up-set.
    # So does a set that is not closed, however many pairs it holds.
    taken, walked = [], []
    route, walk = mobius._prime_masses, mobius._gather
    monkeypatch.setattr(mobius, "_prime_masses", lambda *a: taken.append(a) or route(*a))
    monkeypatch.setattr(mobius, "_gather", lambda *a: walked.append(a) or walk(*a))

    def decide(family, members):
        taken.clear()
        walked.clear()
        model = build_named_matrix(family, members, ambient="canonical")
        return model, classify_and_test(model.subset, model.function, model.kind)

    for m in (2520, 5040, 7560, 10080):
        for family, method in (("power_gcd", "T3.1"), ("power_lcm_reciprocal", "T3.2")):
            model, report = decide(family, divisors(m))
            assert report.method == method and len(model.subset) == model.poset.n
            assert len(taken) == 1 and walked == []
            assert report.certificate["masses"] == _walked(model.subset, model.function,
                                                         model.kind)
    rng = random.Random(0)
    for _ in range(8):
        model, report = decide("power_gcd", rng.sample(range(1, 3000), 80))
        assert report.method == "C3.4" and len(taken) == 1 and walked == []
        closed = Subset.of_labels(model.poset, report.certificate["support"])
        assert report.certificate["masses"] == _walked(closed, model.function, "meet")
    for family, members in (("power_gcd", [963761198400, 6, 10]),
                            ("power_lcm_reciprocal", [223092870, 2756205443])):
        model, report = decide(family, members)
        assert report.method in ("C3.4", "C3.6") and taken == [] and len(walked) == 1
    members = sorted(random.Random(0).sample(divisors(720720), 200))
    model, report = decide("power_lcm_reciprocal", members)
    closed = report.certificate["support"]
    assert report.method == "C3.6" and len(members) < len(closed) < model.poset.n
    assert len(taken) == 1 and walked == []
    p = divisor_down_set([2520]).poset
    taken.clear()
    psi(Subset(p, tuple(range(1, p.n))), NamedFunction("power", 1).bind(p))
    assert p.labels[0] == 1 and taken == [] and len(walked) == 1


def test_the_route_is_not_built_by_other_commands(monkeypatch):
    # The steps of the route are built only when masses are asked for:
    # classify, closure and build never build them.
    built = []
    steps = mobius._prime_steps
    monkeypatch.setattr(mobius, "_prime_steps", lambda p: built.append(p) or steps(p))
    members = ",".join(map(str, divisors(5040)))
    for family in ("power-gcd", "reciprocal-power-lcm", "gcud-power"):
        for command in ("classify", "closure", "build"):
            code, _ = run(RunConfig(command=command, set_text=members, family=family))
            assert code == 0 and built == []
    for family in ("power-gcd", "reciprocal-power-lcm"):
        code, _ = run(RunConfig(command="check-pd", set_text=members, family=family))
        assert code == 0 and len(built) == 1
        built.clear()


def test_prime_route_faults_raise_under_optimize():
    # With asserts stripped by -O the route's checks must still run.  The
    # prefix sums alone undo the differences step for step, so where the
    # set is the whole universe they pass whatever the base holds: with 7
    # dropped from the base of divisors(2520) the masses come out wrong.
    # The check of the steps against the down masks fails there, and on a
    # down mask that lacks one element below, cover or not.  Over the meet
    # closure {6, 12, 18} of {12, 18}, a smaller set than its universe,
    # the class sums read the up masks, and the prefix sums fail on an up
    # mask that lacks an element above.  The same calls on the true
    # posets give the walk's masses.
    script = textwrap.dedent("""
        from fractions import Fraction
        from meetjoin import (
            CharacterizationMismatch, PosetFunction, Subset, divisor_down_set,
            meet_closure, phi, psi,
        )
        from meetjoin.mobius import _prime_masses
        from meetjoin.poset import _restore_poset

        def attempt(name, masses, d):
            f = PosetFunction.from_callable(d.parent, Fraction)
            try:
                masses(d, f)
            except CharacterizationMismatch:
                print(name, "raised")

        p = divisor_down_set([2520]).poset
        where = p.index_of
        down = list(p._down)
        down[where(2520)] &= ~(1 << where(2))
        lies = (
            ("base", p._down, p._divisibility._replace(primes=(2, 3, 5))),
            ("down", tuple(down), p._divisibility),
        )
        for name, masks, divisibility in lies:
            lie = _restore_poset(p.labels, None, masks, p._up, "meet", divisibility)
            attempt(name, psi, Subset.whole(lie))
            attempt(name, phi, Subset.whole(lie.dual()))
        q = divisor_down_set([12, 18]).poset
        up = list(q._up)
        up[q.index_of(4)] &= ~(1 << q.index_of(12))
        lie = _restore_poset(q.labels, None, q._down, tuple(up), "meet", q._divisibility)
        d = meet_closure(Subset.of_labels(lie, [12, 18])).subset
        assert d.labels == (6, 12, 18)
        attempt("up", lambda d, f: _prime_masses(d, f, "meet"), d)
        true = meet_closure(Subset.of_labels(q, [12, 18])).subset
        f = PosetFunction.from_callable(q, Fraction)
        if _prime_masses(true, f, "meet") == psi(true, f).values:
            print("true up-set agrees")
        f = PosetFunction.from_callable(p, Fraction)
        plain = _restore_poset(p.labels, None, p._down, p._up)
        walked = psi(Subset.whole(plain), PosetFunction(plain, f.values)).values
        if psi(Subset.whole(p), f).values == walked:
            print("true base agrees")
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "base raised", "base raised", "down raised", "down raised", "up raised",
        "true up-set agrees", "true base agrees",
    ]
