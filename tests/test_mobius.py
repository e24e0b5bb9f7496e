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
    DeskScaleError,
    DuplicateError,
    ExactArithmeticError,
    MissingValueError,
    NoJoinError,
    NoMeetError,
    PhiVector,
    PosetFunction,
    PsiVector,
    Subset,
    divisibility_poset,
    divisor_down_set,
    divisors,
    down_set,
    factorize,
    join_closure,
    meet_closure,
    mobius_table,
    phi,
    psi,
    total_order_poset,
    up_set,
)
from meetjoin.mobius import _number, _rational
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
