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
    DuplicateError,
    ExactArithmeticError,
    MissingValueError,
    PosetFunction,
    Subset,
    divisibility_poset,
    divisor_down_set,
    divisors,
    factorize,
    join_closure,
    meet_closure,
    mobius_table,
    phi,
    psi,
    total_order_poset,
)
from support import (
    random_function,
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
    rng = random.Random(504)
    for _ in range(40):
        p = random_poset(rng)
        f = random_function(rng, p)
        d = Subset.whole(p)
        vec = psi(d, f)
        dual = phi(d, f)
        mu = mobius_table(p).mu
        for k in range(p.n):
            total = sum(
                (f.values[v] * mu[v][k] for v in range(p.n) if p.leq(v, k)),
                Fraction(0),
            )
            assert vec[k] == total
            total = sum(
                (f.values[v] * mu[k][v] for v in range(p.n) if p.leq(k, v)),
                Fraction(0),
            )
            assert dual[k] == total


def test_mass_check_raises_under_optimize():
    # With asserts stripped by -O the re-sum check must still run: a poset
    # whose strict order lies about 2 < 4 derails the recursion, and the
    # masses then fail to re-sum to f.
    script = textwrap.dedent("""
        from fractions import Fraction
        from meetjoin import (
            CharacterizationMismatch, FinitePoset, PosetFunction, Subset,
            divisibility_poset, divisors, phi, psi,
        )
        p = divisibility_poset(divisors(12))
        f = PosetFunction.from_callable(p, Fraction)
        lie = (p.index_of(2), p.index_of(4))
        honest = FinitePoset.less
        FinitePoset.less = lambda self, i, j: (i, j) != lie and honest(self, i, j)
        for masses in (psi, phi):
            try:
                masses(Subset.whole(p), f)
            except CharacterizationMismatch:
                print(masses.__name__, "raised")
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["psi raised", "phi raised"]


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
