"""Shared generators for the randomized suites.

Every generator takes an explicit random.Random so each suite seeds its own
stream and failures reproduce.  Lattices come from three sources with very
different shapes: intersection-closed set families (which realize every
finite lattice), divisor lattices of random integers, and random rooted
trees read as orders with the root at the bottom.
"""

import random
from fractions import Fraction

from meetjoin import (
    FinitePoset,
    PosetFunction,
    Subset,
    build_poset,
    divisibility_poset,
    divisors,
    join_closure,
    meet_closure,
)


def random_intersection_lattice(rng: random.Random, ground: int = 4,
                                seeds: int = 5) -> FinitePoset:
    """A lattice of subsets of a small ground set, ordered by inclusion.

    The family is seeded with the full ground set and closed under
    intersection, so meets always exist and joins exist below the top.
    """
    universe = frozenset(range(ground))
    family = {universe}
    for _ in range(seeds):
        family.add(frozenset(e for e in universe if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in list(family):
            for b in list(family):
                c = a & b
                if c not in family:
                    family.add(c)
                    changed = True
    sets = sorted(family, key=lambda s: (len(s), tuple(sorted(s))))
    rows = [[sets[i] <= sets[j] for j in range(len(sets))] for i in range(len(sets))]
    labels = tuple("{" + ",".join(str(e) for e in sorted(s)) + "}" for s in sets)
    return FinitePoset.from_leq(rows, labels=labels)


def random_divisor_lattice(rng: random.Random, max_primes: int = 3,
                           max_exp: int = 2) -> FinitePoset:
    """The divisors of a random smooth number, under divisibility."""
    primes = rng.sample([2, 3, 5, 7], rng.randint(1, max_primes))
    m = 1
    for p in primes:
        m *= p ** rng.randint(1, max_exp)
    return divisibility_poset(divisors(m))


def random_tree_poset(rng: random.Random, n: int) -> FinitePoset:
    """A rooted tree read as an order: the root is the minimum.

    Principal down-sets are root paths, hence chains, so every subset is a
    meet-tree set and all meets exist.
    """
    relation = [(rng.randint(1, i), i + 1) for i in range(1, n)]
    return build_poset(n, relation)


def random_poset(rng: random.Random) -> FinitePoset:
    pick = rng.randrange(3)
    if pick == 0:
        return random_intersection_lattice(rng, ground=rng.randint(3, 4))
    if pick == 1:
        return random_divisor_lattice(rng)
    return random_tree_poset(rng, rng.randint(2, 9))


def random_subset(rng: random.Random, p: FinitePoset, max_size: int = 8) -> Subset:
    size = rng.randint(1, min(max_size, p.n))
    members = sorted(rng.sample(range(p.n), size))
    return Subset(p, tuple(members))


def random_meet_closed_subset(rng: random.Random, p: FinitePoset,
                              max_size: int = 8) -> Subset:
    return meet_closure(random_subset(rng, p, max_size)).subset


def random_join_closed_subset(rng: random.Random, p: FinitePoset,
                              max_size: int = 8) -> Subset:
    return join_closure(random_subset(rng, p, max_size)).subset


def random_rational(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    den = rng.randint(1, 8)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_function(rng: random.Random, p: FinitePoset) -> PosetFunction:
    return PosetFunction(p, tuple(random_rational(rng) for _ in range(p.n)))


def random_monotone_function(rng: random.Random, p: FinitePoset,
                             strict: bool = True, reverse: bool = False,
                             positive: bool = True) -> PosetFunction:
    """Order-preserving (or -reversing) values built along the indexing.

    Indices are a linear extension, so each element only needs to dominate
    values already assigned below it.
    """
    values = [Fraction(0)] * p.n
    scan = range(p.n) if not reverse else range(p.n - 1, -1, -1)
    for i in scan:
        if reverse:
            related = [values[j] for j in range(p.n) if j != i and p.leq(i, j)]
        else:
            related = [values[j] for j in range(p.n) if j != i and p.leq(j, i)]
        base = max(related) if related else Fraction(rng.randint(1 if positive else -3, 3))
        low = 1 if strict else 0
        step = Fraction(rng.randint(low, 4), rng.randint(1, 3))
        values[i] = base + step
    return PosetFunction(p, tuple(values))


def forked_meet_tree():
    """A 6-member tree set whose pairwise meets split over two branches.

    The ambient order is a rooted tree: the root carries two arms, one arm
    splits again, and the members are the six leaves plus nothing else.
    Their meet closure is the whole tree, but the meets land on both arms,
    so they do not form a chain.
    """
    relation = [
        (1, 2), (2, 3), (2, 8),
        (3, 5), (3, 6), (3, 7),
        (1, 4), (4, 9), (4, 10),
    ]
    p = build_poset(10, relation)
    return p, Subset.of_labels(p, [5, 6, 7, 8, 9, 10])


def spine_meet_tree():
    """An 11-member set whose pairwise meets all land on one chain.

    The ambient order is a tree with a 4-element spine; leaves hang off
    every spine node and one spine node is itself a member.
    """
    relation = [
        (1, 2), (2, 3), (3, 4),
        (1, 5), (1, 6), (1, 7), (1, 8),
        (2, 9),
        (3, 10), (3, 11), (3, 12),
        (4, 13), (4, 14),
    ]
    p = build_poset(14, relation)
    return p, Subset.of_labels(p, [3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14])


def brute_join(p, i, j):
    """Least upper bound of x_i and x_j by scanning the relation, with no
    use of the order dual.  When there is none, the words for what is
    missing: "common upper bound" or "least common upper bound"."""
    upper = [k for k in range(p.n) if p.leq(i, k) and p.leq(j, k)]
    if not upper:
        return "common upper bound"
    least = [u for u in upper if all(p.leq(u, v) for v in upper)]
    return least[0] if least else "least common upper bound"


def cofactor_det(rows):
    """Independent determinant by cofactor expansion; exact on Fractions."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def leading_minors_positive(matrix) -> bool:
    """Sylvester-style oracle via cofactor determinants of leading blocks."""
    n = matrix.n
    for k in range(1, n + 1):
        rows = [[matrix.entry(i, j) for j in range(k)] for i in range(k)]
        if cofactor_det(rows) <= 0:
            return False
    return True
