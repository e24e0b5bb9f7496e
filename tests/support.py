"""Shared generators for the randomized suites.

Every generator takes an explicit random.Random so each suite seeds its own
stream and failures reproduce.  Lattices come from three sources with very
different shapes: intersection-closed set families (which realize every
finite lattice), divisor lattices of random integers, and random rooted
trees read as orders with the root at the bottom.
"""

import math
import operator
import random
from fractions import Fraction

from meetjoin import (
    CycleError,
    FinitePoset,
    NoJoinError,
    NoMeetError,
    PosetFunction,
    Subset,
    SymMatrix,
    build_poset,
    divisibility_poset,
    divisors,
    is_A_set,
    is_chain,
    is_vee_tree_set,
    is_wedge_tree_set,
    join,
    join_closure,
    meet,
    meet_closure,
    unitary_divisors,
)
from meetjoin.poset import _bits


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


def random_relation_poset(rng: random.Random, n: int) -> FinitePoset:
    """The order generated by random pairs ``a < b``: mostly not a lattice,
    so meets and joins can be missing in both ways."""
    relation = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if rng.random() < 0.3]
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


def random_linear_extension(rng: random.Random, s: Subset) -> Subset:
    """The members of ``s`` relisted in a random order compatible with the
    parent order: each step picks a random member with nothing left below."""
    left, listing = set(s.members), []
    while left:
        keep = sum(1 << m for m in left)
        low = [m for m in sorted(left) if s.parent.down_mask(m) & keep == 1 << m]
        listing.append(rng.choice(low))
        left.remove(listing[-1])
    return Subset(s.parent, tuple(listing))


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


def scan_divisibility_poset(values, unitary=False):
    """Reference divisibility order: every pair tested with ``y % x``, and
    ``gcd(x, y // x) == 1`` for unitary divisibility, then built through
    the validating ``FinitePoset`` constructor."""
    labels = tuple(sorted(values))
    masks = []
    for j, y in enumerate(labels):
        mask = 1 << j
        for i, x in enumerate(labels[:j]):
            if y % x == 0 and (not unitary or math.gcd(x, y // x) == 1):
                mask |= 1 << i
        masks.append(mask)
    return FinitePoset(masks, labels=labels)


def fixpoint_closure(n, relation):
    """Reference closure of generating pairs, cycles included: each
    element's down-set mask in input positions, swept until nothing
    changes."""
    down = [1 << i for i in range(n)]
    for a, b in relation:
        if not (1 <= a <= n and 1 <= b <= n):
            raise IndexError(f"pair ({a}, {b}) out of range for n={n}")
        down[b - 1] |= 1 << (a - 1)
    changed = True
    while changed:
        changed = False
        for j in range(n):
            acc = down[j]
            for i in _bits(acc):
                acc |= down[i]
            if acc != down[j]:
                down[j] = acc
                changed = True
    return down


def fixpoint_build_poset(n, relation, labels=None):
    """Reference ``build_poset``: the fixpoint closure, a scan of every pair
    for a cycle, heights from down-sets taken in popcount order, a bit remap
    to the linear extension and the validating ``FinitePoset`` constructor."""
    if n < 1:
        raise ValueError("n must be at least 1")
    down = fixpoint_closure(n, relation)
    for j in range(n):
        for i in _bits(down[j]):
            if i != j and (down[i] >> j) & 1:
                raise CycleError(f"elements {i + 1} and {j + 1} lie on a cycle")
    topo = sorted(range(n), key=lambda j: down[j].bit_count())
    height = [0] * n
    for j in topo:
        best = 0
        for i in _bits(down[j]):
            if i != j:
                best = max(best, height[i] + 1)
        height[j] = best
    order = sorted(range(n), key=lambda j: (height[j], j))
    position = [0] * n
    for new, old in enumerate(order):
        position[old] = new
    new_down = [0] * n
    for old_j, mask in enumerate(down):
        acc = 0
        for old_i in _bits(mask):
            acc |= 1 << position[old_i]
        new_down[position[old_j]] = acc
    if labels is not None:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError("labels length must match n")
        new_labels = tuple(labels[old] for old in order)
    else:
        new_labels = tuple(old + 1 for old in order)
    return FinitePoset(new_down, labels=new_labels, source_order=tuple(order))


def scan_gcud(a, b):
    """Reference gcud: the largest unitary divisor the two share, from
    their factorizations."""
    return max(set(unitary_divisors(a)) & set(unitary_divisors(b)))


def rescan_closure(s, op):
    """Reference closure: each round combines every pair of the current set,
    in ascending index order, until a round adds nothing.  ``op`` is
    ``meet`` or ``join``; its error for the first missing pair propagates.
    Returns the members, ascending, and the position of each member of
    ``s`` among them."""
    members = sorted(s.members)
    while True:
        grown = set(members)
        for a, x in enumerate(members):
            for y in members[a + 1:]:
                grown.add(op(s.parent, x, y))
        if len(grown) == len(members):
            return tuple(members), tuple(members.index(m) for m in s.members)
        members = sorted(grown)


def outcome(call, *args):
    """What ``call(*args)`` gives: its value, or the type and text of the
    missing-bound error it raises."""
    try:
        return call(*args)
    except (NoMeetError, NoJoinError) as exc:
        return type(exc), str(exc)


def scan_is_closed(s, op):
    """Reference closedness: ``op``, ``meet`` or ``join``, of each member
    pair in listing order, with no closure read; the first bound outside
    the set answers False, and a pair without one before it raises."""
    keep, ms = s.member_mask(), s.members
    return all(keep >> op(s.parent, x, y) & 1
               for a, x in enumerate(ms) for y in ms[a + 1:])


def scan_structure_flags(s):
    """Reference ``structure_flags``: closedness by the pair scan first, in
    its key order, each probe on a fresh copy of ``s`` that keeps nothing;
    ``None`` where a probe meets a pair without its bound."""
    probes = (("meet_closed", lambda t: scan_is_closed(t, meet)),
              ("join_closed", lambda t: scan_is_closed(t, join)),
              ("chain", is_chain), ("wedge_tree_set", is_wedge_tree_set),
              ("vee_tree_set", is_vee_tree_set), ("a_set", is_A_set))
    flags = {}
    for name, probe in probes:
        value = outcome(probe, Subset(s.parent, s.members))
        flags[name] = None if isinstance(value, tuple) else value
    return flags


def fixpoint_integer_closure(values, op):
    """Reference integer closure: add ``op`` of every pair of the set until
    nothing changes.  Returns the members, ascending."""
    closed = set(values)
    while True:
        grown = closed | {op(a, b) for a in closed for b in closed}
        if grown == closed:
            return tuple(sorted(closed))
        closed = grown


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


def full_row_minors(m, swap=False):
    """Reference ``leading_minors``: Bareiss elimination that scales each
    row by the lcm of its denominators and updates whole rows, swapping
    rows at a zero pivot under ``swap``."""
    n = m.n
    scales = [math.lcm(*(v.denominator for v in row)) for row in m.entries]
    rows = [[v.numerator * (d // v.denominator) for v in row]
            for row, d in zip(m.entries, scales)]
    sign = prev = scale = 1
    for k in range(n):
        if swap and rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    scales[k], scales[r] = scales[r], scales[k]
                    sign = -sign
                    break
        pivot = rows[k][k]
        scale *= scales[k]
        yield sign * Fraction(pivot, scale)
        if swap and pivot == 0:
            return
        tail = rows[k][k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            row[k + 1:] = [(a * pivot - lead * b) // prev
                           for a, b in zip(row[k + 1:], tail)]
        prev = pivot


def doolittle_pivots(m):
    """Reference swap-free ``_float_pivots``: Gaussian elimination on
    ``m.to_float()`` in Doolittle's order, column by column, each entry of U
    above the diagonal and of L below it one dot product: n^3/3
    multiply-adds, where LDL^T over one triangle takes n^3/6."""
    rows = m.to_float()
    n = len(rows)
    lower = [[] for _ in range(n)]  # the rows of L, left of column j
    for j in range(n):
        col = []  # column j of U above the diagonal, then the pivot and below
        for i in range(n):
            col.append(rows[i][j] - sum(map(operator.mul, lower[i], col)))
        pivot = col[j]
        yield pivot
        for i in range(j + 1, n):
            lower[i].append(col[i] / pivot)


def doolittle_verdict(m):
    """``(is positive definite, minor_index)`` as ``pd_oracle`` reads them
    off :func:`doolittle_pivots`: the 1-based index of the first pivot that
    is not positive, None when every pivot is."""
    for k, pivot in enumerate(doolittle_pivots(m), 1):
        if not pivot > 0:
            return False, k
    return True, None


def near_singular_matrices(rng: random.Random, count: int):
    """B B^T + c I with B of rank below n and c near the rounding of 1."""
    for _ in range(count):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        c = rng.choice((1e-17, 1e-16, 1e-15, 1e-14))
        b = [[rng.uniform(-1, 1) for _ in range(r)] for _ in range(n)]
        yield SymMatrix(tuple(
            tuple(math.fsum(b[i][k] * b[j][k] for k in range(r)) + (c if i == j else 0.0)
                  for j in range(n))
            for i in range(n)
        ))


def leading_minors_positive(matrix) -> bool:
    """Sylvester-style oracle via cofactor determinants of leading blocks."""
    n = matrix.n
    for k in range(1, n + 1):
        rows = [[matrix.entry(i, j) for j in range(k)] for i in range(k)]
        if cofactor_det(rows) <= 0:
            return False
    return True


def scan_cover_edges(q):
    """Reference ``cover_graph(q).edges``: every comparable pair ``i < j``
    whose interval holds nothing but the two ends, ascending."""
    edges = []
    for j in range(q.n):
        for i in _bits(q.down_mask(j)):
            if i != j and q.down_mask(j) & q.up_mask(i) == (1 << i) | (1 << j):
                edges.append((i, j))
    return tuple(sorted(edges))


def bitwise_restrict_masks(s):
    """Reference masks of ``s.restrict()``: each member's down mask cut to
    the members, its bits moved one at a time to their listing positions,
    and the up masks transposed from them bit by bit."""
    keep = s.member_mask()
    where = {m: k for k, m in enumerate(s.members)}
    down = [sum(1 << where[i] for i in _bits(s.parent.down_mask(m) & keep))
            for m in s.members]
    up = [0] * len(down)
    for j, mask in enumerate(down):
        for i in _bits(mask):
            up[i] |= 1 << j
    return down, up


def scan_covers_at_most_one(q):
    """Reference: count the lower ends of the cover edges at each upper end."""
    lower_counts = [0] * q.n
    for _, upper in scan_cover_edges(q):
        lower_counts[upper] += 1
    return all(c <= 1 for c in lower_counts)


def scan_bounded_pairs_comparable(q):
    """Reference: every index pair with a common upper bound, tested with
    ``leq``."""
    for x in range(q.n):
        for y in range(x + 1, q.n):
            if q.up_mask(x) & q.up_mask(y) and not q.leq(x, y):
                return False
    return True


def scan_is_order_preserving(f, strict=False, within=None):
    """Reference ``PosetFunction.is_order_preserving``: every ordered index
    pair of the domain tested with ``less``."""
    idx = tuple(range(f.poset.n)) if within is None else within.members
    p = f.poset
    for a in range(len(idx)):
        for b in range(len(idx)):
            if a != b and p.less(idx[a], idx[b]):
                fa, fb = f.values[idx[a]], f.values[idx[b]]
                if fa > fb or (strict and fa == fb):
                    return False
    return True


def input_residual(m) -> float:
    """The worst ``|A v - lambda v|`` over the eigenpairs behind ``eigen_sym``,
    in the input's units, with each eigenvector ``v`` of ``A`` formed: the
    tridiagonal's unit eigenvector is mapped back through every Householder
    reflector and multiplied by the input, O(n^3) in all."""
    from meetjoin.spectral import (
        _apply_q,
        _inverse_iteration,
        _tridiagonal_ql,
        _tridiagonalize,
    )

    source = m.to_float()
    scale = max(abs(v) for row in source for v in row)
    if m.n == 1 or scale == 0.0:
        return 0.0
    d, e, reflectors = _tridiagonalize([[v / scale for v in row] for row in source])
    d0, e0 = d[:], e[:]
    _tridiagonal_ql(d, e, 1e-10, scale, 100)
    values = sorted(d)
    residual = 0.0
    for lam, z in zip(values, _inverse_iteration(d0, e0, values)):
        v = _apply_q(reflectors, z)
        for row, vk in zip(source, v):
            residual = max(residual, abs(sum(map(operator.mul, row, v)) - lam * scale * vk))
    return residual
