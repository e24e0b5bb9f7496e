"""Meet and join matrices, incidence factorizations, determinants.

The meet matrix of a listed set has ``f(x_i meet x_j)`` at entry ``(i, j)``,
with the meet taken in the ambient poset; the join matrix is the dual.  One
helper assembles both, from the pair bounds :func:`meet` or :func:`join`
gives in the listing, and one covering check serves both factored forms.
Both factor through 0/1 incidence matrices against any superset containing
the relevant meets or joins, with the mass vectors on the diagonal, read
off the down masks for meets and the up masks for joins; on closed sets the
determinant collapses to the product of the masses.  On any other set,
``_closure_det`` reads it off the masses over the closure and the
complementary minor of the closure's inverse, where that is cheaper than
``det_general``; ``leading_minors`` and ``_float_pivots`` eliminate
everything else.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .errors import (CharacterizationMismatch, DeskScaleError, NotClosedError,
                     NotSupersetError)
from .mobius import PosetFunction, _check_same_parent, _masses, _number
from .poset import (ClosureResult, FinitePoset, Subset, _bits, _is_closed,
                    _kind, _op, _pair_meets, _side, join, meet)


@dataclass(frozen=True)
class SymMatrix:
    """An immutable symmetric matrix with rational or float entries;
    ``is_exact`` says that every entry is a :class:`Fraction`."""

    entries: tuple[tuple, ...]
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))
        # One pass reads the entry types.  Only an int, a bool, another type
        # or a float that is not finite sends the entries through
        # ``_number``, which converts or refuses each.
        cells = chain.from_iterable
        kinds = set(map(type, cells(rows)))
        plain = kinds <= {Fraction, float} and (float not in kinds or all(
            map(math.isfinite, filter(float.__instancecheck__, cells(rows)))))
        if not plain:
            rows = tuple(tuple(map(_number, row)) for row in rows)
            kinds = set(map(type, cells(rows)))
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        # A mismatch left of i ends an earlier row; tuple comparison skips
        # the entry objects both triangles share.
        for i, (row, col) in enumerate(zip(rows, zip(*rows))):
            if row != col:
                j = next(j for j in range(i + 1, n) if row[j] != col[j])
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "is_exact", all(issubclass(k, Fraction) for k in kinds))

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def to_float(self) -> list[list[float]]:
        return [list(map(float, row)) for row in self.entries]

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0)) \
            if self.is_exact else sum(float(self.entries[i][i]) for i in range(self.n))

    def leading(self, k: int) -> "SymMatrix":
        if not 1 <= k <= self.n:
            raise ValueError("leading minor size out of range")
        return SymMatrix(tuple(row[:k] for row in self.entries[:k]))

    def permuted(self, perm) -> "SymMatrix":
        """Re-index rows and columns; new position k holds old index perm[k]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        return SymMatrix(
            tuple(tuple(self.entries[a][b] for b in perm) for a in perm)
        )


@dataclass(frozen=True)
class IncMatrix:
    """A 0/1 incidence pattern between a listed set and a reference set."""

    rows: int
    cols: int
    bits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DiagMatrix:
    """A diagonal matrix, stored as its diagonal."""

    diagonal: tuple


def _entries(s: Subset, f: PosetFunction, op) -> SymMatrix:
    """The matrix with ``f`` of ``op``, meet or join, of each member pair."""
    _check_same_parent(s, f)
    ms, values = s.members, f.values
    n = len(ms)
    rows = [[values[m]] * n for m in ms]  # the diagonal: x op x = x
    bounds = _pair_meets(s.parent, ms, op)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = values[next(bounds)]
    return SymMatrix(tuple(tuple(row) for row in rows))


def meet_matrix(s: Subset, f: PosetFunction) -> SymMatrix:
    """The matrix with ``f`` of the pairwise meets of ``s`` as entries."""
    return _entries(s, f, meet)


def join_matrix(s: Subset, f: PosetFunction) -> SymMatrix:
    """The matrix with ``f`` of the pairwise joins of ``s`` as entries."""
    return _entries(s, f, join)


def _matrix(s: Subset, f: PosetFunction, kind: str) -> SymMatrix:
    return meet_matrix(s, f) if _kind(kind) == "meet" else join_matrix(s, f)


def incidence_matrix(s: Subset, d: Subset, kind: str = "meet") -> IncMatrix:
    """0/1 pattern relating members of ``s`` to members of ``d``.

    For ``kind="meet"`` entry ``(i, j)`` marks ``d_j`` below ``x_i``; for
    ``kind="join"`` it marks ``d_j`` above ``x_i``.
    """
    toward = _side(s.parent, kind)[0]
    if s.parent != d.parent:
        raise ValueError("both subsets must share one ambient poset")
    masks = map(toward.__getitem__, s.members)
    bits = tuple(tuple(mask >> dj & 1 for dj in d.members) for mask in masks)
    return IncMatrix(len(s.members), len(d.members), bits)


def _require_covering(p: FinitePoset, xs, dmask: int, op, word: str) -> None:
    missing = [p.labels[m] for m in xs if not (dmask >> m) & 1]
    for v in _pair_meets(p, xs, op):
        if not (dmask >> v) & 1 and p.labels[v] not in missing:
            missing.append(p.labels[v])
    if missing:
        raise NotSupersetError(
            f"reference set must contain the members and their {word}; "
            "missing: " + ", ".join(map(str, missing))
        )


def _factored(s: Subset, d: Subset, f: PosetFunction, kind: str) -> SymMatrix:
    """E diag(masses over d) E^T, once ``d`` is checked to hold the members
    and their pair bounds: entry (i, j) sums the masses over the members of
    ``d`` that the masks toward the bound of both ``x_i`` and ``x_j`` hold."""
    _check_same_parent(s, f)
    p = s.parent
    keep = d.member_mask()
    _require_covering(p, s.members, keep, _op(kind), f"{kind}s")
    vec = _masses(d, f, kind)
    mass = dict(zip(d.members, vec.values))
    toward = _side(p, kind)[0]
    row_masks = [toward[x] & keep for x in s.members]
    n = len(row_masks)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            shared = _bits(row_masks[i] & row_masks[j])
            rows[i][j] = rows[j][i] = sum((mass[k] for k in shared), Fraction(0))
    return SymMatrix(tuple(tuple(row) for row in rows))


def factored_meet_matrix(s: Subset, d: Subset, f: PosetFunction) -> SymMatrix:
    """Assemble the meet matrix as incidence * diag(psi over d) * incidence^T.

    ``d`` must contain the members of ``s`` and all their pairwise meets; it
    does not need to be meet closed.  The result equals
    :func:`meet_matrix` entrywise, in exact arithmetic.
    """
    return _factored(s, d, f, "meet")


def factored_join_matrix(s: Subset, b: Subset, f: PosetFunction) -> SymMatrix:
    """Dual of :func:`factored_meet_matrix`, with phi masses over ``b``."""
    return _factored(s, b, f, "join")


def mass_diagonal(d: Subset, f: PosetFunction, kind: str = "meet") -> DiagMatrix:
    """The diagonal factor of the incidence factorization."""
    return DiagMatrix(_masses(d, f, kind).values)


def det_closed(s: Subset, f: PosetFunction, kind: str = "meet") -> Fraction:
    """Determinant of the meet (join) matrix of a closed set.

    On a meet closed set the factorization is square and triangular, so the
    determinant is the product of the bottom-up masses; dually with the
    top-down masses on a join closed set.
    """
    if not _is_closed(s, kind):
        raise NotClosedError(f"the set is not {kind} closed")
    return math.prod(_masses(s, f, kind).values, start=Fraction(1))


# What a Fraction update of the sparse elimination in ``_closure_det`` costs,
# in Python-int updates of the one-triangle Bareiss run of ``leading_minors``,
# which makes n^3/6 of them on an n x n matrix.  The route runs only where
# its updates at this cost stay within n^3/6.  Measured on exact check-pd
# (Python 3.11.7, 2-core Xeon), one update of each took 10 to 12 times as
# long as one of Bareiss; the margin above that pays for the Moebius rows,
# the assembly and the symbolic pass.  On the eight 80-integer gcd-exact
# bench sets n^3/6 is 36 to 82 times the updates, and the route takes
# 0.012-0.025 s against 0.037-0.082 s direct; on 200 integers below 3000,
# 102 times, 0.27 s against 2.2 s.  On 120 of the divisors of 720720 at
# alpha 1 it is 9.1 times (power-gcd), where the elimination alone took
# 0.18 s against 0.155 s direct, and 5.9 (reciprocal-power-lcm), 0.29 s
# against 0.37 s: both are refused.
MINOR_UPDATE_COST = 16


def _closure_det(c: ClosureResult, masses) -> Fraction | None:
    """The determinant of the meet (join) matrix of the set ``c`` embeds,
    from its ``masses`` over the closure ``D`` of ``c``, in ``D``'s listing,
    all positive unless ``D`` adds nothing: None when the route is refused.

    ``D_f = E diag(masses) E^T`` with ``E`` the unit triangular zeta
    matrix of ``D``, so ``det D_f`` is the product of the masses, and with
    ``T = D \\ S`` Jacobi's complementary-minor identity gives ``det S_f =
    det D_f * det M`` for ``M = (D_f)^-1[T, T]``.  The inverse is ``E^-T
    diag(1 / masses) E^-1``, so ``M_ab = sum_k mu(t_a, k) mu(t_b, k) /
    mass_k`` over the Moebius function ``mu`` of ``D`` (Bourque and Ligh;
    Haukkanen).  A closed set has ``T`` empty, and its det is the product.

    Positive masses make ``D_f``, and so ``M``, positive definite, so
    every pivot of ``M`` is positive; one that is not raises
    :class:`CharacterizationMismatch`.  ``M`` is sparse, about a tenth
    nonzero at n=200, and it is eliminated in the order of
    :func:`_min_degree`.  That is a second exact elimination kernel beside
    :func:`leading_minors`, kept private to this route: dense
    ``leading_minors`` on the same ``M`` took 0.238 s over the eight
    gcd-exact bench sets, against 0.112 s sparse.  The route is refused
    when ``|T| >= n`` or when the updates the order counts, weighed by
    ``MINOR_UPDATE_COST``, exceed the n^3/6 of a direct elimination; the
    first refusal comes before the product of the masses, which on the
    8191 masses of the lcm closure of the first 13 primes took 0.7 s.
    """
    n = len(c.embed)
    inside = set(c.embed)
    outside = [k for k in range(len(c.subset)) if k not in inside]
    if len(outside) >= n:
        return None
    det = math.prod(masses, start=Fraction(1))
    if not outside:
        return det
    rows = _inverse_block(c.subset, outside, masses, c.kind)
    order, updates = _min_degree(rows)
    if 6 * MINOR_UPDATE_COST * updates > n ** 3:
        return None
    for pivot in _sparse_pivots(rows, order):
        det *= pivot
    return det


def _mobius_row(p: FinitePoset, keep: int, t: int, kind: str) -> dict[int, int]:
    """The nonzero ``mu(t, k)`` over the members ``k`` of the closed set
    ``keep`` on ``t``'s side away from the bound, by the interval recursion
    ``mu(t, k) = -sum mu(t, z)`` over ``t <= z < k``: up from ``t`` on the
    meet side, down on the join side, as ``_side`` reads ``p``."""
    toward, away = _side(p, kind)
    span = away[t] & keep
    ks = list(_bits(span ^ (1 << t)))
    mu = {t: 1}
    for k in ks if kind == "meet" else reversed(ks):
        mu[k] = -sum(mu[z] for z in _bits(toward[k] & span ^ (1 << k)))
    return {k: v for k, v in mu.items() if v}


def _inverse_block(d: Subset, outside, masses, kind: str) -> list[dict]:
    """``(D_f)^-1`` on the rows and columns ``outside`` of ``d``'s listing,
    as one dict per row of its nonzero entries, both triangles sharing
    each entry: ``sum_k mu(t_a, k) mu(t_b, k) / mass_k``."""
    p = d.parent
    keep = d.member_mask()
    weight = dict(zip(d.members, masses))
    terms: dict[int, list[tuple[int, int]]] = {}
    for a, t in enumerate(outside):
        for k, v in _mobius_row(p, keep, d.members[t], kind).items():
            terms.setdefault(k, []).append((a, v))
    rows: list[dict] = [{} for _ in outside]
    for k, col in terms.items():
        w = 1 / weight[k]
        for i, (a, u) in enumerate(col):
            row = rows[a]
            for b, v in col[i:]:
                row[b] = row.get(b, 0) + w * (u * v)
    for a, row in enumerate(rows):
        for b, value in list(row.items()):
            if not value:
                del row[b]
            elif b != a:
                rows[b][a] = value
    return rows


def _min_degree(rows) -> tuple[list[int], int]:
    """A symbolic elimination of the pattern of ``rows``, always on the
    remaining row with the fewest others, the lowest index on a tie
    (minimum degree; George and Liu, *Computer Solution of Large Sparse
    Positive Definite Systems*, ch. 5).  Returns the order and the count
    of updates, ``d (d + 1) / 2`` for a pivot with ``d`` others, one per
    entry on and above the diagonal of their block."""
    adj = [set(row) - {a} for a, row in enumerate(rows)]
    left = set(range(len(rows)))
    order, updates = [], 0
    while left:
        p = min(left, key=lambda a: (len(adj[a]), a))
        others = adj[p]
        updates += len(others) * (len(others) + 1) // 2
        for a in others:
            adj[a] |= others
            adj[a] -= {a, p}
        left.remove(p)
        order.append(p)
    return order, updates


def _sparse_pivots(rows, order):
    """Yield the pivots of symmetric elimination on ``rows`` in ``order``,
    updating each entry on and above the diagonal of the pivot's block
    once; each must be positive, else :class:`CharacterizationMismatch`."""
    for p in order:
        row = rows[p]
        pivot = row.pop(p, 0)
        if not pivot > 0:
            raise CharacterizationMismatch(
                f"a pivot of the complementary minor is {pivot}: positive "
                "masses make it positive definite"
            )
        yield pivot
        others = list(row.items())
        for b, _ in others:
            del rows[b][p]
        for i, (a, u) in enumerate(others):
            ratio = u / pivot
            target = rows[a]
            for b, v in others[i:]:
                target[b] = rows[b][a] = target.get(b, 0) - ratio * v


def leading_minors(m: SymMatrix, swap: bool = False):
    """Yield the leading principal minors of an exact ``m`` by Bareiss
    elimination, each before the step that needs it, so a caller that stops
    early saves the rest.  Each row is cleared of denominators once, by the
    lcm ``s_i`` of its own, and eliminated over Python ints with exact
    ``//``; each minor is divided back to a :class:`Fraction`.

    After ``k`` steps, entry ``(i, j)`` of the trailing block is ``s_i``
    times the scales of the pivot rows times the minor of ``m`` on rows
    ``0..k-1, i`` and columns ``0..k-1, j``, which is symmetric in ``i``
    and ``j``.  So row ``i`` keeps only its columns ``j >= i``, and a step
    updates only those.  The lead entry below pivot ``k`` is read off row
    ``k`` as ``r_ki * s_i // s_k``, exact since it is ``r_ik``; every
    integer is the one a whole-row update gives.

    With ``swap`` a zero pivot takes the first lower row with a nonzero
    entry in its column, and the minors carry the sign of the swaps, so the
    last is the determinant; a column without such a row yields 0 and ends
    the elimination.  No symmetric swap mends ``[[0, 1], [1, 0]]``, so the
    first zero pivot mirrors the remaining block into full rows, and the
    steps from there on swap and update whole rows.
    """
    n = m.n
    scales = [math.lcm(*(v.denominator for v in row)) for row in m.entries]
    rows = [[v.numerator * (d // v.denominator) for v in row[i:]]
            for i, (row, d) in enumerate(zip(m.entries, scales))]
    prev = scale = 1
    for k in range(n):
        top = rows[k]
        pivot = top[0]
        if swap and pivot == 0:
            break
        s = scales[k]
        scale *= s
        yield Fraction(pivot, scale)
        for i in range(k + 1, n):
            t = scales[i]
            lead = top[i - k] if t == s else top[i - k] * t // s
            rows[i] = [(a * pivot - lead * b) // prev
                       for a, b in zip(rows[i], top[i - k:])]
        prev = pivot
    else:
        return
    scales = scales[k:]
    rows = [[rows[j][i - j] * t // scales[j - k] for j in range(k, i)]
            + rows[i] for i, t in zip(range(k, n), scales)]
    n -= k
    sign = 1
    for k in range(n):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    scales[k], scales[r] = scales[r], scales[k]
                    sign = -sign
                    break
        pivot = rows[k][k]
        scale *= scales[k]
        yield sign * Fraction(pivot, scale)
        if pivot == 0:
            return
        tail = rows[k][k + 1:]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            row[k + 1:] = [(a * pivot - lead * b) // prev
                           for a, b in zip(row[k + 1:], tail)]
        prev = pivot


def _float_pivots(m: SymMatrix, swap: bool = False):
    """Yield the pivots of Gaussian elimination on ``m.to_float()``, column
    by column, each before the next column is eliminated.

    Without ``swap`` they are the D of ``m = L D L^T``, each leading minor
    over the one before: all positive iff ``m`` is positive definite, they
    do not grow like the minors, and the elimination is backward stable
    when ``m`` is (Higham, *Accuracy and Stability*, 2nd ed., ch. 10).  A
    pivot that is not finite raises :class:`DeskScaleError`, so no verdict
    is read off ``inf`` or ``nan``.  With ``swap`` each column pivots on its
    largest entry on or below the diagonal, a pivot swapped in is negated
    so the product of the pivots is the determinant, and a zero column
    yields 0 and ends the elimination.
    """
    rows = m.to_float()
    return _partial_pivots(rows) if swap else _ldl_pivots(rows)


def _ldl_pivots(rows):
    """Symmetric LDL^T over the lower triangle (Golub and Van Loan, Alg.
    4.1.2).  Column j takes ``v_i = d_i L_ji`` for i < j off row j of L,
    the pivot ``d_j = a_jj - L_j . v`` and, below it, ``L_kj = (a_kj - L_k
    . v) / d_j``, with ``a_kj`` read as ``a_jk``: n^3/6 multiply-adds.  An
    ``inf`` in L reaches the pivot of its row, so the pivots are all that
    need a finiteness check."""
    mul = operator.mul
    lower = [[] for _ in rows]  # the rows of L, left of column j
    pivots = []
    for j, row in enumerate(rows):
        v = list(map(mul, pivots, lower[j]))
        pivot = row[j] - sum(map(mul, lower[j], v))
        if not math.isfinite(pivot):
            raise DeskScaleError(
                f"the LDL^T pivot of column {j} is {pivot!r}: the float "
                "elimination left the float range"
            )
        yield pivot
        pivots.append(pivot)
        for a, ell in zip(row[j + 1:], lower[j + 1:]):
            ell.append((a - sum(map(mul, ell, v))) / pivot)


def _partial_pivots(rows):
    """Doolittle's order with partial pivoting, each entry one dot product."""
    n = len(rows)
    lower = [[] for _ in range(n)]  # the rows of L, left of column j
    for j in range(n):
        col = []  # column j of U above the diagonal, then pivot candidates
        for i in range(n):
            col.append(rows[i][j] - sum(map(operator.mul, lower[i], col)))
        r = max(range(j, n), key=lambda i: abs(col[i]))
        col[j], col[r] = col[r], col[j]
        rows[j], rows[r] = rows[r], rows[j]
        lower[j], lower[r] = lower[r], lower[j]
        pivot = col[j]
        yield pivot if r == j else -pivot
        if pivot == 0:
            return
        for i in range(j + 1, n):
            lower[i].append(col[i] / pivot)


def det_general(m: SymMatrix):
    """Determinant of any symmetric matrix by elimination with row swaps:
    exact on exact entries, else a float (``inf`` or 0 past its range)."""
    if not m.is_exact:
        return math.prod(_float_pivots(m, swap=True))
    det = Fraction(1)
    for det in leading_minors(m, swap=True):
        pass
    return det
