"""Finite partial orders: construction, meets and joins, closures, classifiers.

Every poset here is stored under a linear extension, so ``x_i`` below ``x_j``
implies ``i <= j``.  That indexing convention is what makes the incidence
factorizations and the recursive mass computations in the sibling modules
triangular.  The public constructor ``FinitePoset(down, ...)``, and so
``from_leq``, validates it along with reflexivity and transitivity.  Posets
whose order holds by construction skip that check and go through
``_restore_poset``: ``dual()`` and ``Subset.restrict()`` read their masks
off a valid poset, unpickling and copying restore one, ``build_poset`` (so
``total_order_poset`` too) closes checked input along the extension it
finds, and ``numtheory`` builds divisibility orders from exponent vectors.

The relation is kept as one down-set and one up-set bitmask per element,
which keeps meets, joins, covers and chain tests cheap at desk scale.  The
join side reads the up masks where the meet side reads the down masks, so
no request builds an order dual: each shared kernel takes the operation,
:func:`meet` or its mirror :func:`join`, or the side's masks toward and
away from the bound, which ``_side`` alone orients.  ``_kind`` is the one
check of a meet/join switch, and ``_closure`` and ``_is_closed`` pick a
side's routine, as ``mobius._masses`` and ``matrices._matrix`` do.

A closure takes one of two routines, by what is known of its input.  A
poset whose ``_bounded`` slot names the side, as ``numtheory`` marks its
canonical universes (closed under gcd, gcud or lcm), is a meet (join)
semilattice there.  Each element of a meet closure is then the meet of the
members above it, and the elements with the same members above them hold
that meet as their top, so ``_bounded_closure`` reads the closure off the
masks, one AND per element.  Beside the mark such a poset keeps how its
order reads off its integer labels (``_Divisibility``), for the masses of
``mobius``.  Every other closure, of poset indices here and of integers
in ``numtheory``, runs the kernel ``_close``: one ascending pass adds
each new element's meets (joins) with those held, then the element, and
as they associate the set stays closed.  On poset
indices, where most held elements are comparable to the new one, it skips
those, as the bound of such a pair is one of the two.  It checks a cap
after each element (:class:`DeskScaleError`), and a missing bound names
the first pair of the pass without one.

``_cover_edges`` walks the covers of a member mask on the parent's down
masks, one step per edge, for both sides: a cover pair of the dual is the
same pair reversed.  So the tree tests never build a closure's induced
poset.  All types are immutable apart from their caches of closures,
induced posets and tree-set answers, and all functions are pure, so
everything is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    CharacterizationMismatch,
    CycleError,
    DeskScaleError,
    DuplicateError,
    NoJoinError,
    NoMeetError,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_mask(mask: int, n: int) -> int:
    """Move bit ``i`` to bit ``n - 1 - i``: a mask in the dual's indexing."""
    size = (n + 7) // 8
    flipped = mask.to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(flipped, "big") >> (8 * size - n)


class FinitePoset:
    """An explicit partial order on ``n`` indexed elements.

    ``down_mask(j)`` holds one bit per element below or equal to ``x_j``.
    Antisymmetry is implied by the index convention (comparable elements are
    index-ordered), so construction only has to validate reflexivity,
    transitivity and the index convention itself.
    """

    __slots__ = ("n", "labels", "source_order", "_down", "_up", "_bounded",
                 "_divisibility")

    def __init__(self, down: Sequence[int], labels=None, source_order=None):
        down = tuple(down)
        n = len(down)
        if n == 0:
            raise ValueError("a poset needs at least one element")
        full = (1 << n) - 1
        for i, mask in enumerate(down):
            if not isinstance(mask, int) or mask < 0 or mask > full:
                raise ValueError(f"down mask {i} out of range")
            if not (mask >> i) & 1:
                raise ValueError(f"relation is not reflexive at index {i}")
            if mask >> (i + 1):
                raise ValueError(
                    "indexing violates the linear-extension convention "
                    f"at index {i}"
                )
        for j in range(n):
            for i in _bits(down[j]):
                if down[i] & ~down[j]:
                    raise ValueError(f"relation is not transitive at ({i}, {j})")
        if labels is None:
            labels = tuple(range(1, n + 1))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must match element count")
            if len(set(labels)) != n:
                raise DuplicateError("labels must be unique")
        self._fill(n, labels, source_order, down, _up_masks(down), None, None)

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FinitePoset is immutable")

    def __reduce__(self):
        # Pickle and copy rebuild through _fill, with no validation.
        return _restore_poset, (self.labels, self.source_order, self._down,
                                self._up, self._bounded, self._divisibility)

    @classmethod
    def from_leq(cls, rows: Sequence[Sequence[bool]], labels=None) -> "FinitePoset":
        """Build from a full, square boolean relation matrix (index-compatible)."""
        n = len(rows)
        up = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, not {n}")
            up.append(sum(1 << j for j, flag in enumerate(row) if flag))
        return cls(_up_masks(up), labels=labels)

    def leq(self, i: int, j: int) -> bool:
        """True when ``x_i`` is below or equal to ``x_j``."""
        return bool((self._down[j] >> i) & 1)

    def less(self, i: int, j: int) -> bool:
        return i != j and bool((self._down[j] >> i) & 1)

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def up_mask(self, i: int) -> int:
        return self._up[i]

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in poset") from None

    def dual(self) -> "FinitePoset":
        """The order-dual, re-indexed by ``k -> n - 1 - k`` so the convention
        still holds, and so are the labels and input positions.  Read off
        the stored masks on each call, without validating again; nothing is
        kept, so ``p.dual().dual() == p``.  A side bounded by construction
        becomes the other side of the dual, which keeps the labels and so
        their divisibility structure."""
        n, order = self.n, self.source_order
        down = tuple(_reverse_mask(mask, n) for mask in reversed(self._up))
        up = tuple(_reverse_mask(mask, n) for mask in reversed(self._down))
        bounded = {"meet": "join", "join": "meet"}.get(self._bounded)
        return _restore_poset(self.labels[::-1], order and order[::-1], down, up,
                              bounded, self._divisibility)

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self._down == other._down
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self._down, self.labels))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"FinitePoset(n={self.n}, labels={self.labels!r})"


def _up_masks(down: Sequence[int]) -> tuple[int, ...]:
    up = [0] * len(down)
    for j, mask in enumerate(down):
        for i in _bits(mask):
            up[i] |= 1 << j
    return tuple(up)


class _Divisibility(NamedTuple):
    """How the order of a canonical universe of integers reads off its
    labels, on its bounded side.  The key of a label is the label itself,
    or ``top // label`` where ``top`` is set, for the up-set below ``top``.
    An element lies toward the bound from another when its key divides the
    other's, unitarily where ``unitary`` is set, and every key factors over
    the ascending ``primes``.  The keys are closed under taking (unitary)
    divisors, and ``weight`` counts the pairs of an element and a prime
    dividing its key."""

    primes: tuple[int, ...]
    unitary: bool
    top: int | None
    weight: int


def _restore_poset(labels, source_order, down, up, bounded=None,
                   divisibility=None) -> FinitePoset:
    """A poset from masks that are valid by construction, with no checks.
    ``bounded`` is ``"meet"`` (``"join"``) when every pair of elements has a
    meet (join) by construction, so closures on that side are read off the
    masks (``_kept_closure``); equality and hashing ignore it, and the
    :class:`_Divisibility` of an integer universe that ``numtheory`` marks so."""
    p = object.__new__(FinitePoset)
    p._fill(len(down), labels, source_order, down, up, bounded, divisibility)
    return p


def build_poset(n: int, relation: Iterable[tuple[int, int]], labels=None) -> FinitePoset:
    """Construct a poset from generating pairs.

    ``relation`` contains pairs ``(a, b)`` meaning element ``a`` is below
    element ``b``; both are 1-based positions in the input ordering, matching
    the on-disk poset format.  One topological pass (Kahn's, a height at a
    time) finds any cycle (:class:`CycleError`) and re-indexes the elements
    by longest-chain height, then input position.  Along that extension each
    down-set ORs in its direct predecessors' and, from the top, each up-set
    its direct successors': O(n + pairs) big-int ORs, valid by construction.
    The input position of each element survives in ``source_order`` and,
    when no labels are given, as the default label."""
    if n < 1:
        raise ValueError("n must be at least 1")
    below: list[list[int]] = [[] for _ in range(n)]
    above: list[list[int]] = [[] for _ in range(n)]
    for a, b in relation:
        if not (1 <= a <= n and 1 <= b <= n):
            raise IndexError(f"pair ({a}, {b}) out of range for n={n}")
        if a != b:
            below[b - 1].append(a - 1)
            above[a - 1].append(b - 1)
    waiting = [len(preds) for preds in below]
    order: list[int] = []
    level = [j for j in range(n) if not waiting[j]]
    while level:
        order += level
        for i in level:
            for j in above[i]:
                waiting[j] -= 1
        level = sorted({j for i in level for j in above[i] if not waiting[j]})
    if len(order) < n:
        # Every element left has a predecessor left: walk down until one repeats.
        step, path = next(j for j in range(n) if waiting[j]), {}
        while step not in path:
            path[step] = len(path)
            step = min(i for i in below[step] if waiting[i])
        first, second = sorted(list(path)[path[step]:])[:2]
        raise CycleError(f"elements {second + 1} and {first + 1} lie on a cycle")
    labels = list(range(1, n + 1) if labels is None else labels)
    if len(labels) != n:
        raise ValueError("labels length must match n")
    if len(set(labels)) != n:
        raise DuplicateError("labels must be unique")
    down, up = _closed_masks(order, below, above)
    labels, down, up = (tuple(xs[j] for j in order) for xs in (labels, down, up))
    return _restore_poset(labels, tuple(order), down, up)


def _closed_masks(order, below, above) -> tuple[list[int], list[int]]:
    """The down and up masks of an order given by the direct predecessors
    ``below[j]`` and successors ``above[j]`` of each element ``j``, with
    ``order`` a linear extension that numbers the bits.  Along it each
    down mask ORs in its predecessors' masks, and from its top each up mask
    its successors': one big-int OR per pair given."""
    down, up = [0] * len(order), [0] * len(order)
    for k, j in enumerate(order):
        down[j] = 1 << k
        for i in below[j]:
            down[j] |= down[i]
    for k, i in reversed(list(enumerate(order))):
        up[i] = 1 << k
        for j in above[i]:
            up[i] |= up[j]
    return down, up


def total_order_poset(labels: Sequence) -> FinitePoset:
    """The chain whose i-th element sits below every later one."""
    n = len(labels)
    return build_poset(n, [(i, i + 1) for i in range(1, n)], labels)


@dataclass(frozen=True)
class Subset:
    """A nonempty selection of poset elements with a fixed listing.

    The listing must be compatible with the parent order: a member below
    another is listed first.  Canonical constructors list members by
    ascending parent index; reindexing by a monotone function may produce a
    different, still compatible, listing.
    """

    parent: FinitePoset
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a subset needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("subset members must be distinct")
        for m in members:
            if not (0 <= m < self.parent.n):
                raise IndexError(f"member index {m} out of range")
        # One mask pass; only a bad listing pays for the pair scan that
        # names its first offending pair.
        later = 0
        for m in reversed(members):
            if self.parent.down_mask(m) & later:
                break
            later |= 1 << m
        else:
            return
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if self.parent.less(members[b], members[a]):
                    raise ValueError(
                        "listing is incompatible with the order: "
                        f"member {members[b]} lies below member {members[a]}"
                    )

    @classmethod
    def whole(cls, parent: FinitePoset) -> "Subset":
        return cls(parent, tuple(range(parent.n)))

    @classmethod
    def of_labels(cls, parent: FinitePoset, labels: Iterable) -> "Subset":
        members = sorted(parent.index_of(lb) for lb in labels)
        return cls(parent, tuple(members))

    @property
    def labels(self) -> tuple:
        return tuple(self.parent.labels[m] for m in self.members)

    def member_mask(self) -> int:
        mask = 0
        for m in self.members:
            mask |= 1 << m
        return mask

    def restrict(self) -> FinitePoset:
        """The induced subposet, indexed by the listing order: the listing
        check already keeps the index convention.  The whole parent, listed
        in index order, keeps its masks as they are.  Any other listing, a
        linear extension of the induced order, builds its masks from the
        induced covers, read off the parent's masks, one step per cover."""
        p = self.parent
        if self.members == tuple(range(p.n)):
            return _restore_poset(p.labels, None, p._down, p._up)
        where = {m: k for k, m in enumerate(self.members)}
        below: list[list[int]] = [[] for _ in where]
        above: list[list[int]] = [[] for _ in where]
        for i, j in _cover_edges(p, self.member_mask()):
            below[where[j]].append(where[i])
            above[where[i]].append(where[j])
        down, up = _closed_masks(range(len(where)), below, above)
        return _restore_poset(self.labels, None, tuple(down), tuple(up))

    def dual(self) -> "Subset":
        """The members in the order dual, listed in reverse; built on each
        call."""
        n = self.parent.n
        members = tuple(n - 1 - m for m in reversed(self.members))
        return Subset(self.parent.dual(), members)

    def __getstate__(self):
        # Copies leave the closure caches behind; they rebuild them.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __len__(self):
        return len(self.members)

    def __contains__(self, index):
        return index in self.members


@dataclass(frozen=True)
class CoverGraph:
    """Hasse diagram edges ``(lower, upper)`` of a poset."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def is_tree(self) -> bool:
        """True when the undirected diagram is connected with n-1 edges."""
        if len(self.edges) != self.n - 1:
            return False
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class ClosureResult:
    """A closure together with how the original set embeds into it."""

    subset: Subset
    embed: tuple[int, ...]
    kind: str

    @cached_property
    def closed(self) -> FinitePoset:
        """The induced poset on the closure, restricted on first read and
        kept; no route of a request reads it."""
        return self.subset.restrict()


def meet(p: FinitePoset, i: int, j: int) -> int:
    """Index of the greatest common lower bound of ``x_i`` and ``x_j``.

    The common lower bounds form a down-closed set; under the indexing
    convention its greatest element, when it exists, is its highest index.
    """
    clb = p._down[i] & p._down[j]
    if clb == 0:
        raise NoMeetError(
            f"{p.labels[i]!r} and {p.labels[j]!r} have no common lower bound"
        )
    top = clb.bit_length() - 1
    if p._down[top] == clb:
        return top
    raise NoMeetError(
        f"{p.labels[i]!r} and {p.labels[j]!r} have no greatest common lower bound"
    )


def join(p: FinitePoset, i: int, j: int) -> int:
    """Index of the least common upper bound of ``x_i`` and ``x_j``: the
    mirror of :func:`meet` on the up masks, with the lowest index."""
    cub = p._up[i] & p._up[j]
    if cub == 0:
        raise NoJoinError(
            f"{p.labels[i]!r} and {p.labels[j]!r} have no common upper bound"
        )
    bottom = (cub & -cub).bit_length() - 1
    if p._up[bottom] == cub:
        return bottom
    raise NoJoinError(
        f"{p.labels[i]!r} and {p.labels[j]!r} have no least common upper bound"
    )


def _pair_meets(p: FinitePoset, members: Sequence[int], op) -> Iterator[int]:
    """``op(p, x_a, x_b)`` for each pair a < b, in listing order, lazily."""
    return (op(p, x, y) for a, x in enumerate(members) for y in members[a + 1:])


def _kind(kind: str) -> str:
    """The one check of a meet/join switch: ``kind`` itself, or ValueError."""
    if kind not in ("meet", "join"):
        raise ValueError("kind must be 'meet' or 'join'")
    return kind


def _op(kind: str):
    return meet if _kind(kind) == "meet" else join


def _side(p: FinitePoset, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How the meet (join) side reads ``p``: the masks toward the bound,
    down (up), and those away from it, up (down).  The one place that
    knows a side's orientation."""
    return (p._down, p._up) if _kind(kind) == "meet" else (p._up, p._down)


def _close(elements: Iterable[int], op, cap: int, related=None) -> tuple[int, ...]:
    """The smallest superset of ``elements`` closed under the symmetric,
    associative ``op``, ascending.  One pass takes the elements in ascending
    order; each ``x`` the closed set ``C`` lacks brings in ``op(c, x)`` for
    every ``c`` in ``C``, in the order ``C`` gained them, then ``x``.  As
    ``op(op(c, x), op(d, x)) = op(op(c, d), x)``, that set is closed, and no
    pair is combined twice.  A missing bound fails at the first pair of the
    pass without one, which exists exactly when the generated set has one.
    The size is checked after each ``x``: past ``cap`` elements it raises
    :class:`DeskScaleError`.

    On poset indices, ``related(x)`` is the mask of the elements comparable
    to ``x``.  The bound of such a pair is one of the two, and never
    missing, so when most of ``C`` is comparable to ``x``, ``x`` meets only
    the rest, still in the order ``C`` gained them: a chain closes with no
    call of ``op``.  Picking those out costs about half a call of ``op``
    per element of ``C``, so where fewer are comparable ``x`` meets all.
    The mask of ``C`` is brought up to date only for an ``x`` comparable
    to more elements of the poset than half the size of ``C``."""
    closed: dict[int, None] = {}
    held = 0  # the mask of the first elements of ``closed``, one bit each
    for x in sorted(set(elements)):
        if x not in closed:
            others = closed
            if related is not None and (mask := related(x)).bit_count() * 2 > len(closed):
                for c in list(closed)[held.bit_count():]:
                    held |= 1 << c
                near = held & mask
                if near.bit_count() * 2 > len(closed):
                    apart = held ^ near
                    others = [c for c in closed if apart >> c & 1] if apart else ()
            closed.update(dict.fromkeys([op(c, x) for c in others]))
            closed[x] = None
            if len(closed) > cap:
                raise DeskScaleError(f"closure grew past the cap of {cap} elements")
    return tuple(sorted(closed))


def _closure_result(s: Subset, members: tuple[int, ...], kind: str) -> ClosureResult:
    """The closure with ascending ``members``, kept on ``s``, so every route
    of a request reads the same one."""
    pos = {m: k for k, m in enumerate(members)}
    embed = tuple(pos[m] for m in s.members)
    result = ClosureResult(subset=Subset(s.parent, members), embed=embed, kind=kind)
    object.__setattr__(s, f"_{kind}_closure", result)
    return result


def _bounded_closure(p: FinitePoset, keep: int, kind: str) -> tuple[int, ...]:
    """The meet (join) closure of the bits of ``keep`` in ``p``, ascending,
    where every pair of elements of ``p`` has a meet (join).  Each element
    ``c`` of the closure is the meet of ``U_c``, the members above it: it
    is the meet of some members, all in ``U_c``, and lies below the meet of
    ``U_c``.  Group the elements ``d`` by ``U_d``; the meet ``g`` of a
    nonempty class ``U`` lies above each ``d`` of it, so ``U_g = U``, and
    ``g`` is the class's highest index (lowest on the join side).  One AND
    and one dict store per element, and no call of :func:`meet`."""
    away = _side(p, kind)[1]
    order = range(p.n) if kind == "meet" else range(p.n - 1, -1, -1)
    last = {away[d] & keep: d for d in order}
    last.pop(0, None)
    return tuple(sorted(last.values()))


def _kept_closure(s: Subset, kind: str) -> ClosureResult:
    """The closure kept on ``s``, built on the first read.  On the side
    bounded by construction (``FinitePoset._bounded``) the parent is a
    semilattice: each element of the closure is the meet (join) of the
    members on its far side, and the top (bottom) of the elements with the
    same members there, so :func:`_bounded_closure` reads the closure off
    the masks.  Otherwise :func:`_close` combines the members.  A missing
    bound is kept in its place, and each later read raises a fresh error of
    its type and text, so a request attempts each closure once."""
    if (kept := s.__dict__.get(f"_{kind}_closure")) is None:
        p = s.parent
        if p._bounded == _kind(kind):
            return _closure_result(s, _bounded_closure(p, s.member_mask(), kind), kind)
        try:
            members = _close(s.members, partial(_op(kind), p), p.n,
                             lambda x: p._down[x] | p._up[x])
        except (NoMeetError, NoJoinError) as exc:
            object.__setattr__(s, f"_{kind}_closure", type(exc)(*exc.args))
            raise
        kept = _closure_result(s, members, kind)
    elif not isinstance(kept, ClosureResult):
        raise type(kept)(*kept.args)
    return kept


def meet_closure(s: Subset) -> ClosureResult:
    """Smallest superset of ``s`` closed under pairwise meets."""
    return _kept_closure(s, "meet")


def join_closure(s: Subset) -> ClosureResult:
    """Smallest superset of ``s`` closed under pairwise joins."""
    return _kept_closure(s, "join")


def _closure(s: Subset, kind: str) -> ClosureResult:
    return meet_closure(s) if _kind(kind) == "meet" else join_closure(s)


def _closed_under(s: Subset, op) -> bool:
    keep = s.member_mask()
    return all((keep >> z) & 1 for z in _pair_meets(s.parent, s.members, op))


def is_meet_closed(s: Subset) -> bool:
    """True when every pairwise meet of members is itself a member."""
    return _closed_under(s, meet)


def is_join_closed(s: Subset) -> bool:
    """True when every pairwise join of members is itself a member."""
    return _closed_under(s, join)


def _is_closed(s: Subset, kind: str) -> bool:
    return is_meet_closed(s) if _kind(kind) == "meet" else is_join_closed(s)


def _reach(s: Subset, masks: Sequence[int]) -> Subset:
    return Subset(s.parent, tuple(_bits(reduce(or_, map(masks.__getitem__, s.members)))))


def down_set(s: Subset) -> Subset:
    """All ambient elements lying below some member."""
    return _reach(s, s.parent._down)


def up_set(s: Subset) -> Subset:
    """All ambient elements lying above some member."""
    return _reach(s, s.parent._up)


def _cover_edges(p: FinitePoset, keep: int) -> Iterator[tuple[int, int]]:
    """The cover edges ``(i, j)``, ``i`` below ``j``, of the order induced
    on the bits of ``keep``, in parent indices.  Both sides walk the down
    masks, as a cover pair of the order dual is the same pair reversed.
    Below ``j`` the highest index left is a cover; its down mask, holding no
    other cover, is cleared: one step per cover edge, not per comparable pair."""
    down = p._down
    for j in _bits(keep):
        rest = (down[j] & keep) ^ (1 << j)
        while rest:
            i = rest.bit_length() - 1
            yield i, j
            rest &= ~down[i]


def cover_graph(p: FinitePoset) -> CoverGraph:
    """The transitive reduction of the strict order."""
    return CoverGraph(p.n, tuple(sorted(_cover_edges(p, (1 << p.n) - 1))))


def _induced_cover_graph(p: FinitePoset, keep: int) -> CoverGraph:
    """The cover graph of the order induced on the bits of ``keep``, each
    kept index numbered by its place among them, in walk order."""
    pos = {m: k for k, m in enumerate(_bits(keep))}
    edges = tuple((pos[i], pos[j]) for i, j in _cover_edges(p, keep))
    return CoverGraph(len(pos), edges)


def _indices_form_chain(p: FinitePoset, indices: Sequence[int]) -> bool:
    # Sorted by index, consecutive comparability chains up by transitivity.
    idx = sorted(indices)
    return all(p.leq(idx[v], idx[v + 1]) for v in range(len(idx) - 1))


def is_chain(s: Subset) -> bool:
    """True when the members are pairwise comparable."""
    return _indices_form_chain(s.parent, s.members)


def _tree_characterizations(p: FinitePoset, kind: str, keep: int) -> tuple[bool, bool, bool, bool]:
    """The four tree characterizations of the order ``p`` induces on the
    bits of ``keep``, each read off the meet (join) side's masks cut to
    ``keep``; "covers at most one" counts the edges' upper (lower) ends.
    A chain is a chain on either side."""
    toward, away = _side(p, kind)
    cg = _induced_cover_graph(p, keep)
    as_tree = cg.is_tree()

    ends = [upper if kind == "meet" else lower for lower, upper in cg.edges]
    covers_at_most_one = len(set(ends)) == len(ends)

    down_sets_chains = all(
        _indices_form_chain(p, list(_bits(toward[x] & keep))) for x in _bits(keep)
    )

    # The elements sharing an upper bound with x are the down-sets of its
    # up-set (for joins, swap up and down); each must lie below or above x.
    bounded_pairs_comparable = all(
        reduce(or_, map(toward.__getitem__, _bits(away[x] & keep)))
        & keep & ~(toward[x] | away[x]) == 0
        for x in _bits(keep)
    )
    return as_tree, covers_at_most_one, down_sets_chains, bounded_pairs_comparable


def _is_tree(c: ClosureResult) -> bool:
    """The characterizations on a closure, read on its own side; the answer
    is kept on ``c``, so they run once per closure."""
    if (kept := c.__dict__.get("_tree")) is None:
        p, keep = c.subset.parent, c.subset.member_mask()
        answers = _tree_characterizations(p, c.kind, keep)
        if len(set(answers)) != 1:
            raise CharacterizationMismatch(
                f"{c.kind}-tree characterizations disagree: {answers}"
            )
        kept = answers[0]
        object.__setattr__(c, "_tree", kept)
    return kept


def is_wedge_tree_set(s: Subset) -> bool:
    """True when the Hasse diagram of the meet closure of ``s`` is a tree.

    Four equivalent formulations are evaluated independently on the closure:
    the diagram is a tree; every element covers at most one element; every
    principal down-set is a chain; elements with a common upper bound are
    comparable.  Disagreement raises :class:`CharacterizationMismatch`.
    They run once per closure, which keeps the answer.
    """
    return _is_tree(meet_closure(s))


def is_vee_tree_set(s: Subset) -> bool:
    """Dual of :func:`is_wedge_tree_set`: the same four characterizations
    on the join closure, with up and down swapped."""
    return _is_tree(join_closure(s))


def is_A_set(s: Subset) -> bool:
    """True when the meets of distinct members form a chain.

    Meets are taken in the ambient poset; the resulting set may overlap the
    members themselves.  Singletons qualify vacuously.  The test stops at
    the first meet incomparable with those before it when a built meet
    closure is kept on ``s``, so that every member pair has a meet; else it meets
    every pair, as one without a meet makes the test undefined
    (:class:`NoMeetError`), not False.
    """
    p = s.parent
    meets = _pair_meets(p, s.members, meet)
    found = 0  # the meets so far, a chain
    for z in meets:
        if found & ~(p._down[z] | p._up[z]):
            if not isinstance(s.__dict__.get("_meet_closure"), ClosureResult):
                for _ in meets:
                    pass
            return False
        found |= 1 << z
    return True
