"""Divisibility instances of the general machinery.

Positive integers under divisibility form a lattice with meet = gcd and
join = lcm, so GCD, LCM, and MIN/MAX matrices are meet and join matrices in
disguise.  This module builds the ambient posets (down-sets of divisors,
up-sets below an lcm, unitary-divisor orders), the classical functions
(powers, reciprocal powers, Jordan totients), and the named matrix families
on top of them.  Everything here is desk scale: factorization is trial
division, capped at ``FACTOR_CAP``, and universes are capped.  The gcd, lcm
and gcud closures of integers run the poset closure kernel,
``poset._close``, on the integers themselves and raise
:class:`DeskScaleError` as soon as one grows past its cap: ``DEFAULT_CAP``
elements, or the ``cap`` given to :func:`build_named_matrix`.

Every integer order comes from one kernel, ``_divisibility_order``, which
reads the relation off exponent vectors instead of testing the pairs.  The
labels factor over a pairwise coprime base: the primes of the members for
the canonical universes, whose factorizations they compute anyway, and
otherwise a base refined from the inputs by gcds alone, so integers past
``FACTOR_CAP`` still work.  Masks of the labels at each exponent of each
base element give a label's down-set and up-set in a few big-integer
operations per base element dividing it.  Divisibility is transitive by
construction, so the poset skips the validation of the public
``FinitePoset`` constructor, like ``dual()`` and ``restrict()`` do.

One builder, ``_divisor_lattice``, lists the three canonical universes as
unions of the members' intervals: their (unitary) divisors, or dually their
multiples dividing the lcm.  The cap counts that union, not the lcm's divisors.
A union of down-sets is closed under gcd (gcud), and one of up-sets below
the lcm under lcm, so the builder marks that side of the poset, and its
closures there are read off the masks instead of combining members.
Beside the mark it keeps the primes and whether the order is unitary, so
masses over that side can be taken by prime-wise differences (``mobius``).
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DeskScaleError, DuplicateError
from .matrices import SymMatrix, _matrix
from .mobius import PosetFunction, _rational
from .poset import (
    FinitePoset,
    Subset,
    _Divisibility,
    _close,
    _closure_result,
    _kind,
    _restore_poset,
    total_order_poset,
)

DEFAULT_CAP = 10_000
# Trial division of a prime near the cap takes ~0.2 s; near 10**14, over 1 s.
FACTOR_CAP = 10**12


def _positive(m) -> int:
    """``m`` itself when it is a positive integer (not a bool), else ValueError."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"not a positive integer: {m!r}")
    return m


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division, for ``m`` up to ``FACTOR_CAP``;
    larger integers raise :class:`DeskScaleError`."""
    if _positive(m) > FACTOR_CAP:
        raise DeskScaleError(f"{m} is over the factorization cap of {FACTOR_CAP}")
    factors: dict[int, int] = {}
    rest = m
    d = 2
    while d * d <= rest:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


def _expand_divisors(factors: dict[int, int], start: int = 1) -> list[int]:
    """``start`` times each divisor of the product of ``p**e``, unsorted."""
    out = [start]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of ``m``, ascending."""
    return tuple(sorted(_expand_divisors(factorize(m))))


def _unitary_parts(factors: dict[int, int]) -> dict[int, int]:
    """The whole prime powers, as coprime factors of exponent 1: their
    divisors are the unitary divisors."""
    return {p**e: 1 for p, e in factors.items()}


def unitary_divisors(m: int) -> tuple[int, ...]:
    """Divisors ``d`` of ``m`` with ``gcd(d, m // d) == 1``, ascending."""
    return tuple(sorted(_expand_divisors(_unitary_parts(factorize(m)))))


def divides_unitarily(d: int, m: int) -> bool:
    return m % d == 0 and math.gcd(d, m // d) == 1


def gcud(a: int, b: int) -> int:
    """Greatest common unitary divisor, by gcds alone: the prime powers of
    ``gcd(a, b)`` with the same exponent in both.  While ``d`` and ``m // d``
    share a prime, its exponent in ``d`` is short of the one in ``m``, and
    dividing out ``gcd(d, m // d)`` drives it down to 0."""
    d = math.gcd(_positive(a), _positive(b))
    for m in (a, b):
        while (g := math.gcd(d, m // d)) != 1:
            d //= g
    return d


def _normalize_alpha(alpha):
    """Collapse integral exponents to int so the exact path can see them."""
    if isinstance(alpha, bool):
        raise TypeError("alpha must be a number")
    if isinstance(alpha, int):
        return alpha
    if isinstance(alpha, Fraction):
        return int(alpha) if alpha.denominator == 1 else float(alpha)
    if isinstance(alpha, float):
        return int(alpha) if alpha.is_integer() else alpha
    raise TypeError(f"alpha must be a number, got {type(alpha).__name__}")


def jordan_totient(alpha, m: int):
    """``m**alpha`` times the product of ``1 - p**-alpha`` over primes of m.

    Integral ``alpha`` of any sign is evaluated exactly (an int when the
    result is one); other exponents go through floats.  ``alpha <= 0`` is
    allowed and can produce zero or negative values.
    """
    factors = factorize(m)
    a = _normalize_alpha(alpha)
    if isinstance(a, int):
        value = Fraction(m) ** a
        for p in factors:
            value *= 1 - Fraction(p) ** (-a)
        return int(value) if value.denominator == 1 else value
    value = float(m) ** a
    for p in factors:
        value *= 1.0 - float(p) ** (-a)
    return value


def _clean_members(s) -> tuple[int, ...]:
    members = tuple(s)
    if not members:
        raise ValueError("need at least one integer")
    for x in members:
        _positive(x)
    if len(set(members)) != len(members):
        raise DuplicateError("integer sets must have distinct members")
    return tuple(sorted(members))


def gcd_closure(s) -> tuple[int, ...]:
    """The smallest superset closed under pairwise gcd, ascending."""
    return _close(_clean_members(s), math.gcd, DEFAULT_CAP)


def lcm_closure(s) -> tuple[int, ...]:
    """The smallest superset closed under pairwise lcm, ascending."""
    return _close(_clean_members(s), math.lcm, DEFAULT_CAP)


def gcud_closure(s) -> tuple[int, ...]:
    """The smallest superset closed under pairwise gcud, ascending."""
    return _close(_clean_members(s), gcud, DEFAULT_CAP)


def _coprime_base(values) -> tuple[int, ...]:
    """Pairwise coprime integers above 1, ascending, over which every value
    factors.  While a value shares a factor with the product of the base,
    the first base element ``b`` it shares one with is divided out of it if
    ``b`` divides it, and otherwise split with it into their gcd and the
    two cofactors, which go back on the work list.  Only gcds, no trial
    division, so integers of any size work."""
    base: list[int] = []
    product = 1
    for x in values:
        work = [x]
        while work:
            a = work.pop()
            while a > 1 and math.gcd(a, product) > 1:
                i, b = next((i, b) for i, b in enumerate(base) if math.gcd(a, b) > 1)
                if a % b == 0:
                    while a % b == 0:
                        a //= b
                else:
                    del base[i]
                    product //= b
                    g = math.gcd(a, b)
                    work += (g, b // g, a // g)
                    a = 1
            if a > 1:
                insort(base, a)
                product *= a
    return tuple(base)


def _exponents(y: int, base: tuple[int, ...], where: dict[int, int]):
    """The exponent vector of ``y`` over the ascending coprime ``base``, as
    ascending ``(index, exponent)`` pairs.  Once ``b * b`` passes what is
    left, the rest is 1 or a single base element."""
    vector = []
    for k, b in enumerate(base):
        if b * b > y:
            break
        if y % b == 0:
            e = 0
            while y % b == 0:
                y //= b
                e += 1
            vector.append((k, e))
    if y > 1:
        vector.append((where[y], 1))
    return vector


def _divisibility_order(labels: tuple[int, ...], base: tuple[int, ...],
                        unitary: bool, bounded=None) -> FinitePoset:
    """Ascending distinct ``labels`` that factor over the coprime ``base``,
    ordered by (unitary) divisibility, built from masks over their exponent
    vectors instead of a scan of the pairs.

    For base element ``k`` and exponent ``e``, ``level[k][e]`` holds the
    labels with ``v_k = e``.  Then ``x | y`` when ``v_k(x) <= v_k(y)`` at
    every ``k``, and ``x`` divides ``y`` unitarily when each ``v_k(x)`` is 0
    or ``v_k(y)``.  The up-set of ``x`` is an AND over the support of ``x``;
    the down-set of ``y`` is an AND over the support of ``y``, less the
    labels divisible by a base element off that support, read from a
    range-OR table over the base.  Each label costs O(support) mask
    operations.  Divisibility is transitive and ascending labels are a
    linear extension, so the poset is built without validation; ``bounded``
    names the side on which the labels are closed, if the caller knows one:
    the divisors of some members (``"meet"``), or their multiples dividing
    the largest label (``"join"``), with ``base`` their primes.  The poset
    then keeps that structure (``poset._Divisibility``) and its weight,
    read off the exponent vectors, for the masses of ``mobius``."""
    n = len(labels)
    full = (1 << n) - 1
    where = {b: k for k, b in enumerate(base)}
    vectors = [_exponents(y, base, where) for y in labels]
    level: list[dict[int, int]] = [{} for _ in base]
    for j, vector in enumerate(vectors):
        for k, e in vector:
            level[k][e] = level[k].get(e, 0) | 1 << j
    below, above, divisible = [], [], []
    for exact in level:
        at_least, acc = {}, 0
        for e in sorted(exact, reverse=True):
            acc |= exact[e]
            at_least[e] = acc
        divisible.append(acc)
        low = full ^ acc  # the labels this base element does not divide
        if unitary:
            below.append({e: mask | low for e, mask in exact.items()})
            above.append(exact)
        else:
            at_most = {}
            for e in sorted(exact):
                low |= exact[e]
                at_most[e] = low
            below.append(at_most)
            above.append(at_least)
    # spans[t][i]: the labels divisible by one of base[i : i + 2**t].
    spans = [divisible]
    step = 1
    while 2 * step <= len(base):
        prev = spans[-1]
        spans.append([prev[i] | prev[i + step] for i in range(len(prev) - step)])
        step *= 2

    def divisible_in(lo: int, hi: int) -> int:
        if lo >= hi:
            return 0
        t = (hi - lo).bit_length() - 1
        return spans[t][lo] | spans[t][hi - (1 << t)]

    down, up = [], []
    for vector in vectors:
        d = u = full
        off = lo = 0
        for k, e in vector:
            d &= below[k][e]
            u &= above[k][e]
            off |= divisible_in(lo, k)
            lo = k + 1
        down.append(d & ~(off | divisible_in(lo, len(base))))
        up.append(u)
    divisibility = None
    if bounded == "meet":
        divisibility = _Divisibility(base, unitary, None, sum(map(len, vectors)))
    elif bounded == "join":
        # The keys top // y: base element k divides the key of every label
        # short of top's exponent there.
        weight = sum(n - level[k][e].bit_count() for k, e in vectors[-1])
        divisibility = _Divisibility(base, unitary, labels[-1], weight)
    return _restore_poset(labels, None, tuple(down), tuple(up), bounded, divisibility)


def divisibility_poset(values) -> FinitePoset:
    """Distinct positive integers ordered by divisibility.

    Ascending integer labels are automatically a linear extension.
    """
    members = _clean_members(values)
    return _divisibility_order(members, _coprime_base(members), unitary=False)


def unitary_divisibility_poset(values) -> FinitePoset:
    """Distinct positive integers ordered by unitary divisibility."""
    members = _clean_members(values)
    return _divisibility_order(members, _coprime_base(members), unitary=True)


@dataclass(frozen=True)
class DivisorLattice:
    """A universe of positive integers under a divisibility order."""

    universe: tuple[int, ...]
    poset: FinitePoset

    def subset_of(self, xs) -> Subset:
        return Subset.of_labels(self.poset, xs)

    def __len__(self) -> int:
        return len(self.universe)

    def __contains__(self, x) -> bool:
        return x in self.universe


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise DeskScaleError(
            f"universe of at least {count} elements is over the cap of {cap}"
        )


def _divisor_lattice(s, cap: int, unitary=False, above=False) -> DivisorLattice:
    """The union of the members' intervals under (unitary) divisibility: the
    (unitary) divisors of each member, or for ``above`` its multiples that
    divide the lcm, ``x`` times the divisors of ``lcm / x``, with the lcm's
    exponents read off the members' factorizations.  Members go from the top
    down, or the bottom up for ``above``; one already in the union is
    skipped, as by transitivity its interval is too.  An interval past
    ``cap`` is refused before it is listed, and the union as soon as it
    passes ``cap``, so at most ``cap`` plus one interval is listed.  The
    union is closed under gcd (gcud) as a union of down-sets, or under lcm
    as one of up-sets below the lcm, and its poset is marked so."""
    members = _clean_members(s)
    factors = {x: factorize(x) for x in members}
    top: dict[int, int] = {}
    for f in factors.values():
        for p, e in f.items():
            if e > top.get(p, 0):
                top[p] = e
    seen: set[int] = set()
    for x, f in sorted(factors.items(), reverse=not above):
        if x in seen:
            continue
        if above:
            start, parts = x, {p: e - f.get(p, 0) for p, e in top.items()}
        else:
            start, parts = 1, _unitary_parts(f) if unitary else f
        _check_cap(math.prod([e + 1 for e in parts.values()]), cap)
        seen.update(_expand_divisors(parts, start))
        _check_cap(len(seen), cap)
    universe = tuple(sorted(seen))
    primes = tuple(sorted(top))
    poset = _divisibility_order(universe, primes, unitary, "join" if above else "meet")
    return DivisorLattice(universe, poset)


def divisor_down_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Every divisor of every member, as a lattice under divisibility."""
    return _divisor_lattice(s, cap)


def lcm_up_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Multiples of some member that divide the lcm of all members, under
    divisibility.  The lcm is never factorized, so it may be large."""
    return _divisor_lattice(s, cap, above=True)


def unitary_divisor_down_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Everything dividing a member unitarily, under unitary divisibility."""
    return _divisor_lattice(s, cap, unitary=True)


_TAGS = ("power", "reciprocal_power", "identity")


@dataclass(frozen=True)
class NamedFunction:
    """A function of positive integers with a machine-readable tag.

    ``power`` is ``n**alpha``, ``reciprocal_power`` is ``n**-alpha`` and
    ``identity`` is ``n`` itself.  Integral exponents are evaluated exactly.
    """

    tag: str
    alpha: object = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown function tag {self.tag!r}")
        if self.tag in ("power", "reciprocal_power"):
            if self.alpha is None:
                raise ValueError(f"{self.tag} needs an exponent")
            object.__setattr__(self, "alpha", _normalize_alpha(self.alpha))

    @property
    def is_exact(self) -> bool:
        if self.tag == "identity":
            return True
        return isinstance(self.alpha, int)

    def evaluate(self, m: int):
        """The value at ``m``; numeric text such as "1/2" is read as the
        rational it spells, under every exponent."""
        if isinstance(m, str):
            m = _rational(m)
        if self.tag == "identity":
            return Fraction(m)
        if isinstance(self.alpha, int):
            e = self.alpha if self.tag == "power" else -self.alpha
            if isinstance(m, int):
                # An int power is about three times as fast as a Fraction's.
                return Fraction(m ** e) if e >= 0 else Fraction(1, m ** -e)
            return Fraction(m) ** e
        try:
            x = float(m)
        except OverflowError:
            x = math.inf
        if x in (0.0, math.inf) and m:
            # m is past the float range, or nonzero below it, while its
            # power may be inside.  With m = r * 2**k, r in [1/2, 2), and
            # alpha * k = e + frac exactly, m**alpha is
            # r**alpha * 2**frac * 2**e; only a power past the range, in
            # ldexp, is refused.
            m = Fraction(m)
            k = m.numerator.bit_length() - m.denominator.bit_length()
            shift = Fraction(self.alpha) * k
            e = math.floor(shift)
            r = float(m / Fraction(2) ** k)
            value = math.ldexp(r ** float(self.alpha) * 2.0 ** float(shift - e), e)
        else:
            value = x ** float(self.alpha)
        return value if self.tag == "power" else 1.0 / value

    def bind(self, poset: FinitePoset) -> PosetFunction:
        """The function on the poset's labels.  A label where it has no real
        value (text that is no number, 0 under a negative power, a negative
        label under a non-integral one) raises ValueError naming the tag and
        the label."""
        return PosetFunction.from_callable(poset, self._at_label)

    def _at_label(self, label):
        try:
            value = self.evaluate(label)
            if isinstance(value, complex):
                raise ValueError
        except (ValueError, TypeError, ZeroDivisionError):
            raise ValueError(
                f"function {self.tag!r} is not defined at label {label!r}"
            ) from None
        return value


FAMILIES = ("power_gcd", "power_lcm_reciprocal", "gcud_power", "min", "max")

_FAMILY_ALIASES = {"reciprocal_power_lcm": "power_lcm_reciprocal"}


@dataclass(frozen=True)
class MatrixModel:
    """The poset, subset, kind and function of one request.  The meet or
    join matrix is built on first read and kept.  ``function`` is None for
    a poset given without one, which then has no matrix.  A ``kind`` other
    than ``"meet"`` or ``"join"`` raises :class:`ValueError`."""

    kind: str
    poset: FinitePoset
    subset: Subset
    function: PosetFunction | None

    def __post_init__(self):
        _kind(self.kind)

    @cached_property
    def matrix(self) -> SymMatrix:
        return _matrix(self.subset, self.function, self.kind)


def normalize_family(family: str) -> str:
    name = family.strip().lower().replace("-", "_")
    name = _FAMILY_ALIASES.get(name, name)
    if name not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return name


# kind, function tag, closure op, whether the order is unitary divisibility,
# and canonical universe of each integer family.
_INTEGER_FAMILIES = {
    "power_gcd": ("meet", "power", math.gcd, False, divisor_down_set),
    "power_lcm_reciprocal": ("join", "reciprocal_power", math.lcm, False, lcm_up_set),
    "gcud_power": ("meet", "power", gcud, True, unitary_divisor_down_set),
}


def build_named_matrix(
    family: str,
    s,
    alpha=1,
    ambient: str = "closure",
    cap: int = DEFAULT_CAP,
) -> MatrixModel:
    """Build a named matrix family over the matching divisibility order.

    ``ambient`` picks the universe the poset is built on: ``"closure"`` is
    the smallest set closed under the relevant meet or join, ``"canonical"``
    is the full divisor down-set (meet families) or the up-set below the
    lcm (join families).  Either universe past ``cap`` elements raises
    :class:`DeskScaleError`.  MIN and MAX read ``s`` as a chain under <=.
    Under ``"closure"`` the poset is the closure of ``s``, and the model's
    subset keeps it as its meet or join closure, so it is never built again.
    """
    name = normalize_family(family)
    if ambient not in ("closure", "canonical"):
        raise ValueError("ambient must be 'closure' or 'canonical'")
    members = _clean_members(s)

    if name in _INTEGER_FAMILIES:
        kind, tag, op, unitary, universe = _INTEGER_FAMILIES[name]
        named = NamedFunction(tag, alpha)
        if ambient == "closure":
            labels = _close(members, op, cap)
            poset = _divisibility_order(labels, _coprime_base(members), unitary)
        else:
            poset = universe(members, cap).poset
    else:
        kind = "meet" if name == "min" else "join"
        if _normalize_alpha(alpha) == 1:
            named = NamedFunction("identity")
        else:
            named = NamedFunction("power", alpha)
        poset = total_order_poset(members)

    subset = Subset.of_labels(poset, members)
    if ambient == "closure":
        _closure_result(subset, tuple(range(poset.n)), kind)
    return MatrixModel(kind, poset, subset, named.bind(poset))
