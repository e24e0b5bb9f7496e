"""Divisibility instances of the general machinery.

Positive integers under divisibility form a lattice with meet = gcd and
join = lcm, so GCD, LCM, and MIN/MAX matrices are meet and join matrices in
disguise.  This module builds the ambient posets (down-sets of divisors,
up-sets below an lcm, unitary-divisor orders), the classical functions
(powers, reciprocal powers, Jordan totients), and the named matrix families
on top of them.  Everything here is desk scale: factorization is trial
division, capped at ``FACTOR_CAP``, and universes are capped.  The gcd, lcm
and gcud closures run the poset closure kernel, ``poset._close``, on the
integers themselves and raise :class:`DeskScaleError` as soon as one grows
past its cap: ``DEFAULT_CAP`` elements, or the ``cap`` given to
:func:`build_named_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import DeskScaleError, DuplicateError
from .matrices import SymMatrix, join_matrix, meet_matrix
from .mobius import PosetFunction
from .poset import FinitePoset, Subset, _close, _closure_result, total_order_poset

DEFAULT_CAP = 10_000
# Trial division of a prime near the cap takes ~0.2 s; near 10**14, over 1 s.
FACTOR_CAP = 10**12


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division, for ``m`` up to ``FACTOR_CAP``;
    larger integers raise :class:`DeskScaleError`."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"not a positive integer: {m!r}")
    if m > FACTOR_CAP:
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


def _expand_divisors(factors: dict[int, int]) -> tuple[int, ...]:
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of ``m``, ascending."""
    return _expand_divisors(factorize(m))


def unitary_divisors(m: int) -> tuple[int, ...]:
    """Divisors ``d`` of ``m`` with ``gcd(d, m // d) == 1``, ascending."""
    return tuple(d for d in divisors(m) if math.gcd(d, m // d) == 1)


def divides_unitarily(d: int, m: int) -> bool:
    return m % d == 0 and math.gcd(d, m // d) == 1


def gcud(a: int, b: int) -> int:
    """Greatest common unitary divisor, by scanning the common ones.

    1 divides everything unitarily, so the scan never comes up empty.
    """
    common = set(unitary_divisors(a)) & set(unitary_divisors(b))
    return max(common)


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
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"not a positive integer: {x!r}")
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


def _divisibility_order(values, unitary: bool) -> FinitePoset:
    members = _clean_members(values)
    masks = []
    for j, y in enumerate(members):
        mask = 1 << j
        for i in range(j):
            if y % members[i] == 0 and (
                not unitary or math.gcd(members[i], y // members[i]) == 1
            ):
                mask |= 1 << i
        masks.append(mask)
    return FinitePoset(tuple(masks), labels=members)


def divisibility_poset(values) -> FinitePoset:
    """Distinct positive integers ordered by divisibility.

    Ascending integer labels are automatically a linear extension.
    """
    return _divisibility_order(values, unitary=False)


def unitary_divisibility_poset(values) -> FinitePoset:
    """Distinct positive integers ordered by unitary divisibility."""
    return _divisibility_order(values, unitary=True)


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
        raise DeskScaleError(f"universe of {count} elements is over the cap of {cap}")


def _divisor_lattice(s, cap: int, unitary: bool) -> DivisorLattice:
    members = _clean_members(s)
    seen: set[int] = set()
    for x in members:
        seen.update(unitary_divisors(x) if unitary else divisors(x))
    _check_cap(len(seen), cap)
    universe = tuple(sorted(seen))
    return DivisorLattice(universe, _divisibility_order(universe, unitary))


def divisor_down_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Every divisor of every member, as a lattice under divisibility."""
    return _divisor_lattice(s, cap, unitary=False)


def lcm_up_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Multiples of some member that divide the lcm of all members.

    The lcm itself may be too large to factor comfortably, so its
    factorization is merged from the members' instead.
    """
    members = _clean_members(s)
    merged: dict[int, int] = {}
    for x in members:
        for p, e in factorize(x).items():
            merged[p] = max(merged.get(p, 0), e)
    count = 1
    for e in merged.values():
        count *= e + 1
    _check_cap(count, cap)
    universe = tuple(
        d for d in _expand_divisors(merged) if any(d % x == 0 for x in members)
    )
    return DivisorLattice(universe, divisibility_poset(universe))


def unitary_divisor_down_set(s, cap: int = DEFAULT_CAP) -> DivisorLattice:
    """Everything dividing a member unitarily, under unitary divisibility."""
    return _divisor_lattice(s, cap, unitary=True)


_TAGS = ("power", "reciprocal_power", "identity", "table")


@dataclass(frozen=True)
class NamedFunction:
    """A function of positive integers with a machine-readable tag.

    ``power`` is ``n**alpha``, ``reciprocal_power`` is ``n**-alpha``,
    ``identity`` is ``n`` itself, and ``table`` looks values up in an
    explicit mapping.  Integral exponents are evaluated exactly.
    """

    tag: str
    alpha: object = None
    table: object = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown function tag {self.tag!r}")
        if self.tag in ("power", "reciprocal_power"):
            if self.alpha is None:
                raise ValueError(f"{self.tag} needs an exponent")
            object.__setattr__(self, "alpha", _normalize_alpha(self.alpha))
        if self.tag == "table" and self.table is None:
            raise ValueError("table functions need a table")

    @property
    def is_exact(self) -> bool:
        if self.tag == "identity":
            return True
        if self.tag == "table":
            return all(not isinstance(v, float) for v in self.table.values())
        return isinstance(self.alpha, int)

    def evaluate(self, m: int):
        if self.tag == "identity":
            return Fraction(m)
        if self.tag == "table":
            return self.table[m]
        if isinstance(self.alpha, int):
            exponent = self.alpha if self.tag == "power" else -self.alpha
            return Fraction(m) ** exponent
        value = float(m) ** float(self.alpha)
        return value if self.tag == "power" else 1.0 / value

    def bind(self, poset: FinitePoset) -> PosetFunction:
        return PosetFunction.from_callable(poset, self.evaluate)


FAMILIES = ("power_gcd", "power_lcm_reciprocal", "gcud_power", "min", "max")

_FAMILY_ALIASES = {"reciprocal_power_lcm": "power_lcm_reciprocal"}


@dataclass(frozen=True)
class MatrixModel:
    """The poset, subset, kind and function of one request.  The meet or
    join matrix is built on first read and kept.  ``function`` is None for
    a poset given without one, which then has no matrix."""

    kind: str
    poset: FinitePoset
    subset: Subset
    function: PosetFunction | None

    @cached_property
    def matrix(self) -> SymMatrix:
        build = meet_matrix if self.kind == "meet" else join_matrix
        return build(self.subset, self.function)


def normalize_family(family: str) -> str:
    name = family.strip().lower().replace("-", "_")
    name = _FAMILY_ALIASES.get(name, name)
    if name not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return name


# kind, function tag, closure op, order and canonical universe of each
# integer family.
_INTEGER_FAMILIES = {
    "power_gcd": ("meet", "power", math.gcd, divisibility_poset, divisor_down_set),
    "power_lcm_reciprocal": (
        "join", "reciprocal_power", math.lcm, divisibility_poset, lcm_up_set
    ),
    "gcud_power": (
        "meet", "power", gcud, unitary_divisibility_poset, unitary_divisor_down_set
    ),
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
        kind, tag, op, order, universe = _INTEGER_FAMILIES[name]
        named = NamedFunction(tag, alpha)
        if ambient == "closure":
            poset = order(_close(members, op, cap))
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
