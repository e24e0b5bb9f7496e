"""Poset functions, the Moebius function, and their mass vectors.

``psi`` assigns every element of a listed set the mass its function value
adds on top of everything strictly below it inside the set; summing masses
over a principal down-set recovers the function.  ``phi`` is the top-down
dual.  Everything here runs in exact rational arithmetic; floats on the
set raise :class:`ExactArithmeticError` before any other work.  Then one
of two routes computes the masses, the one that counts less work, with a
pair of the walk weighed as ``WALK_PAIR_COST`` steps of the route.

The walk serves every poset.  It visits the set's masks toward the bound,
as ``poset._side`` orients them for the order tests of a function too:
``psi`` the down masks in listing order, ``phi`` the up masks in reverse,
the order dual with no dual built.  Its result is checked by summing it
back along the masks away from the bound, which holds only for the right
masses as zeta is invertible, and catches a wrong mask too, since every
poset builds its up masks apart from its down masks.  It costs one step
per comparable pair of the set, in the gather and in the re-sum.

The prime-wise route serves the bounded side of a canonical universe U
(``poset._Divisibility``), for a set closed there and values exact on
all of U.  The keys of U are closed under taking divisors, so the
Moebius inversion of f over U is one difference per element and prime of
its key.  Each difference then goes to the member of the set nearest it
on the far side, the class sum of the masses over a meet (join) closed
set.  It costs ``2 * weight + |U|`` steps, with ``weight`` the number of
pairs of an element and a prime dividing its key.  Its check has two
parts.  The prime-wise prefix sums of the masses must give back f on the
set, which alone passes whatever the base holds where the set is all of
U, as they undo the differences step for step.  So the steps are also
checked against the masks as they are built: each element's mask toward
the bound must be its own bit and its predecessors' masks.

A failed check on either route raises :class:`CharacterizationMismatch`,
also under ``python -O``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CharacterizationMismatch,
    DeskScaleError,
    DuplicateError,
    ExactArithmeticError,
    MissingValueError,
)
from .poset import FinitePoset, Subset, _bits, _bounded_closure, _kind, _side

# Digits allowed in the product of the diagonal entries ``x**|alpha|`` once an
# exact exponent beyond 1 grows the values, and in the power of 10 a decimal
# exponent in numeric text spells.  Measured: check-pd on 80 random integers
# below 3000 takes ~1 s at alpha 4 (~980 digits), 7 s at alpha 12 and 15.7 s
# at alpha 20, where its det no longer renders.
EXPONENT_DIGITS = 1000

# What one pair of the mass walk costs against one step of the prime-wise
# route, from in-process timings (best of 15, Python 3.11, 2-core Xeon, a
# shared host) of both on the bench's check-pd sets and on seeded closures
# in divisors(720720) and divisors(963761198400): a pair of the gather or
# the re-sum, a Fraction subtract or add through a mask, took 1.4-4.9 us, a
# step of the route, an int difference, prefix sum or class sum, 0.33-1.0
# us, in the median 3.8 to 1.  On the 80-integer gcd sets (1024-1453 pairs,
# 1444-1635 steps) the route took 0.7-1.5 ms against the walk's 1.7-3.9 ms;
# on the 4 elements of the meet closure of 963761198400, 6, 10 the walk took
# 0.03-0.06 ms, the route 31-56 ms.  Weights 4 to 6 picked the faster route
# on all 30 sets timed, 2 and 3 on all but one (127 pairs, 480 steps).
WALK_PAIR_COST = 4

# A decimal numeral with an exponent, such as "2.5e-3", in the shape
# Fraction reads; group 1 is the exponent.
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
    r"[eE]([-+]?\d+(?:_\d+)*)\s*"
)


def _number(value):
    """An exact rational or a finite float, from an int, Fraction or float;
    the one check for matrix entries and function values.  The exact types
    come first: a float fails ``isinstance(value, Fraction)`` only through
    the slow abstract-class check."""
    kind = type(value)
    if kind is Fraction or (kind is float and math.isfinite(value)):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a number")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"values must be finite, not {value!r}")
        return value
    raise TypeError(f"unsupported value {value!r}")


def _coerce(value):
    """A function value or exponent: a number, or the rational a text such
    as "p/q" spells."""
    return _rational(value) if isinstance(value, str) else _number(value)


def _decimal_exponent(text: str) -> int:
    """The exponent of a decimal numeral such as "2.5e-3"; 0 for other text."""
    match = _DECIMAL_EXPONENT.fullmatch(text)
    return int(match[1]) if match else 0


def _rational(text: str) -> Fraction:
    """The rational a numeric text such as "3", "-1/2" or "2.5e-3" spells:
    the one reader of numeric text, for values, labels and the exponent
    cap.  A decimal exponent past ``EXPONENT_DIGITS`` raises
    :class:`DeskScaleError` before its power of 10 is built; text that is
    no number, or divides by zero, raises :class:`ValueError`."""
    exponent = _decimal_exponent(text)
    if abs(exponent) > EXPONENT_DIGITS:
        raise DeskScaleError(
            f"{text!r} has the decimal exponent {exponent}, past the cap of "
            f"{EXPONENT_DIGITS} digits"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} divides by zero") from None


@dataclass(frozen=True)
class PosetFunction:
    """A total real-valued function on the elements of one poset.

    Values are exact rationals wherever possible; floats are accepted so the
    spectral routines can work with irrational powers, and ``is_exact``
    reports which regime an instance is in.
    """

    poset: FinitePoset
    values: tuple

    def __post_init__(self):
        values = tuple(_coerce(v) for v in self.values)
        if len(values) != self.poset.n:
            raise ValueError("one value per poset element is required")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_table(cls, poset: FinitePoset, table) -> "PosetFunction":
        """Bind a label -> value mapping; every element must be covered, and
        keys are read as text, so two labels must not print alike."""
        known = {}
        for lb in poset.labels:
            if (other := known.setdefault(str(lb), lb)) is not lb:
                raise DuplicateError(f"labels {other!r} and {lb!r} share a value key")
        normalized = {}
        for key, value in table.items():
            key = str(key)
            if key in normalized:
                raise DuplicateError(f"duplicate value for label {key}")
            normalized[key] = value
        missing = [lb for lb in poset.labels if str(lb) not in normalized]
        if missing:
            raise MissingValueError(missing)
        unknown = sorted(set(normalized) - known.keys())
        if unknown:
            raise ValueError("values given for unknown labels: " + ", ".join(unknown))
        return cls(poset, tuple(normalized[str(lb)] for lb in poset.labels))

    @classmethod
    def from_callable(cls, poset: FinitePoset, fn) -> "PosetFunction":
        return cls(poset, tuple(fn(lb) for lb in poset.labels))

    def __getitem__(self, index: int):
        return self.values[index]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def dual(self) -> "PosetFunction":
        """The same function on the order dual of its poset."""
        return PosetFunction(self.poset.dual(), self.values[::-1])

    def restrict(self, s: Subset) -> "PosetFunction":
        """The same function on the induced subposet of ``s``."""
        if s.parent is not self.poset and s.parent != self.poset:
            raise ValueError("subset belongs to a different poset")
        return PosetFunction(s.restrict(), tuple(self.values[m] for m in s.members))

    def _domain(self, within: Subset | None) -> tuple[int, ...]:
        if within is None:
            return tuple(range(self.poset.n))
        if within.parent is not self.poset and within.parent != self.poset:
            raise ValueError("subset belongs to a different poset")
        return within.members

    def is_order_preserving(self, strict: bool = False, within: Subset | None = None) -> bool:
        """x below y implies f(x) <= f(y); ``strict`` demands <."""
        return self._monotone("meet", strict, within)

    def is_order_reversing(self, strict: bool = False, within: Subset | None = None) -> bool:
        """x below y implies f(x) >= f(y); ``strict`` demands >."""
        return self._monotone("join", strict, within)

    def _monotone(self, kind: str, strict: bool = False, within: Subset | None = None) -> bool:
        """Order-preserving for a meet matrix, order-reversing for a join one:
        no element of the domain below (above) another has a larger value,
        nor with ``strict`` an equal one."""
        toward = _side(self.poset, kind)[0]
        idx = self._domain(within)
        domain = sum(1 << i for i in idx)
        for b in idx:
            fb = self.values[b]
            for a in _bits(toward[b] & domain & ~(1 << b)):
                if self.values[a] > fb or (strict and self.values[a] == fb):
                    return False
        return True

    def is_positive(self, within: Subset | None = None) -> bool:
        return all(self.values[i] > 0 for i in self._domain(within))

    def is_nonnegative(self, within: Subset | None = None) -> bool:
        return all(self.values[i] >= 0 for i in self._domain(within))


@dataclass(frozen=True)
class MobiusTable:
    """The Moebius function of a poset as a dense integer table."""

    poset: FinitePoset
    mu: tuple[tuple[int, ...], ...]


def mobius_table(p: FinitePoset) -> MobiusTable:
    """Compute mu by the interval recursion and verify it inverts zeta.

    Each row ``mu(a, .)`` comes from :func:`_mobius_row`, which sums over
    the second argument; the check that zeta * mu is the identity sums over
    the first argument, so the two triangular routes are independent.  A
    failed check raises :class:`CharacterizationMismatch`.
    """
    n = p.n
    rows = (_mobius_row(p, (1 << n) - 1, a, "meet") for a in range(n))
    mu = [[row.get(b, 0) for b in range(n)] for row in rows]
    for a in range(n):
        for c in _bits(p.up_mask(a)):
            total = sum(mu[v][c] for v in _bits(p.down_mask(c) & p.up_mask(a)))
            if total != (a == c):
                raise CharacterizationMismatch("mu does not invert zeta")
    return MobiusTable(p, tuple(tuple(row) for row in mu))


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


def _check_same_parent(s: Subset, f: PosetFunction) -> None:
    if s.parent is not f.poset and s.parent != f.poset:
        raise ValueError("subset and function live on different posets")


@dataclass(frozen=True)
class _Masses:
    """One mass per member of a listed set, in the listing."""

    subset: Subset
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.subset):
            raise ValueError("one mass per member of the set is required")

    @property
    def labels(self) -> tuple:
        return self.subset.labels

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def resums_to(self, f: PosetFunction) -> bool:
        """Check that the masses sum back to f over principal down-sets
        (psi) or up-sets (phi), each added to the members its mask away
        from the bound holds, as ``_side`` reads the vector's ``kind``."""
        _check_same_parent(self.subset, f)
        ms, keep = self.subset.members, self.subset.member_mask()
        away = _side(self.subset.parent, self.kind)[1]
        total = dict.fromkeys(ms, Fraction(0))
        for m, mass in zip(ms, self.values):
            for x in _bits(away[m] & keep):
                total[x] += mass
        return all(total[m] == f.values[m] for m in ms)


class PsiVector(_Masses):
    """Bottom-up masses of a function over a listed set."""

    kind = "meet"


class PhiVector(_Masses):
    """Top-down masses of a function over a listed set."""

    kind = "join"


def _gather(d: Subset, f: PosetFunction, kind: str) -> tuple[Fraction, ...]:
    """Each member's value less the masses of the other members its mask
    toward the bound holds, from ``_side``; the listing of ``d`` puts those
    first in order (psi) or reversed (phi).  Masses come back in the listing."""
    toward = _side(d.parent, kind)[0]
    keep = d.member_mask()
    masses: dict[int, Fraction] = {}
    for m in d.members if kind == "meet" else d.members[::-1]:
        acc = f.values[m]
        for z in _bits(toward[m] & keep & ~(1 << m)):
            acc -= masses[z]
        masses[m] = acc
    return tuple(masses[m] for m in d.members)


def _prime_steps(p: FinitePoset) -> list[list[tuple[int, int]]]:
    """The difference steps of a canonical universe (``p._divisibility``):
    for each prime ``q`` of its base, the pairs ``(x, y)`` with ``key(y) =
    key(x) / q``, or ``key(x) / q**v_q(key(x))`` in the unitary order, by
    descending key.

    They are checked against the masks toward the bound as built: each
    element's mask must be its own bit and the masks of its
    predecessors ``y``, one OR per step.  By induction on the key, every
    mask is then the (unitary) divisibility of the keys, and the
    predecessors of each element are exactly its lower covers there; a
    prime missing from the base fails the check at that prime's key.  A
    failed check raises :class:`CharacterizationMismatch`."""
    div = p._divisibility
    keys = p.labels if div.top is None else [div.top // y for y in p.labels]
    where = {key: x for x, key in enumerate(keys)}
    steps = [[] for _ in div.primes]
    descending = range(p.n) if keys[0] >= keys[-1] else range(p.n - 1, -1, -1)
    for x in descending:
        rest = key = keys[x]
        for axis, q in zip(steps, div.primes):
            if rest == 1:
                break
            if rest % q == 0:
                part = q
                while (rest := rest // q) % q == 0:
                    part *= q
                axis.append((x, where[key // (part if div.unitary else q)]))
    toward = _side(p, p._bounded)[0]
    built = [1 << x for x in range(p.n)]
    for axis in steps:
        for x, y in axis:
            built[x] |= toward[y]
    if built != list(toward):
        raise CharacterizationMismatch(
            "the masks do not match the divisibility of the labels")
    return steps


def _prime_route(d: Subset, f: PosetFunction, kind: str) -> bool:
    """Whether :func:`_prime_masses` serves the masses over ``d``: on the
    bounded side of a canonical universe, where the walk's pairs (its
    gather and its re-sum), weighed by ``WALK_PAIR_COST``, count more than
    this route's ``2 * weight + |U|`` steps (its differences, prefix sums
    and class sums), on a set closed there (its closure, read off the
    masks, adds nothing) and with exact values on the whole universe.  The
    two scans of ``U`` come last, so a walk of a few pairs pays neither."""
    p = d.parent
    div = p._divisibility
    if div is None or p._bounded != kind:
        return False
    toward, away = _side(p, kind)
    keep = d.member_mask()
    route, walk = 2 * div.weight + p.n, 0
    for m in d.members:
        walk += WALK_PAIR_COST * (
            (toward[m] & keep).bit_count() + (away[m] & keep).bit_count() - 1)
        if walk > route:
            break
    else:
        return False
    return (len(_bounded_closure(p, keep, kind)) == len(d)
            and all(type(v) is Fraction for v in f.values))


def _prime_masses(d: Subset, f: PosetFunction, kind: str) -> tuple[Fraction, ...]:
    """The masses over ``d``, closed on the bounded side of a canonical
    universe ``U``, of ``f``, exact on ``U``, by prime-wise differences.

    On a set of keys closed under taking divisors, ``h = f * mu`` over
    ``U`` is one difference per element and prime, Moebius inversion along
    each prime's axis (:func:`_prime_steps`).  Each ``h(u)`` then goes to
    the lowest member of ``d`` above ``u``, the highest below it on the
    join side, which exists as ``d`` is closed: the masses over a closed
    set are those class sums (Bourque and Ligh; Haukkanen).  The values
    are scaled to integers by the lcm of their denominators.  The masses
    are checked by the prime-wise prefix sums of the masses on ``d``, zero
    elsewhere, which must give back ``f`` on ``d``, and a failure raises
    :class:`CharacterizationMismatch`.  Where ``d`` is all of ``U`` those
    undo the differences step for step, so the check of the steps against
    the masks in :func:`_prime_steps` is the one that reads the order."""
    p = d.parent
    steps = _prime_steps(p)
    scale = math.lcm(*(v.denominator for v in f.values))
    want = [v.numerator * (scale // v.denominator) for v in f.values]
    h = want[:]
    for axis in steps:
        for x, y in axis:
            h[x] -= h[y]
    if len(d) == p.n:
        sums = h
    else:
        away, keep = _side(p, kind)[1], d.member_mask()
        sums = [0] * p.n
        for u, value in enumerate(h):
            if above := away[u] & keep:
                top = (above & -above if kind == "meet" else above).bit_length() - 1
                sums[top] += value
    masses = [sums[m] for m in d.members]
    for axis in steps:
        for x, y in reversed(axis):
            sums[x] += sums[y]
    if any(sums[m] != want[m] for m in d.members):
        raise CharacterizationMismatch(
            f"{'psi' if kind == 'meet' else 'phi'} masses do not sum back to f "
            "along the prime axes")
    return tuple(Fraction(m, scale) for m in masses)


def _mass_vector(vector: type[_Masses], d: Subset, f: PosetFunction, name: str) -> _Masses:
    """The masses over ``d`` of the vector's ``kind``: floats on ``d`` are
    refused first, then :func:`_prime_masses` serves where
    :func:`_prime_route` takes it, else the walk of :func:`_gather`,
    re-summed along the masks away from the bound."""
    _check_same_parent(d, f)
    if not all(isinstance(f.values[m], Fraction) for m in d.members):
        raise ExactArithmeticError("mass vectors require exact rational values")
    if _prime_route(d, f, vector.kind):
        return vector(d, _prime_masses(d, f, vector.kind))
    vec = vector(d, _gather(d, f, vector.kind))
    if not vec.resums_to(f):
        raise CharacterizationMismatch(f"{name} masses do not re-sum to f")
    return vec


def psi(d: Subset, f: PosetFunction) -> PsiVector:
    """Bottom-up mass of ``f`` over the listed set ``d``.

    Each member, in listing order, subtracts the masses of the members its
    down mask holds, which the listing convention puts first.  The result
    is checked by re-summing it along the up masks.  On the meet side of a
    canonical universe the prime-wise route may serve instead.
    """
    return _mass_vector(PsiVector, d, f, "psi")


def phi(b: Subset, f: PosetFunction) -> PhiVector:
    """Top-down mass of ``f`` over the listed set ``b``: the walk of
    :func:`psi` along the up masks in reverse listing.  Checked by
    re-summing it along the down masks.  On the join side of a canonical
    universe the prime-wise route may serve instead."""
    return _mass_vector(PhiVector, b, f, "phi")


def _masses(d: Subset, f: PosetFunction, kind: str) -> _Masses:
    """The masses of a meet matrix (``psi``) or of a join one (``phi``)."""
    return psi(d, f) if _kind(kind) == "meet" else phi(d, f)
