"""Poset functions, the Moebius function, and their mass vectors.

``psi`` assigns every element of a listed set the mass its function value
adds on top of everything strictly below it inside the set; summing masses
over a principal down-set recovers the function.  ``phi`` is the top-down
dual.  Both walk the set's masks toward the bound, as ``poset._side``
orients them for the order tests of a function too: ``psi`` the down
masks in listing order, ``phi`` the up masks in reverse, the order dual
with no dual built.  Each result is checked by summing it back along the
masks away from the bound, which holds only for the right masses as zeta
is invertible, and catches a wrong mask too, since every poset builds its
up masks apart from its down masks.  A failed check raises
:class:`CharacterizationMismatch`, also under ``python -O``.  Everything
here runs in exact rational arithmetic; supplying floats raises
:class:`ExactArithmeticError`.
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
from .poset import FinitePoset, Subset, _bits, _kind, _side

# Digits allowed in the product of the diagonal entries ``x**|alpha|`` once an
# exact exponent beyond 1 grows the values, and in the power of 10 a decimal
# exponent in numeric text spells.  Measured: check-pd on 80 random integers
# below 3000 takes ~1 s at alpha 4 (~980 digits), 7 s at alpha 12 and 15.7 s
# at alpha 20, where its det no longer renders.
EXPONENT_DIGITS = 1000

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

    ``mu(a, b)`` is built by summing over the second argument; the check that
    zeta * mu is the identity sums over the first argument, so the two
    triangular routes are independent.  A failed check raises
    :class:`CharacterizationMismatch`.
    """
    n = p.n
    mu = [[0] * n for _ in range(n)]
    for a in range(n):
        mu[a][a] = 1
        for b in _bits(p.up_mask(a)):
            if b == a:
                continue
            acc = 0
            for z in _bits(p.down_mask(b) & p.up_mask(a)):
                if z != b:
                    acc += mu[a][z]
            mu[a][b] = -acc
    for a in range(n):
        for c in _bits(p.up_mask(a)):
            total = 0
            for v in _bits(p.down_mask(c) & p.up_mask(a)):
                total += mu[v][c]
            if total != (1 if a == c else 0):
                raise CharacterizationMismatch("mu does not invert zeta")
    return MobiusTable(p, tuple(tuple(row) for row in mu))


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
    _check_same_parent(d, f)
    if not all(isinstance(f.values[m], Fraction) for m in d.members):
        raise ExactArithmeticError("mass vectors require exact rational values")
    toward = _side(d.parent, kind)[0]
    keep = d.member_mask()
    masses: dict[int, Fraction] = {}
    for m in d.members if kind == "meet" else d.members[::-1]:
        acc = f.values[m]
        for z in _bits(toward[m] & keep & ~(1 << m)):
            acc -= masses[z]
        masses[m] = acc
    return tuple(masses[m] for m in d.members)


def psi(d: Subset, f: PosetFunction) -> PsiVector:
    """Bottom-up mass of ``f`` over the listed set ``d``.

    Each member, in listing order, subtracts the masses of the members its
    down mask holds, which the listing convention puts first.  The result
    is checked by re-summing it along the up masks.
    """
    vec = PsiVector(d, _gather(d, f, "meet"))
    if not vec.resums_to(f):
        raise CharacterizationMismatch("psi masses do not re-sum to f")
    return vec


def phi(b: Subset, f: PosetFunction) -> PhiVector:
    """Top-down mass of ``f`` over the listed set ``b``: the walk of
    :func:`psi` along the up masks in reverse listing.  Checked by
    re-summing it along the down masks."""
    vec = PhiVector(b, _gather(b, f, "join"))
    if not vec.resums_to(f):
        raise CharacterizationMismatch("phi masses do not re-sum to f")
    return vec


def _masses(d: Subset, f: PosetFunction, kind: str) -> _Masses:
    """The masses of a meet matrix (``psi``) or of a join one (``phi``)."""
    return psi(d, f) if _kind(kind) == "meet" else phi(d, f)
