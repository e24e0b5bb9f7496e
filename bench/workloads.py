"""Seeded workloads: each is a fixed sequence of CLI requests, its pool.

A run sends the pool over and over, so every distinct request is timed more
than once and the run keeps its best time (see ``run.py``).  Every pool sends
every command (build, check-pd, bounds, classify, closure).  ``--seed`` picks
the inputs; the program only sees the integer sets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GCD = "power-gcd"
LCM = "reciprocal-power-lcm"
COMMANDS = ("check-pd", "bounds", "classify", "closure", "build")


@dataclass(frozen=True)
class Request:
    command: str
    members: tuple[int, ...]
    family: str
    alpha: str

    def config_kwargs(self) -> dict:
        """Keyword arguments of ``meetjoin.cli.RunConfig`` for this request."""
        return {
            "command": self.command,
            "set_text": ",".join(map(str, self.members)),
            "family": self.family,
            "alpha": self.alpha,
            "ambient": "canonical",
        }


def _divisors(m: int) -> tuple[int, ...]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return tuple(sorted(set(small) | {m // d for d in small}))


STRUCTURE = ("classify", "closure", "build")


def _random_sets(rng: random.Random, alpha: str, size: int, count: int,
                 order) -> list[Request]:
    """``count`` sets that send every command in ``order``, then ``count``
    more that send only the structure commands: those are cheap, and vary
    most from set to set."""
    pool = []
    for commands in (order, STRUCTURE):
        for _ in range(count):
            members = tuple(rng.sample(range(1, 3000), size))
            pool += [Request(command, members, GCD, alpha) for command in commands]
    return pool


def gcd_exact(rng: random.Random) -> list[Request]:
    """Sets of 80 random integers below 3000, gcd matrix, alpha = 1."""
    return _random_sets(rng, "1", 80, 8, COMMANDS)


def gcd_float(rng: random.Random) -> list[Request]:
    """Sets of 100 random integers below 3000, gcd matrix, alpha = 1.5."""
    return _random_sets(rng, "1.5", 100, 12, ("bounds", "check-pd", *STRUCTURE))


DIVISOR_SET_MODULI = (2520, 5040, 7560, 10080)
SUBSET_UNIVERSE = 720720
SUBSET_SIZE = 120
SUBSET_COUNT = 32


def divisor_lattice(rng: random.Random) -> list[Request]:
    """The full divisor sets of the four moduli, in a seeded order:
    ``check-pd`` under both families, ``bounds`` under one, alternating with
    the modulus.  Then ``classify``, ``closure`` and ``build`` under both
    families on seeded 120-element subsets of divisors(720720).
    """
    bounds_family = dict(zip(DIVISOR_SET_MODULI, (GCD, LCM, GCD, LCM)))
    moduli = list(DIVISOR_SET_MODULI)
    rng.shuffle(moduli)
    pool = []
    for m in moduli:
        members = _divisors(m)
        pool += [Request("check-pd", members, family, "1") for family in (GCD, LCM)]
        pool.append(Request("bounds", members, bounds_family[m], "1"))
    universe = _divisors(SUBSET_UNIVERSE)
    for _ in range(SUBSET_COUNT):
        members = tuple(sorted(rng.sample(universe, SUBSET_SIZE)))
        pool += [
            Request(command, members, family, "1")
            for family in (GCD, LCM)
            for command in STRUCTURE
        ]
    return pool


WORKLOADS = {
    "gcd-exact": gcd_exact,
    "gcd-float": gcd_float,
    "divisor-lattice": divisor_lattice,
}
