"""Independent checks of CLI reports, with the standard library only.

Expected values come from ``math.gcd``/``math.lcm`` and ``Fraction``, never
from ``meetjoin``.  ``check`` returns ``None`` for a correct report or a
short reason for a wrong one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# A report of ``check-pd`` on float values carrying NaN/Infinity: the float
# minor test overflows (see ROADMAP.md).  Counted as failed, but the only
# failure a run may show and still be ``correct``.
KNOWN_DEFECT = "check-pd report holds a non-finite number"

FLOAT_RTOL = 1e-12
RESIDUAL_RTOL = 1e-8
TRACE_RTOL = 1e-9


class _NonFinite(ValueError):
    pass


def _reject_constant(name):
    raise _NonFinite(name)


def _exact(alpha: str) -> Fraction | None:
    value = Fraction(alpha)
    return value if value.denominator == 1 else None


def _op(family: str):
    """The pairwise operation behind a family: gcd (meet) or lcm (join)."""
    return math.gcd if family == "power-gcd" else math.lcm


def _value(base: int, family: str, alpha: str):
    """The function value: base^alpha (gcd family) or 1/base^alpha (lcm)."""
    exponent = _exact(alpha)
    if exponent is None:
        value = base ** float(alpha)
    else:
        value = Fraction(base) ** int(exponent)
    return value if family == "power-gcd" else 1 / value


def closure(members, family: str) -> set[int]:
    """Plain fixpoint of ``members`` under gcd (meet) or lcm (join)."""
    op = _op(family)
    closed = set(members)
    todo = list(closed)
    while todo:
        x = todo.pop()
        for y in list(closed):
            z = op(x, y)
            if z not in closed:
                closed.add(z)
                todo.append(z)
    return closed


def _close(value, expected) -> bool:
    if isinstance(expected, Fraction):
        return value == str(expected)  # reports write exact values as "p/q"
    return math.isclose(float(value), expected, rel_tol=FLOAT_RTOL)


def _check_build(report, members, family, alpha):
    labels = report["labels"]
    if sorted(labels) != sorted(members):
        return "build labels differ from the input set"
    rows = report["matrix"]
    if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
        return "build matrix has the wrong shape"
    op, expected = _op(family), {}
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            base = op(a, b)
            if base not in expected:
                expected[base] = _value(base, family, alpha)
            if not _close(rows[i][j], expected[base]):
                return f"build entry ({a},{b}) is {rows[i][j]}"
    return None


def _check_closure(report, members, family):
    expected = closure(members, family)
    if set(report["members"]) != expected:
        return "closure members differ from the gcd/lcm fixpoint"
    if set(report["added"]) != expected - set(members):
        return "closure 'added' differs from the fixpoint"
    if report["closed"] != (expected == set(members)):
        return "closure 'closed' flag is wrong"
    return None


def _divisors(m: int) -> set[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return set(small) | {m // d for d in small}


def ambient(members, family: str) -> set[int]:
    """The canonical universe: every divisor of a member (gcd family), or
    every multiple of a member dividing the lcm of all (lcm family)."""
    if family == "power-gcd":
        return set().union(*(_divisors(x) for x in members))
    top = math.lcm(*members)
    return {d for d in _divisors(top) if any(d % x == 0 for x in members)}


def _closed_flag(members, op, universe) -> set:
    """Allowed values of a ``*_closed`` flag.  In these universes a pairwise
    meet (join) exists exactly when the gcd (lcm) is in the universe, and
    then equals it; a missing one makes the test undefined (``None``), unless
    a non-member result is met first (``False``)."""
    results = {op(a, b) for i, a in enumerate(members) for b in members[i + 1:]}
    if results <= set(members):
        return {True}
    if results <= universe:
        return {False}
    return {False, None}


def _check_classify(report, members, family):
    flags = report["flags"]
    universe = ambient(members, family)
    allowed = {
        "meet_closed": _closed_flag(members, math.gcd, universe),
        "join_closed": _closed_flag(members, math.lcm, universe),
        "chain": {all(a % b == 0 or b % a == 0
                      for i, a in enumerate(members) for b in members[i + 1:])},
    }
    for name, values in allowed.items():
        if flags[name] not in values:
            return f"classify flag {name} is {flags[name]}, expected one of {values}"
    return None


def _check_pd(report):
    # alpha > 0: the masses on the divisor down-set are Jordan totients
    # J_alpha > 0 (C3.4), and the reciprocal lcm family is dual.
    if report["verdict"] != "positive-definite":
        return f"check-pd verdict {report['verdict']} ({report['method']})"
    return None


def _check_bounds(report, members, family, alpha):
    if report["verified"] is not True:
        return "bounds not verified"
    if not all(row["ok"] for row in report["bounds"]):
        return "a bounds row is not ok"
    values = [_value(x, family, alpha) for x in members]
    largest = float(max(values))
    eigenvalues = report["eigenvalues"]
    if len(eigenvalues) != len(members):
        return "bounds has the wrong number of eigenvalues"
    if not report["residual"] <= RESIDUAL_RTOL * largest:
        return f"eigen residual {report['residual']} too large"
    trace = float(sum(values))
    if not math.isclose(sum(eigenvalues), trace, rel_tol=TRACE_RTOL):
        return f"eigenvalue sum {sum(eigenvalues)} differs from trace {trace}"
    return None


def check(request, code: int, text: str) -> str | None:
    """Reason the report of ``request`` is wrong, or ``None``."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except _NonFinite:
        if request.command == "check-pd" and _exact(request.alpha) is None:
            return KNOWN_DEFECT
        return f"{request.command} report holds a non-finite number"
    except ValueError as err:
        return f"report is not JSON: {err}"
    if code != 0:
        error = report.get("error", {})
        return f"exit code {code}: {error.get('type')} {error.get('message')}"
    members = list(request.members)
    family, alpha = request.family, request.alpha
    try:
        if request.command == "build":
            return _check_build(report, members, family, alpha)
        if request.command == "closure":
            return _check_closure(report, members, family)
        if request.command == "classify":
            return _check_classify(report, members, family)
        if request.command == "check-pd":
            return _check_pd(report)
        return _check_bounds(report, members, family, alpha)
    except (KeyError, TypeError, ValueError) as err:
        return f"{request.command} report malformed: {err!r}"
