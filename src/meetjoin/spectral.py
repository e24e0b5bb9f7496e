"""Eigenvalues and order-theoretic eigenvalue bounds.

This is the only module that leaves exact arithmetic.  It houses a
self-contained cyclic Jacobi eigensolver used as the numerical oracle, the
monotone reindexing that the bounds require, and the bounds themselves: for
a meet matrix whose function is nonnegative and order-preserving on the meet
closure, with members listed by ascending value, the k-th smallest
eigenvalue is at most ``k * f(x_k)`` and the largest is at least ``f(x_n)``;
the join side is the mirror image with order-reversing functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    HypothesisError,
    MonotonicityError,
    NoJoinError,
    NoMeetError,
    SupportError,
)
from .matrices import SymMatrix
from .mobius import PosetFunction
from .poset import Subset, join_closure, meet_closure


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues plus the worst residual ``|A v - lambda v|``."""

    eigenvalues: tuple[float, ...]
    residual: float


@dataclass(frozen=True)
class BoundsReport:
    """Eigenvalue bounds, hypothesis flags, and the reindexing that was used.

    ``upper[k-1]`` bounds the k-th smallest eigenvalue from above and
    ``lower_max`` bounds the largest from below, but only when every entry
    of ``hypotheses_ok`` is true; otherwise the numbers are reported
    unverified.  ``reindex_permutation[k]`` is the position in the original
    listing of the member now listed k-th.
    """

    kind: str
    subset: Subset
    upper: tuple[float, ...]
    lower_max: float
    hypotheses_ok: dict
    reindex_permutation: tuple[int, ...]

    @property
    def verified(self) -> bool:
        return all(self.hypotheses_ok.values())

    def table(self, spectrum: Spectrum, slack: float = 1e-9) -> list[dict]:
        rows = []
        for k, lam in enumerate(spectrum.eigenvalues, start=1):
            bound = self.upper[k - 1]
            rows.append(
                {"k": k, "lambda": lam, "bound": bound, "ok": lam <= bound + slack}
            )
        return rows

    def lower_ok(self, spectrum: Spectrum, slack: float = 1e-9) -> bool:
        return self.lower_max <= spectrum.eigenvalues[-1] + slack


def eigen_sym(m: SymMatrix, tol: float = 1e-10, max_sweeps: int = 100) -> Spectrum:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair until the off-diagonal Frobenius
    norm of the input drops below ``tol``; the matrix is normalized by its
    largest entry internally, so ``tol`` is effectively absolute for desk
    magnitudes.  Exceeding ``max_sweeps`` raises :class:`ConvergenceError`.
    """
    n = m.n
    source = m.to_float()
    if n == 1:
        return Spectrum((source[0][0],), 0.0)
    scale = max(abs(v) for row in source for v in row)
    if scale == 0.0:
        return Spectrum((0.0,) * n, 0.0)
    a = [[v / scale for v in row] for row in source]
    vec = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    target = tol / scale

    def off_norm() -> float:
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += a[i][j] * a[i][j]
        return math.sqrt(2.0 * total)

    sweeps = 0
    while off_norm() > target:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"off-diagonal norm {off_norm() * scale:.3e} above {tol:.3e} "
                f"after {max_sweeps} sweeps"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = math.copysign(1.0, tau) / (
                        abs(tau) + math.sqrt(1.0 + tau * tau)
                    )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p][p], a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
                for k in range(n):
                    vkp, vkq = vec[k][p], vec[k][q]
                    vec[k][p] = c * vkp - s * vkq
                    vec[k][q] = s * vkp + c * vkq

    pairs = sorted(
        (a[i][i] * scale, [vec[k][i] for k in range(n)]) for i in range(n)
    )
    residual = 0.0
    for lam, v in pairs:
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc += source[i][j] * v[j]
            residual = max(residual, abs(acc - lam * v[i]))
    return Spectrum(tuple(lam for lam, _ in pairs), residual)


def reindex_monotone(s: Subset, f: PosetFunction, direction: str = "increasing"):
    """Relist members by function value, keeping the listing order-compatible.

    ``increasing`` requires ``f`` order-preserving on the meet closure,
    ``decreasing`` order-reversing on the join closure; violations raise
    :class:`MonotonicityError`.  Returns the relisted subset and the
    permutation (new position -> old position).
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    if direction == "increasing":
        closure = meet_closure(s)
        if not f.is_order_preserving(within=closure.subset):
            raise MonotonicityError("f is not order-preserving on the meet closure")
    else:
        closure = join_closure(s)
        if not f.is_order_reversing(within=closure.subset):
            raise MonotonicityError("f is not order-reversing on the join closure")
    order = _value_order(s, f, direction)
    relisted = Subset(s.parent, tuple(s.members[t] for t in order))
    return relisted, tuple(order)


def _value_order(s: Subset, f: PosetFunction, direction: str) -> list[int]:
    def key(t: int):
        v = float(f.values[s.members[t]])
        return (v if direction == "increasing" else -v, t)

    return sorted(range(len(s.members)), key=key)


def _bounds(s: Subset, f: PosetFunction, kind: str, strict: bool) -> BoundsReport:
    nonnegative = False
    monotone = False
    try:
        closure = meet_closure(s) if kind == "meet" else join_closure(s)
    except (NoMeetError, NoJoinError):
        closure = None
    if closure is not None:
        nonnegative = f.is_nonnegative(within=closure.subset)
        if kind == "meet":
            monotone = f.is_order_preserving(within=closure.subset)
        else:
            monotone = f.is_order_reversing(within=closure.subset)

    direction = "increasing" if kind == "meet" else "decreasing"
    order = _value_order(s, f, direction)
    try:
        relisted = Subset(s.parent, tuple(s.members[t] for t in order))
        index_monotone = True
    except ValueError:
        # Value order clashes with the poset order; keep the original listing
        # and flag the bounds unverified.
        relisted = s
        order = list(range(len(s.members)))
        index_monotone = False

    flags = {
        "nonnegative": nonnegative,
        "monotone_on_closure": monotone,
        "index_monotone": index_monotone,
    }
    if strict:
        for name, ok in flags.items():
            if not ok:
                raise HypothesisError(f"hypothesis failed: {name}")

    # Ascending values: the meet listing as it stands, the join one reversed.
    vals = [float(f.values[m]) for m in relisted.members]
    if kind == "join":
        vals.reverse()
    upper = tuple((k + 1) * v for k, v in enumerate(vals))
    lower_max = vals[-1]
    return BoundsReport(
        kind=kind,
        subset=relisted,
        upper=upper,
        lower_max=lower_max,
        hypotheses_ok=flags,
        reindex_permutation=tuple(order),
    )


def meet_bounds(s: Subset, f: PosetFunction, strict: bool = False) -> BoundsReport:
    """Eigenvalue bounds for the meet matrix of ``s``.

    By default failed hypotheses only clear flags in the report; with
    ``strict=True`` they raise :class:`HypothesisError` instead.
    """
    return _bounds(s, f, "meet", strict)


def join_bounds(s: Subset, f: PosetFunction, strict: bool = False) -> BoundsReport:
    """Eigenvalue bounds for the join matrix of ``s``; mirror of
    :func:`meet_bounds` with order-reversing hypotheses."""
    return _bounds(s, f, "join", strict)


def quadratic_form_check(m: SymMatrix, y, k: int, kind: str = "meet") -> float:
    """Evaluate ``y* M y`` for a vector supported on the bound's subspace.

    For the meet case ``y`` may only be nonzero in the first ``k``
    coordinates, for the join case in the last ``k``; anything else raises
    :class:`SupportError`.  The value is real for symmetric ``M``.
    """
    if kind not in ("meet", "join"):
        raise ValueError("kind must be 'meet' or 'join'")
    n = m.n
    ys = [complex(v) for v in y]
    if len(ys) != n:
        raise ValueError("vector length must match the matrix")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    if all(v == 0 for v in ys):
        raise SupportError("the zero vector is not admissible")
    allowed = range(k) if kind == "meet" else range(n - k, n)
    for i, v in enumerate(ys):
        if v != 0 and i not in allowed:
            raise SupportError(
                f"coordinate {i} is outside the admissible subspace"
            )
    rows = m.to_float()
    total = 0j
    for i in range(n):
        if ys[i] == 0:
            continue
        for j in range(n):
            if ys[j] != 0:
                total += ys[i].conjugate() * rows[i][j] * ys[j]
    return total.real
