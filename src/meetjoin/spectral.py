"""Eigenvalues and order-theoretic eigenvalue bounds.

This is the only module that leaves exact arithmetic.  It houses a
self-contained eigensolver used as the numerical oracle (Householder
reduction to tridiagonal form, implicitly shifted QL for the eigenvalues
and tridiagonal inverse iteration for the vectors behind the reported
residual, all in pure Python), the monotone reindexing that the bounds
require, and the bounds themselves: for a meet matrix whose function is
nonnegative and order-preserving on the meet closure, with members listed by
ascending value, the k-th smallest eigenvalue is at most ``k * f(x_k)`` and
the largest is at least ``f(x_n)``; the join side is the mirror image with
order-reversing functions.

The reported residual takes O(n^2) and forms no eigenvector of the input:
it checks each eigenpair against the tridiagonal, and the reduction itself
on one fixed vector and on two invariants.  It rests on the backward
stability of Householder reduction, which the checks measure but do not
bound; :func:`eigen_sym` gives the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, truediv

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
from .poset import Subset, _closure, _kind

_EPS = 2.0 ** -52


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues plus a residual in the input's units.

    ``residual`` is the sum of three checks: the largest entry of
    ``T z - lambda z`` over the eigenpairs of the tridiagonal ``T``, and two
    measurements of the reduction ``A = Q T Q^T``, on one fixed vector and
    on the trace and Frobenius norm.  See :func:`eigen_sym`.
    """

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
    """Eigenvalues of a symmetric matrix by Householder reduction and QL.

    The matrix is normalized by its largest entry, reduced to tridiagonal
    form by Householder reflections and its eigenvalues found by the
    implicitly shifted QL iteration on the tridiagonal alone (tred2/tql1 of
    Wilkinson and Reinsch, 1971).  An off-diagonal entry is deflated once
    it is below machine epsilon times the diagonal scale seen so far.
    ``max_sweeps`` is the QL iteration budget per eigenvalue and ``tol`` the
    absolute off-diagonal deflation bound, in the input's units: an entry
    still above machine precision when the budget is spent is neglected if
    it is at most ``tol`` (by Weyl's inequality no eigenvalue then moves by
    more than ``2 * tol``) and raises :class:`ConvergenceError` otherwise, so
    ``max_sweeps=0`` raises on any off-diagonal entry above ``tol``.

    The reported residual, brought back to the input's units, is the sum of
    three checks on the normalized matrix ``A = Q T Q^T``, each O(n^2):

    - the pairs: each eigenvalue gets a unit eigenvector ``z`` of ``T`` by
      inverse iteration (as in LAPACK ``dstein``), and the check is the
      largest entry of ``T z - lambda z`` over all pairs; it asks only that
      each pair be accurate, not that vectors of close eigenvalues be
      orthogonal;
    - the reduction on one vector: ``|A (Q w) - Q (T w)|`` for a fixed unit
      vector ``w``, with ``Q`` applied through the stored reflectors;
    - the invariants: ``|tr A - sum(d)|`` and
      ``| |A|_F - (|d|^2 + 2 |e|^2)^(1/2) |``.

    For ``v = Q z``, ``|A v - lambda v| <= |T z - lambda z| + |A - Q T Q^T|``.
    Householder reduction is backward stable, so the second term is a small
    multiple of machine precision times ``|A|`` (Wilkinson; Higham,
    *Accuracy and Stability*, ch. 19).  The probe and the invariants
    measure it on one vector and on two numbers: that catches a faulty
    reflector or tridiagonal entry, but it does not bound the term.  No
    eigenvector of ``A`` is formed; mapping each one back through the
    reflectors and multiplying it by ``A`` would cost O(n^3).
    """
    n = m.n
    source = m.to_float()
    if n == 1:
        return Spectrum((source[0][0],), 0.0)
    scale = max(abs(v) for row in source for v in row)
    if scale == 0.0:
        return Spectrum((0.0,) * n, 0.0)
    a = [[v / scale for v in row] for row in source]
    # The reduction overwrites a: read its trace and Frobenius norm first.
    diagonal = [a[i][i] for i in range(n)]
    norm = math.sqrt(sum(sum(map(mul, row, row)) for row in a))
    d, e, reflectors = _tridiagonalize(a)
    d0, e0 = d[:], e[:]
    _tridiagonal_ql(d, e, tol, scale, max_sweeps)
    values = sorted(d)
    eigenvalues = tuple(lam * scale for lam in values)
    # The pairs against T: the largest entry of T z - lam z.
    pair = 0.0
    for lam, z in zip(values, _inverse_iteration(d0, e0, values)):
        pair = max(pair, max(map(abs, _tridiagonal_times(d0, e0, z, lam))))
    # The reduction on one fixed unit vector w, the inverse iteration's start
    # vector, with no zero entry: |A (Q w) - Q (T w)|.  The rows of A are
    # divided by scale again as they are read, entry for entry as in a, so no
    # second n x n copy of the matrix is held.
    w = [(k * 0.6180339887498949) % 1.0 - 0.5 for k in range(1, n + 1)]
    size = math.hypot(*w)
    w = [x / size for x in w]
    qw = _apply_q(reflectors, w)
    qtw = _apply_q(reflectors, _tridiagonal_times(d0, e0, w))
    scales = [scale] * n
    probe = math.hypot(*(
        sum(map(mul, map(truediv, row, scales), qw)) - y
        for row, y in zip(source, qtw)
    ))
    # The invariants of an orthogonal similarity: trace and Frobenius norm.
    # The trace difference is one exact sum: summed apart, the rounding of
    # two sums near n would show as n ulps.
    trace = abs(math.fsum([*diagonal, *(-x for x in d0)]))
    frobenius = abs(
        norm - math.sqrt(sum(map(mul, d0, d0)) + 2.0 * sum(map(mul, e0, e0)))
    )
    return Spectrum(eigenvalues, (pair + probe + trace + frobenius) * scale)


def _tridiagonal_times(d, e, z, lam=0.0) -> list[float]:
    """``(T - lam I) z`` for the tridiagonal ``T`` of ``(d, e)``."""
    return [
        below * z_prev + (di - lam) * zi + above * z_next
        for below, di, above, z_prev, zi, z_next in zip(
            [0.0, *e[:-1]], d, e, [0.0, *z[:-1]], z, [*z[1:], 0.0]
        )
    ]


def _apply_q(reflectors, x: list[float]) -> list[float]:
    """``Q x = H_0 ... H_{n-3} x``, the last reflector applied first."""
    x = x[:]
    for lo, v, h in reversed(reflectors):
        seg = x[lo:]
        c = sum(map(mul, seg, v)) / h
        x[lo:] = [xj - c * vj for xj, vj in zip(seg, v)]
    return x


def _tridiagonalize(a: list[list[float]]):
    """Householder reduction of ``a`` (overwritten) to tridiagonal form.

    Returns the diagonal ``d``, the off-diagonal ``e`` (``e[i]`` couples
    ``i`` and ``i + 1``; ``e[-1]`` is 0) and the reflectors ``(k + 1, v, h)``
    of every step ``k`` that had one, in order: ``H_k = I - v v^T / h`` acts
    on entries ``k + 1`` onwards, and ``a = Q T Q^T`` with
    ``Q = H_0 H_1 ... H_{n-3}``.
    """
    n = len(a)
    d = [0.0] * n
    e = [0.0] * n
    reflectors = []
    for k in range(n - 2):
        row, a[k] = a[k], None
        d[k] = row[k]
        x = row[k + 1:]
        g = max(map(abs, x))
        if g == 0.0:
            continue
        v = [xi / g for xi in x]
        sigma = sum(map(mul, v, v))
        alpha = -math.copysign(math.sqrt(sigma), v[0])
        h = sigma - v[0] * alpha
        v[0] -= alpha
        e[k] = alpha * g
        # Symmetric rank-2 update of the trailing block by H = I - v v^T / h.
        lo = k + 1
        p = [sum(map(mul, r[lo:], v)) / h for r in a[lo:]]
        half = sum(map(mul, v, p)) / (2.0 * h)
        q = [pi - half * vi for pi, vi in zip(p, v)]
        for r, vi, qi in zip(a[lo:], v, q):
            r[lo:] = [rj - vi * qj - qi * vj for rj, vj, qj in zip(r[lo:], v, q)]
        reflectors.append((lo, v, h))
    d[n - 2] = a[n - 2][n - 2]
    e[n - 2] = a[n - 2][n - 1]
    d[n - 1] = a[n - 1][n - 1]
    a[n - 2] = a[n - 1] = None
    return d, e, reflectors


def _tridiagonal_ql(d, e, tol, scale, max_iter) -> None:
    """Implicitly shifted QL on the tridiagonal ``(d, e)``, in place.

    ``(d, e)`` is the input divided by ``scale``; ``tol`` is in the input's
    units.  The eigenvalues are left in ``d`` and ``e`` ends up zero.
    """
    n = len(d)
    target = tol / scale
    shift = 0.0
    tst1 = 0.0
    for l in range(n):
        tst1 = max(tst1, abs(d[l]) + abs(e[l]))
        small = _EPS * tst1
        iterations = 0
        while True:
            m = l
            while abs(e[m]) > small:
                m += 1
            if m == l:
                break
            if iterations >= max_iter:
                if abs(e[l]) <= target:
                    break
                raise ConvergenceError(
                    f"off-diagonal {abs(e[l]) * scale:.3e} above "
                    f"{tol:.3e} after {max_iter} QL iterations"
                )
            iterations += 1
            # Wilkinson shift from the leading 2x2 block.
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.copysign(math.hypot(p, 1.0), p)
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, n):
                d[i] -= h
            shift += h
            # One implicit QL sweep from m back up to l.
            p = d[m]
            c = c2 = c3 = 1.0
            el1 = e[l + 1]
            s = s2 = 0.0
            for i in range(m - 1, l - 1, -1):
                c3, c2, s2 = c2, c, s
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        d[l] += shift
        e[l] = 0.0


def _inverse_iteration(d, e, eigenvalues):
    """Unit eigenvectors of the tridiagonal ``(d, e)``, one per eigenvalue.

    For each eigenvalue ``lam``, ``T - lam I`` is factored once by Gaussian
    elimination with partial pivoting, O(n); a pivot below ``eps * |T|``
    (``|T|`` the largest absolute row sum) is replaced by that value with its
    sign, so the solves stay finite.  Solving from a fixed start vector,
    then from the normalized result, stops after five solves or once the
    residual of the result for the factored matrix, the reciprocal of the
    growth of the unit vector in one solve, is at most ``n eps |T| / 10``.
    """
    n = len(d)
    norm = max(abs(x) + abs(y) + abs(z) for x, y, z in zip([0.0, *e], d, e))
    floor = _EPS * norm
    enough = 10.0 / (n * floor)
    start = [(k * 0.6180339887498949) % 1.0 - 0.5 for k in range(1, n + 1)]
    size = math.hypot(*start)
    # Two trailing zeros stand for the columns past the last row of U.
    start = [x / size for x in start] + [0.0, 0.0]
    # Row i of U holds u0[i], u1[i], u2[i] in columns i, i + 1, i + 2.  Step
    # i swaps rows i and i + 1 when swap[i], then takes mult[i] times row i
    # from row i + 1.
    u0 = [0.0] * n
    u1 = [0.0] * n
    u2 = [0.0] * n
    mult = [0.0] * n
    swap = [False] * n
    for lam in eigenvalues:
        diag, sup = d[0] - lam, e[0]
        for i in range(n - 1):
            row, nxt = (diag, sup, 0.0), (e[i], d[i + 1] - lam, e[i + 1])
            swap[i] = abs(row[0]) < abs(nxt[0])
            if swap[i]:
                row, nxt = nxt, row
            pivot = row[0] if abs(row[0]) >= floor else math.copysign(floor, row[0])
            u0[i], u1[i], u2[i] = pivot, row[1], row[2]
            mult[i] = m = nxt[0] / pivot
            diag, sup = nxt[1] - m * row[1], nxt[2] - m * row[2]
        u0[n - 1] = diag if abs(diag) >= floor else math.copysign(floor, diag)

        x = start[:]
        for _ in range(5):
            for i in range(n - 1):
                if swap[i]:
                    x[i], x[i + 1] = x[i + 1], x[i] - mult[i] * x[i + 1]
                else:
                    x[i + 1] -= mult[i] * x[i]
            for i in range(n - 1, -1, -1):
                x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
            growth = math.hypot(*x)
            x = [xk / growth for xk in x]
            if growth >= enough:
                break
        yield x[:n]


def reindex_monotone(s: Subset, f: PosetFunction, direction: str = "increasing"):
    """Relist members by function value, keeping the listing order-compatible.

    ``increasing`` requires ``f`` order-preserving on the meet closure,
    ``decreasing`` order-reversing on the join closure; violations raise
    :class:`MonotonicityError`.  Returns the relisted subset and the
    permutation (new position -> old position).
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    kind = "meet" if direction == "increasing" else "join"
    if not f._monotone(kind, within=_closure(s, kind).subset):
        word = "preserving" if kind == "meet" else "reversing"
        raise MonotonicityError(f"f is not order-{word} on the {kind} closure")
    order = _value_order(s, f, kind)
    relisted = Subset(s.parent, tuple(s.members[t] for t in order))
    return relisted, tuple(order)


def _value_order(s: Subset, f: PosetFunction, kind: str) -> list[int]:
    """Positions by ascending value for a meet matrix, descending for join."""
    def key(t: int):
        v = float(f.values[s.members[t]])
        return (v if kind == "meet" else -v, t)

    return sorted(range(len(s.members)), key=key)


def _bounds(s: Subset, f: PosetFunction, kind: str, strict: bool) -> BoundsReport:
    nonnegative = False
    monotone = False
    try:
        closure = _closure(s, kind)
    except (NoMeetError, NoJoinError):
        closure = None
    if closure is not None:
        nonnegative = f.is_nonnegative(within=closure.subset)
        monotone = f._monotone(kind, within=closure.subset)

    order = _value_order(s, f, kind)
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
    _kind(kind)
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
