"""Positive definiteness decisions with certificates.

Each decision routine returns a :class:`PDReport` whose ``method`` tag names
the rule that produced the verdict: ``T3.1``/``T3.2`` are the exact sign
tests on meet (join) closed sets, ``C3.4``/``C3.6`` the sufficient
superset-mass tests, ``T4.4`` the tree-plus-monotonicity rule, and
``oracle`` the unconditional leading-principal-minor test.  Sufficient rules
that fail report ``not-applicable``; they never refute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    ExactArithmeticError,
    NoJoinError,
    NoMeetError,
    NotClosedError,
    NotSupersetError,
    PreconditionError,
)
from .matrices import SymMatrix, _float_pivots, _matrix, leading_minors, meet_matrix
from .mobius import PosetFunction, _masses
from .poset import (
    ClosureResult,
    Subset,
    _closure,
    _induced_cover_graph,
    _is_closed,
    _kind,
    is_A_set,
    is_chain,
    is_join_closed,
    is_meet_closed,
    is_vee_tree_set,
    is_wedge_tree_set,
)

POSITIVE_DEFINITE = "positive-definite"
NOT_POSITIVE_DEFINITE = "not-positive-definite"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class PDReport:
    """Verdict, the rule that produced it, and a re-checkable certificate."""

    verdict: str
    method: str
    certificate: dict = field(default_factory=dict)

    @property
    def is_positive_definite(self) -> bool:
        return self.verdict == POSITIVE_DEFINITE


def pd_oracle(m: SymMatrix, tol=0) -> PDReport:
    """Decide definiteness by swap-free elimination, stopped at the first
    value at or below ``tol``, whose 1-based index is ``minor_index``.

    Exact matrices yield their leading ``minors``, so the test is exact;
    float ones the ``pivots`` of ``m = L D L^T``, ratios of consecutive
    minors that stay in range where the minors overflow.  The certificate
    lists what was yielded; rounding near singularity is the caller's risk.
    A float pivot that is not finite raises :class:`DeskScaleError`.
    A ``tol`` that is negative or not finite raises :class:`ValueError`:
    below zero the elimination would run past a zero pivot.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, not {tol!r}")
    if m.is_exact:
        steps, key, value_key = leading_minors(m), "minors", "minor_value"
    else:
        steps, key, value_key = _float_pivots(m), "pivots", "pivot_value"
    values = []
    for value in steps:
        values.append(value)
        if not value > tol:
            cert = {key: tuple(values), "minor_index": len(values), value_key: value}
            return PDReport(NOT_POSITIVE_DEFINITE, "oracle", cert)
    return PDReport(POSITIVE_DEFINITE, "oracle", {key: tuple(values)})


def _sign_test(s: Subset, f: PosetFunction, kind: str) -> PDReport:
    method = "T3.1" if kind == "meet" else "T3.2"
    try:
        closed = _is_closed(s, kind)
    except (NoMeetError, NoJoinError) as exc:
        return PDReport(NOT_APPLICABLE, method, {"reason": str(exc)})
    if not closed:
        return PDReport(
            NOT_APPLICABLE, method, {"reason": f"the set is not {kind} closed"}
        )
    return _signs(s, f, kind)


def _signs(s: Subset, f: PosetFunction, kind: str) -> PDReport:
    """The sign test on a set that is its own closure."""
    method = "T3.1" if kind == "meet" else "T3.2"
    vec = _masses(s, f, kind)
    cert = {"kind": kind, "masses": vec.values, "support": s.labels}
    bad = [k for k, value in enumerate(vec.values) if not value > 0]
    if bad:
        # The witness minor must contain exactly one nonpositive mass: the
        # first one for leading minors, the last one for trailing minors.
        k = bad[0] if kind == "meet" else bad[-1]
        cert["failing_index"] = k
        cert["minor_side"] = "leading" if kind == "meet" else "trailing"
        cert["minor_index"] = k + 1 if kind == "meet" else len(s) - k
        return PDReport(NOT_POSITIVE_DEFINITE, method, cert)
    return PDReport(POSITIVE_DEFINITE, method, cert)


def pd_meet_closed(s: Subset, f: PosetFunction) -> PDReport:
    """Exact test on a meet closed set: positive definite iff all bottom-up
    masses over the set itself are positive.  Not applicable otherwise."""
    return _sign_test(s, f, "meet")


def pd_join_closed(s: Subset, f: PosetFunction) -> PDReport:
    """Dual of :func:`pd_meet_closed` for the join matrix, via top-down
    masses; positive definite iff all of them are positive."""
    return _sign_test(s, f, "join")


def pd_superset_sufficient(s: Subset, d, f: PosetFunction, kind: str = "meet") -> PDReport:
    """Sufficient test through a closed superset.

    If every mass of ``f`` over a meet closed superset ``d`` is positive, the
    meet matrix of ``s`` is positive definite (dually for join).  Nonpositive
    masses prove nothing; the verdict is then ``not-applicable``.  The
    closure of ``s`` is the strongest ``d``: positive masses over a larger
    closed superset make its masses positive too.
    """
    if isinstance(d, ClosureResult):
        kind = d.kind
        d = d.subset
    _kind(kind)
    if s.parent != d.parent:
        raise ValueError("both subsets must share one ambient poset")
    dmask = d.member_mask()
    outside = [s.parent.labels[m] for m in s.members if not (dmask >> m) & 1]
    if outside:
        raise NotSupersetError(
            "superset does not contain: " + ", ".join(map(str, outside))
        )
    if not _is_closed(d, kind):
        raise NotClosedError(f"the superset is not {kind} closed")
    return _superset_masses(d, f, kind)


def _superset_masses(d: Subset, f: PosetFunction, kind: str) -> PDReport:
    """C3.4/C3.6 on a superset ``d`` known to be closed and to cover the set."""
    method = "C3.4" if kind == "meet" else "C3.6"
    vec = _masses(d, f, kind)
    cert = {"kind": kind, "masses": vec.values, "support": d.labels}
    nonpositive = tuple(k for k, v in enumerate(vec.values) if not v > 0)
    if nonpositive:
        cert["nonpositive_indices"] = nonpositive
        return PDReport(NOT_APPLICABLE, method, cert)
    return PDReport(POSITIVE_DEFINITE, method, cert)


def pd_tree(s: Subset, f: PosetFunction, kind: str = "meet") -> PDReport:
    """Sufficient test for tree sets.

    A meet-tree set with ``f`` positive and strictly order-preserving on the
    meet closure has a positive definite meet matrix; dually a join-tree set
    with ``f`` positive and strictly order-reversing on the join closure.
    Any failed hypothesis yields ``not-applicable`` naming the failure.
    """
    try:
        c = _closure(s, kind)
    except (NoMeetError, NoJoinError) as exc:
        return PDReport(NOT_APPLICABLE, "T4.4", {"failed_hypothesis": str(exc)})
    tree = is_wedge_tree_set(s) if kind == "meet" else is_vee_tree_set(s)
    if not tree:
        reason = f"the set is not a {kind}-tree set"
        return PDReport(NOT_APPLICABLE, "T4.4", {"failed_hypothesis": reason})
    if not f._monotone(kind, strict=True, within=c.subset):
        word = "preserving" if kind == "meet" else "reversing"
        reason = f"f is not strictly order-{word} on the {kind} closure"
        return PDReport(NOT_APPLICABLE, "T4.4", {"failed_hypothesis": reason})
    if not f.is_positive(within=c.subset):
        return PDReport(
            NOT_APPLICABLE,
            "T4.4",
            {"failed_hypothesis": "f is not positive on the closure"},
        )
    cert = {"kind": kind, "support": c.subset.labels}
    try:
        cert["masses"] = _masses(c.subset, f, kind).values
    except ExactArithmeticError:
        cert["hypotheses_only"] = True
    return PDReport(POSITIVE_DEFINITE, "T4.4", cert)


def monotonicity_from_pd(s: Subset, f: PosetFunction) -> bool:
    """Read monotonicity off a positive definite meet matrix.

    Requires the first listed member to be the minimum of the set, the Hasse
    diagram of the set itself to be a tree, and the meet matrix to be
    positive definite; under those preconditions, returns whether ``f`` is
    strictly order-preserving and positive on the set (which the theory
    guarantees).  A failed precondition raises :class:`PreconditionError`.
    """
    p = s.parent
    first = min(s.members)
    if any(not p.leq(first, m) for m in s.members):
        raise PreconditionError("the set has no minimum element")
    if not _induced_cover_graph(p, s.member_mask()).is_tree():
        raise PreconditionError("the Hasse diagram of the set is not a tree")
    verdict = pd_oracle(meet_matrix(s, f)).verdict
    if verdict != POSITIVE_DEFINITE:
        raise PreconditionError("the meet matrix is not positive definite")
    return f.is_order_preserving(strict=True, within=s) and f.is_positive(within=s)


def structure_flags(s: Subset) -> dict:
    """Structural classification of a set; ``None`` marks an undefined test."""
    flags = {}
    probes = (
        ("meet_closed", is_meet_closed),
        ("join_closed", is_join_closed),
        ("chain", is_chain),
        ("wedge_tree_set", is_wedge_tree_set),
        ("vee_tree_set", is_vee_tree_set),
        ("a_set", is_A_set),
    )
    for name, probe in probes:
        try:
            flags[name] = probe(s)
        except (NoMeetError, NoJoinError):
            flags[name] = None
    return flags


def classify_and_test(
    s: Subset,
    f: PosetFunction,
    kind: str = "meet",
    *,
    matrix: SymMatrix | None = None,
) -> PDReport:
    """Decide definiteness by the cheapest applicable rule.

    Every rule but the oracle reads the one closure of ``s``: the sign test
    when it adds nothing, else positive masses over it, which positive
    masses over any larger closed superset would imply.  The tree rule runs
    only on a closure holding floats, as on exact values its hypotheses make
    the masses positive.  Without a closure only the minor oracle, which
    always decides, is left.  ``method`` records the rule that settled it.
    The oracle runs on ``matrix`` when given, which must be the meet (join)
    matrix of ``s`` and ``f``; else it assembles it.
    """
    try:
        c = _closure(s, kind)
    except (NoMeetError, NoJoinError):
        c = None  # then no closed superset exists and no tree rule applies
    if c is not None:
        try:
            if len(c.subset) == len(s):
                return _signs(s, f, kind)
            report = _superset_masses(c.subset, f, kind)
            if report.verdict == POSITIVE_DEFINITE:
                return report
        except ExactArithmeticError:  # floats on the closure
            report = pd_tree(s, f, kind)
            if report.verdict == POSITIVE_DEFINITE:
                return report
    if matrix is None:
        matrix = _matrix(s, f, kind)
    return pd_oracle(matrix)
