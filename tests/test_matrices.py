import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import islice

import pytest

import meetjoin
import meetjoin.cli as cli
from meetjoin import (
    DeskScaleError,
    NoJoinError,
    NoMeetError,
    NotClosedError,
    NotSupersetError,
    PosetFunction,
    Subset,
    SymMatrix,
    build_named_matrix,
    classify_and_test,
    det_closed,
    det_general,
    divisibility_poset,
    divisor_down_set,
    divisors,
    down_set,
    factored_join_matrix,
    factored_meet_matrix,
    incidence_matrix,
    join_closure,
    join_matrix,
    mass_diagonal,
    meet_closure,
    meet_matrix,
    pd_oracle,
    phi,
    up_set,
)
from meetjoin.matrices import (MINOR_UPDATE_COST, _closure_det, _float_pivots,
                               _inverse_block, _min_degree, leading_minors)
from meetjoin.mobius import _mobius_row
from meetjoin.poset import _closure
from support import (
    brute_join,
    cofactor_det,
    doolittle_pivots,
    doolittle_verdict,
    full_row_minors,
    near_singular_matrices,
    random_function,
    random_join_closed_subset,
    random_linear_extension,
    random_meet_closed_subset,
    random_poset,
    random_rational,
    random_subset,
)


def test_an_unknown_kind_is_refused():
    # mass_diagonal read any kind but "meet" as join: "bogus" gave the phi
    # masses.
    p = divisibility_poset(divisors(12))
    s = Subset.whole(p)
    f = PosetFunction(p, p.labels)
    calls = (mass_diagonal, det_closed, lambda s, f, kind: incidence_matrix(s, s, kind))
    for call in calls:
        with pytest.raises(ValueError, match="^kind must be 'meet' or 'join'$"):
            call(s, f, "bogus")
    assert mass_diagonal(s, f, "join").diagonal == phi(s, f).values


def test_meet_matrix_is_gcd_table():
    p = divisibility_poset(divisors(60))
    s = Subset.of_labels(p, [4, 6, 10, 60])
    f = PosetFunction.from_callable(p, Fraction)
    m = meet_matrix(s, f)
    xs = [4, 6, 10, 60]
    for i in range(4):
        for j in range(4):
            assert m.entry(i, j) == math.gcd(xs[i], xs[j])


def test_join_matrix_is_lcm_table():
    p = divisibility_poset(divisors(60))
    s = Subset.of_labels(p, [2, 5, 6])
    f = PosetFunction.from_callable(p, Fraction)
    m = join_matrix(s, f)
    xs = [2, 5, 6]
    for i in range(3):
        for j in range(3):
            assert m.entry(i, j) == math.lcm(xs[i], xs[j])


def test_join_matrix_is_f_of_brute_force_joins():
    rng = random.Random(604)
    done = 0
    for _ in range(150):
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        ms = s.members
        joins = [[brute_join(p, a, b) for b in ms] for a in ms]
        if not all(isinstance(j, int) for row in joins for j in row):
            with pytest.raises(NoJoinError):
                join_matrix(s, f)
            continue
        m = join_matrix(s, f)
        for i in range(len(ms)):
            for j in range(len(ms)):
                assert m.entry(i, j) == f.values[joins[i][j]]
        done += 1
    assert done > 50


def test_sym_matrix_validation():
    with pytest.raises(ValueError):
        SymMatrix(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        SymMatrix(((1, 2),))
    m = SymMatrix(((1, 2), (2, 5)))
    assert m.n == 2 and m.is_exact
    assert m.leading(1).entries == ((Fraction(1),),)
    assert m.trace() == 6


def test_symmetry_error_names_the_first_pair_in_row_major_order():
    # Asymmetric at (1, 2) and at (0, 3): a column-by-column scan meets
    # (1, 2) first, row-major order meets (0, 3).
    rows = [[1, 0, 0, 4], [0, 1, 7, 0], [0, 8, 1, 0], [3, 0, 0, 1]]
    with pytest.raises(ValueError, match=r"^matrix is not symmetric at \(0, 3\)$"):
        SymMatrix(rows)
    rows[3][0] = 4
    with pytest.raises(ValueError, match=r"^matrix is not symmetric at \(1, 2\)$"):
        SymMatrix(rows)
    with pytest.raises(ValueError, match="^matrix must be square$"):
        SymMatrix(((1, 2), (2,)))
    m = SymMatrix(((1, 0.5), (0.5, 2)))
    assert not m.is_exact and "is_exact" in m.__dict__


def test_sym_matrix_entry_types():
    # One pass over the entry types; only what it cannot pass as it is
    # goes through the per-entry check, with that check's errors.
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match="^boolean is not a number$"):
        SymMatrix(((half, True), (True, half)))
    with pytest.raises(TypeError, match="^unsupported value '1'$"):
        SymMatrix((("1",),))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^values must be finite, not {bad!r}$"):
            SymMatrix(((1.0, bad), (bad, 1.0)))
        with pytest.raises(ValueError, match=f"^values must be finite, not {bad!r}$"):
            SymMatrix(((half, bad), (bad, half)))
    m = SymMatrix(((2, half), (half, 3)))
    assert m.entries == ((2, half), (half, 3)) and m.is_exact
    assert all(type(v) is Fraction for row in m.entries for v in row)
    assert not SymMatrix(((half, 0.5), (0.5, half))).is_exact
    assert not SymMatrix(((2, 0.5), (0.5, 3))).is_exact
    assert SymMatrix(((1.0, 2.0), (2.0, 1.0))).entries == ((1.0, 2.0), (2.0, 1.0))
    empty = SymMatrix(())
    assert empty.n == 0 and empty.is_exact and empty.entries == ()
    assert SymMatrix([[1, 2], [2, 1]]).entries == ((1, 2), (2, 1))


def test_is_exact_says_every_entry_is_a_fraction():
    rng = random.Random(614)
    matrices = _random_exact_matrices(rng)
    matrices += [_as_float(m) for m in matrices[::3]] + list(_spd_matrices(rng))
    matrices += [SymMatrix(tuple(tuple(float(v) if (i + j) % 2 else v
                                       for j, v in enumerate(row))
                                 for i, row in enumerate(m.entries)))
                 for m in matrices[:60]]
    kinds = set()
    for m in matrices:
        exact = all(isinstance(v, Fraction) for row in m.entries for v in row)
        assert m.is_exact == exact
        kinds.add(frozenset(type(v) for row in m.entries for v in row))
    assert {frozenset({Fraction}), frozenset({float}),
            frozenset({Fraction, float})} <= kinds


def test_incidence_matrix_semantics():
    p = divisibility_poset(divisors(30))
    s = Subset.of_labels(p, [6, 10, 15])
    d = down_set(s)
    e = incidence_matrix(s, d, "meet")
    for i, xi in enumerate(s.members):
        for j, dj in enumerate(d.members):
            assert e.bits[i][j] == (1 if p.leq(dj, xi) else 0)
    b = up_set(s)
    e2 = incidence_matrix(s, b, "join")
    for i, xi in enumerate(s.members):
        for j, bj in enumerate(b.members):
            assert e2.bits[i][j] == (1 if p.leq(xi, bj) else 0)


def test_factored_meet_matrix_equals_direct():
    rng = random.Random(601)
    relist = random.Random(1601)
    done = 0
    while done < 120:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            d = meet_closure(s).subset
        except NoMeetError:
            continue
        assert factored_meet_matrix(s, d, f) == meet_matrix(s, f)
        # any larger support works too
        assert factored_meet_matrix(s, down_set(s), f) == meet_matrix(s, f)
        # and a listing of d that need not ascend
        d = random_linear_extension(relist, d)
        assert factored_meet_matrix(s, d, f) == meet_matrix(s, f)
        done += 1


def test_factored_join_matrix_equals_direct():
    rng = random.Random(602)
    relist = random.Random(1602)
    done = 0
    while done < 120:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        try:
            b = join_closure(s).subset
        except NoJoinError:
            continue
        assert factored_join_matrix(s, b, f) == join_matrix(s, f)
        assert factored_join_matrix(s, up_set(s), f) == join_matrix(s, f)
        b = random_linear_extension(relist, b)
        assert factored_join_matrix(s, b, f) == join_matrix(s, f)
        done += 1


def test_factored_requires_covering_support():
    p = divisibility_poset(divisors(30))
    s = Subset.of_labels(p, [6, 10, 15])
    f = PosetFunction.from_callable(p, Fraction)
    with pytest.raises(NotSupersetError):
        factored_meet_matrix(s, Subset.of_labels(p, [6, 10, 15]), f)


def test_det_closed_matches_elimination():
    rng = random.Random(603)
    done = 0
    while done < 120:
        p = random_poset(rng)
        f = random_function(rng, p)
        try:
            s = random_meet_closed_subset(rng, p)
        except NoMeetError:
            continue
        assert det_closed(s, f, "meet") == det_general(meet_matrix(s, f))
        done += 1


def test_det_closed_join_side():
    rng = random.Random(604)
    done = 0
    while done < 120:
        p = random_poset(rng)
        f = random_function(rng, p)
        try:
            s = random_join_closed_subset(rng, p)
        except NoJoinError:
            continue
        assert det_closed(s, f, "join") == det_general(join_matrix(s, f))
        done += 1


def test_det_closed_rejects_open_sets():
    p = divisibility_poset(divisors(30))
    s = Subset.of_labels(p, [6, 10, 15])
    f = PosetFunction.from_callable(p, Fraction)
    with pytest.raises(NotClosedError):
        det_closed(s, f, "meet")


def test_worked_matrix_minors_and_det():
    lat = divisor_down_set([6, 10, 15])
    f = PosetFunction.from_table(
        lat.poset, {"1": 0, "2": -1, "3": 3, "5": -2, "6": 5, "10": 2, "15": 3}
    )
    m = meet_matrix(lat.subset_of([6, 10, 15]), f)
    assert m.entries == (
        (Fraction(5), Fraction(-1), Fraction(3)),
        (Fraction(-1), Fraction(2), Fraction(-2)),
        (Fraction(3), Fraction(-2), Fraction(3)),
    )
    minors = [det_general(m.leading(k)) for k in (1, 2, 3)]
    assert minors == [5, 9, 1]
    assert det_general(m) == 1


# Zero leading pivots that need a row swap, and a singular matrix, with
# their determinants.
SWAP_CASES = (
    (((0, 1), (1, 0)), -1),
    (((0, 0, 1), (0, 1, 0), (1, 0, 0)), -1),
    (((0, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 3))), Fraction(-1, 4)),
    (((0, 0), (0, 1)), 0),
)


def test_det_general_matches_cofactor_oracle():
    rng = random.Random(605)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        # symmetrize so SymMatrix accepts it
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
        m = SymMatrix(tuple(tuple(r) for r in rows))
        assert det_general(m) == cofactor_det(rows)
    # rows with several distinct denominators each
    for members, alpha in (([2, 3, 4, 5], 1), ([1, 2, 3, 6, 10], 2)):
        m = build_named_matrix("reciprocal-power-lcm", members, alpha=alpha).matrix
        rows = [list(row) for row in m.entries]
        assert len({v.denominator for row in rows for v in row}) > 3
        assert det_general(m) == cofactor_det(rows)
    for entries, det in SWAP_CASES:
        m = SymMatrix(entries)
        assert det_general(m) == det == cofactor_det([list(r) for r in m.entries])
        assert isinstance(det_general(m), Fraction)


def test_float_det_close_to_exact():
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
        exact = SymMatrix(tuple(tuple(r) for r in rows))
        floaty = SymMatrix(tuple(tuple(float(v) for v in r) for r in rows))
        assert not floaty.is_exact
        assert abs(det_general(floaty) - float(det_general(exact))) < 1e-8


def _as_float(m):
    return SymMatrix(tuple(tuple(float(v) for v in row) for row in m.entries))


def _random_exact_matrices(rng):
    """Symmetric rational matrices, and meet and join matrices of random
    functions on the generated posets."""
    out = []
    for _ in range(150):
        n = rng.randint(1, 6)
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        out.append(SymMatrix(tuple(
            tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        )))
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_function(rng, p)
        for build in (meet_matrix, join_matrix):
            try:
                out.append(build(s, f))
            except (NoMeetError, NoJoinError):
                pass
    return out


def test_float_pivots_are_ratios_of_exact_minors():
    # Without row swaps the k-th float pivot is minor_k / minor_{k-1}, up to
    # the first zero minor, past which neither elimination can go.
    rng = random.Random(608)
    compared = 0
    for m in _random_exact_matrices(rng):
        minors = []
        for minor in leading_minors(m):
            minors.append(minor)
            if minor == 0:
                break
        pivots = _float_pivots(_as_float(m))
        previous = Fraction(1)
        for minor, pivot in zip(minors, pivots):
            if minor == 0:
                assert abs(pivot) < 1e-9
            else:
                assert math.isclose(pivot, float(minor / previous), rel_tol=1e-9)
            previous = minor
            compared += 1
    assert compared > 1000


def _symmetric_small_ints(rng, count):
    """Symmetric matrices of floats -3..3, mostly indefinite."""
    for _ in range(count):
        n = rng.randint(1, 8)
        upper = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        yield SymMatrix(tuple(
            tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        ))


def _oracle_verdict(m):
    report = pd_oracle(m)
    return report.is_positive_definite, report.certificate.get("minor_index")


def test_ldl_oracle_reads_the_verdicts_of_doolittle_elimination():
    # LDL^T over one triangle and Doolittle's elimination over the whole
    # matrix stop at the same column on the generated matrices.
    rng = random.Random(615)
    matrices = [_as_float(m) for m in _random_exact_matrices(rng)]
    matrices += [*_spd_matrices(rng), *_symmetric_small_ints(rng, 1000)]
    verdicts = [_oracle_verdict(m) for m in matrices]
    assert verdicts == [doolittle_verdict(m) for m in matrices]
    definite = sum(pd for pd, _ in verdicts)
    assert definite > 100 and len(verdicts) - definite > 1000


def test_ldl_and_doolittle_differ_only_at_rounding_level_near_singularity():
    # Both eliminations are backward stable, and where a pivot is at
    # rounding level each reads the sign of its own rounding.  Where the
    # verdicts differ, the first pivot either run reads as nonpositive is
    # near 0 in both runs, relative to the largest entry (at most 4.9e-13
    # here on Python 3.11 and 3.13).
    same = differ = 0
    for m in near_singular_matrices(random.Random(624), 3000):
        got, ref = _oracle_verdict(m), doolittle_verdict(m)
        if got == ref:
            same += 1
            continue
        differ += 1
        k = min(index for _, index in (got, ref) if index is not None)
        scale = max(abs(v) for row in m.entries for v in row)
        assert abs(pd_oracle(m).certificate["pivots"][k - 1]) < 1e-12 * scale
        assert abs(list(islice(doolittle_pivots(m), k))[-1]) < 1e-12 * scale
    assert same > 2500 and differ > 0


def test_ldl_pivots_match_doolittle_on_the_gcd_float_pool():
    # The sets the seed-0 gcd-float bench pool sends check-pd: the first 12
    # samples of random.Random(0) (bench/workloads.py, gcd_float).
    rng = random.Random(0)
    for _ in range(12):
        members = rng.sample(range(1, 3000), 100)
        m = build_named_matrix("power_gcd", members, alpha=1.5).matrix
        pivots, reference = list(_float_pivots(m)), list(doolittle_pivots(m))
        assert len(pivots) == 100 and min(pivots) > 0
        for got, expected in zip(pivots, reference):
            assert math.isclose(got, expected, rel_tol=1e-12)


def test_a_pivot_that_is_not_finite_is_refused():
    # Finite entries, but a pivot of 1e-300 puts inf into L, and the pivot
    # of the next column is -inf (or inf after a negative one): no verdict
    # or pivot is read off it.  Partial pivoting keeps its pivots finite.
    m = SymMatrix(((1.0, 0.0, 0.0), (0.0, 1e-300, 1e300), (0.0, 1e300, 1.0)))
    steps = _float_pivots(m)
    assert [next(steps), next(steps)] == [1.0, 1e-300]
    message = "^the LDL\\^T pivot of column 2 is -inf: the float elimination left"
    with pytest.raises(DeskScaleError, match=message):
        next(steps)
    with pytest.raises(DeskScaleError, match=message):
        pd_oracle(m)
    assert list(_float_pivots(m, swap=True)) == [1.0, -1e300, 1e300]
    m = SymMatrix(((-1e-300, 1e300), (1e300, 1.0)))
    assert pd_oracle(m).certificate["minor_index"] == 1
    with pytest.raises(DeskScaleError, match="^the LDL\\^T pivot of column 1 is inf:"):
        list(_float_pivots(m))


def _until_zero(minors):
    """The minors up to the first zero, past which an elimination without
    row swaps cannot go."""
    out = []
    for minor in minors:
        out.append(minor)
        if minor == 0:
            break
    return out


def _assert_matches_full_rows(m):
    assert _until_zero(leading_minors(m)) == _until_zero(full_row_minors(m))
    swapped = list(full_row_minors(m, swap=True))
    assert list(leading_minors(m, swap=True)) == swapped
    assert det_general(m) == swapped[-1]


def test_one_triangle_minors_match_full_rows():
    for m in _random_exact_matrices(random.Random(610)):
        _assert_matches_full_rows(m)


def test_one_triangle_minors_match_full_rows_past_a_late_zero_pivot():
    # Many zeros put a zero pivot past step 0, where the swap path mirrors
    # the remaining block into full rows; denominators 1-6 give the rows of
    # that block different scales, so a mirrored entry and a lead entry
    # are rescaled by s_i / s_k != 1.
    rng = random.Random(611)
    late_zero = mixed_scales = 0
    for _ in range(1500):
        n = rng.randint(2, 7)
        zeros = rng.random()
        upper = [[Fraction(0) if rng.random() < zeros
                  else Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                  for _ in range(n)] for _ in range(n)]
        m = SymMatrix(tuple(
            tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        ))
        _assert_matches_full_rows(m)
        minors = _until_zero(leading_minors(m))
        k = len(minors) - 1
        if minors[-1] == 0 and 0 < k < n - 1:
            late_zero += 1
            scales = {math.lcm(*(v.denominator for v in row))
                      for row in m.entries[k:]}
            mixed_scales += len(scales) > 1
    assert late_zero > 150 and mixed_scales > 100


def test_one_triangle_minors_match_full_rows_on_swap_cases():
    for entries, _ in SWAP_CASES:
        _assert_matches_full_rows(SymMatrix(entries))


def test_float_det_with_row_swaps_matches_exact():
    # n = 30-60 with a zero in the corner, so partial pivoting must move rows.
    rng = random.Random(609)
    for _ in range(4):
        n = rng.randint(30, 60)
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        rows[0][0] = Fraction(0)
        exact = SymMatrix(tuple(
            tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        ))
        floaty = _as_float(exact)
        assert next(_float_pivots(floaty)) == 0
        assert next(_float_pivots(floaty, swap=True)) != 0
        expected = float(det_general(exact))
        assert math.isclose(det_general(floaty), expected, rel_tol=1e-9)


def test_permuted_preserves_determinant():
    rng = random.Random(607)
    p = divisibility_poset(divisors(36))
    s = Subset.whole(p)
    f = random_function(rng, p)
    m = meet_matrix(s, f)
    perm = list(range(m.n))
    rng.shuffle(perm)
    q = m.permuted(tuple(perm))
    assert det_general(q) == det_general(m)
    assert q.trace() == m.trace()


def _hex(pivots):
    return [float.hex(p) for p in pivots]


def _fresh(m):
    """The swap pivots of an equal matrix no run has touched."""
    return list(_float_pivots(SymMatrix(m.entries), swap=True))


def _spd_matrices(rng):
    """Float positive definite matrices: power-gcd at alpha 1.5 on random
    integer sets, and B B^T + c I for random B."""
    for _ in range(12):
        members = rng.sample(range(1, 400), rng.randint(1, 30))
        yield build_named_matrix("power_gcd", members, alpha=1.5).matrix
    for _ in range(40):
        n = rng.randint(1, 12)
        b = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
        c = rng.choice((1e-3, 0.5, float(n)))
        yield SymMatrix(tuple(
            tuple(math.fsum(b[i][k] * b[j][k] for k in range(n)) + (c if i == j else 0.0)
                  for j in range(n))
            for i in range(n)
        ))


def test_replayed_pivots_equal_a_fresh_swap_run():
    # A swap run after a whole swap-free run gives the bits of one on a
    # fresh copy, and neither run writes onto the matrix.  Where partial
    # pivoting picks every diagonal, the two runs yield the same pivots.
    diagonal = swapped = 0
    for m in _spd_matrices(random.Random(612)):
        names = set(vars(m))
        plain = _hex(_float_pivots(m))
        pivots = _hex(_float_pivots(m, swap=True))
        assert pivots == _hex(_fresh(m))
        assert set(vars(m)) == names
        diagonal += pivots == plain
        swapped += pivots != plain
    assert diagonal > 10 and swapped > 10


def _with_block(n, k):
    """The n x n identity with the SPD block [[1, 2], [2, 5]] at rows and
    columns k, k + 1: partial pivoting swaps at column k, and nowhere else."""
    rows = [[float(i == j) for j in range(n)] for i in range(n)]
    rows[k][k], rows[k][k + 1], rows[k + 1][k], rows[k + 1][k + 1] = 1.0, 2.0, 2.0, 5.0
    return SymMatrix(tuple(map(tuple, rows)))


@pytest.mark.parametrize("k", [0, 3, 6])
def test_a_swap_at_any_column_keeps_no_pivots(k):
    # Column 0, mid-way, and the last column with a row below it.
    m = _with_block(8, k)
    assert list(_float_pivots(m)) == [1.0] * 8  # positive definite
    pivots = list(_float_pivots(m, swap=True))
    assert _hex(pivots) == _hex(_fresh(m))
    assert pivots[k] == -2.0 and math.prod(pivots) == 1.0
    assert det_general(m) == 1.0


def test_random_symmetric_replays_equal_fresh_swap_runs():
    # Indefinite matrices too, where the swap-free run may stop at a zero
    # pivot; a swap run after it and a fresh one agree bit for bit wherever
    # it ends, and it leaves nothing on the matrix.
    for m in _symmetric_small_ints(random.Random(613), 300):
        names = set(vars(m))
        try:
            list(_float_pivots(m))
        except ZeroDivisionError:
            pass
        assert set(vars(m)) == names
        assert _hex(_float_pivots(m, swap=True)) == _hex(_fresh(m))


def test_an_oracle_that_stops_early_keeps_no_pivots():
    # Not positive definite: the oracle stops at pivot 2 of 3.
    m = SymMatrix(((4.0, 1.0, 0.0), (1.0, -2.0, 0.0), (0.0, 0.0, 1.0)))
    assert pd_oracle(m).certificate["minor_index"] == 2
    assert _hex(_float_pivots(m, swap=True)) == _hex(_fresh(m))
    # Positive definite, but a tol above the last pivot stops it there.
    m = SymMatrix(((4.0, 1.0), (1.0, 2.0)))
    assert pd_oracle(m, tol=3.0).certificate["minor_index"] == 2
    assert pd_oracle(m).is_positive_definite
    assert det_general(m) == 7.0


def test_zero_pivots_and_replay():
    # A zero pivot before the last column ends the swap-free run, which
    # cannot divide by it; det swaps past it.
    m = SymMatrix(((0.0, 1.0), (1.0, 0.0)))
    steps = _float_pivots(m)
    assert next(steps) == 0.0
    with pytest.raises(ZeroDivisionError):
        next(steps)
    assert list(_float_pivots(m, swap=True)) == [-1.0, 1.0]
    assert det_general(m) == -1.0
    # A zero last pivot ends both runs alike.
    m = SymMatrix(((1.0, 1.0), (1.0, 1.0)))
    assert list(_float_pivots(m)) == [1.0, 0.0]
    assert _hex(_float_pivots(m, swap=True)) == _hex(_fresh(m)) == _hex([1.0, 0.0])
    assert det_general(m) == 0.0


def _mass_function(rng, s, kind):
    """A function whose masses over the closure of ``s`` are random positive
    rationals: f sums them over each element's down-set (up-set on the join
    side) within the closure."""
    d = _closure(s, kind).subset
    toward = (d.parent._down if kind == "meet" else d.parent._up)
    mass = {k: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in d.members}
    values = [sum((mass[k] for k in d.members if toward[x] >> k & 1), Fraction(0))
              for x in range(d.parent.n)]
    return PosetFunction(d.parent, values)


@pytest.mark.parametrize("kind", ["meet", "join"])
def test_closure_det_is_the_exact_det_on_both_sides(kind, monkeypatch):
    # det S_f = (prod of the masses over the closure D) * det((D_f)^-1[T, T])
    # with T = D \ S; a closed set (T empty) gives the product of det_closed.
    # At no cost per update the work estimate refuses nothing, so every set
    # whose closure adds fewer members than it has takes the route.
    monkeypatch.setattr("meetjoin.matrices.MINOR_UPDATE_COST", 0)
    rng = random.Random(29 if kind == "meet" else 92)
    routed = closed = 0
    for _ in range(600):
        p = random_poset(rng)
        s = random_subset(rng, p)
        try:
            f = _mass_function(rng, s, kind)
        except (NoMeetError, NoJoinError):
            continue
        m = meet_matrix(s, f) if kind == "meet" else join_matrix(s, f)
        report = classify_and_test(s, f, kind, matrix=m)
        assert report.method in ("T3.1", "T3.2", "C3.4", "C3.6")
        assert report.is_positive_definite
        det = _closure_det(_closure(s, kind), report.certificate["masses"])
        if det is None:
            continue
        assert det == det_general(m)
        assert cli._det_fields(report, m, s) == {"det": det}
        if len(_closure(s, kind).subset) == len(s):
            assert det == det_closed(s, f, kind)
            closed += 1
        else:
            routed += 1
    assert routed > 80 and closed > 200


def _refused(family, members, monkeypatch):
    """Check that the det fields of check-pd on ``members`` refuse the
    route and call det_general once; return the report and the closure."""
    model = build_named_matrix(family, members)
    m = model.matrix
    report = classify_and_test(model.subset, model.function, model.kind, matrix=m)
    calls = []
    monkeypatch.setattr(cli, "det_general", lambda m: calls.append(m) or det_general(m))
    fields = cli._det_fields(report, m, model.subset)
    c = _closure(model.subset, model.kind)
    assert _closure_det(c, report.certificate["masses"]) is None
    assert fields == {"det": det_general(m)} and len(calls) == 1
    return report, c


def test_the_gate_refuses_a_closure_that_adds_n_or_more(monkeypatch):
    # The join closure of 7 primes adds 120 members to 7.
    report, c = _refused("reciprocal-power-lcm", [2, 3, 5, 7, 11, 13, 17], monkeypatch)
    assert report.method == "C3.6" and len(c.subset) - len(c.embed) == 120


def test_the_gate_refuses_on_its_work_estimate(monkeypatch):
    # 120 of the divisors of 720720: |T| < n, but the minimum-degree order
    # counts more updates than n^3/6 over MINOR_UPDATE_COST.
    members = sorted(random.Random(0).sample(divisors(720720), 120))
    report, c = _refused("power-gcd", members, monkeypatch)
    n, inside = len(c.embed), set(c.embed)
    outside = [k for k in range(len(c.subset)) if k not in inside]
    assert report.method == "C3.4" and len(outside) < n
    _, updates = _min_degree(
        _inverse_block(c.subset, outside, report.certificate["masses"], c.kind)[0])
    assert 6 * MINOR_UPDATE_COST * updates > n ** 3


def test_min_degree_orders_by_degree_then_index():
    # A star on 0 with a tail 3 - 4.  The leaves 1 and 2 go first, one
    # update each; then 0 and 4 both have one other, and the tie goes to 0.
    # No step fills an entry.  Eliminating 0 first would join 1, 2 and 3.
    pattern = [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1}, {0: 1, 2: 1},
               {0: 1, 3: 1, 4: 1}, {3: 1, 4: 1}]
    assert _min_degree(pattern) == ([1, 2, 0, 3, 4], 4)
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}]
    assert _min_degree(rows) == ([1, 0, 2], 1 + 1 + 0)


def test_a_nonpositive_pivot_of_the_complementary_minor_is_refused():
    # Masses that do not belong to f: all -1 make M negative definite.  The
    # check is a raise, not an assert, so it holds under python -O too.
    script = textwrap.dedent("""
        import random
        from fractions import Fraction
        from meetjoin import CharacterizationMismatch, build_named_matrix, psi
        from meetjoin.matrices import _closure_det
        from meetjoin.poset import _closure
        members = random.Random(0).sample(range(1, 3000), 80)
        model = build_named_matrix("power-gcd", members)
        c = _closure(model.subset, model.kind)
        print("routed", _closure_det(c, psi(c.subset, model.function).values) is not None)
        try:
            _closure_det(c, [Fraction(-1)] * len(c.subset))
        except CharacterizationMismatch as exc:
            print(exc)
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", script],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        routed, refused = done.stdout.splitlines()
        assert routed == "routed True"
        assert refused.startswith("a pivot of the complementary minor is -")


@pytest.mark.parametrize("family, alpha, pool", [
    ("power-gcd", 2, range(1, 3000)),
    ("power-gcd", 3, range(1, 3000)),
    ("reciprocal-power-lcm", 1, divisors(5040)),
    ("reciprocal-power-lcm", 2, divisors(5040)),
    ("gcud-power", 1, range(1, 3000)),
])
def test_the_int_minor_route_is_the_exact_det_on_named_families(family, alpha, pool):
    # On 40 seeded members: masses of more bits than at alpha 1 (power-gcd
    # at alpha 2 and 3), not integers (reciprocal-power-lcm, whose join
    # closure of 40 of the 60 divisors of 5040 stays small enough to
    # route), and over the unitary order (gcud-power).  Each routed det
    # equals Bareiss on the matrix.
    for seed in range(3):
        model = build_named_matrix(family, random.Random(seed).sample(pool, 40),
                                   alpha=alpha)
        report = classify_and_test(model.subset, model.function, model.kind)
        c = _closure(model.subset, model.kind)
        assert report.method in ("C3.4", "C3.6") and len(c.subset) > len(c.embed)
        masses = report.certificate["masses"]
        det = _closure_det(c, masses)
        assert det is not None, "the route was refused"
        assert det == det_general(model.matrix)
        if family == "reciprocal-power-lcm":
            assert any(v.denominator > 1 for v in masses)


@pytest.mark.parametrize("family, pool", [
    ("power-gcd", range(1, 3000)), ("reciprocal-power-lcm", divisors(5040))])
def test_inverse_block_rows_are_ints_under_their_scales(family, pool):
    # Each row is ints, and its scale, a pair of positive ints in lowest
    # terms, times the row gives the Fractions sum_k mu(t_a, k) mu(t_b, k) /
    # mass_k, the same in both triangles.
    model = build_named_matrix(family, random.Random(4).sample(pool, 40))
    report = classify_and_test(model.subset, model.function, model.kind)
    c = _closure(model.subset, model.kind)
    d, masses = c.subset, report.certificate["masses"]
    inside = set(c.embed)
    outside = [k for k in range(len(d)) if k not in inside]
    rows, scales = _inverse_block(d, outside, masses, c.kind)
    weight = dict(zip(d.members, masses))
    mu = [_mobius_row(d.parent, d.member_mask(), d.members[t], c.kind) for t in outside]
    for a, (row, (num, den)) in enumerate(zip(rows, scales)):
        assert {type(v) for v in row.values()} == {int}
        assert type(num) is type(den) is int and num > 0 and den > 0
        assert math.gcd(num, den) == 1 and math.gcd(*row.values()) == 1
        for b in range(len(outside)):
            exact = sum((mu[a][k] * mu[b].get(k, 0) / weight[k] for k in mu[a]),
                        Fraction(0))
            assert Fraction(num * row.get(b, 0), den) == exact
            assert (b in row) == (exact != 0)


def test_the_nonpositive_pivot_text_is_the_exact_pivot():
    # All masses -1, and one mass negated and divided by 3, whose first
    # nonpositive pivot comes later and is not an integer.  The texts are
    # those of the Fraction elimination this route had before, under plain
    # python and python -O alike.
    script = textwrap.dedent("""
        import random
        from fractions import Fraction
        from meetjoin import CharacterizationMismatch, build_named_matrix, psi
        from meetjoin.matrices import _closure_det
        from meetjoin.poset import _closure
        members = random.Random(0).sample(range(1, 3000), 80)
        model = build_named_matrix("power-gcd", members)
        c = _closure(model.subset, model.kind)
        masses = list(psi(c.subset, model.function).values)
        masses[7] = -masses[7] / 3
        for case in ([Fraction(-1)] * len(c.subset), masses):
            try:
                _closure_det(c, case)
            except CharacterizationMismatch as exc:
                print(exc)
    """)
    src = os.path.dirname(os.path.dirname(meetjoin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", script],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "a pivot of the complementary minor is -3: positive masses make "
            "it positive definite",
            "a pivot of the complementary minor is -786773/3157508: positive "
            "masses make it positive definite",
        ]
