import math
import random
from fractions import Fraction

import pytest

from meetjoin import spectral
from meetjoin import (
    ConvergenceError,
    HypothesisError,
    MonotonicityError,
    PosetFunction,
    Subset,
    SupportError,
    SymMatrix,
    build_named_matrix,
    det_general,
    eigen_sym,
    join_bounds,
    join_matrix,
    meet_bounds,
    meet_matrix,
    quadratic_form_check,
    reindex_monotone,
    total_order_poset,
)
from support import (
    input_residual,
    random_monotone_function,
    random_poset,
    random_rational,
    random_subset,
)


def random_sym_float(rng, n):
    rows = [[rng.uniform(-4, 4) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[j][i] = rows[i][j]
    return SymMatrix(tuple(tuple(r) for r in rows))


def test_eigen_identity():
    m = SymMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    spec = eigen_sym(m)
    assert spec.eigenvalues == (1.0, 1.0, 1.0)
    assert spec.residual <= 1e-12


def test_eigen_diagonal_sorted():
    m = SymMatrix(((3, 0, 0), (0, -1, 0), (0, 0, 2)))
    spec = eigen_sym(m)
    assert spec.eigenvalues == (-1.0, 2.0, 3.0)


def test_eigen_known_two_by_two():
    spec = eigen_sym(SymMatrix(((2, 1), (1, 2))))
    assert abs(spec.eigenvalues[0] - 1.0) < 1e-10
    assert abs(spec.eigenvalues[1] - 3.0) < 1e-10


def test_eigen_trace_det_gershgorin_residual():
    rng = random.Random(801)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_sym_float(rng, n)
        spec = eigen_sym(m)
        assert len(spec.eigenvalues) == n
        assert spec.eigenvalues == tuple(sorted(spec.eigenvalues))
        assert abs(sum(spec.eigenvalues) - m.trace()) <= 1e-8 * max(1.0, abs(m.trace()))
        prod = math.prod(spec.eigenvalues)
        det = det_general(m)
        assert abs(prod - det) <= 1e-6 * max(1.0, abs(det))
        lo = min(
            m.entry(i, i) - sum(abs(m.entry(i, j)) for j in range(n) if j != i)
            for i in range(n)
        )
        hi = max(
            m.entry(i, i) + sum(abs(m.entry(i, j)) for j in range(n) if j != i)
            for i in range(n)
        )
        assert spec.eigenvalues[0] >= lo - 1e-8
        assert spec.eigenvalues[-1] <= hi + 1e-8
        assert spec.residual <= 1e-8 * max(1.0, hi - lo)


def test_eigen_extreme_scale():
    big = eigen_sym(SymMatrix(((2e8, 1e8), (1e8, 2e8))))
    assert abs(big.eigenvalues[0] - 1e8) < 1e-2
    small = eigen_sym(SymMatrix(((2e-9, 1e-9), (1e-9, 2e-9))))
    assert abs(small.eigenvalues[1] - 3e-9) < 1e-18


def test_eigen_zero_and_single():
    assert eigen_sym(SymMatrix(((0, 0), (0, 0)))).eigenvalues == (0.0, 0.0)
    assert eigen_sym(SymMatrix(((7,),))).eigenvalues == (7.0,)


def test_eigen_sweep_budget():
    with pytest.raises(ConvergenceError):
        eigen_sym(SymMatrix(((2, 1), (1, 2))), max_sweeps=0)


def test_eigen_min_matrix_closed_form():
    # The MIN matrix min(i, j) on 1..n has eigenvalues
    # 1 / (4 sin^2((2k - 1) pi / (4n + 2))), k = 1..n.
    n = 40
    spec = eigen_sym(build_named_matrix("min", list(range(1, n + 1))).matrix)
    exact = sorted(
        1.0 / (4.0 * math.sin((2 * k - 1) * math.pi / (4 * n + 2)) ** 2)
        for k in range(1, n + 1)
    )
    for lam, want in zip(spec.eigenvalues, exact):
        assert abs(lam - want) <= 1e-12 * want
    assert spec.residual <= 1e-12 * n


def block_diagonal(rng, sizes):
    blocks = [random_sym_float(rng, k) for k in sizes]
    n = sum(sizes)
    rows = [[0.0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[at + i][at + j] = b.entry(i, j)
        at += b.n
    return blocks, SymMatrix(tuple(tuple(r) for r in rows))


def test_eigen_block_diagonal_splits():
    # Zero coupling between the blocks: the reduction meets an all-zero
    # column and the QL iteration splits the tridiagonal there.
    blocks, m = block_diagonal(random.Random(805), (4, 1, 5))
    spec = eigen_sym(m)
    separate = sorted(lam for b in blocks for lam in eigen_sym(b).eigenvalues)
    for lam, want in zip(spec.eigenvalues, separate):
        assert abs(lam - want) <= 1e-12 * 4
    assert spec.residual <= 1e-12 * 4


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymMatrix(((2, 1), (1, 2))),
        # Every off-diagonal entry of the tridiagonal is 0, so each solve of
        # the inverse iteration runs on split 1x1 blocks, some of them equal.
        lambda: SymMatrix(tuple(
            tuple(v if j == i else 0 for j in range(7))
            for i, v in enumerate((3, 1, 3, 3, 1, 2, 3))
        )),
        lambda: SymMatrix(tuple((1,) * 20 for _ in range(20))),
        lambda: block_diagonal(random.Random(805), (4, 1, 5))[1],
        lambda: build_named_matrix(
            "power-gcd", random.Random(0).sample(range(1, 3000), 100), alpha=1.5
        ).matrix,
    ],
    ids=["2x2", "repeated-diagonal", "ones-20", "block-diagonal", "gcd-100"],
)
def test_eigen_residual_small_and_repeatable(make):
    m = make()
    big = max(abs(float(m.entry(i, j))) for i in range(m.n) for j in range(m.n))
    spec = eigen_sym(m)
    assert spec.residual <= 1e-12 * big
    # The inverse iteration starts from a fixed vector: no run-to-run drift.
    assert eigen_sym(m) == spec


def test_eigen_all_ones_matrix():
    n = 20
    spec = eigen_sym(SymMatrix(tuple((1,) * n for _ in range(n))))
    assert all(abs(lam) <= 1e-12 * n for lam in spec.eigenvalues[:-1])
    assert abs(spec.eigenvalues[-1] - n) <= 1e-12 * n
    assert spec.residual <= 1e-12


def test_eigen_random_larger_matrices():
    rng = random.Random(806)
    for n in (30, 41, 52, 60):
        m = random_sym_float(rng, n)
        big = max(abs(m.entry(i, j)) for i in range(n) for j in range(n))
        spec = eigen_sym(m)
        assert len(spec.eigenvalues) == n
        assert spec.eigenvalues == tuple(sorted(spec.eigenvalues))
        assert abs(sum(spec.eigenvalues) - m.trace()) <= 1e-12 * n * big
        det = det_general(m)
        assert abs(math.prod(spec.eigenvalues) - det) <= 1e-10 * abs(det)
        assert spec.residual <= 1e-12 * big


def largest_entry(m):
    return max(abs(float(m.entry(i, j))) for i in range(m.n) for j in range(m.n))


def gcd_float_100():
    members = random.Random(0).sample(range(1, 3000), 100)
    return build_named_matrix("power-gcd", members, alpha=1.5).matrix


def _perturb_reflector(d, e, reflectors):
    lo, v, h = reflectors[len(reflectors) // 2]
    v = v[:]
    v[1] += 1e-6 * max(map(abs, v))
    reflectors[len(reflectors) // 2] = (lo, v, h)


def _perturb_d(d, e, reflectors):
    d[len(d) // 2] += 1e-6


def _perturb_e(d, e, reflectors):
    e[len(e) // 2] += 1e-6


def _drop_reflector(d, e, reflectors):
    del reflectors[len(reflectors) // 2]


@pytest.mark.parametrize(
    "fault",
    [_perturb_reflector, _perturb_d, _perturb_e, _drop_reflector],
    ids=["reflector", "d", "e", "dropped-reflector"],
)
def test_eigen_residual_flags_a_faulty_reduction(monkeypatch, fault):
    # A fault of 1e-6 of the normalized matrix in one reflector, one
    # tridiagonal entry, or a reflector left out, must push the residual
    # past the 1e-8 relative tolerance that the bench checks replies by.
    m = gcd_float_100()
    big = largest_entry(m)
    assert eigen_sym(m).residual <= 1e-12 * big
    real = spectral._tridiagonalize

    def faulty(a):
        d, e, reflectors = real(a)
        fault(d, e, reflectors)
        return d, e, reflectors

    monkeypatch.setattr(spectral, "_tridiagonalize", faulty)
    assert eigen_sym(m).residual > 1e-8 * big


def bench_shaped_matrices():
    """The matrices behind the seed-0 bench ``bounds`` requests, as built by
    the library, in their given order."""
    rng = random.Random(0)
    for _ in range(12):
        members = rng.sample(range(1, 3000), 100)
        yield build_named_matrix("power-gcd", members, alpha=1.5).matrix
    rng = random.Random(0)
    for _ in range(8):
        yield build_named_matrix("power-gcd", rng.sample(range(1, 3000), 80)).matrix
    for modulus in (2520, 5040, 7560, 10080):
        members = [k for k in range(1, modulus + 1) if modulus % k == 0]
        for family in ("power-gcd", "reciprocal-power-lcm"):
            yield build_named_matrix(family, members).matrix


def test_eigen_residual_matches_the_full_input_residual():
    # The full residual max |A v - lambda v| over the eigenvectors of the
    # input, and the O(n^2) checks reported instead, are both at rounding
    # level on every bench-shaped matrix.
    for m in bench_shaped_matrices():
        big = largest_entry(m)
        assert input_residual(m) <= 1e-12 * big
        assert eigen_sym(m).residual <= 1e-12 * big


def well_conditioned(rng, n):
    rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    return [[(rows[i][j] + rows[j][i]) / 2 + (2 * n if i == j else 0)
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("power", [996, -996])
def test_eigen_residual_at_the_ends_of_the_float_range(power):
    # Scaling by a power of two is exact, so the eigenvalues scale exactly;
    # the checks run on the normalized matrix, so no square overflows or
    # underflows.
    rows = well_conditioned(random.Random(807), 12)
    base = eigen_sym(SymMatrix(tuple(map(tuple, rows))))
    factor = 2.0 ** power
    m = SymMatrix(tuple(tuple(v * factor for v in row) for row in rows))
    spec = eigen_sym(m)
    assert spec.eigenvalues == tuple(lam * factor for lam in base.eigenvalues)
    assert math.isfinite(spec.residual)
    assert spec.residual <= 1e-12 * largest_entry(m)
    assert eigen_sym(m) == spec


def test_eigen_residual_without_a_reduction():
    assert eigen_sym(SymMatrix(((5.0,),))).residual == 0.0
    assert eigen_sym(SymMatrix(((0.0,) * 3,) * 3)).residual == 0.0
    # n = 2 is tridiagonal already: there is no reflector.
    spec = eigen_sym(SymMatrix(((1e300, -3e299), (-3e299, 2e-300))))
    assert math.isfinite(spec.residual)
    assert spec.residual <= 1e-12 * 1e300


def test_reindex_sorts_by_value():
    p = total_order_poset((1, 2, 3, 4))
    f = PosetFunction(p, (1, 2, 3, 4))
    s = Subset.whole(p)
    relisted, perm = reindex_monotone(s, f, "increasing")
    assert perm == (0, 1, 2, 3)
    assert relisted.labels == (1, 2, 3, 4)
    vals = [f.values[m] for m in relisted.members]
    assert vals == sorted(vals)


def test_reindex_breaks_ties_stably():
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (1, 1, 2))
    _, perm = reindex_monotone(Subset.whole(p), f, "increasing")
    assert perm == (0, 1, 2)


def test_reindex_rejects_nonmonotone():
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (2, 1, 3))
    with pytest.raises(MonotonicityError):
        reindex_monotone(Subset.whole(p), f, "increasing")
    with pytest.raises(ValueError):
        reindex_monotone(Subset.whole(p), f, "sideways")


def test_min_matrix_bounds_hold():
    model = build_named_matrix("min", [1, 2, 3, 4, 5])
    report = meet_bounds(model.subset, model.function)
    assert report.verified
    assert report.upper == (1.0, 4.0, 9.0, 16.0, 25.0)
    spec = eigen_sym(model.matrix)
    assert all(row["ok"] for row in report.table(spec))
    assert report.lower_ok(spec)
    assert report.lower_max == 5.0


def test_join_bounds_descending_reindex():
    # order-reversing f on a chain: largest value bounds come from the bottom
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (6, 3, 2))
    s = Subset.whole(p)
    report = join_bounds(s, f)
    assert report.verified
    assert report.reindex_permutation == (0, 1, 2)
    assert report.upper == (2.0, 6.0, 18.0)
    assert report.lower_max == 6.0
    spec = eigen_sym(join_matrix(s, f))
    assert all(row["ok"] for row in report.table(spec))
    assert report.lower_ok(spec)


def test_bounds_randomized_meet():
    rng = random.Random(802)
    done = 0
    while done < 80:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_monotone_function(rng, p, strict=False, positive=True)
        try:
            report = meet_bounds(s, f)
        except Exception:
            continue
        if not report.verified:
            continue
        spec = eigen_sym(meet_matrix(report.subset, f))
        assert all(row["ok"] for row in report.table(spec))
        assert report.lower_ok(spec)
        done += 1


def test_bounds_randomized_join():
    rng = random.Random(803)
    done = 0
    while done < 80:
        p = random_poset(rng)
        s = random_subset(rng, p)
        f = random_monotone_function(rng, p, strict=False, positive=True, reverse=True)
        try:
            report = join_bounds(s, f)
        except Exception:
            continue
        if not report.verified:
            continue
        spec = eigen_sym(join_matrix(report.subset, f))
        assert all(row["ok"] for row in report.table(spec))
        assert report.lower_ok(spec)
        done += 1


def test_bounds_report_unverified_when_hypotheses_fail():
    p = total_order_poset((1, 2, 3))
    f = PosetFunction(p, (2, 1, 3))
    report = meet_bounds(Subset.whole(p), f)
    assert not report.verified
    assert report.hypotheses_ok["monotone_on_closure"] is False
    # value order clashes with the chain order, so the listing is kept
    assert report.hypotheses_ok["index_monotone"] is False
    assert report.reindex_permutation == (0, 1, 2)
    with pytest.raises(HypothesisError):
        meet_bounds(Subset.whole(p), f, strict=True)


def test_bounds_flags_negative_values():
    p = total_order_poset((1, 2))
    f = PosetFunction(p, (-1, 2))
    report = meet_bounds(Subset.whole(p), f)
    assert report.hypotheses_ok["nonnegative"] is False
    assert report.hypotheses_ok["monotone_on_closure"] is True


def test_quadratic_form_support_rules():
    m = SymMatrix(((2, 1, 0), (1, 2, 1), (0, 1, 2)))
    assert quadratic_form_check(m, [1, 0, 0], 1, "meet") == 2.0
    assert quadratic_form_check(m, [0, 0, 1], 1, "join") == 2.0
    assert quadratic_form_check(m, [1, 1, 0], 2, "meet") == 6.0
    with pytest.raises(SupportError):
        quadratic_form_check(m, [0, 1, 0], 1, "meet")
    with pytest.raises(SupportError):
        quadratic_form_check(m, [0, 1, 0], 1, "join")
    with pytest.raises(SupportError):
        quadratic_form_check(m, [0, 0, 0], 2, "meet")
    with pytest.raises(ValueError):
        quadratic_form_check(m, [1, 0], 1, "meet")
    with pytest.raises(ValueError):
        quadratic_form_check(m, [1, 0, 0], 4, "meet")
    with pytest.raises(ValueError):
        quadratic_form_check(m, [1, 0, 0], 1, "diag")


def test_quadratic_form_witnesses_bound():
    # Rayleigh quotients on the admissible subspace stay below k * f(x_k)
    rng = random.Random(804)
    model = build_named_matrix("min", [1, 2, 3, 4])
    report = meet_bounds(model.subset, model.function)
    for _ in range(40):
        k = rng.randint(1, 4)
        y = [random_rational(rng) if i < k else Fraction(0) for i in range(4)]
        if all(v == 0 for v in y):
            continue
        value = quadratic_form_check(model.matrix, y, k, "meet")
        norm = sum(float(v) * float(v) for v in y)
        assert value / norm <= report.upper[k - 1] + 1e-9
