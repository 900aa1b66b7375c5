import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import assert_canonical_rows
from sympcoh import linalg
from sympcoh.linalg import (
    ContainmentError,
    DimensionMismatch,
    RationalMatrix,
    Subspace,
    column_space,
    concat_cols,
    induced_map_rank,
    kernel,
    rank,
    stack_rows,
)

F = Fraction


def naive_row_reduction(rows):
    """Independent plain Gaussian elimination oracle: (rank, reduced rows)."""
    work = [[F(x) for x in row] for row in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r, work


def naive_kernel_vectors(rows, cols):
    """Kernel basis from the oracle reduction, unnormalized."""
    r, work = naive_row_reduction(rows)
    pivots = []
    for i in range(r):
        pivots.append(next(c for c in range(cols) if work[i][c] != 0))
    free = [c for c in range(cols) if c not in pivots]
    out = []
    for f in free:
        vec = [F(0)] * cols
        vec[f] = F(1)
        for i, p in enumerate(pivots):
            vec[p] = -work[i][f]
        out.append(vec)
    return out


# --- sparse storage -------------------------------------------------------


def test_dense_and_sparse_constructors_agree():
    dense = [[0, F(1, 2), 7], [0, 0, 0], [-3, 0, F(0)]]
    sparse = [{2: 7, 1: F(1, 2)}, {}, {2: 0, 0: -3}]  # keys in another order
    a = RationalMatrix(dense)
    b = RationalMatrix.from_rows(sparse, 3, 3)
    assert a == b and hash(a) == hash(b)
    assert a.row_maps == ({1: F(1, 2), 2: F(7)}, {}, {0: F(-3)})
    assert RationalMatrix.from_rows([{0: 1}], 1, 2) != RationalMatrix.from_rows([{1: 1}], 1, 2)


def test_zero_cells_are_never_stored():
    m = RationalMatrix([[0, F(0), 1], [F(0), 0, 0]])
    assert m.row_maps == ({2: F(1)}, {})
    assert all(type(x) is F for row in m.row_maps for x in row.values())
    s = RationalMatrix.from_rows([{0: F(0), 1: 0, 2: F(5)}, {1: F(0)}], 2, 3)
    assert s.row_maps == ({2: F(5)}, {})
    assert RationalMatrix.zero(3, 4).row_maps == ({}, {}, {})
    assert (RationalMatrix([[1, 1]]) @ RationalMatrix([[1], [-1]])).row_maps == ({},)
    a, b = RationalMatrix([[1, F(1, 2)], [0, 3]]), RationalMatrix([[1, 0], [-2, 3]])
    assert (a - b).row_maps == ({1: F(1, 2)}, {0: F(2)})
    assert (a - a).is_zero() and (a - a).row_maps == ({}, {})
    with pytest.raises(DimensionMismatch):
        a - RationalMatrix.zero(2, 3)


def test_entries_round_trip_including_empty_shapes():
    rng = random.Random(41)
    dense = [[F(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
              for _ in range(7)] for _ in range(5)]
    m = RationalMatrix(dense)
    assert m.entries == tuple(tuple(row) for row in dense)
    assert RationalMatrix(m.entries) == m
    for rows, cols in ((0, 4), (4, 0), (0, 0)):
        z = RationalMatrix.zero(rows, cols)
        assert z.entries == tuple(() if cols == 0 else (F(0),) * cols for _ in range(rows))
        assert RationalMatrix(z.entries, rows=rows, cols=cols) == z
        assert RationalMatrix.from_rows([{}] * rows, rows, cols) == z


def test_sparse_constructor_checks_shapes():
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_rows([{3: 1}], 1, 3)
    with pytest.raises(DimensionMismatch):
        RationalMatrix.from_rows([{}], 2, 3)
    with pytest.raises(DimensionMismatch):
        RationalMatrix([[1, 2], [3]])


# --- integer rows over one denominator ---------------------------------------


def assert_lowest_terms(m):
    """nums holds nonzero plain ints only, den > 0 and gcd(den, every entry) = 1."""
    values = [x for row in m.nums for x in row.values()]
    assert all(type(x) is int and x for x in values), m.nums
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *values) == 1, (m.nums, m.den)


def test_every_constructor_and_operation_keeps_lowest_terms():
    a = RationalMatrix([[F(1, 2), F(1, 3)], [0, F(5, 6)]])
    assert a.nums == ({0: 3, 1: 2}, {1: 5}) and a.den == 6
    b = RationalMatrix.from_rows([{0: F(3, 4)}, {1: F(-1, 4)}], 2, 2)
    assert b.nums == ({0: 3}, {1: -1}) and b.den == 4
    half, two = RationalMatrix([[F(1, 2)]]), RationalMatrix([[2]])
    results = [
        a, b, a @ b, a - b, a.transpose(), stack_rows(a, b), concat_cols(a, b),
        half @ two,  # the denominators cancel
        RationalMatrix([[F(3, 4)]]) - RationalMatrix([[F(1, 4)]]),  # 1/2
        RationalMatrix.from_rows([{0: 2}, {1: 4}], 2, 2, den=6),  # (1, 2) / 3
        stack_rows(a, RationalMatrix.zero(1, 2)), concat_cols(RationalMatrix.zero(2, 1), b),
    ]
    for m in results:
        assert_lowest_terms(m)
    assert (half @ two).nums == ({0: 1},) and (half @ two).den == 1
    assert results[8].den == 2 and results[9].nums == ({0: 1}, {1: 2}) and results[9].den == 3
    assert (a @ b).den == 24 and (a - b).den == 12
    assert stack_rows(a, b).den == concat_cols(a, b).den == 12
    assert a.transpose().den == 6
    # zero matrices of every shape, and results that vanish, have den 1
    zeros = [RationalMatrix.zero(r, c) for r, c in ((0, 0), (0, 3), (3, 0), (2, 2))]
    zeros += [
        RationalMatrix([]), RationalMatrix([[0, F(0)]]), a - a, RationalMatrix.zero(0, 2) @ a,
        RationalMatrix.from_rows([{}, {1: 0}], 2, 2, den=7),
        stack_rows(RationalMatrix.zero(0, 2), RationalMatrix.zero(1, 2)),
    ]
    for z in zeros:
        assert_lowest_terms(z)
        assert z.den == 1 and z.is_zero()


def test_scalings_and_routes_give_equal_matrices():
    # [1/2, 1] built seven ways
    target = RationalMatrix([[F(1, 2), 1]])
    routes = [
        RationalMatrix.from_rows([{0: F(1, 2), 1: 1}], 1, 2),
        RationalMatrix.from_rows([{0: 1, 1: 2}], 1, 2, den=2),
        RationalMatrix.from_rows([{0: 3, 1: 6}], 1, 2, den=6),
        RationalMatrix([[F(2, 4), F(3, 3)]]),
        RationalMatrix([[F(1, 2)]]) @ RationalMatrix([[1, 2]]),
        RationalMatrix([[1, 3]]) - RationalMatrix([[F(1, 2), 2]]),
        RationalMatrix([[F(1, 2)], [1]]).transpose(),
    ]
    for m in routes:
        assert m == target and hash(m) == hash(target)
        assert m.nums == ({0: 1, 1: 2},) and m.den == 2
    assert RationalMatrix.from_rows([{0: 1}], 1, 1, den=2) != RationalMatrix([[1]])
    with pytest.raises(ValueError, match="positive"):
        RationalMatrix.from_rows([{0: 1}], 1, 1, den=0)


def test_row_maps_is_the_fraction_view_of_nums():
    rng = random.Random(43)
    for _ in range(20):
        dense = [[F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.4 else F(0)
                  for _ in range(6)] for _ in range(4)]
        m = RationalMatrix(dense)
        assert_lowest_terms(m)
        # the rows as the dense constructor used to store them
        assert m.row_maps == tuple({j: x for j, x in enumerate(row) if x} for row in dense)
        assert all(type(x) is F for row in m.row_maps for x in row.values())
        assert m.row_maps == tuple(
            {j: F(x, m.den) for j, x in row.items()} for row in m.nums
        )


def test_subspace_from_dense_vectors_equals_subspace_from_row_maps():
    dense = [[0, 2, 0, 4], [1, 0, 0, 0], [1, 2, 0, 4], [0, 0, 0, 0]]
    maps = [{3: F(4), 1: 2}, {2: 0, 0: F(1)}, {3: 4, 1: 2, 0: 1}, {}]
    a, b = Subspace(4, dense), Subspace(4, maps)
    assert a == b and hash(a) == hash(b)
    assert a.row_maps == ({0: F(1)}, {1: F(1), 3: F(2)})
    assert a.pivots == (0, 1)
    assert a.basis == ((1, 0, 0, 0), (0, 1, 0, 2))
    with pytest.raises(DimensionMismatch):
        Subspace(4, [{4: 1}])


def test_every_subspace_route_stores_canonical_integer_rows():
    rng = random.Random(47)
    for _ in range(20):
        dense = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(6)]
                 for _ in range(rng.randint(1, 4))]
        other = [[rng.randint(-6, 6) for _ in range(6)] for _ in range(2)]
        a, b = Subspace(6, dense), Subspace(6, other)
        m = RationalMatrix([[F(x, rng.randint(1, 5)) for x in row] for row in dense])
        for s in (a, b, Subspace(6, [{j: x for j, x in enumerate(r) if x} for r in dense]),
                  Subspace(6, [[F(x, 3) for x in row] for row in dense]), kernel(m),
                  a.intersect(b), a.sum(b), Subspace.full(6), Subspace.zero(6),
                  column_space(m), Subspace(6, [[0] * 6])):
            assert_canonical_rows(s)


def test_scalings_and_routes_give_equal_subspaces():
    # the line spanned by (0, 2, -3)
    target = Subspace(3, [[0, 2, -3]])
    routes = [
        Subspace(3, [[0, -4, 6]]),
        Subspace(3, [[0, F(1, 3), F(-1, 2)], [0, 0, 0]]),
        Subspace(3, [{1: F(-2, 7), 2: F(3, 7)}]),
        kernel(RationalMatrix([[1, 0, 0], [0, F(3, 2), 1]])),
        Subspace(3, [[1, 2, -3], [0, 2, -3]]).intersect(Subspace(3, [[0, 1, F(-3, 2)]])),
        column_space(RationalMatrix([[0, 0], [2, F(-2, 5)], [-3, F(3, 5)]])),
        Subspace.zero(3).sum(Subspace(3, [[0, 6, -9]])),
    ]
    for s in routes:
        assert s == target and hash(s) == hash(target)
        assert s.nums == ({1: 2, 2: -3},) and s.pivots == (1,)
    assert Subspace.full(3) == Subspace(3, [[2, 0, 0], [1, 3, 0], [0, 1, -1]])
    assert hash(Subspace.full(3)) == hash(Subspace(3, [[2, 0, 0], [1, 3, 0], [0, 1, -1]]))


def test_subspace_row_maps_is_the_fraction_view_of_nums():
    s = Subspace(4, [[0, 3, 1, 0], [2, 0, 0, 5]])
    assert s.nums == ({0: 2, 3: 5}, {1: 3, 2: 1})
    assert s.row_maps == ({0: F(1), 3: F(5, 2)}, {1: F(1), 2: F(1, 3)})
    assert all(type(x) is F for row in s.row_maps for x in row.values())
    assert s.basis == ((1, 0, 0, F(5, 2)), (0, 1, F(1, 3), 0))
    rng = random.Random(53)
    for _ in range(20):
        s = Subspace(5, [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)])
        assert s.row_maps == tuple(
            {j: F(x, row[c]) for j, x in row.items()} for c, row in zip(s.pivots, s.nums)
        )
        assert all(row[c] == 1 for c, row in zip(s.pivots, s.row_maps))


# --- inverse --------------------------------------------------------------


def test_inverse_by_elimination():
    m = RationalMatrix([[0, 2, 0], [F(1, 3), 0, 1], [0, 0, -1]])
    inv = m.inverse()
    assert m @ inv == RationalMatrix.identity(3) == inv @ m
    assert RationalMatrix.zero(0, 0).inverse() == RationalMatrix.zero(0, 0)
    with pytest.raises(ValueError, match="matrix is singular"):
        RationalMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError, match="matrix is singular"):
        RationalMatrix.zero(2, 2).inverse()
    with pytest.raises(DimensionMismatch):
        RationalMatrix.zero(2, 3).inverse()


# --- the elimination core -------------------------------------------------


def _reference_primitive(row):
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()}


def _reference_combine(a, row, b, pivot_row):
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * row.get(j, 0) - b * pivot_row.get(j, 0) for j in {*row, *pivot_row}}
    return _reference_primitive({j: x for j, x in out.items() if x})


def reference_rref(rows):
    """The former elimination: rows reduced in the order given, never swapped,
    then each pivot column cleared from every row above it, asking each row
    whether it holds that column (O(r^2) lookups)."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            row = _reference_combine(p[c], row, row[c], p)
    cols = sorted(pivots)
    for k in range(len(cols) - 1, 0, -1):
        c = cols[k]
        p = pivots[c]
        for above in cols[:k]:
            row = pivots[above]
            b = row.get(c)
            if b:
                pivots[above] = _reference_combine(p[c], row, b, p)
    out = []
    for c in cols:
        row = _reference_primitive(pivots[c])
        out.append(row if row[c] > 0 else {j: -x for j, x in row.items()})
    return tuple(cols), tuple(out)


def sparse_int_rows(rng, rows, cols):
    """Sparse integer row maps with unit and non-unit entries, zero rows,
    duplicate rows and rows combined from earlier ones (rank deficient)."""
    out = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.1 or not cols:
            out.append({})
        elif kind < 0.2 and out:
            out.append(dict(rng.choice(out)))
        elif kind < 0.35 and len(out) > 1:
            a, b = rng.sample(out, 2)
            s, t = rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))
            row = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in {*a, *b}}
            out.append({j: x for j, x in row.items() if x})
        else:
            out.append({j: rng.choice((-6, -3, -2, -1, 1, 1, 2, 4, 5))
                        for j in range(cols) if rng.random() < 0.35})
    return out


SHAPES = [(0, 4), (3, 0), (1, 1), (3, 9), (9, 3), (6, 6), (12, 5), (5, 12), (10, 10)]


def test_rref_matches_the_former_back_substitution():
    rng = random.Random(2027)
    for rows, cols in SHAPES:
        for _ in range(12):
            m = sparse_int_rows(rng, rows, cols)
            assert linalg._rref(m) == reference_rref(m), m


def test_rref_rank_and_kernel_ignore_row_order_and_positive_scales():
    rng = random.Random(1990)
    for rows, cols in [(4, 6), (5, 5), (5, 3), (3, 7)]:
        for _ in range(6):
            m = sparse_int_rows(rng, rows, cols)
            expected = reference_rref(m)
            r = rank(RationalMatrix.from_rows(m, rows, cols))
            k = kernel(RationalMatrix.from_rows(m, rows, cols))
            for order in itertools.permutations(m):
                scaled = [{j: c * x for j, x in row.items()}
                          for row, c in zip(order, (rng.randint(1, 5) for _ in order))]
                for perm in (list(order), scaled):
                    assert linalg._rref(perm) == expected, perm
                    matrix = RationalMatrix.from_rows(perm, rows, cols)
                    assert rank(matrix) == r == len(expected[0])
                    assert kernel(matrix) == k


def test_rank_passes_its_rows_to_echelon_sparsest_first(monkeypatch):
    calls = []

    def recording_echelon(rows):
        rows = list(rows)
        calls.append(rows)
        return original(rows)

    original = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", recording_echelon)
    m = RationalMatrix([[3, 1, 2, 0], [0, 0, 0, 0], [1, 0, 0, 5], [0, 0, 2, 0], [0, 1, 0, 1]])
    assert rank(m) == 4
    assert calls == [[m.nums[1], m.nums[3], m.nums[2], m.nums[4], m.nums[0]]]


@pytest.mark.parametrize("unit", (1, -1))
def test_a_unit_lead_row_takes_over_a_non_unit_pivot(monkeypatch, unit):
    combined = []

    def recording_combine(a, row, b, pivot_row):
        combined.append((a, row, b, pivot_row))
        return original(a, row, b, pivot_row)

    original = linalg._combine
    monkeypatch.setattr(linalg, "_combine", recording_combine)
    first, second = {0: 2, 1: 1}, {0: unit, 2: 3}
    pivots = linalg._echelon([first, second])
    assert pivots[0] is second
    # the displaced row is reduced against the unit row and pivots at column 1
    assert combined == [(unit, first, 2, second)]
    assert sorted(pivots) == [0, 1]
    assert pivots[1] in ({1: 1, 2: -6 * unit}, {1: -1, 2: 6 * unit})
    # the rank is that of the former elimination, which kept the first pivot
    m = RationalMatrix([[2, 1, 0], [unit, 0, 3], [0, 2, -12 * unit]])
    assert rank(m) == len(reference_rref(m.nums)[0]) == 2


# --- rank -----------------------------------------------------------------


def test_rank_identity():
    assert rank(RationalMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(RationalMatrix.zero(2, 4)) == 0


def test_rank_kodaira_one_forms():
    # direct enumeration of generator images for (0,0,0,23): only de^4 = e^23
    # is nonzero.  Rows are the 2-form basis 12,13,14,23,24,34.
    cols = {
        1: [0, 0, 0, 0, 0, 0],
        2: [0, 0, 0, 0, 0, 0],
        3: [0, 0, 0, 0, 0, 0],
        4: [0, 0, 0, 1, 0, 0],
    }
    m = RationalMatrix([[cols[j][i] for j in (1, 2, 3, 4)] for i in range(6)])
    assert rank(m) == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(20):
        m = RationalMatrix(
            [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)] for _ in range(4)]
        )
        assert rank(m) == rank(m.transpose())


def test_rank_agrees_with_naive_oracle():
    rng = random.Random(20240917)
    for _ in range(25):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        m = RationalMatrix(rows)
        oracle_rank, _ = naive_row_reduction(rows)
        assert rank(m) == oracle_rank


# --- kernel ---------------------------------------------------------------


def test_kernel_of_zero_map_is_everything():
    k = kernel(RationalMatrix.zero(3, 4))
    assert k.dim == 4
    assert k == Subspace.full(4)


def test_kernel_of_identity_is_trivial():
    assert kernel(RationalMatrix.identity(3)).dim == 0


def test_kernel_kodaira_two_forms():
    # d on the 2-form basis 12,13,14,23,24,34 of (0,0,0,23), by hand:
    # only d(e^14) = -e^123 is nonzero.  Rows are 123,124,134,234.
    columns = {
        "12": [0, 0, 0, 0],
        "13": [0, 0, 0, 0],
        "14": [-1, 0, 0, 0],
        "23": [0, 0, 0, 0],
        "24": [0, 0, 0, 0],
        "34": [0, 0, 0, 0],
    }
    order = ["12", "13", "14", "23", "24", "34"]
    m = RationalMatrix([[columns[c][i] for c in order] for i in range(4)])
    ker = kernel(m)
    assert ker.dim == 5
    # e^14 (index 2) is the one non-closed direction
    assert not ker.contains(Subspace(6, [[0, 0, 1, 0, 0, 0]]))
    for idx in (0, 1, 3, 4, 5):
        vec = [F(0)] * 6
        vec[idx] = F(1)
        assert ker.contains(Subspace(6, [vec]))


def test_kernel_dimension_formula_and_normalization():
    rng = random.Random(5)
    for _ in range(15):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        m = RationalMatrix(rows)
        ker = kernel(m)
        assert ker.dim == m.cols - rank(m)
        for v in ker.basis:
            lead = next(x for x in v if x != 0)
            assert lead == 1
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_kernel_span_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(15):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        m = RationalMatrix(rows)
        ker = kernel(m)
        oracle = naive_kernel_vectors(rows, 6)
        assert ker.dim == len(oracle)
        for v in oracle:
            assert ker.contains(Subspace(6, [v]))


# --- subspaces ------------------------------------------------------------


def test_subspace_independent_of_input_order_and_scale():
    vecs = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
    a = Subspace(4, vecs)
    b = Subspace(4, [[2, 6, 2, 2], [0, -3, -3, 0], [1, 2, 0, 1]])
    assert a == b
    assert a.dim == 2  # third vector is the sum of the first two


def test_intersect_trivial_cases():
    x = Subspace(3, [[1, 0, 0]])
    y = Subspace(3, [[0, 1, 0]])
    assert x.intersect(x) == x
    assert x.intersect(y).dim == 0


def test_sum_trivial_cases():
    x = Subspace(3, [[1, 0, 0]])
    zero = Subspace.zero(3)
    assert x.sum(zero) == x
    y = Subspace(3, [[0, 1, 0]])
    assert x.sum(y).dim == 2


def test_intersection_sum_dimension_formula():
    rng = random.Random(11)
    for _ in range(20):
        a = Subspace(5, [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)])
        b = Subspace(5, [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)])
        inter = a.intersect(b)
        total = a.sum(b)
        assert inter.dim + total.dim == a.dim + b.dim
        assert a.contains(inter) and b.contains(inter)
        assert total.contains(a) and total.contains(b)


def test_operations_independent_of_spanning_order():
    rng = random.Random(23)
    for _ in range(10):
        vecs_a = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        vecs_b = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        a1, a2 = Subspace(5, vecs_a), Subspace(5, list(reversed(vecs_a)))
        b1, b2 = Subspace(5, vecs_b), Subspace(5, list(reversed(vecs_b)))
        assert a1.intersect(b1) == a2.intersect(b2)
        assert a1.sum(b1) == a2.sum(b2)


def test_ambient_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[1, 0, 0]]).intersect(Subspace(4, [[1, 0, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[1, 0, 0]]).sum(Subspace(2, [[1, 0]]))


# --- induced maps ---------------------------------------------------------


def test_induced_identity_is_bijective():
    v = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    w = Subspace(3, [[1, 1, 0]])
    res = induced_map_rank(RationalMatrix.identity(3), v, w, v, w)
    assert res.rank == 1 and res.injective and res.surjective


def test_induced_zero_map():
    v = Subspace(2, [[1, 0], [0, 1]])
    zero = Subspace.zero(2)
    res = induced_map_rank(RationalMatrix.zero(2, 2), v, zero, v, zero)
    assert res.rank == 0 and not res.injective and not res.surjective


def test_induced_map_checks_containments():
    v = Subspace(2, [[1, 0]])
    w = Subspace(2, [[0, 1]])
    with pytest.raises(ContainmentError):
        induced_map_rank(RationalMatrix.identity(2), v, w, v, Subspace.zero(2))
    # f(V1) escaping V2
    f = RationalMatrix([[0, 0], [1, 0]])
    with pytest.raises(ContainmentError):
        induced_map_rank(f, v, Subspace.zero(2), v, Subspace.zero(2))


@pytest.mark.parametrize("message, f, v1, w1, v2, w2", [
    ("W1 is not contained in V1", [[1, 0], [0, 1]], [[1, 0]], [[0, 1]], [[1, 0], [0, 1]], []),
    ("W2 is not contained in V2", [[1, 0], [0, 1]], [[1, 0]], [], [[1, 0]], [[0, 1]]),
    ("f does not map V1 into V2", [[0, 0], [1, 0]], [[1, 0]], [], [[1, 0]], []),
    ("f does not map W1 into W2", [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0]],
     [[1, 0], [0, 1]], []),
])
def test_induced_map_names_each_failed_inclusion(message, f, v1, w1, v2, w2):
    spaces = [Subspace(2, rows) for rows in (v1, w1, v2, w2)]
    with pytest.raises(ContainmentError, match=f"^{message}$"):
        induced_map_rank(RationalMatrix(f), *spaces)


def test_induced_map_rank_reduces_the_images_against_leading_w2_rows(monkeypatch):
    calls = []

    def recording_echelon(rows):
        rows = list(rows)
        calls.append(tuple(rows))
        return original(rows)

    original = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", recording_echelon)
    v1 = Subspace.full(3)
    w2 = Subspace(3, [[1, 0, 0], [0, 1, 1]])
    f = RationalMatrix([[2, 0, 1], [0, 1, 0], [0, 1, 1]])
    res = induced_map_rank(f, v1, Subspace(3, [[1, 0, 0]]), Subspace.full(3), w2)
    assert res.rank == 1 and not res.injective and res.surjective
    last = calls[-1]
    assert last[:w2.dim] == w2.nums
    images = [{j: x for j, x in enumerate(f.column(i)) if x} for i in range(3)]
    assert list(last[w2.dim:]) == images


def test_column_space():
    m = RationalMatrix([[1, 2], [0, 0], [1, 2]])
    cs = column_space(m)
    assert cs.dim == 1
    assert cs.contains(Subspace(3, [[1, 0, 1]]))
