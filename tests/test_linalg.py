import random
from fractions import Fraction

import pytest

from sympcoh import linalg
from sympcoh.linalg import (
    ContainmentError,
    DimensionMismatch,
    RationalMatrix,
    Subspace,
    column_space,
    induced_map_rank,
    kernel,
    matvec,
    rank,
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
            assert all(x == 0 for x in matvec(m, v))


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

    def recording_rank(row_maps):
        calls.append(tuple(row_maps))
        return original(row_maps)

    original = linalg._rank
    monkeypatch.setattr(linalg, "_rank", recording_rank)
    v1 = Subspace.full(3)
    w2 = Subspace(3, [[1, 0, 0], [0, 1, 1]])
    f = RationalMatrix([[2, 0, 1], [0, 1, 0], [0, 1, 1]])
    res = induced_map_rank(f, v1, Subspace(3, [[1, 0, 0]]), Subspace.full(3), w2)
    assert res.rank == 1 and not res.injective and res.surjective
    last = calls[-1]
    assert last[:w2.dim] == w2.row_maps
    images = [{j: x for j, x in enumerate(f.column(i)) if x} for i in range(3)]
    assert list(last[w2.dim:]) == images


def test_column_space():
    m = RationalMatrix([[1, 2], [0, 0], [1, 2]])
    cs = column_space(m)
    assert cs.dim == 1
    assert cs.contains(Subspace(3, [[1, 0, 1]]))
