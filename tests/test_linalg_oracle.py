"""The elimination kernel against sympy's DomainMatrix over QQ.

sympy is not a dependency of sympcoh; without it this module is skipped.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from sympcoh.linalg import (
    RationalMatrix,
    Subspace,
    concat_cols,
    int_det,
    kernel,
    rank,
    stack_rows,
)

QQ = pytest.importorskip("sympy").QQ
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
F = Fraction
KINDS = ("sparse", "degenerate", "big_denominators", "low_rank")
CASES = 200


def _low_rank(rng, rows, cols, k):
    """A product of random integer rows x k and k x cols matrices: rank <= k."""
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
    if k == 0:
        return [[F(0)] * cols for _ in range(rows)]
    return [[F(sum(a * b for a, b in zip(row, col))) for col in zip(*right)] for row in left]


def _sparse(rng, rows, cols):
    """At most 10% of the entries nonzero."""
    m = [[F(0)] * cols for _ in range(rows)]
    for cell in rng.sample(range(rows * cols), rng.randint(0, rows * cols // 10)):
        m[cell // cols][cell % cols] = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return m


def _degenerate(rng, rows, cols):
    """Low rank, then zero rows, zero columns and repeated (scaled) rows."""
    k = rng.randint(0, min(rows, cols, 6))
    m = _low_rank(rng, rows, cols, k)
    for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
        m[i] = [F(0)] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
        for row in m:
            row[j] = F(0)
    for _ in range(rng.randint(0, rows)):
        src, dst = rng.randrange(rows), rng.randrange(rows)
        scale = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        m[dst] = [x * scale for x in m[src]]
    return m


def _big_denominators(rng, rows, cols):
    """Negative entries with denominators up to 10^6, a third of them zero."""
    rows, cols = min(rows, 12), min(cols, 16)
    m = [
        [-F(rng.randint(1, 10**6), rng.randint(1, 10**6)) if rng.random() < 0.67 else F(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 1 and rng.random() < 0.5:  # a dependent row: a negative combination
        a, b = F(-rng.randint(1, 10**6), rng.randint(1, 10**6)), F(-1, rng.randint(1, 10**6))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def _matrix(seed):
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    # the first case of each kind has the largest size
    rows, cols = (40, 60) if seed < len(KINDS) else (rng.randint(1, 40), rng.randint(1, 60))
    return _generate(rng, kind, rows, cols)


def _generate(rng, kind, rows, cols):
    if kind == "sparse":
        return _sparse(rng, rows, cols)
    if kind == "degenerate":
        return _degenerate(rng, rows, cols)
    if kind == "big_denominators":
        return _big_denominators(rng, rows, cols)
    return _low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))


def _to_sympy(rows):
    cols = len(rows[0])
    return DomainMatrix(
        [[QQ(x.numerator, x.denominator) for x in row] for row in rows], (len(rows), cols), QQ
    )


def _small(rng, seed, rows, cols):
    """A matrix of the kind of ``seed`` with the given shape."""
    return _generate(rng, KINDS[seed % len(KINDS)], rows, cols)


def _to_fractions(dm):
    return [tuple(F(int(x.numerator), int(x.denominator)) for x in row) for row in dm.to_list()]


@pytest.mark.parametrize("block", range(4))
def test_elimination_matches_sympy(block):
    per_block = CASES // 4
    for seed in range(block * per_block, (block + 1) * per_block):
        rows = _matrix(seed)
        cols = len(rows[0])
        m = RationalMatrix(rows)
        reduced, pivots = _to_sympy(rows).rref()
        r = len(pivots)  # DomainMatrix.rank() is this pivot count
        assert rank(m) == r, f"seed {seed}: rank"

        expected = [row for row in _to_fractions(reduced) if any(row)]
        assert list(Subspace(cols, rows).basis) == expected, f"seed {seed}: rref"

        ker = kernel(m)
        assert ker.dim == cols - r, f"seed {seed}: kernel dimension"
        # sympy's nullspace, brought to its canonical form, is our kernel basis
        null = reduced.nullspace_from_rref(pivots)
        assert list(ker.basis) == _to_fractions(null.rref()[0]), f"seed {seed}: kernel"
        # kernel builds its Subspace from the rows it reads off, unreduced again
        again = Subspace(cols, ker.row_maps)
        assert again == ker and again.pivots == ker.pivots, f"seed {seed}: kernel rows"
        assert all(type(x) is F for row in ker.row_maps for x in row.values()), seed


def _lcm_of_denominators(dm):
    return lcm(*(int(x.denominator) for row in dm.to_list() for x in row))


def test_products_transposes_and_blocks_match_sympy():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        r, k, c, extra = (rng.randint(1, 12) for _ in range(4))
        a, b = _small(rng, seed, r, k), _small(rng, seed + 1, k, c)
        below, beside = _small(rng, seed + 2, extra, k), _small(rng, seed + 3, r, extra)
        other = _small(rng, seed + 4, r, k)
        ma, sa = RationalMatrix(a), _to_sympy(a)
        # (result, sympy's result): the entries agree, and den is the lcm of
        # the denominators of sympy's entries
        for label, m, expected in (
            ("@", RationalMatrix(a) @ RationalMatrix(b), sa.matmul(_to_sympy(b))),
            ("-", ma - RationalMatrix(other), sa - _to_sympy(other)),
            ("T", ma.transpose(), sa.transpose()),
            ("stack_rows", stack_rows(ma, RationalMatrix(below)),
             sa.vstack(_to_sympy(below))),
            ("concat_cols", concat_cols(ma, RationalMatrix(beside)),
             sa.hstack(_to_sympy(beside))),
        ):
            assert list(m.entries) == _to_fractions(expected), f"seed {seed}: {label}"
            assert m.den == _lcm_of_denominators(expected), f"seed {seed}: {label} den"


def test_inverse_matches_sympy():
    singular = 0
    for seed in range(60):
        rng = random.Random(2000 + seed)
        n = rng.randint(1, 10)
        rows = [
            [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.6 else F(0)
             for _ in range(n)]
            for _ in range(n)
        ]
        m, sm = RationalMatrix(rows), _to_sympy(rows)
        if sm.rank() < n:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                m.inverse()
            continue
        assert list(m.inverse().entries) == _to_fractions(sm.inv()), f"seed {seed}"
    assert 0 < singular < 30


def test_intersection_and_sum_dimensions_match_sympy():
    for seed in range(80):
        rng = random.Random(3000 + seed)
        n = rng.randint(1, 14)
        a = _small(rng, seed, rng.randint(1, 10), n)
        b = _small(rng, seed + 1, rng.randint(1, 10), n)
        sa, sb = Subspace(n, a), Subspace(n, b)
        joint = _to_sympy(a + b).rank()
        assert sa.sum(sb).dim == joint, f"seed {seed}: sum"
        assert sa.intersect(sb).dim == sa.dim + sb.dim - joint, f"seed {seed}: intersect"
        assert sa.dim == _to_sympy(a).rank() and sb.dim == _to_sympy(b).rank()
        zero = [[F(0)] * n]
        ra, rb = sa.dim, sb.dim  # sympy's ranks, as asserted above
        # (rows of S, rows of T, sympy's ranks of S, T and S + T): zero subspaces,
        # S = T and S inside T among them
        for case in ((a, b, ra, rb, joint), (zero, b, 0, rb, rb), (a, zero, ra, 0, ra),
                     (zero, zero, 0, 0, 0), (a, a, ra, ra, ra), (a, a + b, ra, joint, joint)):
            _check_intersection_and_containment(*case, f"seed {seed}")


def _check_intersection_and_containment(a, b, ra, rb, joint, label):
    """Subspace.intersect and contains on the spans of a and b, against sympy."""
    n = len(a[0])
    sa, sb = Subspace(n, a), Subspace(n, b)
    meet = sa.intersect(sb)
    # (x, y) in the nullspace of [a; b]^T gives x a = -y b, a vector of the meet
    null = _to_sympy(a + b).transpose().nullspace()
    x = null.extract(range(null.shape[0]), range(len(a)))
    expected = [row for row in _to_fractions(x.matmul(_to_sympy(a)).rref()[0]) if any(row)]
    assert list(meet.basis) == expected, f"{label}: intersection rows"
    again = Subspace(n, meet.row_maps)
    assert meet == again and meet.pivots == again.pivots, f"{label}: intersection is canonical"
    assert sa.contains(sb) == (joint == ra), f"{label}: contains"
    assert sb.contains(sa) == (joint == rb), f"{label}: contained"
    assert sa.contains(meet) and sb.contains(meet), f"{label}: meet inside both"


def test_int_det_matches_fraction_det():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:  # singular: a repeated row
            rows[-1] = rows[0]
        expected = DomainMatrix([[QQ(x) for x in row] for row in rows], (n, n), QQ).det()
        assert int_det(rows) == expected, rows
