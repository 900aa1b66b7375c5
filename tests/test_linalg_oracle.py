"""The elimination kernel against sympy's DomainMatrix over QQ.

sympy is not a dependency of sympcoh; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

from sympcoh.linalg import RationalMatrix, Subspace, kernel, rank

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
