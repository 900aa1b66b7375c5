"""Theorem-level invariants on seeded generated nilpotent algebras.

The algebras are iterated central extensions of dimensions 4 to 8 (see
``helpers.central_extension_algebra``); the even-dimensional ones get a
sampled symplectic form where one exists and the standard block J.  Every
group of ``symplectic.GROUPS`` and every pure-type group is also recounted by
a second route: the subquotient spaces against the rank-only dimensions.

Dimension 10 is swept under the ``slow`` marker, outside the default run:
``pytest -m slow``.
"""

import random
from math import comb

import pytest

from helpers import (
    GENERATED_ALGEBRAS,
    GROUP_DIMENSIONS,
    PER_DIMENSION,
    central_extension_algebra,
    generated_structure,
)
from sympcoh import acx, catalog, cec, symplectic
from sympcoh.linalg import rank, stack_rows


@pytest.mark.parametrize("n", range(4, 9))
def test_de_rham_duality_and_euler_characteristic(n):
    for _, seed, g in (a for a in GENERATED_ALGEBRAS if a[0] == n):
        assert cec.validate(g) is None and cec.is_nilpotent(g), seed
        b = cec.betti(g)
        assert all(b[k] == b[n - k] for k in range(n + 1)), (seed, b)
        assert b.euler_characteristic() == 0, (seed, b)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_symplectic_invariants_and_subquotients(n):
    found = 0
    for _, seed, g in (a for a in GENERATED_ALGEBRAS if a[0] == n):
        s = generated_structure(seed, g)
        if s is None:
            continue
        found += 1
        rep = symplectic.report(s)
        b, h_bc, m = rep.b, rep.h_bottchern, n // 2
        assert rep.h_aeppli == h_bc, seed
        for k in range(n + 1):
            assert h_bc[k] == h_bc[n - k], (seed, k)
            assert rep.delta_tilde[k] >= 0, (seed, k)
            assert rep.h_dlambda[k] == b[n - k], (seed, k)
        lefschetz_bijective = all(
            r == b[m - j] == b[m + j] for j, r in enumerate(rep.lefschetz_ranks)
        )
        assert rep.hlc == lefschetz_bijective, seed
        assert lefschetz_bijective == all(dt == 0 for dt in rep.delta_tilde), seed
        for theory, h in GROUP_DIMENSIONS.items():
            for k in range(n + 1):
                v, w = s.subquotient(theory, k)
                assert v.contains(w), (seed, theory, k)
                assert v.dim - w.dim == h(s, k), (seed, theory, k)
    assert found >= PER_DIMENSION // 2


@pytest.mark.parametrize("n", (4, 6, 8))
def test_pure_subquotient_matches_rank_only_count(n):
    # Z ^ P = ker [d_k; M] and Z ^ P ^ B = im d_(k-1) ^ ker M, M = D^2 + (p-q)^2
    j = catalog.standard_block_j(n)
    for _, seed, g in (a for a in GENERATED_ALGEBRAS if a[0] == n):
        a = acx.AlmostComplexStructure(g, j)
        for k in range(n + 1):
            dm = a.derivation_matrix(k)
            for p in range(k // 2, k + 1):
                q = k - p
                m = acx._plus_scalar(dm @ dm, (p - q) ** 2)
                zp, zpb = acx.pure_subquotient(a, p, q)
                assert zp.contains(zpb), (seed, p, q)
                assert zp.dim == comb(n, k) - rank(stack_rows(g.d(k), m)), (seed, p, q)
                assert zpb.dim == g.rank_d(k - 1) - rank(m @ g.d(k - 1)), (seed, p, q)
                assert acx.h_j(a, q, p).dim == zp.dim - zpb.dim, (seed, p, q)


@pytest.mark.slow
def test_dimension_ten_sweep():
    n, found = 10, 0
    for seed in range(PER_DIMENSION):
        s = generated_structure(seed, central_extension_algebra(n, random.Random(10_000 + seed)))
        if s is None:
            continue
        found += 1
        rep = symplectic.report(s)
        assert rep.h_aeppli == rep.h_bottchern, seed
        assert all(rep.h_dlambda[k] == rep.b[n - k] for k in range(n + 1)), seed
        assert rep.hlc == all(dt == 0 for dt in rep.delta_tilde), seed
    assert found >= 8
