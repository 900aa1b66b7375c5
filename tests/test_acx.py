import random
from fractions import Fraction
from math import comb

import pytest

from helpers import FOUR_DIM_NAMES
from sympcoh import acx, catalog, cec
from sympcoh.catalog import standard_block_j
from sympcoh.forms import KForm, j_action, matrix_of
from sympcoh.linalg import RationalMatrix, Subspace, kernel, rank
from sympcoh.parser import parse_form, parse_salamon

F = Fraction

J0 = standard_block_j(4)


def e(n, *indices):
    return KForm.basis(n, indices)


# --- validation -----------------------------------------------------------


def test_validate_standard_block():
    acx.validate_acs(parse_salamon("(0,0,0,0)"), J0)


def test_validate_rejects_identity():
    with pytest.raises(ValueError, match="column 1"):
        acx.validate_acs(parse_salamon("(0,0,0,0)"), RationalMatrix.identity(4))


def test_validate_rejects_odd_dimension():
    with pytest.raises(ValueError, match="even"):
        acx.validate_acs(parse_salamon("(0,0,0)"), RationalMatrix.identity(3))


def test_structure_rejects_non_jacobi_algebra():
    with pytest.raises(ValueError, match="violate Jacobi at generator 4"):
        acx.AlmostComplexStructure(parse_salamon("(0,0,0,12+34)"), J0)


def test_validate_etabeta5_block_structure():
    eta = catalog.get("etabeta5")
    acx.validate_acs(eta.algebra, eta.default_j)
    jj = eta.default_j @ eta.default_j
    minus_one = RationalMatrix(
        [[F(-1) if i == j else F(0) for j in range(10)] for i in range(10)]
    )
    assert jj == minus_one


# --- compatibility ----------------------------------------------------------


def test_compatibility_standard_torus():
    a = acx.AlmostComplexStructure(parse_salamon("(0,0,0,0)"), J0)
    assert acx.compatibility(parse_form("12+34", 4), a) == acx.COMPATIBLE


def test_compatibility_accepts_symplectic_structure(structures):
    a = acx.AlmostComplexStructure(catalog.get("torus4").algebra, J0)
    assert acx.compatibility(structures["torus4"], a) == acx.COMPATIBLE


def test_compatibility_etabeta5_fundamental_form():
    eta = catalog.get("etabeta5")
    a = acx.AlmostComplexStructure(eta.algebra, eta.default_j)
    assert acx.compatibility(eta.fundamental_two_form, a) == acx.COMPATIBLE


def test_compatibility_flipped_block_is_neither():
    flipped = RationalMatrix(
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    )
    a = acx.AlmostComplexStructure(parse_salamon("(0,0,0,0)"), flipped)
    assert acx.compatibility(parse_form("12+34", 4), a) == acx.NEITHER


def test_compatibility_tamed_only():
    # e12 + e34 + e13 tames the block structure (the symmetrized form has
    # eigenvalues 1 +- 1/2) but is not J-invariant since J e13 = e24.
    a = acx.AlmostComplexStructure(parse_salamon("(0,0,0,0)"), J0)
    assert acx.compatibility(parse_form("12+34+13", 4), a) == acx.TAMED_ONLY


def _positive_pivots(rows):
    """Independent oracle: elimination without pivoting meets only positive pivots."""
    work = [list(row) for row in rows]
    for c in range(len(work)):
        if work[c][c] <= 0:
            return False
        for i in range(c + 1, len(work)):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return True


def test_positive_definite_matches_elimination_oracle():
    assert acx._positive_definite(RationalMatrix([[F(1, 2)]]))
    rng = random.Random(17)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        base = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
        shift = F(rng.randint(-3, 3), rng.randint(1, 4))
        # B^T B + shift * I: symmetric, positive definite or not depending on shift
        rows = [
            [sum(b[i] * b[j] for b in base) + (shift if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        expected = _positive_pivots(rows)
        verdicts.add(expected)
        assert acx._positive_definite(RationalMatrix(rows)) == expected, rows
    assert verdicts == {True, False}


# --- pure-type subspaces -------------------------------------------------------


def test_pure_type_dimensions_on_r4():
    a = acx.AlmostComplexStructure(parse_salamon("(0,0,0,0)"), J0)
    inv = acx.pure_type_subspace(a, 1, 1)
    anti = acx.pure_type_subspace(a, 2, 0)
    assert inv.dim == 4 and anti.dim == 2
    for form in (e(4, 1, 2), e(4, 3, 4), e(4, 1, 3) + e(4, 2, 4), e(4, 1, 4) - e(4, 2, 3)):
        assert inv.contains(Subspace(6, [form.to_vector()]))
    for form in (e(4, 1, 3) - e(4, 2, 4), e(4, 1, 4) + e(4, 2, 3)):
        assert anti.contains(Subspace(6, [form.to_vector()]))


def test_pure_type_complementarity_in_degree_two(acs_structures):
    for name, a in acs_structures.items():
        n = a.algebra.dim
        inv = acx.pure_type_subspace(a, 1, 1)
        anti = acx.pure_type_subspace(a, 2, 0)
        assert inv.intersect(anti).dim == 0, name
        assert inv.dim + anti.dim == comb(n, 2), name


def test_pure_type_symmetric_in_p_q():
    # two fresh structures, so the subspace cached for (p, q) cannot answer (q, p)
    entry = catalog.get("torus8")
    for p, q in ((2, 0), (3, 1)):
        a = acx.AlmostComplexStructure(entry.algebra, entry.default_j)
        b = acx.AlmostComplexStructure(entry.algebra, entry.default_j)
        assert acx.pure_type_subspace(a, p, q) == acx.pure_type_subspace(b, q, p)


def test_pure_type_degree_two_matches_j_action_eigenspaces(acs_structures):
    # J acts on 2-forms as an involution: (1,1) is its +1 eigenspace and
    # (2,0)+(0,2) its -1 eigenspace
    for name, a in acs_structures.items():
        n = a.algebra.dim
        action = matrix_of(lambda form: j_action(a.j, form), n, 2, n, 2)
        for p, q, eigenvalue in ((1, 1, 1), (2, 0, -1)):
            shifted = RationalMatrix(
                [
                    [x - (eigenvalue if i == j else 0) for j, x in enumerate(row)]
                    for i, row in enumerate(action.entries)
                ]
            )
            assert acx.pure_type_subspace(a, p, q) == kernel(shifted), (name, p, q)


def test_pure_type_zero_bidegree_is_constants(acs_structures):
    a = acs_structures["torus4"]
    space = acx.pure_type_subspace(a, 0, 0)
    assert space.dim == 1


def test_pure_type_higher_degree_on_torus8(acs_structures):
    # complex dimension 4: degree-4 splits as 36 + 32 + 2
    a = acs_structures["torus8"]
    assert acx.pure_type_subspace(a, 2, 2).dim == 36
    assert acx.pure_type_subspace(a, 3, 1).dim == 32
    assert acx.pure_type_subspace(a, 4, 0).dim == 2


def test_pure_type_impossible_bidegree_is_zero(acs_structures):
    # (3,0) needs three holomorphic directions; complex dimension 2 has none
    a = acs_structures["torus4"]
    assert acx.pure_type_subspace(a, 3, 0).dim == 0


def test_pure_type_rejects_overflow(acs_structures):
    with pytest.raises(ValueError):
        acx.pure_type_subspace(acs_structures["torus4"], 3, 2)


# --- pure-type cohomology groups ----------------------------------------------


def test_h_j_etabeta5(acs_structures):
    a = acs_structures["etabeta5"]
    assert acx.h_j(a, 1, 1).dim == 16
    assert acx.h_j(a, 2, 0).dim == 10


def test_h_j_torus8(acs_structures):
    a = acs_structures["torus8"]
    assert acx.h_j(a, 1, 1).dim == 16
    assert acx.h_j(a, 2, 0).dim == 12


def test_h_j_torus4_invariant_part(acs_structures):
    assert acx.h_j(acs_structures["torus4"], 1, 1).dim == 4


def test_h_j_degree_three_on_torus4(acs_structures):
    # d = 0 and every 3-form is of type (2,1)+(1,2)
    assert acx.h_j(acs_structures["torus4"], 2, 1).dim == 4


def test_h_j_representatives(acs_structures):
    a = acs_structures["kodaira"]
    group = acx.h_j(a, 1, 1, with_representatives=True)
    assert group.dim == 3
    assert len(group.representative_basis) == 3
    pure = acx.pure_type_subspace(a, 1, 1)
    for rep in group.representative_basis:
        assert cec.differential(a.algebra, rep).is_zero()
        assert pure.contains(Subspace(pure.ambient_dim, [rep.to_vector()]))


def test_h_j_dimension_is_quotient_dimension(acs_structures):
    # dim(Z ^ P) - dim(Z ^ P ^ B) for the anti-invariant group on kodaira
    a = acs_structures["kodaira"]
    g = a.algebra
    z = kernel(cec.d_matrix(g, 2))
    p = acx.pure_type_subspace(a, 2, 0)
    zp = z.intersect(p)
    assert zp.dim == 1
    assert acx.h_j(a, 2, 0).dim == 1


def test_pure_subquotient_is_shared_by_p_q_and_q_p(acs_structures):
    a = acs_structures["kodaira"]
    zp, zpb = acx.pure_subquotient(a, 2, 1)
    assert acx.pure_subquotient(a, 1, 2) == (zp, zpb)
    assert acx.pure_subquotient(a, 1, 2)[0] is zp
    assert zp == a.algebra.cycles(3).intersect(acx.pure_type_subspace(a, 2, 1))
    assert zpb == zp.intersect(a.algebra.boundaries(3))
    assert acx.h_j(a, 1, 2).dim == zp.dim - zpb.dim


def test_pure_subquotient_validates_before_the_cache(acs_structures):
    a = acs_structures["torus4"]
    acx.pure_subquotient(a, 1, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        acx.pure_subquotient(a, 3, -1)
    with pytest.raises(ValueError, match="exceeds"):
        acx.pure_subquotient(a, 3, 2)


def test_session_builds_each_derivation_and_pure_type_once(monkeypatch):
    degrees, kernels = [], []
    original_matrix_of, original_kernel = acx.matrix_of, acx.kernel

    def counting_matrix_of(op, n_in, k_in, n_out, k_out):
        degrees.append(k_in)
        return original_matrix_of(op, n_in, k_in, n_out, k_out)

    def counting_kernel(m):
        kernels.append(m.cols)
        return original_kernel(m)

    monkeypatch.setattr(acx, "matrix_of", counting_matrix_of)
    monkeypatch.setattr(acx, "kernel", counting_kernel)
    eta = catalog.get("etabeta5")
    a = acx.AlmostComplexStructure(eta.algebra, eta.default_j)
    acx.h_j(a, 1, 1)
    acx.h_j(a, 2, 0)
    acx.pure_full_check(a)
    acx.h_j(a, 2, 1)
    acx.h_j(a, 1, 2)
    # D_2 and D_3; pure types (2, |p-q| = 0), (2, 2) and (3, 1)
    assert degrees == [2, 3]
    assert kernels == [comb(10, 2), comb(10, 2), comb(10, 3)]


# --- pure and full ----------------------------------------------------------


def test_four_dimensional_entries_pure_and_full(acs_structures, betti_tables):
    for name in FOUR_DIM_NAMES:
        a = acs_structures[name]
        verdict = acx.pure_full_check(a)
        assert verdict.pure and verdict.full, name
        total = acx.h_j(a, 1, 1).dim + acx.h_j(a, 2, 0).dim
        assert total == betti_tables[name][2], name


def test_etabeta5_pure_and_full(acs_structures, betti_tables):
    a = acs_structures["etabeta5"]
    verdict = acx.pure_full_check(a)
    assert verdict.pure and verdict.full
    assert 16 + 10 == betti_tables["etabeta5"][2]


def test_abelian_algebra_any_constant_j_pure_and_full():
    rng = random.Random(8)
    g = parse_salamon("(0,0,0,0)")
    # conjugate the block structure by a random invertible matrix
    while True:
        m = RationalMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        if rank(m) == 4:
            break
    j = m @ J0 @ m.inverse()
    a = acx.AlmostComplexStructure(g, j)
    verdict = acx.pure_full_check(a)
    assert verdict.pure and verdict.full
