import random
from fractions import Fraction

import pytest

from helpers import random_form
from sympcoh import catalog
from sympcoh.forms import (
    KForm,
    basis_masks,
    contract,
    contraction_map,
    indices_from_mask,
    j_action,
    mask_from_indices,
    merge_sign,
    poisson_bivector,
    pullback_along,
    two_form_matrix,
    wedge,
)
from sympcoh.linalg import DimensionMismatch, RationalMatrix, int_det

F = Fraction

J0 = RationalMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])


def e(n, *indices):
    return KForm.basis(n, indices)


# --- masks and signs --------------------------------------------------------


def test_mask_roundtrip():
    mask = mask_from_indices([1, 3, 4], 5)
    assert indices_from_mask(mask) == (1, 3, 4)
    assert [indices_from_mask(m) for m in basis_masks(3, 2)] == [(1, 2), (1, 3), (2, 3)]


def test_basis_masks_lexicographic():
    got = [indices_from_mask(m) for m in basis_masks(4, 2)]
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_merge_sign():
    assert merge_sign(0b0001, 0b0010) == 1  # e1 ^ e2
    assert merge_sign(0b0010, 0b0001) == -1  # e2 ^ e1
    assert merge_sign(0b0001, 0b0001) == 0


def test_basis_normalizes_permuted_indices():
    assert e(4, 2, 1) == -e(4, 1, 2)
    assert e(4, 3, 1, 2) == e(4, 1, 2, 3)
    with pytest.raises(ValueError):
        KForm.basis(4, [1, 1])


# --- wedge ------------------------------------------------------------------


def test_wedge_basis():
    assert wedge(e(4, 1), e(4, 2)) == e(4, 1, 2)
    assert wedge(e(4, 2), e(4, 1)) == -e(4, 1, 2)


def test_wedge_standard_form_squares():
    # (e12 + e34)^2 expands to four products; the two cross terms each give
    # +e1234 and the squares vanish.
    omega = e(4, 1, 2) + e(4, 3, 4)
    assert wedge(omega, omega) == 2 * e(4, 1, 2, 3, 4)


def test_wedge_above_top_degree_is_zero():
    out = wedge(e(4, 1, 2, 3), e(4, 2, 3))
    assert out.is_zero() and out.degree == 5


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(2, 6)
        ka, kb, kc = (rng.randint(0, n) for _ in range(3))
        a, b, c = (random_form(n, k, rng) for k in (ka, kb, kc))
        lhs = wedge(a, b)
        rhs = wedge(b, a)
        sign = (-1) ** (ka * kb)
        assert lhs == (rhs if sign == 1 else -rhs)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(e(4, 1), e(5, 1))


# --- contraction --------------------------------------------------------------


def test_contract_standard_form_gives_half_dimension():
    omega = e(4, 1, 2) + e(4, 3, 4)
    p = poisson_bivector(omega)
    assert contract(p, omega) == KForm.constant(4, 2)


def test_contract_degree_underflow():
    p = poisson_bivector(e(4, 1, 2) + e(4, 3, 4))
    out = contract(p, e(4, 1))
    assert out.is_zero() and out.degree == 0


def test_contract_skew_term():
    p = poisson_bivector(e(4, 1, 2) + e(4, 3, 4))
    assert contract(p, e(4, 1, 3)).is_zero()


def test_poisson_inverts_coefficient_matrix():
    omega = e(4, 1, 2) + 3 * e(4, 3, 4) + e(4, 1, 4)
    p = poisson_bivector(omega)
    prod = p @ two_form_matrix(omega)
    assert prod == RationalMatrix.identity(4)


def test_poisson_rejects_degenerate():
    with pytest.raises(ValueError):
        poisson_bivector(e(4, 1, 2))


def test_contraction_rejects_wrong_shape():
    p = poisson_bivector(e(4, 1, 2) + e(4, 3, 4))
    with pytest.raises(DimensionMismatch):
        contract(p, e(6, 1, 2))
    for wrong in (RationalMatrix.zero(4, 6), RationalMatrix.zero(6, 4)):
        with pytest.raises(DimensionMismatch):
            contract(wrong, e(4, 1, 2))
        with pytest.raises(DimensionMismatch):
            contraction_map(wrong, 2)


def test_commutator_identity_on_catalog_algebras():
    # [contract, wedge-with-omega] = (n - k) id on degree k, for the
    # nondegenerate pairing 2-form carried by each catalog entry.
    rng = random.Random(2718)
    for name in catalog.names():
        entry = catalog.get(name)
        omega = entry.default_omega or entry.fundamental_two_form
        n = entry.algebra.dim
        p = poisson_bivector(omega)
        for _ in range(8):
            k = rng.randint(0, n)
            a = random_form(n, k, rng)
            lhs = contract(p, wedge(omega, a)) - wedge(omega, contract(p, a))
            assert lhs == (F(n // 2 - k)) * a, name


# --- J action ---------------------------------------------------------------


def test_j_action_standard_examples():
    assert j_action(J0, e(4, 1, 2)) == e(4, 1, 2)
    assert j_action(J0, e(4, 1, 3)) == e(4, 2, 4)


def test_j_action_identity_matrix():
    rng = random.Random(1)
    a = random_form(4, 2, rng)
    assert j_action(RationalMatrix.identity(4), a) == a


def test_j_action_composition_is_action_of_square():
    rng = random.Random(9)
    j = RationalMatrix([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    jj = j @ j
    for k in range(5):
        a = random_form(4, k, rng)
        assert j_action(j, j_action(j, a)) == j_action(jj, a)


def test_j_action_involution_on_two_forms():
    rng = random.Random(13)
    for _ in range(10):
        a = random_form(4, 2, rng)
        assert j_action(J0, j_action(J0, a)) == a


# --- pullback kernel ----------------------------------------------------------

# (rows, cols) of the maps: square and non-square, up to 6 x 6
SHAPES = [(1, 1), (2, 3), (3, 2), (4, 4), (3, 5), (5, 3), (2, 6), (6, 4), (6, 6)]


def _random_map(rng, rows, cols, rational):
    """Seeded small entries, integer or rational, with the first row repeated at the end."""
    table = [
        [F(rng.randint(-3, 3), rng.randint(1, 4) if rational else 1) for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 1:
        table[-1] = list(table[0])
    return table


def _minor_oracle(rational):
    """det M[I, J] of a dense table: int_det on integer tables, sympy on rational ones."""
    if not rational:
        return lambda table, rows, cols: int_det([[int(table[i][j]) for j in cols] for i in rows])
    qq = pytest.importorskip("sympy").QQ
    domain_matrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

    def det(table, rows, cols):
        entries = [[qq(table[i][j].numerator, table[i][j].denominator) for j in cols] for i in rows]
        value = domain_matrix(entries, (len(rows), len(cols)), qq).det()
        return F(int(value.numerator), int(value.denominator))

    return det


@pytest.mark.parametrize("rational", (False, True))
def test_pullback_coefficients_are_minors(rational):
    det = _minor_oracle(rational)
    rng = random.Random(31 + rational)
    for rows, cols in SHAPES:
        table = _random_map(rng, rows, cols, rational)
        m = RationalMatrix(table)
        for k in range(min(rows, cols) + 1):
            for mask in basis_masks(rows, k):
                image = pullback_along(m, KForm(rows, k, {mask: 1}))
                assert image.n == cols and (image.degree == k or image.is_zero())
                idx = [i - 1 for i in indices_from_mask(mask)]
                for target in basis_masks(cols, k):
                    jdx = [j - 1 for j in indices_from_mask(target)]
                    expected = det(table, idx, jdx)
                    assert image.coeffs.get(target, 0) == expected, (rows, cols, mask, target)
                    if rows > 1 and {0, rows - 1} <= set(idx):
                        assert expected == 0  # the repeated row


@pytest.mark.parametrize("rational", (False, True))
def test_pullback_reverses_composition(rational):
    rng = random.Random(47 + rational)
    for rows, cols in SHAPES:
        middle = rng.randint(1, 6)
        f = RationalMatrix(_random_map(rng, rows, middle, rational))
        g = RationalMatrix(_random_map(rng, middle, cols, rational))
        for k in range(rows + 1):
            a = random_form(rows, k, rng)
            assert pullback_along(g, pullback_along(f, a)) == pullback_along(f @ g, a), (rows, k)


def test_kform_vector_roundtrip():
    rng = random.Random(4)
    a = random_form(5, 3, rng)
    assert KForm.from_vector(5, 3, a.to_vector()) == a


def test_kform_degree_mismatch_addition():
    with pytest.raises(DimensionMismatch):
        e(4, 1) + e(4, 1, 2)
