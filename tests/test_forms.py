import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import GENERATED_ALGEBRAS, generated_structure, random_form
from sympcoh import acx, catalog, forms, symplectic
from sympcoh.forms import (
    KForm,
    basis_masks,
    contract,
    contraction_map,
    indices_from_mask,
    j_action,
    mask_from_indices,
    mask_matrix,
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


def test_basis_is_built_once_per_degree():
    for n in range(10):
        for k in range(-2, n + 3):
            masks = basis_masks(n, k)
            assert type(masks) is tuple and basis_masks(n, k) is masks, (n, k)
            if not 0 <= k <= n:
                assert masks == (), (n, k)
                continue
            assert [indices_from_mask(m) for m in masks] == list(
                combinations(range(1, n + 1), k)
            ), (n, k)
            ordered, index = forms._basis(n, k)
            assert ordered is masks
            assert index == {m: i for i, m in enumerate(masks)}, (n, k)
            rng = random.Random(100 * n + k)
            a = random_form(n, k, rng)
            assert KForm.from_vector(n, k, a.to_vector()) == a, (n, k)


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


# --- one-popcount kernels against reference kernels ---------------------------
#
# The references take each sign the long way, with no parity identity: the
# derivation's from two merge_sign calls (slot prefix with the image, then
# with the slot suffix) times the slot sign (-1)^(shift (j-1)), Lambda's from
# two interior products.


def _reference_derivation_terms(images, shift, mask):
    step = -1 if shift & 1 else 1
    slot_sign = 1
    rem = mask
    while rem:
        low = rem & -rem
        rem ^= low
        image = images[low.bit_length() - 1]
        if image:
            prefix = mask & (low - 1)
            suffix = (mask ^ low) ^ prefix
            for im, ic in image.items():
                s1 = merge_sign(prefix, im)
                if s1 == 0:
                    continue
                s2 = merge_sign(prefix | im, suffix)
                if s2 == 0:
                    continue
                yield prefix | im | suffix, ic if slot_sign * s1 * s2 > 0 else -ic
        slot_sign *= step


def _reference_interior(bit, mask):
    b = 1 << bit
    if not mask & b:
        return 0, mask
    below = (mask & (b - 1)).bit_count()
    return (-1 if below & 1 else 1), mask ^ b


def _reference_contraction_terms(p, mask):
    for i, row in enumerate(p.nums):
        for j, pij in row.items():
            if j <= i:
                continue
            s2, m2 = _reference_interior(j, mask)
            if s2 == 0:
                continue
            s1, m1 = _reference_interior(i, m2)
            if s1 == 0:
                continue
            yield m1, pij if s1 == s2 else -pij


def _summed(terms):
    out = {}
    for m, c in terms:
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _random_images(n, degree, rng):
    """Integer images of the n generators, of one degree; some are zero."""
    masks = basis_masks(n, degree)
    return [
        {masks[rng.randrange(len(masks))]: rng.choice((-3, -2, -1, 1, 2, 3))
         for _ in range(rng.randint(0, 3))} if masks else {}
        for _ in range(n)
    ]


def _random_poisson(n, rng):
    """A random antisymmetric integer matrix, about half its entries zero."""
    table = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.5:
            x = rng.randint(-4, 4)
            table[i][j], table[j][i] = x, -x
    return RationalMatrix(table)


@pytest.mark.parametrize("shift", (-1, 0, 1, 2))
def test_derivation_kernel_matches_two_merge_sign_reference(shift):
    rng = random.Random(61 + shift)
    for n in range(1, 10):
        for _ in range(3):
            images = _random_images(n, 1 + shift, rng)
            slots = forms._slot_terms(images)
            for mask in range(1 << n):
                assert _summed(forms._derivation_terms(slots, mask)) == _summed(
                    _reference_derivation_terms(images, shift, mask)
                ), (n, shift, images, mask)


def test_contraction_kernel_matches_interior_reference():
    rng = random.Random(67)
    for n in range(2, 10):
        for _ in range(3):
            p = _random_poisson(n, rng)
            upper = forms._upper(p)
            for mask in range(1 << n):
                assert _summed(forms._contraction_terms(upper, mask)) == _summed(
                    _reference_contraction_terms(p, mask)
                ), (n, p.nums, mask)


def _reference_matrices(algebra, j=None, s=None):
    """{(op, k): matrix} of d, the J derivation and Lambda, written from the reference kernels."""
    n = algebra.dim
    images = [x.coeffs for x in algebra.gen_differentials]
    out = {}
    for k in range(n + 1):
        out["d", k] = mask_matrix(
            lambda mask: _reference_derivation_terms(images, 1, mask), n, k, n, k + 1
        )
        if j is not None:
            rows = [{1 << c: x for c, x in row.items()} for row in j.nums]
            out["j", k] = mask_matrix(
                lambda mask: _reference_derivation_terms(rows, 0, mask), n, k, n, k, j.den
            )
        if s is not None:
            out["lam", k] = mask_matrix(
                lambda mask: _reference_contraction_terms(s.poisson, mask),
                n, k, n, k - 2, s.poisson.den,
            )
    return out


def _matrices(algebra, j=None, s=None):
    n = algebra.dim
    out = {("d", k): algebra.d(k) for k in range(n + 1)}
    if j is not None:
        a = acx.AlmostComplexStructure(algebra, j)
        out.update({("j", k): a.derivation_matrix(k) for k in range(n + 1)})
    if s is not None:
        out.update({("lam", k): s.lam_mat(k) for k in range(n + 1)})
    return out


def test_operator_matrices_equal_reference_kernels_on_catalog():
    for name in catalog.names():
        entry = catalog.get(name)
        s = None
        if entry.default_omega is not None:
            s = symplectic.make(entry.algebra, entry.default_omega)
        args = (entry.algebra, entry.default_j, s)
        assert _matrices(*args) == _reference_matrices(*args), name


def test_operator_matrices_equal_reference_kernels_on_generated():
    checked = 0
    for n, seed, g in GENERATED_ALGEBRAS:
        if seed >= 5:
            continue
        j = catalog.standard_block_j(n) if n % 2 == 0 else None
        s = generated_structure(seed, g) if n % 2 == 0 else None
        assert _matrices(g, j, s) == _reference_matrices(g, j, s), (n, seed)
        checked += 1
    assert checked >= 20
