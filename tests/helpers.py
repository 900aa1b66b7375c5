"""Shared test utilities: sampling, oracles, catalog automorphisms."""

import random
from fractions import Fraction
from math import gcd

from sympcoh import catalog, cec, symplectic
from sympcoh.forms import KForm, basis_masks, matrix_of, wedge
from sympcoh.linalg import ContainmentError, RationalMatrix, induced_map_rank, kernel
from sympcoh.morphism import LieMorphism, pullback

SYMPLECTIC_NAMES = [
    name for name in catalog.names() if catalog.get(name).default_omega is not None
]
FOUR_DIM_NAMES = [n for n in catalog.names() if catalog.get(n).algebra.dim == 4]
# the dimension function of each group in symplectic.GROUPS
GROUP_DIMENSIONS = {
    "dLambda": symplectic.h_dlambda,
    "BottChern": symplectic.h_bottchern,
    "Aeppli": symplectic.h_aeppli,
}


def closed_two_forms(algebra):
    """Basis of the closed invariant 2-forms."""
    space = kernel(cec.d_matrix(algebra, 2))
    return [KForm.from_vector(algebra.dim, 2, v) for v in space.basis]


def central_extension_algebra(n, rng):
    """A nilpotent Lie algebra of dimension n, as iterated central extensions.

    Generator i gets as differential a small integer combination of one or
    two basis forms of the closed 2-forms on generators 1..i-1 (or zero), so
    each step is a central extension and d d = 0 holds by construction.
    """
    gens = []
    for i in range(n):
        closed = cec.LieAlgebra(i, [KForm(i, 2, g.coeffs) for g in gens]).cycles(2)
        coeffs = {}
        if closed.dim and rng.random() < 0.7:
            for row in rng.sample(closed.row_maps, min(closed.dim, rng.randint(1, 2))):
                c = rng.choice((-2, -1, 1, 2))
                for col, x in row.items():
                    mask = basis_masks(i, 2)[col]
                    coeffs[mask] = coeffs.get(mask, 0) + c * x
        gens.append(KForm(n, 2, coeffs))
    return cec.LieAlgebra(n, gens)


def sample_symplectic(algebra, rng, tries=200):
    """Random closed nondegenerate 2-form with small rational coefficients."""
    basis = closed_two_forms(algebra)
    for _ in range(tries):
        omega = KForm.zero(algebra.dim, 2)
        for b in basis:
            omega = omega + b * Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        try:
            return symplectic.make(algebra, omega)
        except symplectic.DegenerateError:
            continue
    raise AssertionError("no nondegenerate closed 2-form found by sampling")


# the seeded generated algebras: (n, seed, algebra), 32 per dimension 4..8
PER_DIMENSION = 32
GENERATED_ALGEBRAS = [
    (n, seed, central_extension_algebra(n, random.Random(1000 * n + seed)))
    for n in range(4, 9)
    for seed in range(PER_DIMENSION)
]


def generated_structure(seed, g):
    """The sampled symplectic structure of a generated algebra, or None."""
    try:
        return sample_symplectic(g, random.Random(seed), tries=5)
    except AssertionError:  # no closed nondegenerate 2-form was drawn
        return None


def bc_aeppli_lefschetz_failures(s):
    """Where L^(m-k) : H^k -> H^(n-k) fails to be bijective on Bott-Chern or Aeppli, k <= m.

    Tseng and Yau show both maps are isomorphisms on every symplectic
    structure, with or without HLC, so any entry of the returned list of
    (theory, k, InducedMap or ContainmentError) is a fault in the Lefschetz
    matrices, the subquotients or ``induced_map_rank``.
    """
    n, m = s.algebra.dim, s.half_dim
    failures = []
    for k in range(m + 1):
        power = s.omega_power(m - k)
        lefschetz = matrix_of(lambda a: wedge(power, a), n, k, n, n - k)
        for theory in ("BottChern", "Aeppli"):
            try:
                f = induced_map_rank(lefschetz, *s.subquotient(theory, k),
                                     *s.subquotient(theory, n - k))
            except ContainmentError as err:
                failures.append((theory, k, err))
                continue
            if not (f.injective and f.surjective):
                failures.append((theory, k, f))
    return failures


def random_form(n, degree, rng, max_terms=4):
    masks = basis_masks(n, degree)
    coeffs = {}
    for _ in range(min(max_terms, len(masks))):
        mask = masks[rng.randrange(len(masks))]
        coeffs[mask] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return KForm(n, degree, coeffs)


def diag_matrix(values):
    n = len(values)
    return RationalMatrix(
        [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


def catalog_automorphism(name):
    """A nontrivial algebra automorphism of the entry, with matched forms.

    Returns (morphism, omega_target, omega_source) where omega_source is the
    exact pullback of the entry's default symplectic form.
    """
    entry = catalog.get(name)
    n = entry.algebra.dim
    if name == "g41":
        values = [1, 2, 2, 2]
    else:
        values = [2] + [1] * (n - 1)
    f = LieMorphism(entry.algebra, entry.algebra, diag_matrix(values))
    omega_t = entry.default_omega
    omega_s = pullback(f, omega_t)
    return f, omega_t, omega_s


def identity_morphism(algebra):
    return LieMorphism(algebra, algebra, RationalMatrix.identity(algebra.dim))


def projection_to_torus8():
    """The morphism modelling the holomorphic projection onto the 8-torus."""
    eta = catalog.get("etabeta5")
    t8 = catalog.get("torus8")
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(10)] for i in range(8)]
    return LieMorphism(eta.algebra, t8.algebra, RationalMatrix(rows))


def assert_canonical_rows(s):
    """nums: ints only, each row primitive, its lead positive at the row's pivot."""
    assert len(s.nums) == len(s.pivots) == s.dim
    assert list(s.pivots) == sorted(set(s.pivots))
    for c, row in zip(s.pivots, s.nums):
        assert all(type(x) is int and x for x in row.values()), s.nums
        assert min(row) == c and row[c] > 0, s.nums
        assert gcd(*row.values()) == 1, s.nums
        assert all(p not in row for p in s.pivots if p != c), s.nums
