"""Shared test utilities: sampling, oracles, catalog automorphisms."""

from fractions import Fraction

from sympcoh import catalog, cec, symplectic
from sympcoh.forms import KForm, basis_masks
from sympcoh.linalg import RationalMatrix, kernel
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
