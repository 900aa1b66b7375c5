import random
from fractions import Fraction
from math import comb, factorial

import pytest

from helpers import (
    FOUR_DIM_NAMES,
    GENERATED_ALGEBRAS,
    GROUP_DIMENSIONS,
    SYMPLECTIC_NAMES,
    bc_aeppli_lefschetz_failures,
    generated_structure,
    random_form,
    sample_symplectic,
)
from sympcoh import catalog, symplectic as sp
from sympcoh.cec import betti, differential
from sympcoh.forms import KForm, basis_masks, two_form_matrix
from sympcoh.linalg import InducedMap, RationalMatrix, induced_map_rank
from sympcoh.parser import parse_form, parse_salamon

F = Fraction


def e(n, *indices):
    return KForm.basis(n, indices)


KODAIRA = parse_salamon("(0,0,0,23)")
TORUS4 = parse_salamon("(0,0,0,0)")


# --- construction and validation -------------------------------------------


def test_make_kodaira_valid(structures):
    s = structures["kodaira"]
    assert s.half_dim == 2
    prod = s.poisson @ two_form_matrix(s.omega)
    assert prod == RationalMatrix.identity(4)


def test_make_degenerate_rejected():
    with pytest.raises(sp.DegenerateError):
        sp.make(TORUS4, e(4, 1, 2))


def test_make_not_closed_rejected_with_residual():
    g = parse_salamon("(0,0,-23,24)")
    with pytest.raises(sp.NotClosedError) as err:
        sp.make(g, e(4, 1, 3))
    assert err.value.residual == e(4, 1, 2, 3)


def test_make_rejects_odd_dimension():
    g = parse_salamon("(0,0,0)")
    with pytest.raises(sp.DegenerateError):
        sp.make(g, KForm.zero(3, 2))


def test_make_requires_jacobi():
    with pytest.raises(ValueError):
        sp.make(parse_salamon("(0,0,12,34)"), e(4, 1, 2))


def test_make_and_report_wedge_each_power_of_omega_once(monkeypatch):
    entry = catalog.get("torus8")
    omega, m = entry.default_omega, entry.algebra.dim // 2
    products = []
    original_wedge = sp.wedge

    def counting_wedge(a, b):
        if b is omega:  # one step omega^j -> omega^(j+1)
            products.append(a.degree)
        return original_wedge(a, b)

    monkeypatch.setattr(sp, "wedge", counting_wedge)
    s = sp.make(entry.algebra, omega)
    sp.report(s)
    assert products == list(range(2, 2 * m, 2))  # omega^2 .. omega^m, m - 1 wedges


# --- operators ---------------------------------------------------------------


def test_lefschetz_basics(structures):
    s = structures["kodaira"]
    assert sp.lefschetz(s, KForm.constant(4, 1)) == s.omega
    top = sp.lefschetz(s, s.omega)
    assert not top.is_zero() and top.degree == 4
    assert sp.lefschetz(s, e(4, 1)) == e(4, 1, 3, 4)


def test_dual_lefschetz_basics(structures):
    s = structures["kodaira"]
    assert sp.dual_lefschetz(s, s.omega) == KForm.constant(4, 2)
    assert sp.dual_lefschetz(s, e(4, 1)).is_zero()
    assert sp.dual_lefschetz(s, e(4, 1, 3)).is_zero()


def test_star_normalized_volume(structures):
    for name in SYMPLECTIC_NAMES:
        s = structures[name]
        n = s.half_dim
        volume = s.omega_power(n) * F(1, factorial(n))
        assert sp.star(s, KForm.constant(s.algebra.dim, 1)) == volume, name
        assert sp.star(s, volume) == KForm.constant(s.algebra.dim, 1), name


def test_star_involution_on_torus():
    s = sp.make(TORUS4, parse_form("12+34", 4))
    a = e(4, 1, 3)
    assert sp.star(s, sp.star(s, a)) == a


def test_star_is_involution_everywhere(structures):
    rng = random.Random(31)
    for name in SYMPLECTIC_NAMES:
        s = structures[name]
        n = s.algebra.dim
        for _ in range(6):
            a = random_form(n, rng.randint(0, n), rng)
            assert sp.star(s, sp.star(s, a)) == a, name


def test_d_lambda_on_closed_one_forms(structures):
    # closed 1-forms are automatically in the codifferential kernel
    for name in SYMPLECTIC_NAMES:
        s = structures[name]
        n = s.algebra.dim
        for mask in basis_masks(n, 1):
            gen = KForm(n, 1, {mask: 1})
            if differential(s.algebra, gen).is_zero():
                assert sp.d_lambda(s, gen).is_zero(), name


def test_d_lambda_on_constants(structures):
    s = structures["kodaira"]
    out = sp.d_lambda(s, KForm.constant(4, 7))
    assert out.is_zero() and out.degree == 0


def test_d_lambda_kodaira_e14(structures):
    s = structures["kodaira"]
    assert sp.d_lambda(s, e(4, 1, 4)) == e(4, 3)
    assert sp.star_d_star(s, e(4, 1, 4)) == e(4, 3)


def test_d_lambda_equals_star_d_star_on_all_basis_forms(structures):
    # convention lock between the commutator and star expressions
    for name in SYMPLECTIC_NAMES:
        s = structures[name]
        n = s.algebra.dim
        for k in range(n + 1):
            for mask in basis_masks(n, k):
                a = KForm(n, k, {mask: 1})
                assert sp.d_lambda(s, a) == sp.star_d_star(s, a), (name, k)


def test_operator_identities_on_random_forms(structures):
    rng = random.Random(404)
    for name in SYMPLECTIC_NAMES:
        s = structures[name]
        n = s.algebra.dim
        half = s.half_dim
        for _ in range(10):
            k = rng.randint(0, n)
            a = random_form(n, k, rng)
            da = differential(s.algebra, a)
            # d^2 = 0
            assert differential(s.algebra, da).is_zero()
            # (d^Lambda)^2 = 0
            assert sp.d_lambda(s, sp.d_lambda(s, a)).is_zero()
            # d d^Lambda = -d^Lambda d
            lhs = differential(s.algebra, sp.d_lambda(s, a))
            rhs = sp.d_lambda(s, da)
            assert lhs == -rhs
            # [Lambda, L] = (n - k) id
            comm = sp.dual_lefschetz(s, sp.lefschetz(s, a)) - sp.lefschetz(
                s, sp.dual_lefschetz(s, a)
            )
            assert comm == F(half - k) * a


# --- cohomology dimensions ----------------------------------------------------


def test_h_dlambda_degree_zero_is_one(structures):
    for name in SYMPLECTIC_NAMES:
        assert sp.h_dlambda(structures[name], 0) == 1, name


def test_h_dlambda_top_degree_torus():
    s = sp.make(TORUS4, parse_form("12+34", 4))
    assert sp.h_dlambda(s, 4) == 1


def test_h_dlambda_kodaira_degree_one(structures):
    assert sp.h_dlambda(structures["kodaira"], 1) == 3


def test_h_dlambda_star_conjugation_symmetry(reports):
    # star conjugation turns the codifferential complex into the de Rham one
    for name, rep in reports.items():
        n = rep.dim
        for k in range(n + 1):
            assert rep.h_dlambda[k] == rep.b[n - k], (name, k)


def test_bott_chern_dimensions_of_the_three_families(structures):
    assert sp.h_bottchern(structures["kodaira"], 2) == 5
    assert sp.h_bottchern(structures["g1_g34m"], 2) == 2
    assert sp.h_bottchern(structures["g41"], 2) == 4


def test_bott_chern_intersection_exceeds_image_by_five(structures):
    # on the Kodaira algebra the degree-2 double kernel is 5-dimensional and
    # the image of d d^Lambda inside it is trivial
    s = structures["kodaira"]
    ker_bc, im_ddlam = s.subquotient("BottChern", 2)
    assert ker_bc.dim == 5
    assert im_ddlam.dim == 0


def test_aeppli_matches_bott_chern(reports):
    for name, rep in reports.items():
        assert rep.h_aeppli == rep.h_bottchern, name


def test_aeppli_kodaira_degree_two(structures):
    assert sp.h_aeppli(structures["kodaira"], 2) == 5


def test_aeppli_g41_denominator_dimension(structures):
    # ker(d d^Lambda) is all of degree two; the denominator has dimension 2
    s = structures["g41"]
    ker_ddlam, im_sum = s.subquotient("Aeppli", 2)
    assert ker_ddlam.dim == 6
    assert im_sum.dim == 2
    assert sp.h_aeppli(s, 2) == 4


def test_aeppli_degree_zero_torus():
    s = sp.make(TORUS4, parse_form("12+34", 4))
    assert sp.h_aeppli(s, 0) == 1


def test_subquotients_are_cached_and_give_the_dimensions(structures):
    for name, s in structures.items():
        for theory, h in GROUP_DIMENSIONS.items():
            for k in range(s.algebra.dim + 1):
                v, w = s.subquotient(theory, k)
                assert s.subquotient(theory, k)[0] is v
                assert v.contains(w), (name, theory, k)
                assert v.dim - w.dim == h(s, k), (name, theory, k)


def test_bott_chern_and_aeppli_hard_lefschetz_on_catalog(structures):
    # an isomorphism in every degree k <= m on every structure, HLC or not
    for name, s in structures.items():
        assert not bc_aeppli_lefschetz_failures(s), name


def test_bott_chern_and_aeppli_hard_lefschetz_catches_a_flipped_lambda_entry():
    # on the catalog's dimension-4 and abelian structures no single flip of a
    # Lambda entry shows; on this generated dimension-6 one the first does
    _, seed, g = next(a for a in GENERATED_ALGEBRAS if a[:2] == (6, 1))
    s = generated_structure(seed, g)
    assert not bc_aeppli_lefschetz_failures(s)
    mutated = sp.make(g, s.omega)
    lam = s.lam_mat(4)
    rows = [dict(row) for row in lam.nums]
    rows[0][0] = -rows[0][0]
    mutated._cache["lam", 4] = RationalMatrix.from_rows(rows, lam.rows, lam.cols, lam.den)
    assert bc_aeppli_lefschetz_failures(mutated)


# the cached factor of each composite A B, replaced by an all-ones matrix
@pytest.mark.parametrize(
    "theory, key", [("dLambda", ("dlam", 3)), ("BottChern", ("ddlam", 2)), ("Aeppli", ("ddlam", 2))]
)
def test_group_dimension_rejects_nonzero_composite(theory, key):
    entry = catalog.get("kodaira")
    s = sp.make(entry.algebra, entry.default_omega)
    m = s.op_mat(*key)
    s._cache[key] = RationalMatrix([[1] * m.cols for _ in range(m.rows)], m.rows, m.cols)
    with pytest.raises(sp.ConsistencyError, match=f"{theory}: im <= ker fails in degree 2"):
        GROUP_DIMENSIONS[theory](s, 2)


def test_group_checks_and_ranks_run_once_per_degree(monkeypatch):
    entry = catalog.get("kodaira")
    s = sp.make(entry.algebra, entry.default_omega)
    first = [h(s, k) for h in GROUP_DIMENSIONS.values() for k in range(5)]

    def no_product(a, b):
        raise AssertionError("recomputed")

    monkeypatch.setattr(RationalMatrix, "__matmul__", no_product)
    monkeypatch.setattr(sp, "rank", no_product)
    assert [h(s, k) for h in GROUP_DIMENSIONS.values() for k in range(5)] == first


def test_report_rejects_non_unimodular_algebras():
    for d, omega in (("(0,12)", "12"), ("(0,12,0,0)", "12+34")):
        g = parse_salamon(d)
        s = sp.make(g, parse_form(omega, g.dim))
        assert betti(g)[g.dim] == 0
        with pytest.raises(ValueError, match="not unimodular"):
            sp.report(s)


@pytest.mark.parametrize("name, bijective", [("torus4", False), ("kodaira", True)])
def test_report_cross_checks_hlc_against_ddlambda_lemma(monkeypatch, name, bijective):
    entry = catalog.get(name)
    s = sp.make(entry.algebra, entry.default_omega)
    monkeypatch.setattr(
        sp, "lefschetz_power_map", lambda s, j: InducedMap(0, bijective, bijective)
    )
    with pytest.raises(sp.ConsistencyError, match="HLC and the d d\\^Lambda-lemma disagree"):
        sp.report(s)


# --- reports -------------------------------------------------------------------


def test_report_kodaira(reports):
    rep = reports["kodaira"]
    assert rep.b == (1, 3, 4, 3, 1)
    assert rep.h_bottchern == (1, 3, 5, 3, 1)
    assert rep.delta_tilde == (0, 0, 1, 0, 0)
    assert rep.delta == (0, 0, 2, 0, 0)
    assert not rep.hlc and not rep.ddlambda_lemma


def test_report_g1_g34m(reports):
    rep = reports["g1_g34m"]
    assert rep.delta_tilde == (0, 0, 0, 0, 0)
    assert rep.hlc and rep.ddlambda_lemma


def test_report_g41(reports):
    rep = reports["g41"]
    assert rep.delta_tilde == (0, 0, 2, 0, 0)
    assert not rep.hlc


def test_report_torus4(reports):
    rep = reports["torus4"]
    assert rep.b == (1, 4, 6, 4, 1)
    assert rep.delta_tilde == (0, 0, 0, 0, 0)
    assert rep.hlc
    assert rep.lefschetz_ranks == (6, 4, 1)


def test_report_duality(reports):
    for name, rep in reports.items():
        n = rep.dim
        for k in range(n + 1):
            assert rep.h_bottchern[k] == rep.h_bottchern[n - k], (name, k)
            assert rep.delta_tilde[k] >= 0, (name, k)
            assert rep.b[k] <= rep.h_bottchern[k], (name, k)


def test_natural_maps_kodaira(structures):
    maps = sp.natural_map_ranks(structures["kodaira"], 2)
    assert maps.bc_to_dr.rank == 4
    assert not maps.bc_to_dr.injective
    assert maps.bc_to_dr.surjective


def test_natural_maps_bijective_on_torus(structures):
    s = structures["torus4"]
    for k in range(5):
        maps = sp.natural_map_ranks(s, k)
        assert maps.bc_to_dr.injective and maps.bc_to_dr.surjective
        assert maps.dr_to_a.injective and maps.dr_to_a.surjective


def test_natural_maps_bijective_on_g1_g34m(structures):
    s = structures["g1_g34m"]
    for k in range(5):
        maps = sp.natural_map_ranks(s, k)
        assert maps.bc_to_dr.injective and maps.bc_to_dr.surjective
        assert maps.dr_to_a.injective and maps.dr_to_a.surjective


def identity_route(s, k):
    """The natural maps as the identity pushed through induced_map_rank."""
    g = s.algebra
    ident = RationalMatrix.identity(comb(g.dim, k))
    return sp.NaturalMaps(
        induced_map_rank(ident, *s.subquotient("BottChern", k), g.cycles(k), g.boundaries(k)),
        induced_map_rank(ident, g.cycles(k), g.boundaries(k), *s.subquotient("Aeppli", k)),
    )


def test_natural_maps_match_identity_route_on_catalog(structures):
    for name, s in structures.items():
        for k in range(s.algebra.dim + 1):
            assert sp.natural_map_ranks(s, k) == identity_route(s, k), (name, k)


SAMPLED_ALGEBRAS = [catalog.get(name).algebra for name in FOUR_DIM_NAMES] + [
    parse_salamon(d)
    for d in (
        "(0,0,0,0,0,12)",
        "(0,0,0,0,12,13)",
        "(0,0,0,12,13,23)",
        "(0,0,0,12,13,14)",
        "(0,0,12,13,14,15)",
    )
]


def test_natural_maps_match_identity_route_on_sampled_structures():
    # 10 algebras x 2 sampled forms = 20 structures
    rng = random.Random(2016)
    non_hlc = 0
    for g in SAMPLED_ALGEBRAS:
        for _ in range(2):
            s = sample_symplectic(g, rng)
            maps = [sp.natural_map_ranks(s, k) for k in range(g.dim + 1)]
            assert maps == [identity_route(s, k) for k in range(g.dim + 1)]
            non_hlc += not all(m.bc_to_dr.injective for m in maps)
    assert non_hlc >= 10


def test_natural_maps_reject_sign_flipped_dlambda():
    # flipping d^Lambda in degree 2 leaves every containment that h_bottchern
    # and h_aeppli check intact; only the anticommutation sees it
    entry = catalog.get("g1_g34m")
    s = sp.make(entry.algebra, entry.default_omega)
    m = s.dlam_mat(2)
    s._cache["dlam", 2] = RationalMatrix(
        [[-x for x in row] for row in m.entries], rows=m.rows, cols=m.cols
    )
    sp.h_bottchern(s, 2)
    sp.h_aeppli(s, 2)
    with pytest.raises(sp.ConsistencyError, match=r"d\^Lambda d = 0"):
        sp.natural_map_ranks(s, 2)


def test_sampled_structures_reproduce_family_dimensions():
    # generic coefficient choices do not move the dimensions
    rng = random.Random(1234)
    expected = {"kodaira": (5, 4, 1), "g1_g34m": (2, 2, 0), "g41": (4, 2, 2)}
    for name, (h2, b2, dt2) in expected.items():
        g = catalog.get(name).algebra
        for _ in range(3):
            s = sample_symplectic(g, rng)
            assert sp.h_bottchern(s, 2) == h2, name
            assert betti(s.algebra)[2] == b2, name


def test_nilpotent_nonabelian_entries_are_never_hlc(reports):
    for name in ("kodaira", "g41"):
        assert not reports[name].hlc
