import random
from fractions import Fraction

import pytest

from helpers import (
    SYMPLECTIC_NAMES,
    catalog_automorphism,
    diag_matrix,
    identity_morphism,
    projection_to_torus8,
    random_form,
)
from sympcoh import catalog, cec, morphism, symplectic as sp
from sympcoh.forms import KForm, wedge
from sympcoh.linalg import RationalMatrix
from sympcoh.parser import parse_form, parse_salamon

F = Fraction


def e(n, *indices):
    return KForm.basis(n, indices)


# --- validation ---------------------------------------------------------------


def test_projection_is_a_morphism():
    assert morphism.validate_morphism(projection_to_torus8()) is None


def test_identity_is_a_morphism():
    g = catalog.get("kodaira").algebra
    assert morphism.validate_morphism(identity_morphism(g)) is None


def test_dropping_wrong_coordinates_fails():
    # sending the torus coframe onto e3..e10 hits the non-closed generators
    eta = catalog.get("etabeta5").algebra
    t8 = catalog.get("torus8").algebra
    rows = [
        [F(1) if j == i + 2 else F(0) for j in range(10)] for i in range(8)
    ]
    f = morphism.LieMorphism(eta, t8, RationalMatrix(rows))
    assert morphism.validate_morphism(f) == 7  # e^7 pulls back to the e9 direction


def test_shape_validation():
    eta = catalog.get("etabeta5").algebra
    t8 = catalog.get("torus8").algebra
    with pytest.raises(Exception):
        morphism.LieMorphism(eta, t8, RationalMatrix.identity(10))


def test_degree_proxy_flags():
    # the projection is surjective but not invertible; automorphisms are both
    f = projection_to_torus8()
    assert f.surjective and not f.invertible
    g = catalog.get("torus4").algebra
    assert identity_morphism(g).invertible
    auto, _, _ = catalog_automorphism("g41")
    assert auto.invertible and auto.surjective


# --- pullback -------------------------------------------------------------------


def test_pullback_of_generators_along_projection():
    f = projection_to_torus8()
    assert morphism.pullback(f, e(8, 1)) == e(10, 1)
    got = morphism.pullback(f, e(8, 1, 3) - e(8, 2, 4))
    assert got == e(10, 1, 3) - e(10, 2, 4)


def test_pullback_of_torus_symplectic_form_is_degenerate():
    f = projection_to_torus8()
    omega8 = catalog.get("torus8").default_omega
    pulled = morphism.pullback(f, omega8)
    expected = e(10, 1, 2) + e(10, 3, 4) + e(10, 5, 6) + e(10, 7, 8)
    assert pulled == expected
    fifth = pulled
    for _ in range(4):
        fifth = wedge(fifth, pulled)
    assert fifth.is_zero()
    with pytest.raises(sp.DegenerateError):
        sp.make(catalog.get("etabeta5").algebra, pulled)


def test_pullback_multiplicative_and_commutes_with_d():
    rng = random.Random(55)
    f = projection_to_torus8()
    for _ in range(10):
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a, b = random_form(8, ka, rng), random_form(8, kb, rng)
        assert morphism.pullback(f, wedge(a, b)) == wedge(
            morphism.pullback(f, a), morphism.pullback(f, b)
        )
        lhs = morphism.pullback(f, cec.differential(f.target, a))
        rhs = cec.differential(f.source, morphism.pullback(f, a))
        assert lhs == rhs


# --- symplectic pullback check ---------------------------------------------------


def test_check_pullback_symplectic_identity():
    g = catalog.get("torus4").algebra
    omega = catalog.get("torus4").default_omega
    assert morphism.check_pullback_symplectic(identity_morphism(g), omega, omega)


def test_check_pullback_symplectic_projection_fails():
    f = projection_to_torus8()
    omega8 = catalog.get("torus8").default_omega
    eta_form = catalog.get("etabeta5").fundamental_two_form
    assert not morphism.check_pullback_symplectic(f, omega8, eta_form)


def test_check_pullback_symplectic_torus_scaling():
    g = catalog.get("torus4").algebra
    f = morphism.LieMorphism(g, g, diag_matrix([2, 1, 1, 1]))
    omega = parse_form("12+34", 4)
    scaled = parse_form("2*12+34", 4)
    assert morphism.check_pullback_symplectic(f, omega, scaled)
    assert not morphism.check_pullback_symplectic(f, omega, omega)


# --- induced reports --------------------------------------------------------------


def test_induced_report_anti_invariant_projection(acs_structures):
    f = projection_to_torus8()
    rep = morphism.induced_report(
        f,
        "J",
        source_structure=acs_structures["etabeta5"],
        target_structure=acs_structures["torus8"],
        p=2,
        q=0,
    )
    assert rep.source_dim == 12
    assert rep.target_dim == 10
    assert rep.rank == 10
    assert not rep.injective
    assert rep.source_dim - rep.rank == 2  # two-dimensional kernel


def test_induced_report_de_rham_degree_one():
    f = projection_to_torus8()
    rep = morphism.induced_report(f, "deRham", degree=1)
    assert rep.source_dim == 8 and rep.rank == 8 and rep.injective


def test_induced_report_identity_bott_chern(structures):
    g = catalog.get("kodaira").algebra
    f = identity_morphism(g)
    s = structures["kodaira"]
    for k in range(5):
        rep = morphism.induced_report(
            f, "BottChern", degree=k, source_structure=s, target_structure=s
        )
        assert rep.injective and rep.rank == rep.source_dim == rep.target_dim


def test_induced_report_requires_structures():
    f = projection_to_torus8()
    with pytest.raises(morphism.HypothesisError):
        morphism.induced_report(f, "BottChern", degree=2)


def test_induced_report_rejects_mismatched_symplectic_forms():
    g = catalog.get("torus4").algebra
    f = identity_morphism(g)
    s1 = sp.make(g, parse_form("12+34", 4))
    s2 = sp.make(g, parse_form("2*12+34", 4))
    with pytest.raises(morphism.HypothesisError):
        morphism.induced_report(
            f, "BottChern", degree=2, source_structure=s1, target_structure=s2
        )
    # and with the matched pullback everything is fine
    f2 = morphism.LieMorphism(g, g, diag_matrix([2, 1, 1, 1]))
    rep = morphism.induced_report(
        f2, "BottChern", degree=2, source_structure=s2, target_structure=s1
    )
    assert rep.injective


def test_induced_report_rejects_non_pseudo_holomorphic(acs_structures):
    g = catalog.get("torus4").algebra
    swap = RationalMatrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    f = morphism.LieMorphism(g, g, swap)
    a = acs_structures["torus4"]
    with pytest.raises(morphism.HypothesisError):
        morphism.induced_report(f, "J", source_structure=a, target_structure=a, p=1, q=1)


def test_induced_report_rejects_invalid_morphism():
    eta = catalog.get("etabeta5").algebra
    t8 = catalog.get("torus8").algebra
    rows = [[F(1) if j == i + 2 else F(0) for j in range(10)] for i in range(8)]
    f = morphism.LieMorphism(eta, t8, RationalMatrix(rows))
    with pytest.raises(morphism.HypothesisError):
        morphism.induced_report(f, "deRham", degree=1)


@pytest.mark.parametrize("theory", morphism.THEORIES)
def test_induced_report_rejects_non_jacobi_algebras(theory):
    g = parse_salamon("(0,0,0,12+34)")
    f = identity_morphism(g)
    with pytest.raises(ValueError, match="violate Jacobi at generator 4") as info:
        morphism.induced_report(f, theory, degree=2, p=1, q=1)
    assert not isinstance(info.value, morphism.HypothesisError)


# --- instance checks of the comparison theorems -----------------------------------


def test_automorphisms_give_de_rham_injectivity_every_degree():
    # invertible equal-dimension morphisms inject on invariant de Rham
    for name in SYMPLECTIC_NAMES:
        f, _, _ = catalog_automorphism(name)
        assert morphism.validate_morphism(f) is None, name
        for k in range(f.source.dim + 1):
            rep = morphism.induced_report(f, "deRham", degree=k)
            assert rep.injective, (name, k)
            assert rep.rank == rep.source_dim


def test_automorphism_symplectic_theories_injective_when_lemma_holds(reports):
    for name in SYMPLECTIC_NAMES:
        if not reports[name].ddlambda_lemma:
            continue
        f, omega_t, omega_s = catalog_automorphism(name)
        st = sp.make(f.target, omega_t)
        ss = sp.make(f.source, omega_s)
        for theory in ("BottChern", "dLambda", "Aeppli"):
            for k in range(f.source.dim + 1):
                rep = morphism.induced_report(
                    f, theory, degree=k, source_structure=ss, target_structure=st
                )
                assert rep.injective, (name, theory, k)


def test_hlc_transfer_along_automorphisms(reports):
    # with matched forms, the source verdict forces the target verdict
    for name in SYMPLECTIC_NAMES:
        f, omega_t, omega_s = catalog_automorphism(name)
        source_rep = sp.report(sp.make(f.source, omega_s))
        target_rep = sp.report(sp.make(f.target, omega_t))
        assert source_rep.hlc == target_rep.hlc, name
        if source_rep.hlc:
            assert target_rep.hlc, name
