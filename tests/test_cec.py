import itertools
import random
from fractions import Fraction

import pytest

from helpers import random_form
from sympcoh import acx, catalog, cec, morphism
from sympcoh.cec import (
    LieAlgebra,
    betti,
    d_matrix,
    differential,
    is_nilpotent,
    validate,
)
from sympcoh.forms import KForm
from sympcoh.linalg import DimensionMismatch, RationalMatrix, column_space, kernel, rank
from sympcoh.parser import parse_salamon, render_salamon

F = Fraction


def e(n, *indices):
    return KForm.basis(n, indices)


KODAIRA = parse_salamon("(0,0,0,23)")


# --- differential ---------------------------------------------------------


def test_differential_kodaira_e14():
    # anti-derivation by hand: d(e1 ^ e4) = -e1 ^ de4 = -e1 ^ e23
    assert differential(KODAIRA, e(4, 1, 4)) == -e(4, 1, 2, 3)


def test_differential_kodaira_e24():
    # e2 ^ e23 = 0
    assert differential(KODAIRA, e(4, 2, 4)).is_zero()


def test_differential_of_constant():
    for text in ["(0,0,0,23)", "(0,0,12,13)"]:
        g = parse_salamon(text)
        assert differential(g, KForm.constant(4, 5)).is_zero()


def test_differential_is_linear():
    a, b = e(4, 1, 4), e(4, 3, 4)
    lhs = differential(KODAIRA, 2 * a - 3 * b)
    rhs = 2 * differential(KODAIRA, a) - 3 * differential(KODAIRA, b)
    assert lhs == rhs


def test_differential_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        differential(KODAIRA, e(5, 1, 2))


def test_differential_antiderivation_rule():
    rng = random.Random(77)
    for name in ["kodaira", "g41", "g1_g34m", "hyperelliptic"]:
        g = catalog.get(name).algebra
        for _ in range(6):
            ka, kb = rng.randint(0, 2), rng.randint(0, 2)
            a, b = random_form(4, ka, rng), random_form(4, kb, rng)
            from sympcoh.forms import wedge

            lhs = differential(g, wedge(a, b))
            rhs = wedge(differential(g, a), b)
            signed = wedge(a, differential(g, b))
            rhs = rhs + (signed if ka % 2 == 0 else -signed)
            assert lhs == rhs


# --- validation -----------------------------------------------------------


def test_validate_catalog_equations():
    assert validate(parse_salamon("(0,0,0,23)")) is None
    assert validate(parse_salamon("(0,0,12,13)")) is None


def test_validate_reports_first_jacobi_failure():
    # d(de^4) = d(e34) = de3 ^ e4 - e3 ^ de4 = e124, nonzero
    g = parse_salamon("(0,0,12,34)")
    assert validate(g) == 4
    assert differential(g, g.gen_differentials[3]) == e(4, 1, 2, 4)


def _jacobiator_component(g, i, j, k, m):
    """e_m component of [[e_i, e_j], e_k] + cyclic, from the brackets alone."""
    n = g.dim
    brackets = cec._bracket_vectors(g)

    def bracket(u, v):  # u, v as {0-based index: coefficient}
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                if a == b:
                    continue
                sign = 1 if a < b else -1
                for c, z in brackets.get((min(a, b), max(a, b)), {}).items():
                    out[c] = out.get(c, 0) + sign * x * y * z
        return out

    e_ = [{a: 1} for a in range(n)]
    x, y, z = e_[i - 1], e_[j - 1], e_[k - 1]
    total = 0
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        total += bracket(bracket(u, v), w).get(m - 1, 0)
    return total


def test_jacobi_witness_names_a_triple_with_nonzero_jacobiator():
    g = parse_salamon("(0,0,12,34)")
    assert cec.jacobi_witness(g, 4) == (1, 2, 4)
    assert _jacobiator_component(g, 1, 2, 4, 4) != 0
    rng = random.Random(5)
    failures = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        g = LieAlgebra(n, [random_form(n, 2, rng, max_terms=2) for _ in range(n)])
        m = validate(g)
        if m is None:
            continue
        failures += 1
        triple = cec.jacobi_witness(g, m)
        assert _jacobiator_component(g, *triple, m) != 0, (g.gen_differentials, m)
        # the first such triple in lexicographic order
        for earlier in itertools.combinations(range(1, n + 1), 3):
            if earlier == triple:
                break
            assert _jacobiator_component(g, *earlier, m) == 0, (earlier, triple)
    assert failures >= 20


def test_jacobi_errors_name_the_witness():
    g = parse_salamon("(0,0,12,34)")
    suffix = "(the Jacobiator of e_1, e_2, e_4 has a nonzero e_4 component)"
    with pytest.raises(ValueError, match="violate Jacobi at generator 4") as info:
        cec.require_jacobi(g)
    assert str(info.value).endswith(suffix)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        LieAlgebra(3, [KForm.zero(3, 2)])
    with pytest.raises(DimensionMismatch):
        LieAlgebra(2, [KForm.zero(2, 1), KForm.zero(2, 1)])


# --- matrices ---------------------------------------------------------------


def test_d_matrix_shapes_and_lex_order():
    m = d_matrix(KODAIRA, 1)
    assert (m.rows, m.cols) == (6, 4)
    # row order 12,13,14,23,24,34; only column e4 hits e23 (row 3)
    expected = [[0] * 4 for _ in range(6)]
    expected[3][3] = 1
    assert m.entries == tuple(tuple(map(F, row)) for row in expected)


def test_d_squared_vanishes_for_all_catalog_entries():
    for name in catalog.names():
        g = catalog.get(name).algebra
        for k in range(g.dim):
            prod = d_matrix(g, k + 1) @ d_matrix(g, k)
            assert prod.is_zero(), (name, k)


# --- the cached complex -----------------------------------------------------


def test_cached_complex_matches_fresh_matrices():
    for name in catalog.names():
        g = catalog.get(name).algebra
        assert g.boundaries(0).dim == 0, name
        for k in range(g.dim + 1):
            assert g.cycles(k) == kernel(d_matrix(g, k)), (name, k)
            if k:
                assert g.boundaries(k) == column_space(d_matrix(g, k - 1)), (name, k)
            assert g.rank_d(k) == rank(d_matrix(g, k)), (name, k)


def test_complex_is_zero_outside_degrees():
    for k in (-1, 5, 6):
        assert KODAIRA.d(k).is_zero()
    assert (KODAIRA.d(-1).rows, KODAIRA.d(-1).cols) == (1, 0)
    assert (KODAIRA.d(4).rows, KODAIRA.d(4).cols) == (0, 1)
    assert KODAIRA.rank_d(-1) == KODAIRA.rank_d(4) == 0
    assert KODAIRA.cycles(5).dim == 0 and KODAIRA.boundaries(5).dim == 0
    with pytest.raises(ValueError, match="out of range"):
        d_matrix(KODAIRA, 5)


def test_session_builds_each_d_matrix_once(monkeypatch):
    seen = []
    original = cec.d_matrix

    def counting(g, k):
        seen.append((g, k))
        return original(g, k)

    monkeypatch.setattr(cec, "d_matrix", counting)
    # freshly parsed, so no earlier test has warmed their caches
    eta = parse_salamon(render_salamon(catalog.get("etabeta5").algebra))
    torus = parse_salamon(render_salamon(catalog.get("torus8").algebra))
    a = acx.AlmostComplexStructure(eta, catalog.standard_block_j(10))
    projection = RationalMatrix([[int(i == j) for j in range(10)] for i in range(8)])
    f = morphism.LieMorphism(eta, torus, projection)
    betti(eta)
    acx.h_j(a, 1, 1)
    acx.h_j(a, 2, 0)
    acx.pure_full_check(a)
    morphism.induced_report(f, "deRham", degree=2)
    # d_0 .. d_10 on etabeta5, d_1 and d_2 on torus8
    assert len(seen) == len(set(seen)) == 11 + 2


def test_generator_images_are_cleared_once_per_algebra(monkeypatch):
    calls = []
    original = cec._clear

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(cec, "_clear", counting)
    # de^3 = 1/2 e^12 and de^4 = 1/3 e^13: the images carry denominators
    g = LieAlgebra(4, [KForm.zero(4, 2), KForm.zero(4, 2), e(4, 1, 2) * F(1, 2), e(4, 1, 3) * F(1, 3)])
    for k in range(g.dim + 1):
        assert d_matrix(g, k) == g.d(k)
    assert g.d(1).den == 6
    assert len(calls) == 1


def test_warm_cache_leaves_equality_and_hash_alone():
    text = render_salamon(catalog.get("g41").algebra)
    warm, cold = parse_salamon(text), parse_salamon(text)
    betti(warm)
    warm.cycles(2), warm.boundaries(2)
    assert warm._cache and not cold._cache
    assert warm == cold and hash(warm) == hash(cold)


def test_validate_verdict_is_computed_once(monkeypatch):
    g = parse_salamon("(0,0,12,34)")
    assert validate(g) == 4
    monkeypatch.setattr(cec, "differential", None)
    assert validate(g) == 4


# --- Betti numbers ----------------------------------------------------------


def test_betti_kodaira():
    assert betti(KODAIRA) == (1, 3, 4, 3, 1)


def test_betti_four_torus():
    assert betti(parse_salamon("(0,0,0,0)")) == (1, 4, 6, 4, 1)


def test_betti_solvable_entry():
    assert betti(parse_salamon("(0,0,-23,24)"))[2] == 2


def test_betti_g41():
    assert betti(parse_salamon("(0,0,12,13)")) == (1, 2, 2, 2, 1)


def test_betti_requires_jacobi():
    with pytest.raises(ValueError):
        betti(parse_salamon("(0,0,12,34)"))


def test_betti_etabeta5_first_degree(betti_tables):
    # e1..e8 closed, de9 and de10 independent: rank d_1 = 2, so b_1 = 8
    eta = catalog.get("etabeta5").algebra
    assert rank(d_matrix(eta, 1)) == 2
    assert betti_tables["etabeta5"][1] == 8


def test_euler_characteristic_vanishes_for_nilpotent_entries(betti_tables):
    for name in catalog.names():
        if catalog.get(name).nilpotent:
            assert betti_tables[name].euler_characteristic() == 0, name


def test_poincare_duality_for_unimodular_entries(betti_tables):
    for name in catalog.names():
        b = tuple(betti_tables[name])
        assert b == b[::-1], name


def test_betti_table_b0_is_one(betti_tables):
    for name, table in betti_tables.items():
        assert table[0] == 1, name


# --- nilpotency -------------------------------------------------------------


def test_is_nilpotent_matches_catalog_flags():
    for name in catalog.names():
        entry = catalog.get(name)
        assert is_nilpotent(entry.algebra) == entry.nilpotent, name


def test_is_nilpotent_on_solvable_example():
    assert not is_nilpotent(parse_salamon("(0,0,-23,24)"))
    assert is_nilpotent(parse_salamon("(0,0,0,23)"))
