"""Operator matrices written from bitmasks, against routes that build no matrix natively.

``d_matrix``, ``derivation_matrix``, ``lam_mat``, ``dlam_mat`` and ``star_mat``
are checked, in every degree from -1 to n+1 (zero-shaped matrices included),
on every catalog structure and on the generated algebras of dimensions 4 to 8
(see ``helpers.GENERATED_ALGEBRAS``).  Of the 24 sampled dimension-8
structures the first 6 run by default and all of them under the ``slow``
marker (``pytest -m slow``):

* against ``matrix_of`` over the operators on forms;
* d and the J derivation also against a Leibniz-rule oracle that knows only
  ``wedge``, so a sign slip in the shared per-mask kernel cannot hide;
* d^Lambda_k against (-1)^(k+1) star d star, with star built from the Poisson
  minors and not from Lambda, and rank d^Lambda_k against rank d_(n-k);
* star, written by the pullback kernel, against the entry-by-entry minor
  formula on the catalog and on the generated dimensions 4 to 6.

The kernels run on ints over one denominator; a last test gives them
structure constants and a Poisson matrix with denominators.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from helpers import GENERATED_ALGEBRAS, generated_structure
from sympcoh import acx, catalog, cec, forms
from sympcoh import symplectic as sp
from sympcoh.forms import (
    KForm,
    basis_masks,
    contract,
    derivation,
    indices_from_mask,
    matrix_of,
    merge_sign,
    wedge,
)
from sympcoh.linalg import RationalMatrix, int_det, rank


def _leibniz_images(images, shift, n):
    """Image of every basis form under the derivation of degree ``shift`` extending
    e^i -> images[i-1], by the Leibniz rule D(e^i ^ b) = D(e^i) ^ b + (-1)^shift e^i ^ D(b)
    with e^i the lowest label of the basis form."""
    out = {0: KForm.zero(n, shift)}
    for mask in sorted(range(1, 1 << n), key=int.bit_count):
        low = mask & -mask
        rest = mask ^ low
        tail = wedge(KForm(n, 1, {low: 1}), out[rest])
        head = wedge(images[low.bit_length() - 1], KForm(n, rest.bit_count(), {rest: 1}))
        out[mask] = head + (-tail if shift % 2 else tail)
    return out


def _matrix_of_images(out, n, k_in, k_out):
    return matrix_of(lambda a: out[next(iter(a.coeffs))], n, k_in, n, k_out)


def _scaled(m, c):
    return RationalMatrix.from_rows(
        [{j: c * x for j, x in row.items()} for row in m.row_maps], m.rows, m.cols
    )


def check_complex(g):
    n = g.dim
    leibniz = _leibniz_images(g.gen_differentials, 1, n)
    for k in range(-1, n + 2):
        d = g.d(k)
        assert d == matrix_of(lambda a: cec.differential(g, a), n, k, n, k + 1), k
        assert d == _matrix_of_images(leibniz, n, k, k + 1), k
        if 0 <= k <= n:
            assert cec.d_matrix(g, k) == d, k


def check_derivation(a):
    n = a.algebra.dim
    images = [KForm(n, 1, {1 << c: x for c, x in row.items()}) for row in a.j.row_maps]
    leibniz = _leibniz_images(images, 0, n)
    for k in range(-1, n + 2):
        dm = a.derivation_matrix(k)
        assert dm == matrix_of(lambda f: derivation(images, 0, f), n, k, n, k), k
        assert dm == _matrix_of_images(leibniz, n, k, k), k


def check_symplectic(s):
    g, n = s.algebra, s.algebra.dim
    for k in range(-1, n + 2):
        assert s.lam_mat(k) == matrix_of(lambda a: contract(s.poisson, a), n, k, n, k - 2), k
        dlam = s.dlam_mat(k)
        assert dlam == matrix_of(lambda a: sp.d_lambda(s, a), n, k, n, k - 1), k
        star_d_star = s.star_mat(n - k + 1) @ g.d(n - k) @ s.star_mat(k)
        assert dlam == _scaled(star_d_star, (-1) ** (k + 1)), k
        assert rank(dlam) == g.rank_d(n - k), k


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_operator_matrices(name):
    entry = catalog.get(name)
    check_complex(entry.algebra)
    if entry.default_j is not None:
        check_derivation(acx.AlmostComplexStructure(entry.algebra, entry.default_j))
    if entry.default_omega is not None:
        check_symplectic(sp.make(entry.algebra, entry.default_omega))


@pytest.mark.parametrize("n", range(4, 8))
def test_generated_operator_matrices(n):
    j = catalog.standard_block_j(n) if n % 2 == 0 else None
    for _, seed, g in (a for a in GENERATED_ALGEBRAS if a[0] == n):
        check_complex(g)
        if j is not None:
            check_derivation(acx.AlmostComplexStructure(g, j))
            s = generated_structure(seed, g)
            if s is not None:
                check_symplectic(s)


# the sampled symplectic structures of the generated dimension-8 algebras
DIMENSION_EIGHT = [
    s for s in (generated_structure(seed, g) for n, seed, g in GENERATED_ALGEBRAS if n == 8)
    if s is not None
]


def test_dimension_eight_operator_matrices():
    for s in DIMENSION_EIGHT[:6]:
        check_symplectic(s)


@pytest.mark.slow
def test_dimension_eight_operator_matrices_all():
    assert len(DIMENSION_EIGHT) == 24
    for s in DIMENSION_EIGHT:
        check_symplectic(s)


def _star_by_minors(s, k):
    """Star on degree k entry by entry: row ~I, column J holds sign(I, ~I) det P[I, J] vol.

    The k x k minors are taken of the Poisson numerators with ``int_det``,
    each on its own, and den^k goes into the scale.
    """
    n = s.algebra.dim
    top = s.omega_power(n // 2)
    full = (1 << n) - 1
    p = s.poisson
    scale = top.coeffs[full] / factorial(n // 2) / p.den**k
    table = [[row.get(j, 0) for j in range(n)] for row in p.nums]
    masks, out_masks = basis_masks(n, k), basis_masks(n, n - k)
    rows = [[Fraction(0)] * len(masks) for _ in out_masks]
    for m in masks:
        idx = [i - 1 for i in indices_from_mask(m)]
        row = rows[out_masks.index(full ^ m)]
        for col, mp in enumerate(masks):
            jdx = [j - 1 for j in indices_from_mask(mp)]
            minor = int_det([[table[a][b] for b in jdx] for a in idx])
            row[col] = merge_sign(m, full ^ m) * scale * minor
    return RationalMatrix(rows, len(out_masks), len(masks))


def _small_structures():
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.default_omega is not None:
            yield name, sp.make(entry.algebra, entry.default_omega)
    for n, seed, g in GENERATED_ALGEBRAS:
        if n in (4, 6) and (s := generated_structure(seed, g)) is not None:
            yield (n, seed), s


def test_star_matrix_matches_minor_formula():
    for label, s in _small_structures():
        for k in range(s.algebra.dim + 1):
            assert s.star_mat(k) == _star_by_minors(s, k), (label, k)


def _rescaled(g, mu):
    """g in the coframe f^i = mu_i e^i: df^k = sum c^k_ij mu_k / (mu_i mu_j) f^ij."""
    n = g.dim
    gens = []
    for k, dgen in enumerate(g.gen_differentials):
        coeffs = {}
        for mask, c in dgen.coeffs.items():
            i, j = indices_from_mask(mask)
            coeffs[mask] = c * mu[k] / (mu[i - 1] * mu[j - 1])
        gens.append(KForm(n, 2, coeffs))
    return cec.LieAlgebra(n, gens)


@pytest.mark.parametrize("n", (6, 8))
def test_kernels_emit_ints_over_one_denominator(n, monkeypatch):
    coefficient_types = set()
    write = forms.mask_matrix

    def recording(terms_of, *args):
        def recorded(mask):
            for m, c in terms_of(mask):
                coefficient_types.add(type(c))
                yield m, c
        return write(recorded, *args)

    dens = {"d": set(), "lam": set()}
    for _, seed, g in [a for a in GENERATED_ALGEBRAS if a[0] == n][:6]:
        rng = random.Random(seed)
        h = _rescaled(g, [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)])
        assert cec.validate(h) is None, seed
        s = generated_structure(seed, g)
        with monkeypatch.context() as patch:  # the kernels of d and Lambda, built here
            patch.setattr(forms, "mask_matrix", recording)
            mats = {("d", k): h.d(k) for k in range(n + 1)}
            if s is not None:
                mats.update({(op, k): s.op_mat(op, k)
                             for op in ("lam", "dlam", "ddlam") for k in range(n + 1)})
        for key, m in mats.items():
            assert all(type(x) is int for row in m.nums for x in row.values()), (seed, key)
            assert type(m.den) is int and m.den > 0, (seed, key)
            if key[0] in dens:
                dens[key[0]].add(m.den)
        check_complex(h)
        if s is not None:
            for k in range(n + 1):
                assert s.lam_mat(k) == matrix_of(
                    lambda a: contract(s.poisson, a), n, k, n, k - 2
                ), (seed, k)
    assert coefficient_types == {int}
    # the inputs did carry denominators
    assert max(dens["d"]) > 1 and max(dens["lam"]) > 1
