"""Operator matrices written from bitmasks, against routes that build no matrix natively.

``d_matrix``, ``derivation_matrix``, ``lam_mat`` and ``dlam_mat`` are checked,
in every degree from -1 to n+1 (zero-shaped matrices included), on every
catalog structure and on the generated algebras of dimensions 4 to 7 (see
``helpers.GENERATED_ALGEBRAS``).  The generated dimension-8 structures are
left out: their sampled omega is dense, so star is dense and the star route
alone costs about half a second a structure.

* against ``matrix_of`` over the operators on forms;
* d and the J derivation also against a Leibniz-rule oracle that knows only
  ``wedge``, so a sign slip in the shared per-mask kernel cannot hide;
* d^Lambda_k against (-1)^(k+1) star d star, with star built from the Poisson
  minors and not from Lambda, and rank d^Lambda_k against rank d_(n-k).
"""

import pytest

from helpers import GENERATED_ALGEBRAS, generated_structure
from sympcoh import acx, catalog, cec
from sympcoh import symplectic as sp
from sympcoh.forms import KForm, contract, derivation, matrix_of, wedge
from sympcoh.linalg import RationalMatrix, rank


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
