"""Almost-complex structures on a Lie algebra: bigrading and pure-type groups.

An almost-complex structure is an exact rational matrix J with J^2 = -I.
It acts on k-forms by (J a)(v_1, ..., v_k) = a(J v_1, ..., J v_k); real
forms whose complexification has pure bidegree (p, q) + (q, p) form the
subspaces this module extracts, together with the dimensions of the
de Rham classes representable by such forms.

Complexification never materializes: on degree p+q the derivation extension
D of J (``forms.derivation_map`` on the rows of J, one wedge slot at a time)
acts with eigenvalue i(p-q) on the (p, q) component, so the real pure-type
subspace is the rational kernel of D^2 + (p-q)^2 in every degree.  Each
``AlmostComplexStructure`` caches D per degree and, per degree and |p-q|,
the pure-type subspace and the closed pure-type forms with the exact ones
among them (``pure_subquotient``), so (p, q) and (q, p), ``h_j``,
``pure_full_check`` and the J pullback share one computation.
"""

from typing import NamedTuple

from . import cec
from .forms import KForm, derivation_map, two_form_matrix
from .linalg import DimensionMismatch, RationalMatrix, Subspace, int_det, kernel

COMPATIBLE = "compatible"
TAMED_ONLY = "tamed_only"
NEITHER = "neither"


def validate_acs(algebra: cec.LieAlgebra, j: RationalMatrix) -> None:
    """Check J^2 = -I exactly; raises with the first offending column."""
    n = algebra.dim
    if n % 2:
        raise ValueError(f"almost-complex structures need even dimension, got {n}")
    if j.rows != n or j.cols != n:
        raise DimensionMismatch(f"J must be {n}x{n}")
    square = j @ j
    bad = [
        col
        for i, row in enumerate(square.nums)
        for col in row.keys() | {i}
        if row.get(col, 0) != (-square.den if col == i else 0)
    ]
    if bad:
        raise ValueError(f"J^2 != -identity at column {min(bad) + 1}")


class AlmostComplexStructure(cec.Cached):
    """A validated pair (algebra, J): Jacobi holds and J^2 = -I.

    The derivation matrix of each degree, and the pure-type subspace and
    subquotient of each degree and |p-q|, are built on first use and cached
    for the object's lifetime, like the complex of a ``LieAlgebra``.
    """

    def __init__(self, algebra: cec.LieAlgebra, j: RationalMatrix):
        cec.require_jacobi(algebra)
        validate_acs(algebra, j)
        self.algebra = algebra
        self.j = j
        super().__init__()

    def derivation_matrix(self, k: int) -> RationalMatrix:
        """Matrix of the derivation extension of J on degree k."""
        n = self.algebra.dim

        def build():
            images = [{1 << c: x for c, x in row.items()} for row in self.j.nums]
            return derivation_map(images, self.j.den, 0, n, k)

        return self._cached(("derivation", k), build)

    def __repr__(self):
        return f"AlmostComplexStructure(dim={self.algebra.dim})"


def _positive_definite(m: RationalMatrix) -> bool:
    """Whether the symmetric part (m + m^T) / 2 of a square m is positive definite.

    Sylvester criterion: all leading principal minors strictly positive.  The
    minors are taken of nums + nums^T, the symmetric part scaled by 2 den; a
    positive scale keeps the sign of every minor.
    """
    n = m.rows
    table = [[0] * n for _ in range(n)]
    for i, row in enumerate(m.nums):
        for j, x in row.items():
            table[i][j] += x
            table[j][i] += x
    return all(int_det([row[:k] for row in table[:k]]) > 0 for k in range(1, n + 1))


def compatibility(omega, acs: AlmostComplexStructure) -> str:
    """Pointwise relation of a nondegenerate 2-form with J.

    ``omega`` may be a plain 2-form or any object carrying one in an
    ``omega`` attribute (a symplectic structure); closedness plays no role
    in this check.  Returns "compatible" when omega is J-invariant and
    omega(., J .) is positive definite, "tamed_only" when only the
    symmetrized positivity holds, else "neither".
    """
    form = getattr(omega, "omega", omega)
    if not isinstance(form, KForm) or form.degree != 2:
        raise ValueError("expected a 2-form or a structure carrying one")
    if form.n != acs.algebra.dim:
        raise DimensionMismatch("2-form and J live on different spaces")
    w = two_form_matrix(form)
    invariant = (acs.j.transpose() @ w @ acs.j) == w
    positive = _positive_definite(w @ acs.j)
    if invariant and positive:
        return COMPATIBLE
    if positive:
        return TAMED_ONLY
    return NEITHER


def _plus_scalar(m: RationalMatrix, c: int) -> RationalMatrix:
    """m + c * identity, for a square m: c den joins nums on the diagonal."""
    rows = [dict(row) for row in m.nums]
    for i, row in enumerate(rows):
        row[i] = row.get(i, 0) + c * m.den
    return RationalMatrix.from_rows(rows, m.rows, m.cols, m.den)


def pure_type_subspace(acs: AlmostComplexStructure, p: int, q: int) -> Subspace:
    """Real (p+q)-forms whose complexification is of type (p,q) + (q,p)."""
    n = acs.algebra.dim
    k = p + q
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    if k > n:
        raise ValueError(f"degree {k} exceeds the ambient dimension {n}")

    def build():
        dm = acs.derivation_matrix(k)
        return kernel(_plus_scalar(dm @ dm, (p - q) ** 2))

    return acs._cached(("pure", k, abs(p - q)), build)


class PureTypeGroup(NamedTuple):
    p: int
    q: int
    dim: int
    representative_basis: tuple | None


def pure_subquotient(acs: AlmostComplexStructure, p: int, q: int) -> tuple[Subspace, Subspace]:
    """(Z ^ P, Z ^ P ^ B): closed, pure-type (P) and exact (B) forms in degree p+q."""
    pure = pure_type_subspace(acs, p, q)  # rejects bad bidegrees first
    g, k = acs.algebra, p + q

    def build():
        zp = g.cycles(k).intersect(pure)
        return zp, zp.intersect(g.boundaries(k))

    return acs._cached(("subquotient", k, abs(p - q)), build)


def h_j(
    acs: AlmostComplexStructure,
    p: int,
    q: int,
    with_representatives: bool = False,
) -> PureTypeGroup:
    """Dimension of the de Rham classes carrying a pure (p,q)+(q,p) form."""
    zp, zpb = pure_subquotient(acs, p, q)
    reps = None
    if with_representatives:
        reps, span = [], zpb
        for vec in zp.basis:
            grown = span.sum(Subspace(zp.ambient_dim, [vec]))
            if grown.dim > span.dim:
                reps.append(KForm.from_vector(acs.algebra.dim, p + q, vec))
                span = grown
        reps = tuple(reps)
    return PureTypeGroup(p=p, q=q, dim=zp.dim - zpb.dim, representative_basis=reps)


class PureFullResult(NamedTuple):
    pure: bool
    full: bool


def pure_full_check(acs: AlmostComplexStructure) -> PureFullResult:
    """Degree-two decomposition verdict.

    Pure: the images of the J-invariant and J-anti-invariant groups inside
    the degree-2 de Rham space intersect trivially.  Full: together with the
    exact forms they span all closed 2-forms.  Both lifts X, Y contain the
    exact forms B, so pure is dim X + dim Y - dim (X + Y) = dim B.
    """
    z, b = acs.algebra.cycles(2), acs.algebra.boundaries(2)
    lifted_inv = pure_subquotient(acs, 1, 1)[0].sum(b)
    lifted_anti = pure_subquotient(acs, 2, 0)[0].sum(b)
    both = lifted_inv.sum(lifted_anti)
    pure = lifted_inv.dim + lifted_anti.dim - both.dim == b.dim
    full = both.dim == z.dim
    return PureFullResult(pure=pure, full=full)
