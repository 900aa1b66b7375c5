"""Almost-complex structures on a Lie algebra: bigrading and pure-type groups.

An almost-complex structure is an exact rational matrix J with J^2 = -I.
It acts on k-forms by (J a)(v_1, ..., v_k) = a(J v_1, ..., J v_k); real
forms whose complexification has pure bidegree (p, q) + (q, p) form the
subspaces this module extracts, together with the dimensions of the
de Rham classes representable by such forms.

Complexification never materializes: on degree p+q the derivation extension
of J (one wedge slot at a time) acts with eigenvalue i(p-q) on the (p, q)
component, so the real pure-type subspace is the rational kernel of
(derivation^2 + (p-q)^2).  In degree two this coincides with the +1 / -1
eigenspaces of the plain action, which are kept as the fast path: the +1
eigenspace is the J-invariant (1,1) part, the -1 eigenspace the
J-anti-invariant (2,0)+(0,2) part.
"""

from fractions import Fraction
from typing import NamedTuple

from . import cec
from .forms import KForm, j_action, j_derivation, matrix_of, two_form_matrix
from .linalg import (
    DimensionMismatch,
    RationalMatrix,
    Subspace,
    column_space,
    det,
    kernel,
)

_ZERO = Fraction(0)

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
    jj = j @ j
    for col in range(n):
        for row in range(n):
            want = Fraction(-1) if row == col else _ZERO
            if jj.entries[row][col] != want:
                raise ValueError(f"J^2 != -identity at column {col + 1}")


class AlmostComplexStructure:
    """A validated pair (algebra, J) with cached action matrices."""

    def __init__(self, algebra: cec.LieAlgebra, j: RationalMatrix):
        validate_acs(algebra, j)
        self.algebra = algebra
        self.j = j
        self._action_mats: dict = {}
        self._derivation_mats: dict = {}

    def action_matrix(self, k: int) -> RationalMatrix:
        """Matrix of the multiplicative J action on degree k."""
        if k not in self._action_mats:
            n = self.algebra.dim
            self._action_mats[k] = matrix_of(lambda a: j_action(self.j, a), n, k, n, k)
        return self._action_mats[k]

    def derivation_matrix(self, k: int) -> RationalMatrix:
        if k not in self._derivation_mats:
            n = self.algebra.dim
            self._derivation_mats[k] = matrix_of(
                lambda a: j_derivation(self.j, a), n, k, n, k
            )
        return self._derivation_mats[k]

    def __repr__(self):
        return f"AlmostComplexStructure(dim={self.algebra.dim})"


def _positive_definite(sym: RationalMatrix) -> bool:
    """Sylvester criterion: all leading principal minors strictly positive."""
    n = sym.rows
    for k in range(1, n + 1):
        minor = RationalMatrix([row[:k] for row in sym.entries[:k]])
        if det(minor) <= 0:
            return False
    return True


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
    b = w @ acs.j
    invariant = (acs.j.transpose() @ w @ acs.j) == w
    sym = RationalMatrix(
        [
            [(b.entries[i][j] + b.entries[j][i]) / 2 for j in range(b.cols)]
            for i in range(b.rows)
        ]
    )
    positive = _positive_definite(sym)
    if invariant and positive:
        return COMPATIBLE
    if positive:
        return TAMED_ONLY
    return NEITHER


def _plus_scalar(m: RationalMatrix, c: Fraction) -> RationalMatrix:
    """m + c * identity, for a square m."""
    rows = [list(row) for row in m.entries]
    for i, row in enumerate(rows):
        row[i] += c
    return RationalMatrix(rows)


def pure_type_subspace(acs: AlmostComplexStructure, p: int, q: int) -> Subspace:
    """Real (p+q)-forms whose complexification is of type (p,q) + (q,p)."""
    n = acs.algebra.dim
    k = p + q
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    if k > n:
        raise ValueError(f"degree {k} exceeds the ambient dimension {n}")
    if k == 2:
        # fast path: eigenspaces of the involutive action on 2-forms
        shift = Fraction(-1) if p == q else Fraction(1)
        return kernel(_plus_scalar(acs.action_matrix(2), shift))
    dm = acs.derivation_matrix(k)
    return kernel(_plus_scalar(dm @ dm, Fraction((p - q) ** 2)))


class PureTypeGroup(NamedTuple):
    p: int
    q: int
    dim: int
    representative_basis: tuple | None


def h_j(
    acs: AlmostComplexStructure,
    p: int,
    q: int,
    with_representatives: bool = False,
) -> PureTypeGroup:
    """Dimension of the de Rham classes carrying a pure (p,q)+(q,p) form.

    Computed as dim(Z ^ P) - dim(Z ^ P ^ B) with Z the closed forms, B the
    exact forms and P the pure-type subspace in degree p+q.
    """
    g = acs.algebra
    k = p + q
    z = kernel(cec.d_matrix(g, k))
    pure = pure_type_subspace(acs, p, q)
    zp = z.intersect(pure)
    if k == 0:
        boundary = Subspace.zero(zp.ambient_dim)
    else:
        boundary = column_space(cec.d_matrix(g, k - 1))
    zpb = zp.intersect(boundary)
    dim = zp.dim - zpb.dim
    reps = None
    if with_representatives:
        reps = []
        span = zpb
        for vec in zp.basis:
            grown = span.sum(Subspace(zp.ambient_dim, [vec]))
            if grown.dim > span.dim:
                reps.append(KForm.from_vector(g.dim, k, vec))
                span = grown
        reps = tuple(reps)
    return PureTypeGroup(p=p, q=q, dim=dim, representative_basis=reps)


class PureFullResult(NamedTuple):
    pure: bool
    full: bool


def pure_full_check(acs: AlmostComplexStructure) -> PureFullResult:
    """Degree-two decomposition verdict.

    Pure: the images of the J-invariant and J-anti-invariant groups inside
    the degree-2 de Rham space intersect trivially.  Full: together with the
    exact forms they span all closed 2-forms.
    """
    g = acs.algebra
    z = kernel(cec.d_matrix(g, 2))
    b = column_space(cec.d_matrix(g, 1))
    s_inv = z.intersect(pure_type_subspace(acs, 1, 1))
    s_anti = z.intersect(pure_type_subspace(acs, 2, 0))
    lifted_inv = s_inv.sum(b)
    lifted_anti = s_anti.sum(b)
    pure = lifted_inv.intersect(lifted_anti).dim == b.dim
    full = lifted_inv.sum(lifted_anti).dim == z.dim
    return PureFullResult(pure=pure, full=full)
