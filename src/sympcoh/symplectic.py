"""Symplectic operators and cohomologies on the invariant complex.

Given a closed nondegenerate invariant 2-form omega on a 2n-dimensional Lie
algebra, this module provides the Lefschetz operator L = omega ^ ., its
adjoint Lambda (contraction with the Poisson bivector omega^{-1}), the
symplectic star, and the codifferential

    d^Lambda = d Lambda - Lambda d = (-1)^(k+1) * star d star,

together with the cohomologies it cuts out of the invariant complex:

* the d^Lambda-cohomology    ker d^Lambda / im d^Lambda,
* the Bott-Chern groups      (ker d  ^ ker d^Lambda) / im d d^Lambda,
* the Aeppli groups          ker d d^Lambda / (im d + im d^Lambda),

all per degree, all over exact rationals.  The matrix of d^Lambda is the
product d Lambda - Lambda d over the algebra's cached complex.  The star
operator is built from the Poisson pairing on k-forms, so no sign convention
is taken on faith: the test suite locks star star = id and the two
expressions for d^Lambda against each other, as matrices, for every catalog
structure and for generated ones.

The non-HLC degree of a structure in degree k is the gap between the
Bott-Chern and de Rham dimensions; it vanishes in every degree exactly when
the hard Lefschetz maps on invariant cohomology are bijective.
"""

from dataclasses import dataclass
from math import comb, factorial
from typing import NamedTuple

from . import cec
from .forms import (
    KForm,
    basis_masks,
    contract,
    contraction_map,
    indices_from_mask,
    matrix_of,
    merge_sign,
    poisson_bivector,
    wedge,
)
from .linalg import (
    InducedMap,
    RationalMatrix,
    Subspace,
    column_space,
    concat_cols,
    induced_map_rank,
    int_det,
    kernel,
    matvec,
    rank,
    stack_rows,
)


class NotClosedError(ValueError):
    """The candidate 2-form is not closed; carries the residual 3-form."""

    def __init__(self, residual: KForm):
        self.residual = residual
        super().__init__(f"2-form is not closed; d(omega) = {residual!r}")


class DegenerateError(ValueError):
    """The candidate 2-form has vanishing top power."""


class ConsistencyError(RuntimeError):
    """An operator containment that must hold by theory failed; sign bug."""


# Each group is ker A / im B in degree k; A and B are (op, offset), standing
# for the matrix <op>_mat(k + offset).
GROUPS = {
    "dLambda": (("dlam", 0), ("dlam", 1)),
    "BottChern": (("bc", 0), ("ddlam", 0)),
    "Aeppli": (("ddlam", 0), ("sum", 0)),
}


class SymplecticStructure(cec.Cached):
    """Validated closed nondegenerate invariant 2-form with derived data.

    Matrices of the operators, their ranks and the subspaces they cut out are
    cached per degree; all cached values are pure functions of the immutable
    inputs.  d and its kernel and image are read from the algebra's complex.
    """

    def __init__(self, algebra: cec.LieAlgebra, omega: KForm):
        cec.require_jacobi(algebra)
        if omega.n != algebra.dim or omega.degree != 2:
            raise ValueError("omega must be a 2-form on the algebra's space")
        residual = cec.differential(algebra, omega)
        if not residual.is_zero():
            raise NotClosedError(residual)
        if algebra.dim % 2:
            raise DegenerateError("odd-dimensional spaces carry no symplectic form")
        half = algebra.dim // 2
        top = omega
        for _ in range(half - 1):
            top = wedge(top, omega)
        if top.is_zero():
            raise DegenerateError("top power of omega vanishes")
        self.algebra = algebra
        self.omega = omega
        self.half_dim = half
        self.poisson = poisson_bivector(omega)
        full_mask = (1 << algebra.dim) - 1
        # normalized volume omega^n / n!
        self._volume_coeff = top.coeffs[full_mask] / factorial(half)
        self._omega_powers = {0: KForm.constant(algebra.dim, 1), 1: omega}
        super().__init__()

    # ---- cached operator matrices -------------------------------------

    def lam_mat(self, k: int) -> RationalMatrix:
        """Matrix of Lambda from degree k to degree k - 2."""
        return self._cached(("lam", k), lambda: contraction_map(self.poisson, k))

    def dlam_mat(self, k: int) -> RationalMatrix:
        """Matrix of d^Lambda = d Lambda - Lambda d from degree k to degree k - 1."""
        d, lam = self.algebra.d, self.lam_mat
        return self._cached(("dlam", k), lambda: d(k - 2) @ lam(k) - lam(k + 1) @ d(k))

    def ddlam_mat(self, k: int) -> RationalMatrix:
        """Matrix of d o d^Lambda landing back in degree k."""
        return self._cached(("ddlam", k), lambda: self.algebra.d(k - 1) @ self.dlam_mat(k))

    def bc_mat(self, k: int) -> RationalMatrix:
        """[d; d^Lambda] on degree k; its kernel is ker d ^ ker d^Lambda."""
        return stack_rows(self.algebra.d(k), self.dlam_mat(k))

    def sum_mat(self, k: int) -> RationalMatrix:
        """[d | d^Lambda] into degree k; its image is im d + im d^Lambda."""
        return concat_cols(self.algebra.d(k - 1), self.dlam_mat(k + 1))

    def omega_power(self, j: int) -> KForm:
        while j not in self._omega_powers:
            m = max(self._omega_powers)
            self._omega_powers[m + 1] = wedge(self._omega_powers[m], self.omega)
        return self._omega_powers[j]

    def star_mat(self, k: int) -> RationalMatrix:
        return self._cached(("star", k), lambda: self._build_star(k))

    def _build_star(self, k: int) -> RationalMatrix:
        """Matrix of the symplectic star on degree k.

        Defined by beta ^ star(alpha) = <beta, alpha> omega^n/n!, where the
        pairing on basis k-forms is the k x k minor determinant of the
        Poisson matrix.  Since wedging into the top degree pairs each basis
        form with its complement only, the matrix is written down directly.
        The minors are taken of the Poisson matrix's integer numerators; the
        factor den^k they carry goes into the common scale of the entries.
        """
        n = self.algebra.dim
        if not 0 <= k <= n:
            return RationalMatrix.zero(0, 0)
        masks = basis_masks(n, k)
        out_masks = basis_masks(n, n - k)
        row_index = {m: i for i, m in enumerate(out_masks)}
        poisson = self.poisson.full_matrix()
        p_int = [[row.get(j, 0) for j in range(n)] for row in poisson.nums]
        scale = self._volume_coeff / poisson.den**k
        full_mask = (1 << n) - 1
        row_maps = [{} for _ in out_masks]
        idx = {m: [i - 1 for i in indices_from_mask(m)] for m in masks}
        for m in masks:
            comp = full_mask ^ m
            factor = merge_sign(m, comp) * scale.numerator
            row = row_maps[row_index[comp]]
            rows_m = idx[m]
            for jcol, mp in enumerate(masks):
                cols_mp = idx[mp]
                d = int_det([[p_int[a][b] for b in cols_mp] for a in rows_m])
                if d:
                    row[jcol] = d * factor
        return RationalMatrix.from_rows(
            row_maps, len(out_masks), len(masks), scale.denominator
        )

    # ---- cohomology building blocks ------------------------------------

    def op_mat(self, op: str, k: int) -> RationalMatrix:
        return getattr(self, f"{op}_mat")(k)

    def op_rank(self, op: str, k: int) -> int:
        """Rank of ``op_mat(op, k)``."""
        return self._cached(("rank", op, k), lambda: rank(self.op_mat(op, k)))

    def verify(self, identity: str, k: int, holds) -> None:
        """Raise ConsistencyError unless ``holds()``; each (identity, k) is checked once."""
        if not self._cached((identity, k), holds):
            raise ConsistencyError(f"{identity} fails in degree {k}")

    def subquotient(self, theory: str, k: int) -> tuple[Subspace, Subspace]:
        """(ker A, im B) of ``GROUPS[theory]`` in degree k; the group is their quotient."""
        (a, i), (b, j) = GROUPS[theory]
        return self._cached(
            ("subquotient", theory, k),
            lambda: (kernel(self.op_mat(a, k + i)), column_space(self.op_mat(b, k + j))),
        )


def make(algebra: cec.LieAlgebra, omega: KForm) -> SymplecticStructure:
    """Validate (closedness, nondegeneracy) and build the derived structure."""
    return SymplecticStructure(algebra, omega)


# ---- the operators on forms ---------------------------------------------


def lefschetz(s: SymplecticStructure, a: KForm) -> KForm:
    """L(a) = omega ^ a."""
    return wedge(s.omega, a)


def dual_lefschetz(s: SymplecticStructure, a: KForm) -> KForm:
    """Lambda(a): contraction with the Poisson bivector; degree drops by 2."""
    return contract(s.poisson, a)


def d_lambda(s: SymplecticStructure, a: KForm) -> KForm:
    """Symplectic codifferential d Lambda - Lambda d; degree drops by 1."""
    k = a.degree
    n = s.algebra.dim
    if a.n != n:
        raise ValueError("form does not live on the structure's space")
    if k == 0:
        return KForm.zero(n, 0)
    out = KForm.zero(n, k - 1)
    if k >= 2:
        out = out + cec.differential(s.algebra, contract(s.poisson, a))
    return out - contract(s.poisson, cec.differential(s.algebra, a))


def star(s: SymplecticStructure, a: KForm) -> KForm:
    """Symplectic star, degree k -> 2n-k; an involution."""
    n = s.algebra.dim
    if a.n != n:
        raise ValueError("form does not live on the structure's space")
    k = a.degree
    vec = matvec(s.star_mat(k), a.to_vector())
    return KForm.from_vector(n, n - k, vec)


def star_d_star(s: SymplecticStructure, a: KForm) -> KForm:
    """(-1)^(k+1) star d star; must agree with d_lambda everywhere."""
    k = a.degree
    inner = star(s, a)
    if inner.degree >= s.algebra.dim:
        return KForm.zero(s.algebra.dim, max(k - 1, 0))
    out = star(s, cec.differential(s.algebra, inner))
    return out if (k + 1) % 2 == 0 else -out


# ---- cohomology dimensions ----------------------------------------------


def _group_dim(s: SymplecticStructure, theory: str, k: int) -> int:
    """C(n,k) - rank A - rank B for ``GROUPS[theory]``; checks A B = 0 once per degree."""
    n = s.algebra.dim
    if k < 0 or k > n:
        return 0
    (a, i), (b, j) = GROUPS[theory]
    s.verify(
        f"{theory}: im <= ker", k, lambda: (s.op_mat(a, k + i) @ s.op_mat(b, k + j)).is_zero()
    )
    return comb(n, k) - s.op_rank(a, k + i) - s.op_rank(b, k + j)


def h_dlambda(s: SymplecticStructure, k: int) -> int:
    """dim of ker d^Lambda / im d^Lambda in degree k."""
    return _group_dim(s, "dLambda", k)


def h_bottchern(s: SymplecticStructure, k: int) -> int:
    """dim of (ker d ^ ker d^Lambda) / im d d^Lambda in degree k."""
    return _group_dim(s, "BottChern", k)


def h_aeppli(s: SymplecticStructure, k: int) -> int:
    """dim of ker d d^Lambda / (im d + im d^Lambda) in degree k."""
    return _group_dim(s, "Aeppli", k)


class NaturalMaps(NamedTuple):
    bc_to_dr: InducedMap
    dr_to_a: InducedMap


def _anticommutes(s: SymplecticStructure, k: int) -> bool:
    """d d^Lambda + d^Lambda d = 0 on degree k."""
    twisted, ddlam = s.dlam_mat(k + 1) @ s.algebra.d(k), s.ddlam_mat(k)
    return twisted.den == ddlam.den and twisted.nums == tuple(
        {j: -x for j, x in row.items()} for row in ddlam.nums
    )


def natural_map_ranks(s: SymplecticStructure, k: int) -> NaturalMaps:
    """Rank data of the identity-induced maps H_BC -> H_dR -> H_A in degree k.

    Both ranks are counts over cached operator ranks; the first uses
    d^Lambda_k d_{k-1} = -(d d^Lambda)_{k-1}.
    """
    g = s.algebra
    if not 0 <= k <= g.dim:
        return NaturalMaps(InducedMap(0, True, True), InducedMap(0, True, True))
    # d d = 0 gives im d <= ker d, the anticommutation ker d <= ker d d^Lambda;
    # h_bottchern and h_aeppli check the two inclusions into ker [d; d^Lambda]
    # and ker d d^Lambda.  ker [d; d^Lambda] <= ker d, im d d^Lambda <= im d
    # and im d <= im d + im d^Lambda hold by construction.
    s.verify("d d = 0", k, lambda: (g.d(k) @ g.d(k - 1)).is_zero())
    for j in (k - 1, k):
        s.verify("d d^Lambda + d^Lambda d = 0", j, lambda j=j: _anticommutes(s, j))
    h_bc, h_a = h_bottchern(s, k), h_aeppli(s, k)
    dim = comb(g.dim, k)
    b = dim - g.rank_d(k) - g.rank_d(k - 1)
    bc_to_dr = dim - s.op_rank("bc", k) - g.rank_d(k - 1) + s.op_rank("ddlam", k - 1)
    dr_to_a = dim - g.rank_d(k) - s.op_rank("sum", k) + s.op_rank("ddlam", k + 1)
    return NaturalMaps(
        InducedMap(bc_to_dr, bc_to_dr == h_bc, bc_to_dr == b),
        InducedMap(dr_to_a, dr_to_a == b, dr_to_a == h_a),
    )


def lefschetz_power_map(s: SymplecticStructure, j: int) -> InducedMap:
    """Induced map of wedging with omega^j from degree n-j to degree n+j."""
    g = s.algebra
    lo, hi = s.half_dim - j, s.half_dim + j
    power = s.omega_power(j)
    mat = matrix_of(lambda a: wedge(power, a), g.dim, lo, g.dim, hi)
    return induced_map_rank(mat, g.cycles(lo), g.boundaries(lo), g.cycles(hi), g.boundaries(hi))


@dataclass(frozen=True, repr=False)
class CohomologyReport:
    """Per-degree table of the invariant cohomology dimensions and verdicts.

    Indices run over 0..2n.  ``delta`` is reported as twice ``delta_tilde``;
    the Aeppli dimensions are computed independently and the equality with
    the Bott-Chern dimensions is asserted before the report is returned.
    """

    dim: int
    b: tuple
    h_dlambda: tuple
    h_bottchern: tuple
    h_aeppli: tuple
    delta: tuple
    delta_tilde: tuple
    lefschetz_ranks: tuple
    natural_maps: tuple
    hlc: bool
    ddlambda_lemma: bool

    def __repr__(self):
        return (
            f"CohomologyReport(dim={self.dim}, hlc={self.hlc}, "
            f"delta_tilde={self.delta_tilde})"
        )


def report(s: SymplecticStructure) -> CohomologyReport:
    """Full cohomology table with HLC and d d^Lambda-lemma verdicts.

    Needs a unimodular algebra (b_n = 1), as the duality checks do.  HLC holds
    exactly when the d d^Lambda-lemma does (Merkulov; Guillemin); both are checked.
    """
    n = s.algebra.dim
    b = tuple(cec.betti(s.algebra))
    if not b[n]:
        raise ValueError("the algebra is not unimodular (b_n = 0): it has no compact quotient")
    h_dl = tuple(h_dlambda(s, k) for k in range(n + 1))
    h_bc = tuple(h_bottchern(s, k) for k in range(n + 1))
    h_a = tuple(h_aeppli(s, k) for k in range(n + 1))
    for k in range(n + 1):
        if h_bc[k] != h_a[k]:
            raise ConsistencyError(f"Bott-Chern/Aeppli dimensions disagree in degree {k}")
        if h_bc[k] != h_bc[n - k]:
            raise ConsistencyError(f"Bott-Chern duality fails in degree {k}")
    delta_tilde = tuple(h_bc[k] - b[k] for k in range(n + 1))
    delta = tuple(2 * dt for dt in delta_tilde)
    lef = tuple(lefschetz_power_map(s, j) for j in range(s.half_dim + 1))
    natural = tuple(natural_map_ranks(s, k) for k in range(n + 1))
    hlc = all(m.injective and m.surjective for m in lef)
    lemma = all(dt == 0 for dt in delta_tilde)
    if hlc != lemma:
        raise ConsistencyError("HLC and the d d^Lambda-lemma disagree")
    return CohomologyReport(
        dim=n,
        b=b,
        h_dlambda=h_dl,
        h_bottchern=h_bc,
        h_aeppli=h_a,
        delta=delta,
        delta_tilde=delta_tilde,
        lefschetz_ranks=tuple(m.rank for m in lef),
        natural_maps=natural,
        hlc=hlc,
        ddlambda_lemma=lemma,
    )
