"""Chevalley-Eilenberg complex of a Lie algebra given by structure equations.

A Lie algebra is recorded dually: the ambient dimension n together with the
differential of each coframe generator as an invariant 2-form.  The exterior
differential extends to all degrees as an anti-derivation,

    d(e^{i1...ik}) = sum_j (-1)^(j-1) e^{i1} ^ ... ^ de^{ij} ^ ... ^ e^{ik},

and d o d = 0 is exactly the Jacobi identity.  The cohomology of this finite
complex is the invariant (left-invariant) de Rham cohomology of any compact
quotient of the corresponding simply connected group.

Each ``LieAlgebra`` caches its complex, built on first use through
``d_matrix``: ``g.d(k)``, ``g.rank_d(k)``, ``g.cycles(k)`` (ker d_k) and
``g.boundaries(k)`` (im d_(k-1)), next to the verdict of ``validate``.  Every
theory reads d, ker d and im d from there.  The cache lives as long as the
object; catalog entries are module-level, so theirs last the whole process.
"""

from math import comb

from .forms import KForm, basis_masks, derivation, matrix_of
from .linalg import DimensionMismatch, RationalMatrix, Subspace, column_space, kernel, rank


class LieAlgebra:
    """Dimension n plus the 2-form differential of each coframe generator.

    Construction checks shapes only; the Jacobi identity is a separate,
    reportable check (see ``validate``) so that ill-formed structure
    equations can be diagnosed rather than rejected blindly.
    """

    __slots__ = ("dim", "gen_differentials", "_cache")

    def __init__(self, dim: int, gen_differentials):
        gens = tuple(gen_differentials)
        if len(gens) != dim:
            raise DimensionMismatch("need one generator differential per dimension")
        for g in gens:
            if not isinstance(g, KForm) or g.n != dim or g.degree != 2:
                raise DimensionMismatch("generator differentials must be 2-forms on R^dim")
        self.dim = dim
        self.gen_differentials = gens
        self._cache: dict = {}

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, [KForm.zero(dim, 2) for _ in range(dim)])

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.gen_differentials == other.gen_differentials

    def __hash__(self):
        return hash((self.dim, self.gen_differentials))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def d(self, k: int) -> RationalMatrix:
        """d_k : degree k -> degree k+1; the zero map outside degrees 0..n."""
        n = self.dim
        if not 0 <= k <= n:
            return RationalMatrix.zero(len(basis_masks(n, k + 1)), len(basis_masks(n, k)))
        return self._cached(("d", k), lambda: d_matrix(self, k))

    def rank_d(self, k: int) -> int:
        return self._cached(("rank_d", k), lambda: rank(self.d(k)))

    def cycles(self, k: int) -> Subspace:
        """Closed k-forms: ker d_k."""
        return self._cached(("cycles", k), lambda: kernel(self.d(k)))

    def boundaries(self, k: int) -> Subspace:
        """Exact k-forms: im d_(k-1), the zero subspace in degree 0."""
        return self._cached(("boundaries", k), lambda: column_space(self.d(k - 1)))


def differential(g: LieAlgebra, a: KForm) -> KForm:
    """Exterior differential, extended from the generators as an anti-derivation."""
    if a.n != g.dim:
        raise DimensionMismatch("form does not live on the algebra's space")
    return derivation(g.gen_differentials, 1, a)


def validate(g: LieAlgebra) -> int | None:
    """Jacobi check: d(de^m) must vanish for every generator.

    Returns None when the structure equations define a Lie algebra, else the
    1-based index of the first generator whose differential is not closed.
    The verdict is computed once per algebra object.
    """
    return g._cached("jacobi", lambda: _first_unclosed(g))


def require_jacobi(g: LieAlgebra) -> None:
    """Raise ValueError, naming the generator, unless ``validate`` passes."""
    bad = validate(g)
    if bad is not None:
        raise ValueError(f"structure equations violate Jacobi at generator {bad}")


def _first_unclosed(g: LieAlgebra) -> int | None:
    for m, dgen in enumerate(g.gen_differentials, start=1):
        if not differential(g, dgen).is_zero():
            return m
    return None


def d_matrix(g: LieAlgebra, k: int) -> RationalMatrix:
    """Matrix of d_k : degree k -> degree k+1 in the lexicographic bases."""
    if not 0 <= k <= g.dim:
        raise ValueError(f"degree {k} out of range 0..{g.dim}")
    return matrix_of(lambda a: differential(g, a), g.dim, k, g.dim, k + 1)


class BettiTable:
    """Invariant de Rham dimensions b_0 ... b_n of a validated algebra."""

    __slots__ = ("b",)

    def __init__(self, b):
        self.b = tuple(int(x) for x in b)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * bk for k, bk in enumerate(self.b))

    def __eq__(self, other):
        if isinstance(other, BettiTable):
            return self.b == other.b
        return self.b == tuple(other)

    def __iter__(self):
        return iter(self.b)

    def __getitem__(self, k):
        return self.b[k]

    def __repr__(self):
        return f"BettiTable{self.b}"


def betti(g: LieAlgebra) -> BettiTable:
    """b_k = dim ker d_k - rank d_(k-1), computed exactly from ranks."""
    require_jacobi(g)
    n = g.dim
    return BettiTable(comb(n, k) - g.rank_d(k) - g.rank_d(k - 1) for k in range(n + 1))


def _bracket_vectors(g: LieAlgebra) -> dict:
    """[e_i, e_j] for i < j as row maps, read off the structure equations.

    With de^k = sum a^k_{ij} e^{ij} the dual pairing gives
    [e_i, e_j] = -sum_k a^k_{ij} e_k.
    """
    out: dict = {}
    for k, dgen in enumerate(g.gen_differentials):
        for mask, c in dgen.coeffs.items():
            low = mask & -mask
            i = low.bit_length() - 1
            j = (mask ^ low).bit_length() - 1
            out.setdefault((i, j), {})[k] = -c
    return out


def is_nilpotent(g: LieAlgebra) -> bool:
    """Lower central series test on the brackets recovered from d."""
    n = g.dim
    brackets = _bracket_vectors(g)

    def ad(i: int, vec: dict) -> dict:
        out: dict = {}
        for j, vj in vec.items():
            bv = brackets.get((i, j) if i < j else (j, i))
            if bv is None:
                continue
            c = vj if i < j else -vj
            for k, x in bv.items():
                out[k] = out.get(k, 0) + c * x
        return out

    current = Subspace.full(n)
    while current.dim:
        nxt = Subspace(n, [ad(i, v) for i in range(n) for v in current.row_maps])
        if nxt.dim == current.dim:
            return False
        current = nxt
    return True
