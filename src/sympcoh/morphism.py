"""Lie algebra morphisms, pullback of invariant forms, induced-map reports.

A morphism is stored as the linear map between Lie algebras that models the
differential of a map of quotient manifolds pi: source -> target (source is
the covering/total space).  Forms therefore pull back the other way, from
the target algebra to the source algebra, and the morphism condition is that
this pullback commutes with the structure differentials.

``induced_report`` measures the pullback on a chosen cohomology theory.  In
the report, source/target refer to the induced map itself: its source is the
cohomology of the morphism's *target* algebra, its target the cohomology of
the morphism's *source* algebra.

The symplectic theories require the pullback of the target form to equal the
source form on the nose; the pure-type theory requires the map to intertwine
the two almost-complex structures.  Both hypotheses are checked and their
failure is reported, never ignored: without them the induced maps are not
even well defined.
"""

from typing import NamedTuple

from . import acx, cec, symplectic
from .forms import KForm, matrix_of, pullback_along
from .linalg import DimensionMismatch, RationalMatrix, induced_map_rank, rank

THEORIES = ("deRham", "dLambda", "BottChern", "Aeppli", "J")


class HypothesisError(ValueError):
    """A hypothesis needed for the induced map to exist fails to hold."""


class LieMorphism:
    """Linear map source -> target commuting with the differentials.

    The matrix has one row per target generator and one column per source
    generator.  Construction checks shapes only; use ``validate_morphism``
    to test the commutation relation itself.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: cec.LieAlgebra, target: cec.LieAlgebra, matrix: RationalMatrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise DimensionMismatch(
                f"matrix must be {target.dim}x{source.dim} for this morphism"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    def matrix_rank(self) -> int:
        return rank(self.matrix)

    @property
    def invertible(self) -> bool:
        """Equal dimensions and full rank.

        The analytic mapping degree of a quotient map has no invariant-level
        counterpart; invertibility of the algebra map is the checkable
        stand-in for a nonzero degree between equal-dimensional quotients.
        """
        return self.source.dim == self.target.dim and self.matrix_rank() == self.target.dim

    @property
    def surjective(self) -> bool:
        """Full rank onto the target; the stand-in across unequal dimensions."""
        return self.matrix_rank() == self.target.dim

    def __repr__(self):
        return f"LieMorphism({self.source.dim} -> {self.target.dim})"


def pullback(f: LieMorphism, a: KForm) -> KForm:
    """Pull a form on the target algebra back to the source algebra."""
    if a.n != f.target.dim:
        raise DimensionMismatch("form does not live on the morphism's target")
    return pullback_along(f.matrix, a)


def validate_morphism(f: LieMorphism) -> int | None:
    """Check d(pullback e^i) = pullback(d e^i) on every target generator.

    Returns None on success, else the 1-based index of the first target
    generator where the commutation fails.
    """
    n = f.target.dim
    for i in range(1, n + 1):
        gen = KForm.basis(n, [i])
        lhs = cec.differential(f.source, pullback(f, gen))
        rhs = pullback(f, f.target.gen_differentials[i - 1])
        if lhs != rhs:
            return i
    return None


def check_pullback_symplectic(f: LieMorphism, omega_target: KForm, omega_source: KForm) -> bool:
    """Exact equality pullback(omega_target) == omega_source."""
    return pullback(f, omega_target) == omega_source


class InjectivityReport(NamedTuple):
    """Rank data of the induced pullback map on one cohomology group.

    ``source_dim`` is the dimension of the map's domain, i.e. the group of
    the morphism's target algebra; ``target_dim`` that of its codomain.
    """

    theory: str
    degree: int
    p: int | None
    q: int | None
    source_dim: int
    target_dim: int
    rank: int
    injective: bool


def _require_structure(structure, algebra, side: str, kind):
    if structure is None:
        raise HypothesisError(f"theory requires a {kind.__name__} on the {side} algebra")
    if not isinstance(structure, kind):
        raise HypothesisError(f"{side} structure has the wrong type")
    if structure.algebra != algebra:
        raise HypothesisError(f"{side} structure does not live on the {side} algebra")


def induced_report(
    f: LieMorphism,
    theory: str,
    degree: int | None = None,
    source_structure=None,
    target_structure=None,
    p: int | None = None,
    q: int | None = None,
) -> InjectivityReport:
    """Rank/injectivity of the pullback on the requested cohomology.

    ``source_structure``/``target_structure`` are symplectic structures for
    the symplectic theories and almost-complex structures for theory "J";
    they must live on the morphism's source/target algebras respectively.
    Both algebras must satisfy the Jacobi identity (``ValueError`` otherwise).
    """
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}; pick one of {THEORIES}")
    for g in (f.source, f.target):
        cec.require_jacobi(g)
    bad = validate_morphism(f)
    if bad is not None:
        raise HypothesisError(f"not a morphism: target generator {bad} fails d-commutation")

    if theory == "J":
        if p is None or q is None:
            raise ValueError("theory J needs bidegrees p and q")
        degree = p + q
    if degree is None:
        raise ValueError("degree is required")
    top = min(f.source.dim, f.target.dim)
    if not 0 <= degree <= top:
        raise ValueError(f"degree {degree} out of range 0..{top}")

    if theory == "deRham":
        spaces = [(g.cycles(degree), g.boundaries(degree)) for g in (f.target, f.source)]
    else:
        kind = acx.AlmostComplexStructure if theory == "J" else symplectic.SymplecticStructure
        _require_structure(source_structure, f.source, "source", kind)
        _require_structure(target_structure, f.target, "target", kind)
        structures = (target_structure, source_structure)
        if theory == "J":
            if f.matrix @ source_structure.j != target_structure.j @ f.matrix:
                raise HypothesisError("morphism does not intertwine the almost-complex structures")
            spaces = [acx.pure_subquotient(s, p, q) for s in structures]
        elif check_pullback_symplectic(f, target_structure.omega, source_structure.omega):
            spaces = [s.subquotient(theory, degree) for s in structures]
        else:
            raise HypothesisError(
                "pullback of the target symplectic form differs from the source form"
            )
    (v1, w1), (v2, w2) = spaces
    pb_matrix = matrix_of(lambda a: pullback(f, a), f.target.dim, degree, f.source.dim, degree)
    induced = induced_map_rank(pb_matrix, v1, w1, v2, w2)
    return InjectivityReport(
        theory=theory,
        degree=degree,
        p=p,
        q=q,
        source_dim=v1.dim - w1.dim,
        target_dim=v2.dim - w2.dim,
        rank=induced.rank,
        injective=induced.injective,
    )
