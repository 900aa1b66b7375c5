"""Built-in Lie algebras of the low-dimensional model manifolds.

Seven named entries cover the compact quotients the package targets: the
five four-dimensional solvmanifold algebras admitting invariant symplectic
structures (primary Kodaira surface, g1 + g3.4^-1, g4.1, the 4-torus and the
hyper-elliptic surface), the 8-torus carrying the standard complex structure,
and the 10-dimensional complex-parallelizable nilmanifold obtained from the
five-generator complex structure equations d phi^5 = -phi^12 - phi^34.

Default symplectic forms are the simplest instances of the generic closed
nondegenerate family on each algebra (free coefficients set to 1).  The
10-dimensional entry is special: its closed invariant 2-forms never pair the
last two coframe directions, so it admits no invariant symplectic structure
at all.  It therefore carries no default symplectic form, only the
fundamental 2-form of its standard Hermitian metric, which is J-compatible
pointwise but not closed.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cec import LieAlgebra
from .forms import KForm
from .linalg import RationalMatrix
from .parser import parse_form, parse_salamon

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CatalogEntry:
    """A named algebra with optional default structures.

    ``default_omega`` is only ever a valid symplectic form (closed and
    nondegenerate); ``fundamental_two_form`` is a nondegenerate J-compatible
    2-form kept for metric/compatibility checks and may fail to be closed.
    ``expects_hlc`` records the known hard Lefschetz verdict where one
    exists.
    """

    name: str
    algebra: LieAlgebra
    default_omega: KForm | None
    default_j: RationalMatrix | None
    nilpotent: bool
    notes: str
    expects_hlc: bool | None = None
    fundamental_two_form: KForm | None = None


def standard_block_j(n: int) -> RationalMatrix:
    """The block structure J e_(2j-1) = e_(2j), J e_(2j) = -e_(2j-1)."""
    if n % 2:
        raise ValueError("standard block structure needs even dimension")
    rows = [[0] * n for _ in range(n)]
    for j in range(0, n, 2):
        rows[j + 1][j] = 1
        rows[j][j + 1] = -1
    return RationalMatrix(rows)


def complex_to_real(
    complex_equations: Sequence[Mapping[tuple[int, int], tuple]],
) -> LieAlgebra:
    """Expand complex structure equations into real ones.

    Input: one mapping per complex generator phi^m, sending pairs (a, b)
    with a < b to the Gaussian-rational coefficient of phi^a ^ phi^b as a
    (real, imaginary) pair.  The convention phi^j = e^(2j-1) + i e^(2j)
    turns d phi^m into the pair (d e^(2m-1), d e^(2m)).

    Only (2, 0) inputs are supported; conjugate generators cannot appear.
    """
    nc = len(complex_equations)
    n = 2 * nc
    diffs = [dict() for _ in range(n)]

    def add(target: int, indices: tuple[int, int], value: Fraction) -> None:
        if value == 0:
            return
        i, j = indices
        mask = (1 << (i - 1)) | (1 << (j - 1))
        diffs[target][mask] = diffs[target].get(mask, _ZERO) + value

    for m, eq in enumerate(complex_equations):
        for (a, b), coeff in eq.items():
            if not 1 <= a < b <= nc:
                raise ValueError(
                    f"complex pair ({a},{b}) must satisfy 1 <= a < b <= {nc}"
                )
            re, im = (Fraction(coeff[0]), Fraction(coeff[1]))
            # phi^a ^ phi^b = (e^{2a-1,2b-1} - e^{2a,2b})
            #              + i (e^{2a-1,2b} + e^{2a,2b-1})
            ra, ia = 2 * a - 1, 2 * a
            rb, ib = 2 * b - 1, 2 * b
            real_part = [((ra, rb), Fraction(1)), ((ia, ib), Fraction(-1))]
            imag_part = [((ra, ib), Fraction(1)), ((ia, rb), Fraction(1))]
            for idx, v in real_part:
                add(2 * m, idx, re * v)
                add(2 * m + 1, idx, im * v)
            for idx, v in imag_part:
                add(2 * m, idx, -im * v)
                add(2 * m + 1, idx, re * v)

    return LieAlgebra(n, [KForm(n, 2, d) for d in diffs])


def _sum_of_pair_forms(n: int) -> KForm:
    total = KForm.zero(n, 2)
    for j in range(1, n // 2 + 1):
        total = total + KForm.basis(n, [2 * j - 1, 2 * j])
    return total


def _build_entries() -> dict:
    entries = {}

    def put(entry: CatalogEntry) -> None:
        entries[entry.name] = entry

    put(
        CatalogEntry(
            name="kodaira",
            algebra=parse_salamon("(0,0,0,23)"),
            default_omega=parse_form("12+34", 4),
            default_j=standard_block_j(4),
            nilpotent=True,
            notes="primary Kodaira surface; nilpotent, never hard Lefschetz",
            expects_hlc=False,
        )
    )
    put(
        CatalogEntry(
            name="g1_g34m",
            algebra=parse_salamon("(0,0,-23,24)"),
            default_omega=parse_form("12+34", 4),
            default_j=standard_block_j(4),
            nilpotent=False,
            notes="g1 + g3.4^-1; solvable non-nilpotent, hard Lefschetz",
            expects_hlc=True,
        )
    )
    put(
        CatalogEntry(
            name="g41",
            algebra=parse_salamon("(0,0,12,13)"),
            default_omega=parse_form("14+23", 4),
            default_j=standard_block_j(4),
            nilpotent=True,
            notes="g4.1; nilpotent, never hard Lefschetz",
            expects_hlc=False,
        )
    )
    put(
        CatalogEntry(
            name="torus4",
            algebra=parse_salamon("(0,0,0,0)"),
            default_omega=parse_form("12+34", 4),
            default_j=standard_block_j(4),
            nilpotent=True,
            notes="4-torus; abelian, Kaehler",
            expects_hlc=True,
        )
    )
    put(
        CatalogEntry(
            name="hyperelliptic",
            algebra=parse_salamon("(0,0,-24,23)"),
            default_omega=parse_form("12+34", 4),
            default_j=standard_block_j(4),
            nilpotent=False,
            notes="hyper-elliptic surface; solvable non-nilpotent, Kaehler",
            expects_hlc=True,
        )
    )
    put(
        CatalogEntry(
            name="torus8",
            algebra=LieAlgebra.abelian(8),
            default_omega=_sum_of_pair_forms(8),
            default_j=standard_block_j(8),
            nilpotent=True,
            notes="8-torus with the standard complex structure (complex 4-torus)",
            expects_hlc=True,
        )
    )
    eta = complex_to_real(
        [{}, {}, {}, {}, {(1, 2): (-1, 0), (3, 4): (-1, 0)}]
    )
    put(
        CatalogEntry(
            name="etabeta5",
            algebra=eta,
            default_omega=None,
            default_j=standard_block_j(10),
            nilpotent=True,
            notes=(
                "complex-parallelizable nilmanifold, real dim 10; "
                "admits no invariant symplectic structure"
            ),
            expects_hlc=None,
            fundamental_two_form=_sum_of_pair_forms(10),
        )
    )
    return entries


_ENTRIES = _build_entries()


def names() -> list:
    """Catalog entry names, in the fixed publication order."""
    return list(_ENTRIES)


def get(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(_ENTRIES)}"
        ) from None
