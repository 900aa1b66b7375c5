"""Exact linear algebra over the rationals.

Matrices and subspace bases hold ``fractions.Fraction`` entries; no floating
point appears anywhere.  Every rank, kernel and subspace basis comes from one
elimination routine, ``_rref``.  It clears each row's denominators and keeps
it as a sparse integer row (a dict from column to entry), eliminates without
fractions and divides every combined row by the gcd of its entries, so rows
stay primitive and intermediate entries stay small.  The echelon phase alone
gives the rank; back-substitution and a final division by each leading entry
give the reduced row echelon form.  That form is unique, so equal subspaces
carry identical bases (leading entry 1) whatever vectors spanned them, and
every derived output is reproducible byte for byte.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in incompatible spaces."""


class ContainmentError(ValueError):
    """A required subspace inclusion fails to hold."""


def _fraction_row(row: Iterable) -> tuple:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)


class RationalMatrix:
    """Dense matrix of exact rationals with a fixed shape.

    Zero-row and zero-column matrices are legal; they show up naturally as
    operators into or out of trivial graded pieces.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, rows: int | None = None, cols: int | None = None):
        ents = tuple(_fraction_row(r) for r in entries)
        if rows is None:
            rows = len(ents)
        if cols is None:
            cols = len(ents[0]) if ents else 0
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise DimensionMismatch("ragged or mis-sized matrix data")
        self.rows = rows
        self.cols = cols
        self.entries = ents

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)], rows=rows, cols=cols)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            rows=self.cols,
            cols=self.rows,
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = [[_ZERO] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            srow = self.entries[i]
            orow = out[i]
            for k in range(self.cols):
                a = srow[k]
                if not a:
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] += a * b
        return RationalMatrix(out, rows=self.rows, cols=other.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        work = [list(row) + [_ONE if i == j else _ZERO for j in range(n)]
                for i, row in enumerate(self.entries)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if work[i][c] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            work[r], work[piv] = work[piv], work[r]
            inv = 1 / work[r][c]
            work[r] = [x * inv for x in work[r]]
            for i in range(n):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            r += 1
        return RationalMatrix([row[n:] for row in work])

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def stack_rows(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    if top.cols != bottom.cols:
        raise DimensionMismatch("row stacking requires equal column counts")
    return RationalMatrix(
        list(top.entries) + list(bottom.entries),
        rows=top.rows + bottom.rows,
        cols=top.cols,
    )


def concat_cols(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    if left.rows != right.rows:
        raise DimensionMismatch("column concatenation requires equal row counts")
    return RationalMatrix(
        [list(a) + list(b) for a, b in zip(left.entries, right.entries)],
        rows=left.rows,
        cols=left.cols + right.cols,
    )


def matvec(m: RationalMatrix, v: Sequence) -> tuple:
    if len(v) != m.cols:
        raise DimensionMismatch(f"vector length {len(v)} != {m.cols} columns")
    support = [(j, b) for j, b in enumerate(v) if b]
    out = []
    for row in m.entries:
        s = _ZERO
        for j, b in support:
            a = row[j]
            if a:
                s += a * b
        out.append(s)
    return tuple(out)


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _sparse_rows(rows) -> list:
    """Nonzero rows, denominators cleared, as primitive dicts {column: int}."""
    out = []
    for row in rows:
        nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            mult = lcm(*[x.denominator for x in nz.values()])
            out.append(_primitive(
                {j: x.numerator * (mult // x.denominator) for j, x in nz.items()}
            ))
    return out


def _combine(a: int, row: dict, b: int, pivot_row: dict) -> dict:
    """The primitive multiple of a * row - b * pivot_row."""
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * x for j, x in row.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows: list) -> dict:
    """Forward elimination of sparse integer rows: {pivot column: row leading there}."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            row = _combine(p[c], row, row[c], p)
    return pivots


def _rref(rows) -> tuple[list, list]:
    """Pivot columns and rows of the RREF, each row not yet divided by its lead."""
    pivots = _echelon(_sparse_rows(rows))
    cols = sorted(pivots)
    for k in range(len(cols) - 1, 0, -1):
        c = cols[k]
        p = pivots[c]
        for above in cols[:k]:
            row = pivots[above]
            b = row.get(c)
            if b:
                pivots[above] = _combine(p[c], row, b, p)
    return cols, [pivots[c] for c in cols]


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals: the number of pivot columns."""
    return len(_echelon(_sparse_rows(m.entries)))


def det(m: RationalMatrix) -> Fraction:
    """Determinant by exact Gaussian elimination with column pivoting."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return _ONE
    work = [list(row) for row in m.entries]
    sign = 1
    result = _ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c] != 0), None)
        if piv is None:
            return _ZERO
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        p = work[c][c]
        result *= p
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] / p
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return sign * result


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix, fraction-free."""
    n = len(rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            sign = -sign
        p = work[c][c]
        for i in range(c + 1, n):
            ric = work[i][c]
            for j in range(c + 1, n):
                work[i][j] = (work[i][j] * p - ric * work[c][j]) // prev
        prev = p
    return sign * work[n - 1][n - 1]


class Subspace:
    """Linear subspace of Q^n, stored by its canonical (RREF) basis.

    The basis rows are independent by construction, have leading entry 1 and
    do not depend on the order or scaling of the spanning vectors supplied.
    ``pivots`` holds the column of each row's leading entry.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence] = ()):
        self.ambient_dim = ambient_dim
        for v in basis:
            if len(v) != ambient_dim:
                raise DimensionMismatch("basis vector has wrong length")
        pivots, rows = _rref(basis)
        self.pivots = tuple(pivots)
        self.basis = tuple(
            tuple(Fraction(row[j], row[c]) if j in row else _ZERO for j in range(ambient_dim))
            for c, row in zip(pivots, rows)
        )

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        resid = list(v)
        for row, lead in zip(self.basis, self.pivots):
            f = resid[lead]
            if f:
                for i in range(lead, self.ambient_dim):
                    x = row[i]
                    if x:
                        resid[i] -= f * x
        return not any(resid)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Basis of the intersection, via the kernel of the stacked system.

        A kernel vector (x, y) of the matrix with columns a_1..a_p, b_1..b_q
        gives sum x_i a_i = -sum y_j b_j, a vector of the intersection.
        """
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        system = RationalMatrix(list(zip(*self.basis, *other.basis)))
        vectors = []
        for coeffs in kernel(system).basis:
            vec = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    for r, x in enumerate(row):
                        if x:
                            vec[r] += c * x
            vectors.append(vec)
        return Subspace(self.ambient_dim, vectors)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def quotient_dim(self, sub: "Subspace") -> int:
        """dim(self / sub); raises unless sub really is contained in self."""
        self._check_ambient(sub)
        if not self.contains(sub):
            raise ContainmentError("claimed subspace is not contained in the space")
        return self.dim - sub.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(m: RationalMatrix) -> Subspace:
    """Canonical basis of the null space; its dimension is cols - rank.

    Eliminating with the columns reversed makes the vector read off for each
    free column a row of the canonical basis: 1 at that column, nothing
    before it and 0 at every other free column.
    """
    n = m.cols
    pivots, rows = _rref([row[::-1] for row in m.entries])  # column j is n - 1 - j
    pivot_set = set(pivots)
    vectors = []
    for free in reversed(range(n)):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[n - 1 - free] = 1
        for p, row in zip(pivots, rows):
            x = row.get(free)
            if x:
                vec[n - 1 - p] = Fraction(-x, row[p])
        vectors.append(vec)
    return Subspace(n, vectors)


def column_space(m: RationalMatrix) -> Subspace:
    """Span of the columns, as a subspace of Q^rows."""
    return Subspace(m.rows, m.columns())


class InducedMap(NamedTuple):
    rank: int
    injective: bool
    surjective: bool


def induced_map_rank(
    f: RationalMatrix,
    v1: Subspace,
    w1: Subspace,
    v2: Subspace,
    w2: Subspace,
) -> InducedMap:
    """Rank data of the map V1/W1 -> V2/W2 induced by f.

    The inclusions W1 <= V1, W2 <= V2, f(V1) <= V2 and f(W1) <= W2 are all
    verified, never assumed; a violation raises ContainmentError.
    """
    if f.cols != v1.ambient_dim or f.rows != v2.ambient_dim:
        raise DimensionMismatch("map shape does not match the ambient spaces")
    if not v1.contains(w1):
        raise ContainmentError("W1 is not contained in V1")
    if not v2.contains(w2):
        raise ContainmentError("W2 is not contained in V2")
    images = [matvec(f, v) for v in v1.basis]
    for img in images:
        if not v2.contains_vector(img):
            raise ContainmentError("f does not map V1 into V2")
    for w in w1.basis:
        if not w2.contains_vector(matvec(f, w)):
            raise ContainmentError("f does not map W1 into W2")
    pushed = Subspace(v2.ambient_dim, list(w2.basis) + images)
    r = pushed.dim - w2.dim
    return InducedMap(
        rank=r,
        injective=(r == v1.dim - w1.dim),
        surjective=(r == v2.dim - w2.dim),
    )
