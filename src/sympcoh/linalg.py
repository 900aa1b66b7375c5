"""Exact linear algebra over the rationals.

Matrices and subspaces store sparse rows: a row map is a dict from column to
a nonzero ``fractions.Fraction``.  No constructor ever stores a zero, so
equal matrices and equal subspaces have equal row maps whatever they were
built from.  Row maps may be shared between objects and are never modified
in place.  The dense tables ``RationalMatrix.entries`` and ``Subspace.basis``
are read-only views built on first use, for callers that want a full table:
small n x n matrices, printed representatives and tests.  No floating point
appears anywhere.

Every rank, kernel, subspace basis, inverse, containment, intersection and
induced-map rank comes from one elimination routine, ``_rref``.  It clears
each row's denominators and keeps it as a sparse integer row (a dict from
column to entry), eliminates without fractions and divides every combined row
by the gcd of its entries, so rows stay primitive and intermediate entries
stay small.  The echelon phase alone (``_echelon``) gives the rank; back-substitution and a final division by each leading entry
give the reduced row echelon form.  That form is unique, so equal subspaces
carry identical rows (leading entry 1) whatever vectors spanned them, and
every derived output is reproducible byte for byte.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in incompatible spaces."""


class ContainmentError(ValueError):
    """A required subspace inclusion fails to hold."""


def _row_map(row, width: int) -> dict:
    """A dense row, or a row map, of the given width as a dict; zeros may remain."""
    if isinstance(row, dict):
        if row and (min(row) < 0 or max(row) >= width):
            raise DimensionMismatch(f"row map has a column outside 0..{width - 1}")
        return row
    if len(row) != width:
        raise DimensionMismatch(f"row of length {len(row)} where {width} was expected")
    return {j: x for j, x in enumerate(row) if x}


def _fraction_map(row, width: int) -> dict:
    """The nonzero entries of a row (see ``_row_map``) as Fractions."""
    return {
        j: f for j, x in _row_map(row, width).items()
        if (f := x if isinstance(x, Fraction) else Fraction(x))
    }


def _lincomb(coeffs: dict, row_maps: Sequence[dict]) -> dict:
    """The row map of the sum of c * row_maps[i] over the items (i, c) of coeffs."""
    out = {}
    for i, c in coeffs.items():
        for j, x in row_maps[i].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


class RationalMatrix:
    """Sparse matrix of exact rationals with a fixed shape.

    ``row_maps`` holds one row map per row.  Zero-row and zero-column
    matrices are legal; they show up naturally as operators into or out of
    trivial graded pieces.
    """

    __slots__ = ("rows", "cols", "row_maps", "_entries")

    def __init__(self, entries, rows: int | None = None, cols: int | None = None):
        """From dense rows; ``rows`` and ``cols`` are checked when given."""
        ents = list(entries)
        if rows is None:
            rows = len(ents)
        if cols is None:
            cols = len(ents[0]) if ents else 0
        if len(ents) != rows:
            raise DimensionMismatch("ragged or mis-sized matrix data")
        self.rows = rows
        self.cols = cols
        self.row_maps = tuple(_fraction_map(r, cols) for r in ents)
        self._entries = None

    @classmethod
    def from_rows(cls, row_maps, rows: int, cols: int) -> "RationalMatrix":
        """From one row map per row; zero values are dropped."""
        if len(row_maps) != rows:
            raise DimensionMismatch(f"{len(row_maps)} row maps for {rows} rows")
        return cls._of([_fraction_map(r, cols) for r in row_maps], rows, cols)

    @classmethod
    def _of(cls, row_maps, rows: int, cols: int) -> "RationalMatrix":
        """From row maps already holding only nonzero Fractions, unchecked."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.row_maps = tuple(row_maps)
        m._entries = None
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of([{i: _ONE} for i in range(n)], n, n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of([{}] * rows, rows, cols)

    @property
    def entries(self) -> tuple:
        """Dense view, built on first use: a tuple of rows of ``cols`` Fractions."""
        if self._entries is None:
            self._entries = tuple(
                tuple(row.get(j, _ZERO) for j in range(self.cols)) for row in self.row_maps
            )
        return self._entries

    def transpose(self) -> "RationalMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.row_maps):
            for j, x in row.items():
                out[j][i] = x
        return RationalMatrix._of(out, self.cols, self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return RationalMatrix._of(
            [_lincomb(row, other.row_maps) for row in self.row_maps], self.rows, other.cols
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("cannot subtract matrices of different shapes")
        out = [dict(row) for row in self.row_maps]
        for row, sub in zip(out, other.row_maps):
            for j, x in sub.items():
                if y := row.pop(j, _ZERO) - x:
                    row[j] = y
        return RationalMatrix._of(out, self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.row_maps == other.row_maps
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.row_maps)))

    def is_zero(self) -> bool:
        return not any(self.row_maps)

    def column(self, j: int) -> tuple:
        return tuple(row.get(j, _ZERO) for row in self.row_maps)

    def inverse(self) -> "RationalMatrix":
        """Row-reduce [A | I]: A is invertible when the pivots are 0..n-1."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        pivots, rows = _rref([{**row, n + i: 1} for i, row in enumerate(self.row_maps)])
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix._of(
            [{j - n: Fraction(x, row[c]) for j, x in row.items() if j >= n}
             for c, row in zip(pivots, rows)],
            n, n,
        )

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def stack_rows(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    if top.cols != bottom.cols:
        raise DimensionMismatch("row stacking requires equal column counts")
    return RationalMatrix._of(
        top.row_maps + bottom.row_maps, top.rows + bottom.rows, top.cols
    )


def concat_cols(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    if left.rows != right.rows:
        raise DimensionMismatch("column concatenation requires equal row counts")
    shift = left.cols
    return RationalMatrix._of(
        [{**a, **{j + shift: x for j, x in b.items()}}
         for a, b in zip(left.row_maps, right.row_maps)],
        left.rows,
        left.cols + right.cols,
    )


def matvec(m: RationalMatrix, v: Sequence) -> tuple:
    """m v for a dense v, as a dense tuple; m is walked by its columns."""
    image = _lincomb(_row_map(v, m.cols), m.transpose().row_maps)
    return tuple(image.get(i, _ZERO) for i in range(m.rows))


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _sparse_rows(row_maps) -> list:
    """Nonzero rows, denominators cleared, as primitive dicts {column: int}.

    Values may be ints or Fractions; zero values are dropped.
    """
    out = []
    for row in row_maps:
        mult = lcm(*[x.denominator for x in row.values()])
        ints = {j: y for j, x in row.items() if (y := x.numerator * (mult // x.denominator))}
        if ints:
            out.append(_primitive(ints))
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


def _rref(row_maps) -> tuple[list, list]:
    """Pivot columns and rows of the RREF, each row not yet divided by its lead."""
    pivots = _echelon(_sparse_rows(row_maps))
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


def _rank(row_maps) -> int:
    """Rank of the rows, by forward elimination in the order given."""
    return len(_echelon(_sparse_rows(row_maps)))


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals: the number of pivot columns."""
    return _rank(m.row_maps)


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
    """Linear subspace of Q^n, stored by the rows of its canonical RREF.

    ``row_maps`` holds the rows as row maps: independent by construction,
    leading entry 1, and independent of the order or scaling of the spanning
    vectors supplied.  ``pivots`` holds the column of each row's leading
    entry.  The spanning vectors may be dense sequences or row maps.
    """

    __slots__ = ("ambient_dim", "pivots", "row_maps", "_basis")

    def __init__(self, ambient_dim: int, basis: Sequence = ()):
        self.ambient_dim = ambient_dim
        pivots, rows = _rref([_row_map(v, ambient_dim) for v in basis])
        self.pivots = tuple(pivots)
        self.row_maps = tuple(
            {j: Fraction(x, row[c]) for j, x in row.items()} for c, row in zip(pivots, rows)
        )
        self._basis = None

    @classmethod
    def _of(cls, ambient_dim: int, pivots, row_maps) -> "Subspace":
        """From canonical RREF rows, pivots ascending and leading entries 1, unchecked."""
        s = cls.__new__(cls)
        s.ambient_dim = ambient_dim
        s.pivots = tuple(pivots)
        s.row_maps = tuple(row_maps)
        s._basis = None
        return s

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [{i: _ONE} for i in range(ambient_dim)])

    @property
    def basis(self) -> tuple:
        """Dense view of the rows, built on first use."""
        if self._basis is None:
            self._basis = tuple(
                tuple(row.get(j, _ZERO) for j in range(self.ambient_dim))
                for row in self.row_maps
            )
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _spans(self, vecs) -> bool:
        """Whether the row maps vecs lie in the subspace: they leave its rank as it is.

        The canonical rows go first, so only the vectors are reduced.
        """
        return _rank(self.row_maps + tuple(vecs)) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return self._spans(other.row_maps)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The intersection, by Zassenhaus: one RREF of the rows (v, v) and (w, 0).

        With v over this subspace's rows and w over the other's, in Q^(2n), the
        rows whose pivot lies at or past column n are zero in the first half,
        and their second halves form the canonical RREF of the intersection.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        pivots, rows = _rref(
            [{**v, **{j + n: x for j, x in v.items()}} for v in self.row_maps]
            + list(other.row_maps)
        )
        meet = [(c, row) for c, row in zip(pivots, rows) if c >= n]
        return Subspace._of(n, [c - n for c, _ in meet], [
            {j - n: Fraction(x, row[c]) for j, x in row.items()} for c, row in meet
        ])

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, self.row_maps + other.row_maps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.row_maps == other.row_maps

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self.row_maps)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(m: RationalMatrix) -> Subspace:
    """Canonical basis of the null space; its dimension is cols - rank.

    Eliminating with the columns reversed (column j re-keyed to n - 1 - j)
    makes the vector read off for each free column a row of the canonical
    basis: 1 at that column, nothing before it and 0 at every other free
    column.  The rows become the subspace as they are, with no second
    elimination.
    """
    n = m.cols
    pivots, rows = _rref([{n - 1 - j: x for j, x in row.items()} for row in m.row_maps])
    pivot_set = set(pivots)
    # free columns from the last, so the rows' leading columns n - 1 - free ascend
    vectors = {free: {n - 1 - free: _ONE} for free in range(n - 1, -1, -1)
               if free not in pivot_set}
    for p, row in zip(pivots, rows):
        lead = row[p]
        for free, x in row.items():
            if free != p:
                vectors[free][n - 1 - p] = Fraction(-x, lead)
    return Subspace._of(n, [n - 1 - free for free in vectors], vectors.values())


def column_space(m: RationalMatrix) -> Subspace:
    """Span of the columns, as a subspace of Q^rows."""
    return Subspace(m.rows, m.transpose().row_maps)


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
    by_columns = f.transpose().row_maps
    images = tuple(_lincomb(v, by_columns) for v in v1.row_maps)
    if not v2._spans(images):
        raise ContainmentError("f does not map V1 into V2")
    if not w2._spans(_lincomb(w, by_columns) for w in w1.row_maps):
        raise ContainmentError("f does not map W1 into W2")
    # W2's canonical rows lead, so each enters as a pivot row unchanged and only
    # the images are reduced.  With the images first, the Lefschetz maps of a
    # generated dimension-12 structure took 25 s instead of 0.36 s (Python 3.11,
    # 2 vCPUs).
    r = _rank(w2.row_maps + images) - w2.dim
    return InducedMap(
        rank=r,
        injective=(r == v1.dim - w1.dim),
        surjective=(r == v2.dim - w2.dim),
    )
