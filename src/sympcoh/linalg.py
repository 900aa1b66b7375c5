"""Exact linear algebra over the rationals.

A matrix is integers over one denominator, as in FLINT's ``fmpq_mat``:
``RationalMatrix.nums`` holds one row map {column: nonzero int} per row and
``RationalMatrix.den`` a positive int, the matrix being nums / den in lowest
terms, so equal matrices have equal ``nums`` and ``den`` however they were
built.  Products, differences and stacking work on ints alone.  A subspace
holds the rows of its canonical reduced row echelon form as row maps
{column: nonzero Fraction}, leading entry 1.  Row maps may be shared and are
never modified in place.  ``RationalMatrix.row_maps`` and ``entries`` and
``Subspace.basis`` are read-only Fraction views built on first use.  No
floating point appears anywhere.

Every rank, kernel, subspace basis, inverse, containment, intersection and
induced-map rank comes from one fraction-free elimination, ``_rref``, on
sparse integer rows: a matrix's ``nums`` as they are (a positive scale
changes no rank and no kernel), rows of Fractions once ``_sparse_rows`` has
cleared their denominators.  Every combined row is divided by the gcd of its
entries, so rows stay primitive and entries small.  The echelon phase alone
(``_echelon``) gives the rank; back-substitution and a division by each
leading entry give the reduced row echelon form.  That form is unique, so
equal subspaces carry identical rows whatever vectors spanned them, and
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


def _clear(rows) -> tuple[tuple, int]:
    """(nums, den): rows of ints or rationals, zeros allowed, as ints over the
    lcm of their denominators (in lowest terms)."""
    nums = tuple({j: x for j, x in row.items() if x} for row in rows)
    if all(type(x) is int for row in nums for x in row.values()):
        return nums, 1
    fracs = [{j: x if isinstance(x, (int, Fraction)) else Fraction(x) for j, x in row.items()}
             for row in nums]
    den = lcm(*{x.denominator for row in fracs for x in row.values()})
    return tuple({j: x.numerator * (den // x.denominator) for j, x in row.items()}
                 for row in fracs), den


def _lowest(nums, den: int) -> tuple:
    """nums / den in lowest terms: (nums, den) divided by the gcd of den and every entry."""
    g = den
    for row in nums:
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g == 1:
        return nums, den
    return tuple({j: x // g for j, x in row.items()} for row in nums), den // g


def _scaled(nums, c: int) -> tuple:
    return nums if c == 1 else tuple({j: c * x for j, x in row.items()} for row in nums)


def _over_common_den(a: "RationalMatrix", b: "RationalMatrix") -> tuple:
    """(nums of a, nums of b, den): both matrices written over the lcm of their denominators."""
    den = lcm(a.den, b.den)
    return _scaled(a.nums, den // a.den), _scaled(b.nums, den // b.den), den


def _lincomb(coeffs: dict, row_maps: Sequence[dict]) -> dict:
    """The row map of the sum of c * row_maps[i] over the items (i, c) of coeffs."""
    out = {}
    for i, c in coeffs.items():
        for j, x in row_maps[i].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


class RationalMatrix:
    """Sparse matrix of exact rationals with a fixed shape: ``nums / den``.

    ``nums`` holds one row map {column: nonzero int} per row and ``den`` is a
    positive int sharing no factor with every entry.  Zero-row and
    zero-column matrices are legal; they show up naturally as operators into
    or out of trivial graded pieces.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_row_maps", "_entries")

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
        self.nums, self.den = _clear([_row_map(r, cols) for r in ents])
        self._row_maps = None
        self._entries = None

    @classmethod
    def from_rows(cls, row_maps, rows: int, cols: int, den: int = 1) -> "RationalMatrix":
        """The matrix row_maps / den, from one row map per row and a positive int den.

        Values may be ints or rationals; zero values are dropped.
        """
        if len(row_maps) != rows:
            raise DimensionMismatch(f"{len(row_maps)} row maps for {rows} rows")
        if den < 1:
            raise ValueError(f"den must be a positive int, got {den}")
        nums, mult = _clear([_row_map(r, cols) for r in row_maps])
        return cls._of(*_lowest(nums, mult * den), rows, cols)

    @classmethod
    def _of(cls, nums, den: int, rows: int, cols: int) -> "RationalMatrix":
        """From integer row maps without zeros and a den in lowest terms with them, unchecked."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.nums = tuple(nums)
        m.den = den
        m._row_maps = None
        m._entries = None
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of([{i: 1} for i in range(n)], 1, n, n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of([{}] * rows, 1, rows, cols)

    @property
    def row_maps(self) -> tuple:
        """Read-only view, built on first use: one row map {column: nonzero Fraction} per row."""
        if self._row_maps is None:
            den = self.den
            self._row_maps = tuple(
                {j: Fraction(x, den) for j, x in row.items()} for row in self.nums
            )
        return self._row_maps

    @property
    def entries(self) -> tuple:
        """Dense view, built on first use: a tuple of rows of ``cols`` Fractions."""
        if self._entries is None:
            den, cols = self.den, range(self.cols)
            self._entries = tuple(
                tuple(Fraction(row[j], den) if j in row else _ZERO for j in cols)
                for row in self.nums
            )
        return self._entries

    def transpose(self) -> "RationalMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nums):
            for j, x in row.items():
                out[j][i] = x
        return RationalMatrix._of(out, self.den, self.cols, self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        nums = [_lincomb(row, other.nums) for row in self.nums]
        return RationalMatrix._of(*_lowest(nums, self.den * other.den), self.rows, other.cols)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("cannot subtract matrices of different shapes")
        top, bottom, den = _over_common_den(self, other)
        out = [dict(row) for row in top]
        for row, sub in zip(out, bottom):
            for j, x in sub.items():
                if y := row.pop(j, 0) - x:
                    row[j] = y
        return RationalMatrix._of(*_lowest(out, den), self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash(
            (self.rows, self.cols, self.den, tuple(frozenset(r.items()) for r in self.nums))
        )

    def is_zero(self) -> bool:
        return not any(self.nums)

    def column(self, j: int) -> tuple:
        return tuple(Fraction(row[j], self.den) if j in row else _ZERO for row in self.nums)

    def inverse(self) -> "RationalMatrix":
        """Row-reduce [N | I] for the matrix N / den: the inverse is den N^-1."""
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        pivots, rows = _rref([{**row, n + i: 1} for i, row in enumerate(self.nums)])
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix.from_rows(
            [{j - n: Fraction(self.den * x, row[c]) for j, x in row.items() if j >= n}
             for c, row in zip(pivots, rows)],
            n, n,
        )

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


def stack_rows(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    if top.cols != bottom.cols:
        raise DimensionMismatch("row stacking requires equal column counts")
    upper, lower, den = _over_common_den(top, bottom)
    return RationalMatrix._of(upper + lower, den, top.rows + bottom.rows, top.cols)


def concat_cols(left: RationalMatrix, right: RationalMatrix) -> RationalMatrix:
    if left.rows != right.rows:
        raise DimensionMismatch("column concatenation requires equal row counts")
    shift = left.cols
    a_rows, b_rows, den = _over_common_den(left, right)
    return RationalMatrix._of(
        [{**a, **{j + shift: x for j, x in b.items()}} for a, b in zip(a_rows, b_rows)],
        den,
        left.rows,
        left.cols + right.cols,
    )


def matvec(m: RationalMatrix, v: Sequence) -> tuple:
    """m v for a dense v, as a dense tuple of Fractions."""
    vec = _row_map(v, m.cols)
    return tuple(
        Fraction(sum(x * vec[j] for j, x in row.items() if j in vec), m.den) for row in m.nums
    )


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


def _rref(rows) -> tuple[list, list]:
    """Pivot columns and rows of the RREF of integer rows, each not yet divided by its lead."""
    pivots = _echelon(rows)
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
    """Rank of rows of ints or Fractions, by forward elimination in the order given."""
    return len(_echelon(_sparse_rows(row_maps)))


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals: the number of pivot columns of the integer rows."""
    return len(_echelon(m.nums))


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
        pivots, rows = _rref(_sparse_rows(_row_map(v, ambient_dim) for v in basis))
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
        pivots, rows = _rref(_sparse_rows(
            [{**v, **{j + n: x for j, x in v.items()}} for v in self.row_maps]
            + list(other.row_maps)
        ))
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
    pivots, rows = _rref([{n - 1 - j: x for j, x in row.items()} for row in m.nums])
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
    """Span of the columns, as a subspace of Q^rows; den plays no part."""
    return Subspace(m.rows, m.transpose().nums)


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
    verified, never assumed; a violation raises ContainmentError.  f and
    the rows of V1 and W1 enter as integer rows: positive scales change no
    rank and no inclusion.
    """
    if f.cols != v1.ambient_dim or f.rows != v2.ambient_dim:
        raise DimensionMismatch("map shape does not match the ambient spaces")
    if not v1.contains(w1):
        raise ContainmentError("W1 is not contained in V1")
    if not v2.contains(w2):
        raise ContainmentError("W2 is not contained in V2")
    by_columns = f.transpose().nums
    images = tuple(_lincomb(v, by_columns) for v in _sparse_rows(v1.row_maps))
    if not v2._spans(images):
        raise ContainmentError("f does not map V1 into V2")
    if not w2._spans(_lincomb(w, by_columns) for w in _sparse_rows(w1.row_maps)):
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
