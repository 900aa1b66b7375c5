"""Exterior algebra of (R^n)* with exact rational coefficients.

Basis forms e^{i1...ik} are encoded as bitmasks: bit (i-1) set means the
generator e^i occurs, so wedge products and interior products reduce to
integer bit fiddling.  Generator labels are 1-based everywhere in the public
interface, matching the usual e^1, ..., e^n coframe notation.

Sign conventions, fixed once and used by every operator built on top:

* e^{I} ^ e^{J} carries (-1)^inversions, counting pairs (i in I, j in J)
  with i > j;
* the interior product with e_i removes the label i with sign
  (-1)^(position of i in the ascending index list - 1);
* an antisymmetric (Poisson) matrix P contracts a k-form as
  sum_{i<j} P^{ij} i_{e_i} i_{e_j}, reading only its strict upper triangle.

The composite conventions are pinned operationally by the commutator
identity [contraction, wedge-with-omega] = (n-k) id, which is exercised by
the test suite for every catalog algebra.

The derivation, the contraction and the pullback are each written once, as
a per-mask kernel yielding the (mask, coefficient) terms of the image of one
basis form.  The kernel serves both the operator on forms and its matrix,
which ``mask_matrix`` writes straight into sparse rows with no form per
column, over the graded bases that ``_basis`` builds once per (n, k).  The
kernels run on integer coefficients over one denominator: the generator
images are cleared by their owner (once per algebra), and a matrix (a map,
J or the Poisson matrix) enters as its ``nums`` over its ``den``.  The
pullback kernel expands the k x k minors of a map's rows one row at a time;
the symplectic star reuses it on the Poisson matrix.

Each sign of the derivation and contraction kernels is one popcount, since
parities add: popcount(x & A) + popcount(x & B) = popcount(x & (A ^ B))
mod 2.  For a derivation of degree shift, slot j of e^I gives

    (-1)^(j-1) image(i_j) ^ e^(I - i_j),

the slot sign (-1)^(shift (j-1)) times the sign (-1)^((1+shift)(j-1)) of
moving the image of degree 1 + shift to the front.  With rest = I - i_j,
the sign of image ^ e^rest for a basis mask ``im`` is the parity of
sum over bits b of im of popcount(rest & (b - 1)), and j - 1 is
popcount(rest & (low - 1)) for the bit ``low`` of i_j; so the whole sign is
the parity of popcount(rest & flip), with flip the XOR of those b - 1 and
low - 1, fixed per (generator, image term).  The contraction
P^ij i_(e_i) i_(e_j) of e^mask (i < j, both in the mask) has the parity of
popcount(mask & (b_j - 1)) + popcount(mask & (b_i - 1)), i.e. of
popcount(mask & ((b_j - 1) ^ (b_i - 1))), fixed per Poisson entry.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import DimensionMismatch, RationalMatrix

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_GENERATORS = 63  # bitmask encoding bound; far above any catalog entry


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Bitmask of a strictly increasing sequence of 1-based labels."""
    mask = 0
    prev = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator label {i} out of range 1..{n}")
        if i <= prev:
            raise ValueError("indices must be strictly increasing")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_from_mask(mask: int) -> tuple:
    """Ascending 1-based labels of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@cache
def _basis(n: int, k: int) -> tuple[tuple, dict]:
    """(masks, {mask: index}) of the degree-k basis of R^n, built once per (n, k).

    The cache holds combinatorics only (2^n masks per n used), never an
    algebra or a form.
    """
    if k < 0 or k > n:
        return (), {}
    masks = tuple(
        sum(1 << (i - 1) for i in combo) for combo in combinations(range(1, n + 1), k)
    )
    return masks, {m: i for i, m in enumerate(masks)}


def basis_masks(n: int, k: int) -> tuple:
    """Degree-k basis masks in lexicographic order of their index tuples.

    This ordering is normative for every matrix built in the package.  The
    tuple is shared: every call with the same (n, k) returns the same one;
    it is empty for k < 0 or k > n.
    """
    return _basis(n, k)[0]


def merge_sign(m1: int, m2: int) -> int:
    """Sign of e^{I} ^ e^{J} when merging sorted index sets; 0 on overlap."""
    if m1 & m2:
        return 0
    swaps = 0
    m = m2
    while m:
        low = m & -m
        swaps += (m1 >> low.bit_length()).bit_count()
        m ^= low
    return -1 if swaps & 1 else 1


class KForm:
    """Homogeneous degree-k form with exact rational coefficients.

    Zero coefficients are never stored.  A zero form still remembers its
    degree, so degree-dependent operators stay well defined on it.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: Mapping[int, Fraction] | None = None):
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"ambient dimension must be in 0..{MAX_GENERATORS}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        if coeffs:
            if degree > n:
                raise ValueError(f"no nonzero forms of degree {degree} on R^{n}")
            top = 1 << n
            for mask, c in coeffs.items():
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if not c:
                    continue
                if mask < 0 or mask >= top:
                    raise ValueError("multi-index out of range")
                if mask.bit_count() != degree:
                    raise ValueError("multi-index degree mismatch")
                clean[mask] = c
        self.n = n
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def zero(cls, n: int, degree: int) -> "KForm":
        return cls(n, degree)

    @classmethod
    def basis(cls, n: int, indices: Sequence[int], coefficient=1) -> "KForm":
        """Basis form e^{indices}; unsorted labels are normalized with sign."""
        idx = list(indices)
        if len(set(idx)) != len(idx):
            raise ValueError("repeated index in a basis form")
        sign = 1
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if idx[i] > idx[j]:
                    sign = -sign
        mask = mask_from_indices(sorted(idx), n)
        return cls(n, len(idx), {mask: Fraction(coefficient) * sign})

    @classmethod
    def constant(cls, n: int, value) -> "KForm":
        return cls(n, 0, {0: Fraction(value)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(mask, coefficient) pairs in the normative lexicographic order."""
        return sorted(self.coeffs.items(), key=lambda t: indices_from_mask(t[0]))

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        return self.coeffs.get(mask_from_indices(sorted(indices), self.n), _ZERO)

    def __add__(self, other: "KForm") -> "KForm":
        if self.n != other.n:
            raise DimensionMismatch("forms live on different ambient spaces")
        if self.degree != other.degree:
            # the zero form belongs to every degree; only it may cross over
            if not self.coeffs:
                return KForm(other.n, other.degree, dict(other.coeffs))
            if not other.coeffs:
                return KForm(self.n, self.degree, dict(self.coeffs))
            raise DimensionMismatch("forms have different degrees")
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, _ZERO) + c
        return KForm(self.n, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.degree, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "KForm":
        s = Fraction(scalar)
        return KForm(self.n, self.degree, {m: c * s for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        if self.n != other.n:
            return False
        if not self.coeffs and not other.coeffs:
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        degree = self.degree if self.coeffs else -1
        return hash((self.n, degree, frozenset(self.coeffs.items())))

    def to_vector(self) -> tuple:
        """Coefficient vector in the lexicographic basis of its degree."""
        return tuple(self.coeffs.get(m, _ZERO) for m in basis_masks(self.n, self.degree))

    @classmethod
    def from_vector(cls, n: int, degree: int, vec: Sequence) -> "KForm":
        masks = basis_masks(n, degree)
        if len(vec) != len(masks):
            raise DimensionMismatch("coefficient vector has wrong length")
        return cls(n, degree, dict(zip(masks, (Fraction(v) for v in vec))))

    def __repr__(self):
        if not self.coeffs:
            return f"KForm({self.n}, deg {self.degree}, 0)"
        body = " + ".join(
            f"{c}*e{''.join(map(str, indices_from_mask(m)))}" for m, c in self.terms()
        )
        return f"KForm({self.n}, deg {self.degree}, {body})"


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; bilinear, graded-commutative."""
    if a.n != b.n:
        raise DimensionMismatch("forms live on different ambient spaces")
    degree = a.degree + b.degree
    if degree > a.n:
        return KForm(a.n, degree)
    out: dict = {}
    for m1, c1 in a.coeffs.items():
        for m2, c2 in b.coeffs.items():
            s = merge_sign(m1, m2)
            if s == 0:
                continue
            mask = m1 | m2
            out[mask] = out.get(mask, _ZERO) + c1 * c2 * s
    return KForm(a.n, degree, out)


def _apply(terms_of, a: KForm) -> dict:
    """Coefficients of the image of ``a`` under e^mask -> the terms of ``terms_of(mask)``."""
    out: dict = {}
    for mask, c in a.coeffs.items():
        for m, x in terms_of(mask):
            out[m] = out.get(m, _ZERO) + c * x
    return out


def mask_matrix(
    terms_of, n_in: int, k_in: int, n_out: int, k_out: int, den: int = 1
) -> RationalMatrix:
    """Matrix of the linear map sending e^mask to the sum of ``terms_of(mask)`` over ``den``.

    ``terms_of`` yields (mask, coefficient) pairs, masks possibly repeated;
    integer coefficients keep the sums in ints.  Columns are indexed by the
    degree-``k_in`` basis of R^``n_in`` and rows by the degree-``k_out``
    basis of R^``n_out``, both in lexicographic order.  This is the one loop
    that writes operator matrices.
    """
    cols = basis_masks(n_in, k_in)
    rows, row_index = _basis(n_out, k_out)
    row_maps = [{} for _ in rows]
    for jcol, mask in enumerate(cols):
        for m, c in terms_of(mask):
            row = row_maps[row_index[m]]
            row[jcol] = row[jcol] + c if jcol in row else c
    return RationalMatrix.from_rows(row_maps, len(rows), len(cols), den)


def two_form_matrix(omega: KForm) -> RationalMatrix:
    """Antisymmetric coefficient matrix W with W[i][j] = omega(e_i, e_j)."""
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    rows = [{} for _ in range(omega.n)]
    for mask, c in omega.coeffs.items():
        i, j = indices_from_mask(mask)
        rows[i - 1][j - 1], rows[j - 1][i - 1] = c, -c
    return RationalMatrix.from_rows(rows, omega.n, omega.n)


def poisson_bivector(omega: KForm) -> RationalMatrix:
    """The Poisson matrix of a nondegenerate 2-form: the inverse of ``two_form_matrix``.

    Raises ValueError when the coefficient matrix is singular.
    """
    return two_form_matrix(omega).inverse()


def _upper(p: RationalMatrix) -> list:
    """(pair, flip, numerator of P^ij) over the strict upper triangle of a square P.

    For 0-based i < j with bits b_i, b_j: pair = b_i | b_j and
    flip = (b_j - 1) ^ (b_i - 1), the sign mask of ``_contraction_terms``.
    """
    if p.rows != p.cols:
        raise DimensionMismatch(f"the Poisson matrix must be square, got {p.rows}x{p.cols}")
    return [
        ((1 << i) | (1 << j), ((1 << j) - 1) ^ ((1 << i) - 1), x)
        for i, row in enumerate(p.nums)
        for j, x in row.items()
        if j > i
    ]


def _contraction_terms(upper: Sequence[tuple], mask: int):
    """(mask, coefficient) terms of the contraction of e^mask by ``_upper``'s triples.

    i_(e_i) i_(e_j) e^mask is nonzero only when both bits are in the mask,
    with the sign of popcount(mask & flip); see the module docstring.
    """
    for pair, flip, pij in upper:
        if mask & pair == pair:
            yield mask ^ pair, -pij if (mask & flip).bit_count() & 1 else pij


def contract(p: RationalMatrix, a: KForm) -> KForm:
    """Contraction sum_{i<j} P^{ij} i_{e_i} i_{e_j} a; degree drops by two.

    Forms of degree below two contract to the zero 0-form.
    """
    if p.rows != a.n or p.cols != a.n:
        raise DimensionMismatch("Poisson matrix and form live on different spaces")
    if a.degree < 2:
        return KForm(a.n, 0)
    upper = _upper(p)
    out = _apply(lambda mask: _contraction_terms(upper, mask), a)
    return KForm(a.n, a.degree - 2, {m: c / p.den for m, c in out.items()})


def contraction_map(p: RationalMatrix, k: int) -> RationalMatrix:
    """Matrix of ``contract(p, .)`` from degree k to degree k - 2, over ``p.den``."""
    upper = _upper(p)
    n = p.rows
    return mask_matrix(lambda mask: _contraction_terms(upper, mask), n, k, n, k - 2, p.den)


def _pullback_terms(rows: Sequence[Mapping], mask: int):
    """(mask, coefficient) terms of the pullback of e^mask along the map with these rows.

    Generator e^i pulls back to the row map ``rows[i-1]`` ({column c: x} for
    x e^(c+1)).  The wedge of the rows of ``mask`` is expanded one row at a
    time, so the coefficient of e^J is the minor det rows[I, J]; masks do
    not repeat.
    """
    partial = {0: 1}
    for i in indices_from_mask(mask):
        nxt: dict = {}
        for pm, pc in partial.items():
            for col, x in rows[i - 1].items():
                bit = 1 << col
                if not pm & bit:
                    term = -pc * x if (pm >> col).bit_count() & 1 else pc * x
                    nxt[pm | bit] = nxt.get(pm | bit, 0) + term
        partial = nxt
    return partial.items()


def pullback_along(m: RationalMatrix, a: KForm) -> KForm:
    """Pullback of a along the linear map with matrix m.

    The matrix sends a source space of dimension ``m.cols`` to the target
    space of dimension ``m.rows`` where ``a`` lives; each target coframe
    generator e^i pulls back to the i-th row of the matrix.  The kernel runs
    on ``m.nums``; a k-form picks up 1 / den^k.
    """
    if m.rows != a.n:
        raise DimensionMismatch("form does not live on the map's target space")
    out = _apply(lambda mask: _pullback_terms(m.nums, mask), a)
    scale = m.den**a.degree
    return KForm(m.cols, a.degree, {mask: c / scale for mask, c in out.items()})


def j_action(j: RationalMatrix, a: KForm) -> KForm:
    """Action (J a)(v_1, ..., v_k) = a(J v_1, ..., J v_k) on forms."""
    if j.rows != j.cols:
        raise DimensionMismatch("structure matrix must be square")
    return pullback_along(j, a)


def _slot_terms(images: Sequence[Mapping]) -> list:
    """Per generator, the (image mask, flip, coefficient) triples of ``_derivation_terms``.

    flip is the XOR of b - 1 over the bits b of the image mask and of
    low - 1 for the generator's own bit ``low``.
    """
    table = []
    for i, image in enumerate(images):
        terms = []
        for im, c in image.items():
            flip = (1 << i) - 1
            rem = im
            while rem:
                low = rem & -rem
                flip ^= low - 1
                rem ^= low
            terms.append((im, flip, c))
        table.append(terms)
    return table


def _derivation_terms(slots: Sequence[Sequence[tuple]], mask: int):
    """(mask, coefficient) terms of the image of e^mask under ``derivation``; masks may repeat.

    ``slots`` is ``_slot_terms`` of the generators' images.  Slot j of e^I
    gives (-1)^(j-1) image(i_j) ^ e^rest with rest = I - i_j, whatever the
    shift; its sign is the parity of popcount(rest & flip) (module
    docstring), and a term meeting rest vanishes.
    """
    rem = mask
    while rem:
        low = rem & -rem
        rem ^= low
        rest = mask ^ low
        for im, flip, c in slots[low.bit_length() - 1]:
            if not im & rest:
                yield im | rest, -c if (rest & flip).bit_count() & 1 else c


def derivation(images: Sequence[KForm], shift: int, a: KForm) -> KForm:
    """Extension of e^i -> images[i-1] to all forms as a derivation of degree shift.

    ``images`` holds one form of degree 1 + shift per generator of the space
    of ``a``.  The image of a basis form replaces one wedge slot at a time,

        e^{i1...ik} -> sum_j (-1)^(shift (j-1)) e^{i1} ^ ... ^ images[ij-1] ^ ... ^ e^{ik},

    so shift 1 gives an anti-derivation (the Chevalley-Eilenberg d from the
    generator differentials) and shift 0 a plain derivation (the extension of
    J from its rows, which acts with eigenvalue i(p - q) on forms of pure
    complex bidegree (p, q)).
    """
    slots = _slot_terms([image.coeffs for image in images])
    out = _apply(lambda mask: _derivation_terms(slots, mask), a)
    return KForm(a.n, a.degree + shift, out)


def derivation_map(
    images: Sequence[Mapping], den: int, shift: int, n: int, k: int
) -> RationalMatrix:
    """Matrix of the derivation of degree ``shift`` from degree k to degree k + shift on R^n.

    ``images`` holds the generators' images as integer coefficient maps
    {mask: int}, over the one positive ``den``; see ``derivation``.
    """
    slots = _slot_terms(images)
    return mask_matrix(lambda mask: _derivation_terms(slots, mask), n, k, n, k + shift, den)


def matrix_of(
    op: Callable[[KForm], KForm],
    n_in: int,
    k_in: int,
    n_out: int,
    k_out: int,
) -> RationalMatrix:
    """Matrix of a linear operator on forms between graded pieces (see ``mask_matrix``)."""

    def terms_of(mask):
        image = op(KForm(n_in, k_in, {mask: _ONE}))
        if image.coeffs and (image.degree != k_out or image.n != n_out):
            raise DimensionMismatch("operator image has unexpected grading")
        return image.coeffs.items()

    return mask_matrix(terms_of, n_in, k_in, n_out, k_out)
