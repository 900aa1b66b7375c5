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
* a bivector P contracts a k-form as  sum_{i<j} P^{ij} i_{e_i} i_{e_j}.

The composite conventions are pinned operationally by the commutator
identity [contraction, wedge-with-omega] = (n-k) id, which is exercised by
the test suite for every catalog algebra.

The derivation and the contraction are each written once, as a per-mask
kernel yielding the (mask, coefficient) terms of the image of one basis
form.  The kernel serves both the operator on forms and its matrix, which
``mask_matrix`` writes straight into sparse rows with no form per column.
For a matrix the kernel runs on integer coefficients: the images of the
generators, or the Poisson coefficients, are put over one denominator once,
and that denominator becomes the matrix's.
"""

from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import DimensionMismatch, RationalMatrix, _clear

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


def basis_masks(n: int, k: int) -> list:
    """Degree-k basis masks in lexicographic order of their index tuples.

    This ordering is normative for every matrix built in the package.
    """
    if k < 0 or k > n:
        return []
    return [sum(1 << (i - 1) for i in combo) for combo in combinations(range(1, n + 1), k)]


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


def _interior(bit: int, mask: int) -> tuple[int, int]:
    """Interior product with e_(bit+1) on a basis mask: (sign, new mask)."""
    b = 1 << bit
    if not mask & b:
        return 0, mask
    below = (mask & (b - 1)).bit_count()
    return (-1 if below & 1 else 1), mask ^ b


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
    rows = basis_masks(n_out, k_out)
    row_index = {m: i for i, m in enumerate(rows)}
    row_maps = [{} for _ in rows]
    for jcol, mask in enumerate(cols):
        for m, c in terms_of(mask):
            row = row_maps[row_index[m]]
            row[jcol] = row[jcol] + c if jcol in row else c
    return RationalMatrix.from_rows(row_maps, len(rows), len(cols), den)


class Bivector:
    """Antisymmetric bivector, stored by its strictly upper coefficients.

    Used as the Poisson tensor inverse to a nondegenerate 2-form.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[tuple[int, int], Fraction]):
        self.n = n
        clean = {}
        for (i, j), c in coeffs.items():
            if not (1 <= i < j <= n):
                raise ValueError("bivector keys must satisfy 1 <= i < j <= n")
            c = Fraction(c)
            if c != 0:
                clean[(i, j)] = c
        self.coeffs = clean

    def full_matrix(self) -> RationalMatrix:
        rows = [[_ZERO] * self.n for _ in range(self.n)]
        for (i, j), c in self.coeffs.items():
            rows[i - 1][j - 1] = c
            rows[j - 1][i - 1] = -c
        return RationalMatrix(rows)

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Bivector(n={self.n}, {len(self.coeffs)} terms)"


def two_form_matrix(omega: KForm) -> RationalMatrix:
    """Antisymmetric coefficient matrix W with W[i][j] = omega(e_i, e_j)."""
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    n = omega.n
    rows = [[_ZERO] * n for _ in range(n)]
    for mask, c in omega.coeffs.items():
        i, j = indices_from_mask(mask)
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = -c
    return RationalMatrix(rows)


def poisson_bivector(omega: KForm) -> Bivector:
    """Inverse of a nondegenerate 2-form, as a bivector.

    Raises ValueError when the coefficient matrix is singular.
    """
    inv = two_form_matrix(omega).inverse()
    coeffs = {
        (i + 1, j + 1): c for i, row in enumerate(inv.row_maps) for j, c in row.items() if j > i
    }
    return Bivector(omega.n, coeffs)


def _contraction_terms(coeffs: Mapping, mask: int):
    """(mask, coefficient) terms of the contraction of e^mask; masks may repeat.

    ``coeffs`` holds the bivector's coefficients {(i, j): P^ij}.
    """
    for (i, j), pij in coeffs.items():
        s2, m2 = _interior(j - 1, mask)
        if s2 == 0:
            continue
        s1, m1 = _interior(i - 1, m2)
        if s1 == 0:
            continue
        yield m1, pij if s1 == s2 else -pij


def contract(p: Bivector, a: KForm) -> KForm:
    """Contraction sum_{i<j} P^{ij} i_{e_i} i_{e_j} a; degree drops by two.

    Forms of degree below two contract to the zero 0-form.
    """
    if p.n != a.n:
        raise DimensionMismatch("bivector and form live on different spaces")
    if a.degree < 2:
        return KForm(a.n, 0)
    return KForm(a.n, a.degree - 2, _apply(lambda mask: _contraction_terms(p.coeffs, mask), a))


def contraction_map(p: Bivector, k: int) -> RationalMatrix:
    """Matrix of ``contract(p, .)`` from degree k to degree k - 2, over the coefficients' lcm."""
    (coeffs,), den = _clear([p.coeffs])
    return mask_matrix(lambda mask: _contraction_terms(coeffs, mask), p.n, k, p.n, k - 2, den)


def pullback_along(m: RationalMatrix, a: KForm) -> KForm:
    """Pullback of a along the linear map with matrix m.

    The matrix sends a source space of dimension ``m.cols`` to the target
    space of dimension ``m.rows`` where ``a`` lives; each target coframe
    generator e^i pulls back to the i-th row of the matrix.
    """
    if m.rows != a.n:
        raise DimensionMismatch("form does not live on the map's target space")
    src = m.cols
    result: dict = {}
    for mask, c in a.coeffs.items():
        partial = {0: c}
        rem = mask
        while rem and partial:
            low = rem & -rem
            rem ^= low
            row = m.row_maps[low.bit_length() - 1]
            nxt: dict = {}
            for pm, pc in partial.items():
                for col, v in row.items():
                    s = merge_sign(pm, 1 << col)
                    if s == 0:
                        continue
                    key = pm | (1 << col)
                    nxt[key] = nxt.get(key, _ZERO) + pc * v * s
            partial = nxt
        for pm, pc in partial.items():
            result[pm] = result.get(pm, _ZERO) + pc
    return KForm(src, a.degree, result)


def j_action(j: RationalMatrix, a: KForm) -> KForm:
    """Action (J a)(v_1, ..., v_k) = a(J v_1, ..., J v_k) on forms."""
    if j.rows != j.cols:
        raise DimensionMismatch("structure matrix must be square")
    return pullback_along(j, a)


def _derivation_terms(images: Sequence[Mapping], shift: int, mask: int):
    """(mask, coefficient) terms of the image of e^mask under ``derivation``; masks may repeat.

    ``images`` holds the coefficients of the generators' images.
    """
    step = -1 if shift & 1 else 1
    slot_sign = 1
    rem = mask
    while rem:
        low = rem & -rem
        rem ^= low
        image = images[low.bit_length() - 1]
        if image:
            prefix = mask & (low - 1)
            suffix = (mask ^ low) ^ prefix
            for im, ic in image.items():
                s1 = merge_sign(prefix, im)
                if s1 == 0:
                    continue
                s2 = merge_sign(prefix | im, suffix)
                if s2 == 0:
                    continue
                yield prefix | im | suffix, ic if slot_sign * s1 * s2 > 0 else -ic
        slot_sign *= step


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
    coeffs = [image.coeffs for image in images]
    out = _apply(lambda mask: _derivation_terms(coeffs, shift, mask), a)
    return KForm(a.n, a.degree + shift, out)


def derivation_map(images: Sequence[KForm], shift: int, n: int, k: int) -> RationalMatrix:
    """Matrix of ``derivation(images, shift, .)`` from degree k to degree k + shift on R^n.

    The images are put over the lcm of their denominators once, so the
    kernel runs on ints.
    """
    coeffs, den = _clear([image.coeffs for image in images])
    return mask_matrix(
        lambda mask: _derivation_terms(coeffs, shift, mask), n, k, n, k + shift, den
    )


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
