"""Structure-equation and coefficient-form parsing.

The accepted grammar, shared with the command line input files:

    salamon   := '(' entry (',' entry)* ')'
    entry     := '0' | term (('+'|'-') term)*      # first term may be signed
    term      := [rational '*'] group
    rational  := integer | integer '/' integer     # no decimals, exact only
    group     := digit-run                         # only when n <= 9
               | '[' label ('.' label)* ']'        # mandatory when n > 9

Whitespace is ignored everywhere.  A structure-equation tuple such as
(0,0,0,23) lists de^1, ..., de^n; the digit pair 23 stands for e^2 ^ e^3.
Digit runs are refused above nine generators because 23 would then be
ambiguous between e^{2,3} and a two-digit label, so [2.3] is required.

Rendering is canonical: ascending index groups in lexicographic order,
explicit '+'/'-' between terms, coefficient 1 suppressed.  One render
round-trip is idempotent.
"""

from fractions import Fraction

from .cec import LieAlgebra
from .forms import KForm, indices_from_mask


class ParseError(ValueError):
    """Raised on any syntactic or range error in the input grammars."""


def _strip(text: str) -> str:
    return "".join(text.split())


def _split_terms(entry: str):
    """Split on top-level +/- into (sign, body) pairs; brackets are opaque."""
    terms = []
    sign = None  # pending sign for the next term; None means default '+'
    buf = []
    depth = 0
    for ch in entry:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ']'")
        if ch in "+-" and depth == 0:
            if buf:
                terms.append((sign or 1, "".join(buf)))
                buf = []
                sign = None
            if sign is not None:
                raise ParseError(f"dangling sign in {entry!r}")
            sign = 1 if ch == "+" else -1
        else:
            buf.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '['")
    if not buf:
        raise ParseError(f"empty term in {entry!r}")
    terms.append((sign or 1, "".join(buf)))
    return terms


def _is_decimal(text: str) -> bool:
    """ASCII digits only: str.isdigit alone also accepts '²' and other scripts."""
    return text.isascii() and text.isdigit()


def parse_count(text: str, what: str) -> int:
    """A non-negative decimal integer such as a dimension or a row count."""
    if not _is_decimal(text.strip()):
        raise ParseError(f"{what} must be an integer")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """A rational of the grammar above, or its negative for matrix entries.

    Inside a form the sign belongs to the term, so a body never starts with '-'.
    """
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    num, slash, den = body.partition("/")
    if not _is_decimal(num) or (slash and (not _is_decimal(den) or int(den) == 0)):
        raise ParseError(f"malformed rational {text!r}")
    return Fraction(sign * int(num), int(den) if slash else 1)


def _parse_group(text: str, n: int) -> list:
    """Index group -> list of 1-based labels, order as written."""
    if text.startswith("["):
        if not text.endswith("]") or len(text) < 3:
            raise ParseError(f"malformed bracket group {text!r}")
        parts = text[1:-1].split(".")
        if not all(map(_is_decimal, parts)):
            raise ParseError(f"malformed bracket group {text!r}")
        labels = [int(p) for p in parts]
    else:
        if not _is_decimal(text):
            raise ParseError(f"malformed index group {text!r}")
        if n > 9:
            raise ParseError(
                f"digit-run {text!r} is ambiguous for n={n}; use [i.j...] labels"
            )
        labels = [int(ch) for ch in text]
    for lab in labels:
        if not 1 <= lab <= n:
            raise ParseError(f"index {lab} out of range 1..{n}")
    if len(set(labels)) != len(labels):
        raise ParseError(f"repeated index in {text!r}")
    return labels


def _parse_term(sign: int, body: str, n: int) -> tuple[Fraction, list]:
    coeff = Fraction(sign)
    if "*" in body:
        rat, _, group = body.partition("*")
        if "*" in group:
            raise ParseError(f"malformed term {body!r}")
        coeff *= parse_rational(rat)
    else:
        group = body
    return coeff, _parse_group(group, n)


def parse_form(text: str, n: int) -> KForm:
    """Parse a coefficient-form expression of homogeneous degree on R^n.

    The literal "0" denotes the zero form (reported with degree 0).  Terms
    with permuted indices are normalized with the appropriate sign; mixing
    degrees in one expression is an error.
    """
    body = _strip(text)
    if not body:
        raise ParseError("empty form expression")
    if body == "0":
        return KForm.zero(n, 0)
    degree = None
    total: KForm | None = None
    for sign, term in _split_terms(body):
        coeff, labels = _parse_term(sign, term, n)
        if degree is None:
            degree = len(labels)
        elif len(labels) != degree:
            raise ParseError("mixed degrees in one form expression")
        piece = KForm.basis(n, labels, coeff)
        total = piece if total is None else total + piece
    assert total is not None
    return total


def parse_salamon(text: str) -> LieAlgebra:
    """Parse a structure-equation tuple into a Lie algebra.

    The entry count fixes the ambient dimension; each entry must be "0" or a
    2-form expression in the grammar above.
    """
    body = _strip(text)
    if not body.startswith("(") or not body.endswith(")"):
        raise ParseError("structure equations must be wrapped in parentheses")
    inner = body[1:-1]
    if not inner:
        raise ParseError("empty structure-equation tuple")
    entries = inner.split(",")
    n = len(entries)
    differentials = []
    for entry in entries:
        form = parse_form(entry, n)
        if form.is_zero():
            form = KForm.zero(n, 2)
        elif form.degree != 2:
            raise ParseError("structure-equation entries must be 2-forms")
        differentials.append(form)
    return LieAlgebra(n, differentials)


def _render_coefficient(c: Fraction) -> str:
    mag = abs(c)
    return "" if mag == 1 else f"{mag}*"


def _render_group(mask: int, n: int) -> str:
    labels = indices_from_mask(mask)
    if n <= 9:
        return "".join(str(i) for i in labels)
    return "[" + ".".join(str(i) for i in labels) + "]"


def render_form(a: KForm) -> str:
    """Canonical text of a form: lexicographic terms, explicit signs.

    A 0-form renders as its coefficient (``1``, ``-2``, ``1/2``), outside the
    parse round-trip: the grammar reads digits as generator labels.
    """
    if a.is_zero():
        return "0"
    if a.degree == 0:
        return str(a.coeffs[0])
    parts = []
    for mask, c in a.terms():
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{_render_coefficient(c)}{_render_group(mask, a.n)}")
    return "".join(parts)


def render_salamon(g: LieAlgebra) -> str:
    """Canonical structure-equation tuple; parse o render is the identity."""
    return "(" + ",".join(render_form(d) for d in g.gen_differentials) + ")"
