"""Command line frontend.

Commands
--------
report    full invariant cohomology table with HLC verdicts
jdecomp   pure-type group dimensions and the pure/full verdict
pullback  injectivity report of a morphism-induced map on a chosen theory
validate  diagnostics for an input document
catalog   list the built-in algebras

Inputs are either catalog names or line-oriented ``key = value`` files using
the structure-equation grammar ('#' starts a comment):

    dim   = 4
    d     = (0,0,0,23)
    omega = 12+34
    J     = [0,-1,0,0][1,0,0,0][0,0,0,-1][0,0,1,0]

A file may instead say ``name = kodaira`` to start from a catalog entry and
optionally override omega or J.  Morphism files for ``pullback`` give the
matrix of the Lie algebra map inducing pi: source -> target:

    rows = 8            # target dimension
    cols = 10           # source dimension
    1 0 0 0 0 0 0 0 0 0
    ...

Every command loads its inputs through one loader, ``_load_checked``: the
file or catalog entry, then the ``SYMPCOH_MAX_DIM`` guard, then the Jacobi
refusal (``validate`` reports a Jacobi failure instead).  Both file formats
are read by one line reader, ``_lines``, which drops comments and blank
lines and refuses a key given twice, so ``rows`` and ``cols`` each appear
once in a morphism file.

Exit codes: 0 success, 1 semantic validation failure, 2 syntax error,
3 hypothesis violation in pullback theories, 4 internal invariant violated.
"""

import argparse
import functools
import os
import sys
from dataclasses import dataclass

from . import acx, catalog, cec, morphism, symplectic
from .forms import KForm
from .linalg import RationalMatrix
from .parser import ParseError, parse_count, parse_form, parse_rational, parse_salamon, render_form

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SYNTAX = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4

DEFAULT_MAX_DIM = 16


class InputError(ValueError):
    """Semantic problem with an input document (exit code 1)."""


@dataclass
class InputDocument:
    """A resolved input: algebra plus optional structures."""

    label: str
    algebra: cec.LieAlgebra
    omega: KForm | None
    j: RationalMatrix | None


def _max_dim() -> int:
    raw = os.environ.get("SYMPCOH_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SYMPCOH_MAX_DIM is not an integer: {raw!r}") from None


def _parse_j_matrix(text: str, n: int) -> RationalMatrix:
    body = "".join(text.split())
    if not body.startswith("[") or not body.endswith("]"):
        raise ParseError("J must be given as bracketed rows [a,b,...][...]")
    rows = []
    for chunk in body[1:-1].split("]["):
        rows.append([parse_rational(t) for t in chunk.split(",")])
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"J must be an {n}x{n} matrix")
    return RationalMatrix(rows)


def _lines(path: str):
    """(where, key, value) per line of an input or morphism file, in order.

    '#' starts a comment and blank lines are skipped.  ``where`` is
    ``path:line``.  A ``key = value`` line gives its stripped key and value,
    and a key repeated in one file is refused; any other line gives key None
    and the whole line as value.
    """
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                yield where, None, line
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key in seen:
                raise ParseError(f"{where}: duplicate key {key!r}")
            seen.add(key)
            yield where, key, value.strip()


def _document_from_catalog(entry: catalog.CatalogEntry) -> InputDocument:
    return InputDocument(entry.name, entry.algebra, entry.default_omega, entry.default_j)


def load_input(spec: str) -> InputDocument:
    """Resolve a CLI input argument: a file path or a catalog name."""
    if not os.path.exists(spec):
        try:
            entry = catalog.get(spec)
        except KeyError:
            raise ParseError(
                f"input {spec!r} is neither a file nor a catalog name"
            ) from None
        return _document_from_catalog(entry)
    pairs = {}
    for where, key, value in _lines(spec):
        if key is None:
            raise ParseError(f"{where}: expected key = value")
        pairs[key] = value
    unknown = set(pairs) - {"dim", "d", "omega", "J", "name"}
    if unknown:
        raise ParseError(f"unknown keys in {spec}: {', '.join(sorted(unknown))}")
    if "name" in pairs:
        if "d" in pairs or "dim" in pairs:
            raise ParseError("a file naming a catalog entry cannot also set dim/d")
        doc = _document_from_catalog(catalog.get(pairs["name"]))
    else:
        if "d" not in pairs:
            raise ParseError(f"{spec}: missing structure equations (key 'd')")
        algebra = parse_salamon(pairs["d"])
        if "dim" in pairs and parse_count(pairs["dim"], "dim") != algebra.dim:
            raise ParseError(
                f"{spec}: dim = {pairs['dim']} does not match {algebra.dim} entries"
            )
        doc = InputDocument(os.path.basename(spec), algebra, None, None)
    if "omega" in pairs:
        doc.omega = parse_form(pairs["omega"], doc.algebra.dim)
    if "J" in pairs:
        doc.j = _parse_j_matrix(pairs["J"], doc.algebra.dim)
    return doc


def _load_checked(spec: str, jacobi: bool = True) -> InputDocument:
    """``load_input``, then the SYMPCOH_MAX_DIM guard, then (if ``jacobi``) the Jacobi refusal."""
    doc = load_input(spec)
    limit = _max_dim()
    if doc.algebra.dim > limit:
        raise InputError(
            f"dimension {doc.algebra.dim} exceeds SYMPCOH_MAX_DIM = {limit}"
        )
    if jacobi and (bad := cec.validate(doc.algebra)) is not None:
        raise InputError(
            f"structure equations violate the Jacobi identity at "
            f"{cec.jacobi_failure(doc.algebra, bad)}"
        )
    return doc


def _symplectic_structure(doc: InputDocument) -> symplectic.SymplecticStructure:
    if doc.omega is None:
        raise InputError(f"{doc.label}: no symplectic form given and no default exists")
    try:
        return symplectic.make(doc.algebra, doc.omega)
    except (symplectic.NotClosedError, symplectic.DegenerateError, ValueError) as exc:
        raise InputError(f"{doc.label}: {exc}") from exc


def _acs(doc: InputDocument) -> acx.AlmostComplexStructure:
    if doc.j is None:
        raise InputError(f"{doc.label}: no almost-complex structure given")
    try:
        return acx.AlmostComplexStructure(doc.algebra, doc.j)
    except ValueError as exc:
        raise InputError(f"{doc.label}: {exc}") from exc


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_table(header: list, body: list) -> list:
    widths = [
        max(len(str(row[i])) for row in [header] + body) for i in range(len(header))
    ]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


def _print_pairs(pairs, fmt: str) -> None:
    """Print (key, value) records, tab-separated for tsv and ``key: value`` otherwise."""
    sep = "\t" if fmt == "tsv" else ": "
    for key, value in pairs:
        print(f"{key}{sep}{value}")


def cmd_report(args) -> int:
    doc = _load_checked(args.input)
    rep = symplectic.report(_symplectic_structure(doc))
    header = ["k", "b", "h_dLambda", "h_BC", "h_A", "deltaTilde"]
    body = [
        [k, rep.b[k], rep.h_dlambda[k], rep.h_bottchern[k], rep.h_aeppli[k], rep.delta_tilde[k]]
        for k in range(rep.dim + 1)
    ]
    footer = [
        ("HLC", _yesno(rep.hlc)),
        ("ddLambda-lemma", _yesno(rep.ddlambda_lemma)),
        ("scope", "invariant forms"),
    ]
    if not cec.is_nilpotent(doc.algebra):
        footer.append(("non-nilpotent", "values are invariant-level only"))
    if args.format == "tsv":
        print("\t".join(header))
        for row in body:
            print("\t".join(str(x) for x in row))
    else:
        print(f"invariant cohomology: {doc.label} (dim {rep.dim})")
        for line in _render_table(header, body):
            print(line)
    _print_pairs(footer, args.format)
    return EXIT_OK


def cmd_jdecomp(args) -> int:
    a = _acs(_load_checked(args.input))
    group = acx.h_j(a, args.p, args.q, with_representatives=args.with_representatives)
    verdict = acx.pure_full_check(a)
    rows = [
        (f"h_J({args.p},{args.q})+({args.q},{args.p})", str(group.dim)),
        ("pure", _yesno(verdict.pure)),
        ("full", _yesno(verdict.full)),
    ]
    _print_pairs(rows, args.format)
    for rep_form in group.representative_basis or ():
        print(f"rep: {render_form(rep_form)}")
    return EXIT_OK


def _load_morphism(path: str, source: cec.LieAlgebra, target: cec.LieAlgebra) -> morphism.LieMorphism:
    counts, matrix_rows = {}, []
    for where, key, value in _lines(path):
        if key is None:
            matrix_rows.append([parse_rational(t) for t in value.split()])
        elif key in ("rows", "cols"):
            counts[key] = parse_count(value, key)
        else:
            raise ParseError(f"{where}: unknown key {key!r}")
    if len(counts) != 2:
        raise ParseError(f"{path}: morphism files must declare rows and cols")
    if len(matrix_rows) != counts["rows"] or any(
        len(r) != counts["cols"] for r in matrix_rows
    ):
        raise ParseError(f"{path}: matrix body does not match rows/cols")
    return morphism.LieMorphism(source, target, RationalMatrix(matrix_rows))


def cmd_pullback(args) -> int:
    src_doc, tgt_doc = _load_checked(args.source), _load_checked(args.target)
    f = _load_morphism(args.map, src_doc.algebra, tgt_doc.algebra)
    kwargs = {"degree": args.degree}
    structure = _symplectic_structure if args.theory in symplectic.GROUPS else None
    if args.theory == "J":
        if args.p is None or args.q is None:
            raise InputError("theory J needs --p and --q")
        kwargs, structure = {"p": args.p, "q": args.q}, _acs
    if structure is not None:
        kwargs.update(source_structure=structure(src_doc), target_structure=structure(tgt_doc))
    if args.theory != "J" and args.degree is None:
        raise InputError("--degree is required for this theory")
    rep = morphism.induced_report(f, args.theory, **kwargs)
    verdict = "injective" if rep.injective else "NOT injective"
    if args.format == "tsv":
        print(
            "\t".join(
                str(x)
                for x in (
                    rep.theory,
                    rep.degree,
                    rep.rank,
                    rep.source_dim,
                    rep.target_dim,
                    _yesno(rep.injective),
                )
            )
        )
    else:
        print(f"rank {rep.rank}/{rep.source_dim} {verdict}")
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = _load_checked(args.input, jacobi=False)
    lines = []
    ok = True
    bad = cec.validate(doc.algebra)
    if bad is None:
        kind = "nilpotent" if cec.is_nilpotent(doc.algebra) else "solvable or general"
        lines.append(f"algebra: ok (dim {doc.algebra.dim}, {kind})")
    else:
        ok = False
        lines.append(f"algebra: Jacobi identity fails at {cec.jacobi_failure(doc.algebra, bad)}")
    acs = None
    omega = doc.omega if bad is None else None
    if omega is not None and omega.degree != 2:
        ok = False
        lines.append(f"omega: not a 2-form (degree {omega.degree})")
        omega = None
    elif omega is not None:
        try:
            symplectic.make(doc.algebra, omega)
            lines.append("omega: ok (closed, nondegenerate)")
        except symplectic.NotClosedError as exc:
            ok = False
            lines.append(f"omega: not closed; d(omega) = {render_form(exc.residual)}")
        except symplectic.DegenerateError:
            ok = False
            lines.append("omega: degenerate (top power vanishes)")
    if bad is None and doc.j is not None:
        try:
            acs = acx.AlmostComplexStructure(doc.algebra, doc.j)
            lines.append("J: ok (J^2 = -identity)")
        except ValueError as exc:
            ok = False
            lines.append(f"J: {exc}")
    if acs is not None and omega is not None:
        lines.append(f"compatibility: {acx.compatibility(omega, acs)}")
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_catalog(args) -> int:
    for name in catalog.names():
        entry = catalog.get(name)
        print(
            f"{name}\tdim={entry.algebra.dim}\tnilpotent={_yesno(entry.nilpotent)}"
            f"\t{entry.notes}"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by later calls.

    Parsing keeps its state in the namespace it returns, never in the
    parser, so one parser serves any number of ``main`` calls.
    """
    top = argparse.ArgumentParser(
        prog="sympcoh",
        description="Exact invariant cohomology of Lie algebra quotients.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="cohomology table and HLC verdicts")
    rep.add_argument("input", help="catalog name or input file")
    rep.add_argument("--format", choices=("table", "tsv"), default="table")
    rep.set_defaults(func=cmd_report)

    jd = sub.add_parser("jdecomp", help="pure-type group dimensions")
    jd.add_argument("input", help="catalog name or input file")
    jd.add_argument("--p", type=int, required=True)
    jd.add_argument("--q", type=int, required=True)
    jd.add_argument("--format", choices=("table", "tsv"), default="table")
    jd.add_argument("--with-representatives", action="store_true")
    jd.set_defaults(func=cmd_jdecomp)

    pb = sub.add_parser("pullback", help="induced-map injectivity report")
    pb.add_argument("source", help="covering-side input (morphism source)")
    pb.add_argument("target", help="base-side input (morphism target)")
    pb.add_argument("--map", required=True, help="morphism matrix file")
    pb.add_argument("--theory", choices=morphism.THEORIES, required=True)
    pb.add_argument("--degree", type=int, default=None)
    pb.add_argument("--p", type=int, default=None)
    pb.add_argument("--q", type=int, default=None)
    pb.add_argument("--format", choices=("table", "tsv"), default="table")
    pb.set_defaults(func=cmd_pullback)

    va = sub.add_parser("validate", help="diagnose an input document")
    va.add_argument("input", help="catalog name or input file")
    va.set_defaults(func=cmd_validate)

    cat = sub.add_parser("catalog", help="catalog operations")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_list = cat_sub.add_parser("list", help="list built-in algebras")
    cat_list.set_defaults(func=cmd_catalog)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except morphism.HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except symplectic.ConsistencyError as exc:
        print(f"error: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InputError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
