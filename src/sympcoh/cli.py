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
from .parser import ParseError, parse_count, parse_form, parse_rational, parse_salamon

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
    nilpotent: bool


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


def _read_keyvalue_file(path: str) -> dict:
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs


def _document_from_catalog(entry: catalog.CatalogEntry) -> InputDocument:
    return InputDocument(
        label=entry.name,
        algebra=entry.algebra,
        omega=entry.default_omega,
        j=entry.default_j,
        nilpotent=entry.nilpotent,
    )


def load_input(spec: str) -> InputDocument:
    """Resolve a CLI input argument: a file path or a catalog name."""
    if os.path.exists(spec):
        pairs = _read_keyvalue_file(spec)
        unknown = set(pairs) - {"dim", "d", "omega", "J", "name"}
        if unknown:
            raise ParseError(f"unknown keys in {spec}: {', '.join(sorted(unknown))}")
        if "name" in pairs:
            if "d" in pairs or "dim" in pairs:
                raise ParseError("a file naming a catalog entry cannot also set dim/d")
            doc = _document_from_catalog(catalog.get(pairs["name"]))
            label = doc.label
            algebra = doc.algebra
            omega, j = doc.omega, doc.j
        else:
            if "d" not in pairs:
                raise ParseError(f"{spec}: missing structure equations (key 'd')")
            algebra = parse_salamon(pairs["d"])
            if "dim" in pairs and parse_count(pairs["dim"], "dim") != algebra.dim:
                raise ParseError(
                    f"{spec}: dim = {pairs['dim']} does not match {algebra.dim} entries"
                )
            label = os.path.basename(spec)
            omega = j = None
        if "omega" in pairs:
            omega = parse_form(pairs["omega"], algebra.dim)
        if "J" in pairs:
            j = _parse_j_matrix(pairs["J"], algebra.dim)
        nilpotent = cec.is_nilpotent(algebra) if cec.validate(algebra) is None else False
        return InputDocument(label, algebra, omega, j, nilpotent)
    try:
        entry = catalog.get(spec)
    except KeyError:
        raise ParseError(
            f"input {spec!r} is neither a file nor a catalog name"
        ) from None
    return _document_from_catalog(entry)


def _check_dim_guard(doc: InputDocument) -> None:
    limit = _max_dim()
    if doc.algebra.dim > limit:
        raise InputError(
            f"dimension {doc.algebra.dim} exceeds SYMPCOH_MAX_DIM = {limit}"
        )


def _validated_algebra(doc: InputDocument) -> None:
    bad = cec.validate(doc.algebra)
    if bad is not None:
        raise InputError(
            f"structure equations violate the Jacobi identity at generator {bad}"
        )


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


def cmd_report(args) -> int:
    doc = load_input(args.input)
    _check_dim_guard(doc)
    _validated_algebra(doc)
    s = _symplectic_structure(doc)
    rep = symplectic.report(s)
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
    if not doc.nilpotent:
        footer.append(("non-nilpotent", "values are invariant-level only"))
    if args.format == "tsv":
        print("\t".join(header))
        for row in body:
            print("\t".join(str(x) for x in row))
        for key, value in footer:
            print(f"{key}\t{value}")
    else:
        print(f"invariant cohomology: {doc.label} (dim {rep.dim})")
        for line in _render_table(header, body):
            print(line)
        for key, value in footer:
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_jdecomp(args) -> int:
    doc = load_input(args.input)
    _check_dim_guard(doc)
    _validated_algebra(doc)
    a = _acs(doc)
    try:
        group = acx.h_j(a, args.p, args.q, with_representatives=args.with_representatives)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    verdict = acx.pure_full_check(a)
    rows = [
        (f"h_J({args.p},{args.q})+({args.q},{args.p})", str(group.dim)),
        ("pure", _yesno(verdict.pure)),
        ("full", _yesno(verdict.full)),
    ]
    if args.format == "tsv":
        for key, value in rows:
            print(f"{key}\t{value}")
    else:
        for key, value in rows:
            print(f"{key}: {value}")
    if group.representative_basis is not None:
        from .parser import render_form

        for rep_form in group.representative_basis:
            print(f"rep: {render_form(rep_form)}")
    return EXIT_OK


def _load_morphism(path: str, source: cec.LieAlgebra, target: cec.LieAlgebra) -> morphism.LieMorphism:
    rows_expected = cols_expected = None
    matrix_rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                key = key.strip()
                if key == "rows":
                    rows_expected = parse_count(value, "rows")
                elif key == "cols":
                    cols_expected = parse_count(value, "cols")
                else:
                    raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
                continue
            matrix_rows.append([parse_rational(t) for t in line.split()])
    if rows_expected is None or cols_expected is None:
        raise ParseError(f"{path}: morphism files must declare rows and cols")
    if len(matrix_rows) != rows_expected or any(
        len(r) != cols_expected for r in matrix_rows
    ):
        raise ParseError(f"{path}: matrix body does not match rows/cols")
    mat = RationalMatrix(matrix_rows)
    try:
        return morphism.LieMorphism(source, target, mat)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_pullback(args) -> int:
    src_doc = load_input(args.source)
    tgt_doc = load_input(args.target)
    for doc in (src_doc, tgt_doc):
        _check_dim_guard(doc)
        _validated_algebra(doc)
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
    doc = load_input(args.input)
    _check_dim_guard(doc)
    lines = []
    ok = True
    bad = cec.validate(doc.algebra)
    if bad is None:
        kind = "nilpotent" if doc.nilpotent else "solvable or general"
        lines.append(f"algebra: ok (dim {doc.algebra.dim}, {kind})")
    else:
        ok = False
        lines.append(f"algebra: Jacobi identity fails at generator {bad}")
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
            from .parser import render_form

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
