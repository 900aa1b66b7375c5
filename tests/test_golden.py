"""Byte-for-byte CLI output over the whole catalog, pinned in golden/catalog.txt.

The transcript records, for every catalog entry, ``report`` in both formats,
``validate``, ``jdecomp --format tsv`` at every bidegree with p + q <= dim
(plus ``--with-representatives`` on the dimension-4 entries), and the
pullback of every theory at every degree along the identity of kodaira.
Each command is followed by its stderr (prefixed ``! ``) and exit code.
"""

import contextlib
import difflib
import io
from pathlib import Path

from sympcoh import catalog, cli, morphism

GOLDEN = Path(__file__).parent / "golden" / "catalog.txt"


def _run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = ["$ " + " ".join(argv)]
    lines += out.getvalue().splitlines()
    lines += ["! " + line for line in err.getvalue().splitlines()]
    return lines + [f"exit {code}"]


def _commands(map_path: str):
    for name in catalog.names():
        n = catalog.get(name).algebra.dim
        yield ["report", name]
        yield ["report", name, "--format", "tsv"]
        yield ["validate", name]
        for k in range(n + 1):
            for p in range(k + 1):
                bidegree = ["--p", str(p), "--q", str(k - p)]
                yield ["jdecomp", name, *bidegree, "--format", "tsv"]
                if n == 4:
                    yield ["jdecomp", name, *bidegree, "--with-representatives"]
    pullback = ["pullback", "kodaira", "kodaira", "--map", map_path, "--format", "tsv"]
    for theory in morphism.THEORIES:
        for k in range(5):
            if theory == "J":
                for p in range(k + 1):
                    yield [*pullback, "--theory", "J", "--p", str(p), "--q", str(k - p)]
            else:
                yield [*pullback, "--theory", theory, "--degree", str(k)]


def transcript(map_path: str) -> str:
    lines = []
    for argv in _commands(map_path):
        lines += [line.replace(map_path, "IDENTITY") for line in _run(argv)]
    return "\n".join(lines) + "\n"


def test_catalog_output_matches_golden(tmp_path):
    map_path = tmp_path / "identity.txt"
    map_path.write_text("rows = 4\ncols = 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    actual = transcript(str(map_path))
    expected = GOLDEN.read_text(encoding="utf-8")
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "actual", lineterm=""
        )
        raise AssertionError("CLI output differs from the golden transcript:\n" + "\n".join(diff))
