import contextlib
import io

import pytest

from sympcoh import catalog, cec, cli, symplectic

KODAIRA_TSV = """k\tb\th_dLambda\th_BC\th_A\tdeltaTilde
0\t1\t1\t1\t1\t0
1\t3\t3\t3\t3\t0
2\t4\t4\t5\t5\t1
3\t3\t3\t3\t3\t0
4\t1\t1\t1\t1\t0
HLC\tno
ddLambda-lemma\tno
scope\tinvariant forms
"""

G1_G34M_TSV = """k\tb\th_dLambda\th_BC\th_A\tdeltaTilde
0\t1\t1\t1\t1\t0
1\t2\t2\t2\t2\t0
2\t2\t2\t2\t2\t0
3\t2\t2\t2\t2\t0
4\t1\t1\t1\t1\t0
HLC\tyes
ddLambda-lemma\tyes
scope\tinvariant forms
non-nilpotent\tvalues are invariant-level only
"""

G41_TSV = """k\tb\th_dLambda\th_BC\th_A\tdeltaTilde
0\t1\t1\t1\t1\t0
1\t2\t2\t2\t2\t0
2\t2\t2\t4\t4\t2
3\t2\t2\t2\t2\t0
4\t1\t1\t1\t1\t0
HLC\tno
ddLambda-lemma\tno
scope\tinvariant forms
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- report -------------------------------------------------------------------


def test_report_kodaira_table(capsys):
    code, out, _ = run(capsys, "report", "kodaira")
    assert code == 0
    assert "HLC: no" in out
    assert "ddLambda-lemma: no" in out
    assert "scope: invariant forms" in out
    assert "non-nilpotent" not in out


def test_report_tsv_golden_tables(capsys):
    for name, expected in [
        ("kodaira", KODAIRA_TSV),
        ("g1_g34m", G1_G34M_TSV),
        ("g41", G41_TSV),
    ]:
        code, out, _ = run(capsys, "report", name, "--format", "tsv")
        assert code == 0
        assert out == expected


def test_report_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "report", "torus4", "--format", "tsv")
    _, second, _ = run(capsys, "report", "torus4", "--format", "tsv")
    assert first == second


def test_report_torus_is_fully_lefschetz(capsys):
    code, out, _ = run(capsys, "report", "torus4", "--format", "tsv")
    assert code == 0
    data_rows = [line.split("\t") for line in out.splitlines()[1:6]]
    assert all(row[5] == "0" for row in data_rows)
    assert "HLC\tyes" in out


def test_report_non_nilpotent_warning(capsys):
    code, out, _ = run(capsys, "report", "hyperelliptic")
    assert code == 0
    assert "non-nilpotent: values are invariant-level only" in out
    assert "HLC: yes" in out


def test_report_etabeta5_fails_cleanly(capsys):
    code, _, err = run(capsys, "report", "etabeta5")
    assert code == 1
    assert "no symplectic form" in err


def test_report_unknown_input_is_syntax_error(capsys):
    code, _, err = run(capsys, "report", "not-a-thing")
    assert code == 2
    assert "neither a file nor a catalog name" in err


def test_unknown_catalog_name_in_file_is_one_unquoted_line(tmp_path, capsys):
    doc = tmp_path / "nosuch.cfg"
    doc.write_text("name = nosuch\n")
    code, out, err = run(capsys, "report", str(doc))
    assert code == 1 and out == ""
    available = ", ".join(catalog.names())
    assert err == f"error: unknown catalog entry 'nosuch'; available: {available}\n"


def test_report_from_input_file(tmp_path, capsys):
    doc = tmp_path / "kt.cfg"
    doc.write_text(
        "# primary Kodaira surface\n"
        "dim = 4\n"
        "d = (0,0,0,23)\n"
        "omega = 12+34\n"
    )
    code, out, _ = run(capsys, "report", str(doc), "--format", "tsv")
    assert code == 0
    assert out == KODAIRA_TSV


def test_report_file_with_catalog_reference_and_override(tmp_path, capsys):
    doc = tmp_path / "scaled.cfg"
    doc.write_text("name = kodaira\nomega = 2*12+3*34\n")
    code, out, _ = run(capsys, "report", str(doc), "--format", "tsv")
    assert code == 0
    assert out == KODAIRA_TSV  # generic instance, same dimensions


def test_report_invalid_omega_from_file(tmp_path, capsys):
    doc = tmp_path / "bad.cfg"
    doc.write_text("dim = 4\nd = (0,0,0,23)\nomega = 14\n")
    code, _, err = run(capsys, "report", str(doc))
    assert code == 1
    assert "not closed" in err


def test_report_jacobi_failure_from_file(tmp_path, capsys):
    doc = tmp_path / "nonlie.cfg"
    doc.write_text("d = (0,0,12,34)\nomega = 12+34\n")
    code, _, err = run(capsys, "report", str(doc))
    assert code == 1
    assert "Jacobi" in err


def test_report_parse_error_exit_code(tmp_path, capsys):
    doc = tmp_path / "broken.cfg"
    doc.write_text("d = (0,0,0,11)\n")
    code, _, err = run(capsys, "report", str(doc))
    assert code == 2


def test_report_non_ascii_digit_exit_code(tmp_path, capsys):
    doc = tmp_path / "superscript.cfg"
    doc.write_text("name = kodaira\nomega = ²*14+23\n", encoding="utf-8")
    code, _, err = run(capsys, "report", str(doc))
    assert code == 2
    assert "malformed rational" in err


def test_report_non_integer_dim_exit_code(tmp_path, capsys):
    doc = tmp_path / "dim.cfg"
    doc.write_text("dim = 4.0\nd = (0,0,0,23)\nomega = 12+34\n")
    code, _, err = run(capsys, "report", str(doc))
    assert code == 2
    assert err.strip() == "error: dim must be an integer"


def test_report_consistency_error_exit_code(capsys, monkeypatch):
    def broken(s):
        raise symplectic.ConsistencyError("d d = 0 fails in degree 2")

    monkeypatch.setattr(symplectic, "report", broken)
    code, out, err = run(capsys, "report", "kodaira")
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "error: internal invariant violated: d d = 0 fails in degree 2"
    ]


def test_max_dim_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMPCOH_MAX_DIM", "4")
    code, _, err = run(capsys, "report", "torus8")
    assert code == 1
    assert "SYMPCOH_MAX_DIM" in err
    monkeypatch.setenv("SYMPCOH_MAX_DIM", "16")
    code, _, _ = run(capsys, "report", "torus4")
    assert code == 0


@pytest.mark.parametrize("d, omega", [("(0,12)", "12"), ("(0,12,0,0)", "12+34")])
def test_report_non_unimodular_is_one_line_exit_1(tmp_path, capsys, d, omega):
    doc = tmp_path / "nonunimodular.txt"
    doc.write_text(f"d = {d}\nomega = {omega}\n")
    code, out, err = run(capsys, "report", str(doc))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the algebra is not unimodular (b_n = 0)")


# --- jdecomp -------------------------------------------------------------------


def test_jdecomp_etabeta5(capsys):
    code, out, _ = run(capsys, "jdecomp", "etabeta5", "--p", "1", "--q", "1")
    assert code == 0
    assert "h_J(1,1)+(1,1): 16" in out
    assert "pure: yes" in out and "full: yes" in out


def test_jdecomp_j_entries_use_the_form_grammar(tmp_path, capsys):
    doc = tmp_path / "j.cfg"
    for bad in ("1.5", "1e-9"):
        doc.write_text(f"name = kodaira\nJ = [0,-1,0,0][{bad},0,0,0][0,0,0,-1][0,0,1,0]\n")
        code, _, err = run(capsys, "jdecomp", str(doc), "--p", "1", "--q", "1")
        assert code == 2, bad
        assert f"malformed rational {bad!r}" in err
    doc.write_text("name = kodaira\nJ = [0,-2/2,0,0][1,0,0,0][0,0,0,-1][0,0,1,0]\n")
    code, _, _ = run(capsys, "jdecomp", str(doc), "--p", "1", "--q", "1")
    assert code == 0


def test_jdecomp_torus8_anti_invariant(capsys):
    code, out, _ = run(capsys, "jdecomp", "torus8", "--p", "2", "--q", "0")
    assert code == 0
    assert "h_J(2,0)+(0,2): 12" in out


def test_jdecomp_torus4(capsys):
    code, out, _ = run(capsys, "jdecomp", "torus4", "--p", "1", "--q", "1")
    assert code == 0
    assert "h_J(1,1)+(1,1): 4" in out


def test_jdecomp_with_representatives(capsys):
    code, out, _ = run(
        capsys, "jdecomp", "kodaira", "--p", "2", "--q", "0", "--with-representatives"
    )
    assert code == 0
    assert out.count("rep: ") == 1


def test_jdecomp_representative_of_constants(capsys):
    code, out, _ = run(
        capsys, "jdecomp", "kodaira", "--p", "0", "--q", "0", "--with-representatives"
    )
    assert code == 0
    assert out.splitlines()[-1] == "rep: 1"


def test_jdecomp_overflow_bidegree(capsys):
    code, _, err = run(capsys, "jdecomp", "torus4", "--p", "3", "--q", "2")
    assert code == 1


# --- pullback -------------------------------------------------------------------


def write_projection(tmp_path):
    lines = ["rows = 8", "cols = 10"]
    for i in range(8):
        lines.append(" ".join("1" if j == i else "0" for j in range(10)))
    path = tmp_path / "projection.map"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_identity(tmp_path, n):
    lines = [f"rows = {n}", f"cols = {n}"]
    for i in range(n):
        lines.append(" ".join("1" if j == i else "0" for j in range(n)))
    path = tmp_path / f"id{n}.map"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_pullback_anti_invariant_projection(tmp_path, capsys):
    mapfile = write_projection(tmp_path)
    code, out, _ = run(
        capsys,
        "pullback", "etabeta5", "torus8",
        "--map", mapfile, "--theory", "J", "--p", "2", "--q", "0",
    )
    assert code == 0
    assert out.strip() == "rank 10/12 NOT injective"


def test_pullback_de_rham_degree_one(tmp_path, capsys):
    mapfile = write_projection(tmp_path)
    code, out, _ = run(
        capsys,
        "pullback", "etabeta5", "torus8",
        "--map", mapfile, "--theory", "deRham", "--degree", "1",
    )
    assert code == 0
    assert out.strip() == "rank 8/8 injective"


def test_pullback_identity_bott_chern(tmp_path, capsys):
    mapfile = write_identity(tmp_path, 4)
    code, out, _ = run(
        capsys,
        "pullback", "kodaira", "kodaira",
        "--map", mapfile, "--theory", "BottChern", "--degree", "2",
    )
    assert code == 0
    assert out.strip() == "rank 5/5 injective"


def test_pullback_hypothesis_violation_exit_code(tmp_path, capsys):
    mapfile = write_identity(tmp_path, 4)
    doc = tmp_path / "scaled.cfg"
    doc.write_text("name = torus4\nomega = 2*12+34\n")
    code, _, err = run(
        capsys,
        "pullback", str(doc), "torus4",
        "--map", mapfile, "--theory", "BottChern", "--degree", "2",
    )
    assert code == 3
    assert "pullback" in err


def test_pullback_map_entries_and_counts_use_the_form_grammar(tmp_path, capsys):
    path = tmp_path / "bad.map"
    for text, message in (
        ("rows = 2\ncols = 2\n1.0 0\n0 1\n", "malformed rational '1.0'"),
        ("rows = 2.0\ncols = 2\n1 0\n0 1\n", "rows must be an integer"),
    ):
        path.write_text(text)
        code, _, err = run(
            capsys,
            "pullback", "torus4", "torus4",
            "--map", str(path), "--theory", "deRham", "--degree", "1",
        )
        assert code == 2, text
        assert message in err


def test_pullback_map_refuses_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "repeated.map"
    identity = "".join(" ".join("1" if j == i else "0" for j in range(4)) + "\n" for i in range(4))
    path.write_text("rows = 5\ncols = 4\nrows = 4\n" + identity)
    code, out, err = run(
        capsys,
        "pullback", "kodaira", "kodaira",
        "--map", str(path), "--theory", "deRham", "--degree", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: duplicate key 'rows'\n"


def test_pullback_tsv(tmp_path, capsys):
    mapfile = write_projection(tmp_path)
    code, out, _ = run(
        capsys,
        "pullback", "etabeta5", "torus8",
        "--map", mapfile, "--theory", "J", "--p", "2", "--q", "0",
        "--format", "tsv",
    )
    assert code == 0
    assert out.strip() == "J\t2\t10\t12\t10\tno"


def test_pullback_missing_degree(tmp_path, capsys):
    mapfile = write_projection(tmp_path)
    code, _, err = run(
        capsys,
        "pullback", "etabeta5", "torus8", "--map", mapfile, "--theory", "deRham",
    )
    assert code == 1
    assert "--degree" in err


def test_pullback_degree_out_of_range_on_every_theory(tmp_path, capsys):
    mapfile = write_identity(tmp_path, 4)
    for degree in (-1, 5):
        for theory in ("deRham", "dLambda", "BottChern", "Aeppli", "J"):
            if theory == "J":
                where = ("--p", str(degree), "--q", "0")
            else:
                where = ("--degree", str(degree))
            code, out, err = run(
                capsys,
                "pullback", "kodaira", "kodaira", "--map", mapfile, "--theory", theory, *where,
            )
            assert (code, out) == (1, ""), (theory, degree)
            assert err.startswith("error: ") and err.count("\n") == 1, (theory, degree)
            assert f"degree {degree} out of range 0..4" in err, (theory, degree)
    code, _, err = run(capsys, "jdecomp", "kodaira", "--p", "9", "--q", "9")
    assert code == 1
    assert err == "error: degree 18 exceeds the ambient dimension 4\n"


# --- validate and catalog ---------------------------------------------------------


def test_validate_catalog_entry(capsys):
    code, out, _ = run(capsys, "validate", "kodaira")
    assert code == 0
    assert "algebra: ok (dim 4, nilpotent)" in out
    assert "omega: ok" in out
    assert "J: ok" in out
    assert "compatibility: compatible" in out


def test_validate_bad_omega(tmp_path, capsys):
    doc = tmp_path / "degenerate.cfg"
    doc.write_text("d = (0,0,0,0)\nomega = 12\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert "degenerate" in out


@pytest.mark.parametrize("omega, degree", [("123", 3), ("0", 0)])
def test_validate_reports_omega_of_wrong_degree(tmp_path, capsys, omega, degree):
    doc = tmp_path / "wrong_degree.cfg"
    doc.write_text(
        f"d = (0,0,0,23)\nomega = {omega}\nJ = [0,-1,0,0][1,0,0,0][0,0,0,-1][0,0,1,0]\n"
    )
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 1
    assert out.splitlines() == [
        "algebra: ok (dim 4, nilpotent)",
        f"omega: not a 2-form (degree {degree})",
        "J: ok (J^2 = -identity)",
    ]
    assert err == ""


def test_validate_reports_jacobi_failure(tmp_path, capsys):
    doc = tmp_path / "nonlie.cfg"
    doc.write_text("d = (0,0,12,34)\n")
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 1
    assert "generator 4" in out


def test_jacobi_failure_names_the_triple(tmp_path, capsys):
    doc = tmp_path / "nonlie.cfg"
    doc.write_text("d = (0,0,12,34)\nomega = 12+34\n")
    witness = "generator 4 (the Jacobiator of e_1, e_2, e_4 has a nonzero e_4 component)"
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 1
    assert out.splitlines() == [f"algebra: Jacobi identity fails at {witness}"]
    assert err == ""
    code, out, err = run(capsys, "report", str(doc))
    assert code == 1
    assert out == ""
    assert err == f"error: structure equations violate the Jacobi identity at {witness}\n"


def test_only_report_and_validate_decide_nilpotency(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "kodaira.cfg"
    doc.write_text("d = (0,0,0,23)\nomega = 12+34\nJ = [0,-1,0,0][1,0,0,0][0,0,0,-1][0,0,1,0]\n")
    mapfile = write_identity(tmp_path, 4)
    calls = []
    is_nilpotent = cec.is_nilpotent

    def counting(g):
        calls.append(g)
        return is_nilpotent(g)

    monkeypatch.setattr(cec, "is_nilpotent", counting)
    for argv, expected in (
        (("jdecomp", str(doc), "--p", "1", "--q", "1"), 0),
        (("pullback", str(doc), str(doc), "--map", mapfile, "--theory", "deRham",
          "--degree", "1"), 0),
        (("report", str(doc)), 1),
        (("validate", str(doc)), 1),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, len(calls)) == (0, expected), argv[0]


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("kodaira\tdim=4\tnilpotent=yes")


# --- one parser for many calls --------------------------------------------------

REPEATED_CALLS = (
    ("report", "kodaira", "--format", "tsv"),
    ("jdecomp", "kodaira", "--p", "1", "--q", "1", "--format", "tsv"),
    ("report",),  # argparse error: the input is missing
    ("catalog", "list"),
    ("jdecomp", "g41", "--p", "one", "--q", "1"),  # argparse error: not an int
    ("report", "no-such-algebra"),  # neither a catalog name nor a file
    ("validate", "g41"),
)


def call_main(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_calls_in_one_process_match_fresh_calls():
    fresh = {}
    for argv in REPEATED_CALLS:
        cli.build_parser.cache_clear()
        fresh[argv] = call_main(argv)
    assert [fresh[a][0] for a in REPEATED_CALLS] == [0, 0, 2, 0, 2, 2, 0]
    assert "usage: sympcoh report" in fresh[("report",)][2]
    cli.build_parser.cache_clear()
    for argv in REPEATED_CALLS + REPEATED_CALLS[::-1]:
        assert call_main(argv) == fresh[argv], argv
    assert cli.build_parser.cache_info().misses == 1
