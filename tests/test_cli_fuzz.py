"""Seeded mutation fuzz of the command line.

Valid input documents and morphism files are mutated by deletions,
insertions and substitutions drawn from the input grammars' alphabet, then
run through ``cli.main``.  Whatever the input, a command must return an exit
code from 0 to 4 without raising, and print on stderr nothing or exactly one
``error:`` line.
"""

import random

from sympcoh import cli

J4 = "[0,-1,0,0][1,0,0,0][0,0,0,-1][0,0,1,0]"
J6 = "[0,-1,0,0,0,0][1,0,0,0,0,0][0,0,0,-1,0,0][0,0,1,0,0,0][0,0,0,0,0,-1][0,0,0,0,1,0]"
DOCUMENTS = (
    f"dim = 4\nd = (0,0,0,23)\nomega = 12+34\nJ = {J4}\n",
    f"d = (0,0,-23,24)  # g1_g34m\nomega = 12+34\nJ = {J4}\n",
    f"d = (0,0,12,13)\nomega = 14+2*23\nJ = {J4}\n",
    f"d = (0,0,[2.4],-1/2*[2.3])\nomega = [1.2]+[3.4]\nJ = {J4}\n",
    f"d = (0,0,0,0,12,13)\nomega = 16+25+34\nJ = {J6}\n",
    "name = g41\nomega = 14+23\n",
)
DOCUMENT_ALPHABET = "0123456789()[],.+-*/=# \ndJ"
MORPHISM = "rows = 4\ncols = 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
MORPHISM_ALPHABET = "0123456789-/=# \nrowscl"
COMMANDS = (("report",), ("jdecomp", "--p", "1", "--q", "1"), ("validate",))
PULLBACKS = (("--theory", "deRham", "--degree", "2"), ("--theory", "BottChern", "--degree", "1"))


def mutate(text, alphabet, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 2)):
        edit = rng.choice(("delete", "insert", "substitute"))
        i = rng.randrange(len(chars) + (edit == "insert"))
        if edit == "delete" and chars:
            del chars[i]
        elif edit == "insert":
            chars.insert(i, rng.choice(alphabet))
        elif chars:
            chars[i] = rng.choice(alphabet)
    return "".join(chars)


def check_call(capsys, argv, text):
    try:
        code = cli.main(list(argv))
    except Exception as exc:
        raise AssertionError(f"{argv[0]} raised {exc!r} on {text!r}") from exc
    err = capsys.readouterr().err
    assert code in range(5), (argv[0], code, text)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv[0], err, text)


def test_mutated_documents_end_in_a_defined_exit(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "doc.cfg"
    for _ in range(800):
        text = mutate(rng.choice(DOCUMENTS), DOCUMENT_ALPHABET, rng)
        path.write_text(text)
        for command in COMMANDS:
            check_call(capsys, (command[0], str(path), *command[1:]), text)


def test_mutated_morphism_files_end_in_a_defined_exit(tmp_path, capsys):
    rng = random.Random(20261019)
    path = tmp_path / "map.txt"
    for _ in range(400):
        text = mutate(MORPHISM, MORPHISM_ALPHABET, rng)
        path.write_text(text)
        argv = ("pullback", "kodaira", "kodaira", "--map", str(path), *rng.choice(PULLBACKS))
        check_call(capsys, argv, text)
