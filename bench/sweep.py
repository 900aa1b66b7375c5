"""Seeded generator of the sweep6 inputs and the invariants their outputs obey.

The generator is independent of sympcoh: it carries its own exterior
differential and its own exact null-space routine, so a change to the
package cannot change the inputs it is benchmarked on.  Every input is a
``key = value`` text document, the format ``sympcoh report`` reads.

Algebras are iterated central extensions: de^1 = de^2 = 0 and de^k is a
random closed 2-form in e^1..e^(k-1), which makes d o d = 0 (the Jacobi
identity) and nilpotency hold by construction.  The symplectic form is a
dense random rational combination of all closed 2-forms, kept only when it
is nondegenerate; J is the standard block structure.

Repeated passes of one run never see the same input twice.  Pass p > 0
rewrites each base input in a coframe related to the original one by a
block-monomial matrix that commutes with J (a permutation of the J-pairs
and, on each pair, one of +-I, +-J).  The algebra, omega and J are the same
objects in a new basis, so every printed dimension and verdict must be the
same, while any cache keyed on the structure constants misses.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

DIMS = (6, 6, 6, 4)  # three dim-6 algebras per dim-4 one; see README.md
ALGEBRAS = 56  # 112 requests a pass, so 11 lie beyond p90


def _sorted_sign(indices):
    """(sign, sorted tuple) of a wedge of distinct indices, or (0, None)."""
    if len(set(indices)) != len(indices):
        return 0, None
    sign = 1
    idx = list(indices)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign, tuple(sorted(idx))


def _d_two_form(diffs, pair):
    """d(e^i ^ e^j) = de^i ^ e^j - e^i ^ de^j as a dict over sorted triples."""
    i, j = pair
    out = {}
    for (a, b), c in diffs[i].items():
        s, key = _sorted_sign((a, b, j))
        if s:
            out[key] = out.get(key, 0) + s * c
    for (a, b), c in diffs[j].items():
        s, key = _sorted_sign((i, a, b))
        if s:
            out[key] = out.get(key, 0) - s * c
    return out


def _null_space(columns, row_keys):
    """Integer basis of the null space of the matrix with the given columns."""
    rows = [[Fraction(col.get(r, 0)) for col in columns] for r in row_keys]
    ncols = len(columns)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][free]
        scale = lcm(*(x.denominator for x in vec))
        basis.append([int(x * scale) for x in vec])
    return basis


def _closed_two_forms(diffs, m):
    """Basis of the closed 2-forms in e^1..e^m, as dicts over pairs."""
    pairs = list(combinations(range(1, m + 1), 2))
    columns = [_d_two_form(diffs, p) for p in pairs]
    triples = sorted({t for col in columns for t in col})
    return [
        {p: v for p, v in zip(pairs, vec) if v}
        for vec in _null_space(columns, triples)
    ]


def _nondegenerate(omega, n):
    columns = [{} for _ in range(n)]
    for (i, j), c in omega.items():
        columns[j - 1][i - 1] = c
        columns[i - 1][j - 1] = -c
    return not _null_space(columns, range(n))


def _combine(rng, basis, coefficient):
    out = {}
    for vec in basis:
        c = coefficient()
        for p, v in vec.items():
            out[p] = out.get(p, 0) + c * v
    return {p: v for p, v in out.items() if v}


def _random_structure(rng, n):
    """(diffs, omega) for one random nilpotent algebra, or None."""
    diffs = {k: {} for k in range(1, n + 1)}
    for k in range(3, n + 1):
        if rng.random() < 0.25:
            continue
        basis = _closed_two_forms(diffs, k - 1)
        chosen = rng.sample(basis, rng.randint(1, min(3, len(basis))))
        diffs[k] = _combine(rng, chosen, lambda: rng.choice((-3, -2, -1, 1, 2, 3)))
    if not any(diffs.values()):
        return None
    closed = _closed_two_forms(diffs, n)
    for _ in range(30):
        omega = _combine(
            rng, closed, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        )
        if _nondegenerate(omega, n):
            return diffs, omega
    return None


def _render_form(form):
    if not form:
        return "0"
    parts = []
    for pair in sorted(form):
        c = Fraction(form[pair])
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(f"{sign}{mag}{pair[0]}{pair[1]}")
    return "".join(parts)


def _standard_j(n):
    rows = [[0] * n for _ in range(n)]
    for j in range(0, n, 2):
        rows[j + 1][j] = 1
        rows[j][j + 1] = -1
    return "".join("[" + ",".join(str(x) for x in row) + "]" for row in rows)


def render(diffs, omega, n):
    """The input document for one structure."""
    d = ",".join(_render_form(diffs[k]) for k in range(1, n + 1))
    return f"dim = {n}\nd = ({d})\nomega = {_render_form(omega)}\nJ = {_standard_j(n)}\n"


def _pair_transform(rng, n):
    """Signed permutation f^i = sign[i] e^perm[i] commuting with the block J."""
    half = n // 2
    order = rng.sample(range(half), half)
    perm, sign = {}, {}
    for new_pair, old_pair in enumerate(order):
        a, b = 2 * new_pair + 1, 2 * new_pair + 2
        x, y = 2 * old_pair + 1, 2 * old_pair + 2
        block = rng.randrange(4)  # I, -I, R, -R with R = [[0,-1],[1,0]]
        s = 1 if block in (0, 2) else -1
        if block < 2:
            perm[a], sign[a], perm[b], sign[b] = x, s, y, s
        else:
            perm[a], sign[a], perm[b], sign[b] = y, -s, x, s
    return perm, sign


def _apply(perm, sign, diffs, omega, n):
    """Rewrite the structure in the coframe f^i = sign[i] e^perm[i]."""
    inverse = {old: new for new, old in perm.items()}  # e^j = sign * f^inverse[j]

    def pull(form, outer=1):
        out = {}
        for (i, j), c in form.items():
            s, key = _sorted_sign((inverse[i], inverse[j]))
            coeff = outer * sign[inverse[i]] * sign[inverse[j]] * s * c
            out[key] = out.get(key, 0) + coeff
        return out

    new_diffs = {i: pull(diffs[perm[i]], sign[i]) for i in range(1, n + 1)}
    return new_diffs, pull(omega)


class Sweep:
    """The sweep6 inputs of one seed: base structures and per-pass rewrites."""

    def __init__(self, seed):
        rng = random.Random(f"sweep6/{seed}")
        self.seed = seed
        self.structures = []
        seen = set()
        while len(self.structures) < ALGEBRAS:
            n = DIMS[len(self.structures) % len(DIMS)]
            drawn = _random_structure(rng, n)
            if drawn is None or render(*drawn, n) in seen:
                continue
            seen.add(render(*drawn, n))
            self.structures.append((drawn[0], drawn[1], n))
        self._seen = seen
        self.digest = hashlib.sha256(
            "".join(render(*s) for s in self.structures).encode()
        ).hexdigest()

    def pass_inputs(self, index):
        """Input documents of pass ``index``; no document repeats in a run."""
        if index == 0:
            return [render(*s) for s in self.structures]
        rng = random.Random(f"sweep6/{self.seed}/pass{index}")
        docs = []
        for diffs, omega, n in self.structures:
            for _ in range(200):
                text = render(*_apply(*_pair_transform(rng, n), diffs, omega, n), n)
                if text not in self._seen:
                    break
            else:
                raise RuntimeError("no unused rewrite left for a sweep6 input")
            self._seen.add(text)
            docs.append(text)
        return docs


def check_report(tsv, n):
    """Invariant violations in one ``report --format tsv`` output."""
    lines = tsv.splitlines()
    try:
        if len(lines) != n + 5 or lines[0].split("\t")[0] != "k":
            raise ValueError
        table = [[int(x) for x in line.split("\t")] for line in lines[1 : n + 2]]
        footer = dict(line.split("\t", 1) for line in lines[n + 2 :])
    except ValueError:
        return ["report output has the wrong shape"]
    b = [row[1] for row in table]
    h_dl = [row[2] for row in table]
    h_bc = [row[3] for row in table]
    h_a = [row[4] for row in table]
    dt = [row[5] for row in table]
    bad = []
    if any(b[k] != b[n - k] for k in range(n + 1)):
        bad.append("Betti numbers violate Poincare duality")
    if sum((-1) ** k * bk for k, bk in enumerate(b)) != 0:
        bad.append("Euler characteristic is not 0")
    if any(h_dl[k] != b[n - k] for k in range(n + 1)):
        bad.append("h_dLambda^k != b_(n-k)")
    if h_bc != h_a or any(h_bc[k] != h_bc[n - k] for k in range(n + 1)):
        bad.append("Bott-Chern and Aeppli tables disagree or are not symmetric")
    if any(dt[k] != h_bc[k] - b[k] or dt[k] < 0 for k in range(n + 1)):
        bad.append("deltaTilde is not h_BC - b >= 0")
    flat = all(x == 0 for x in dt)
    if footer.get("HLC") != ("yes" if flat else "no"):
        bad.append("HLC verdict disagrees with deltaTilde == 0")
    if footer.get("ddLambda-lemma") != footer.get("HLC"):
        bad.append("ddLambda-lemma and HLC verdicts differ")
    if "non-nilpotent" in footer:
        bad.append("a nilpotent algebra was reported as non-nilpotent")
    return bad


def check_jdecomp(tsv, b2):
    """Invariant violations in one ``jdecomp --p 1 --q 1 --format tsv`` output."""
    rows = dict(line.split("\t", 1) for line in tsv.splitlines() if "\t" in line)
    value = rows.get("h_J(1,1)+(1,1)")
    if value is None or not value.isdigit():
        return ["jdecomp output has the wrong shape"]
    if int(value) > b2:
        return ["h_J(1,1) exceeds b_2"]
    if rows.get("pure") not in ("yes", "no") or rows.get("full") not in ("yes", "no"):
        return ["jdecomp verdicts are missing"]
    return []


def main(argv=None):
    import argparse
    import os

    ap = argparse.ArgumentParser(
        description="Print the digest of the sweep6 inputs of a seed; "
        "with --out, also write each input of the first pass there as a text file."
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="directory to write alg<i>.txt into")
    args = ap.parse_args(argv)
    sweep = Sweep(args.seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, doc in enumerate(sweep.pass_inputs(0)):
            with open(os.path.join(args.out, f"alg{i}.txt"), "w", encoding="utf-8") as fh:
                fh.write(doc)
    print(sweep.digest)


if __name__ == "__main__":
    main()
