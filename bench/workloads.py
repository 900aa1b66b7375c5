"""The three workloads: report8, eta10 and sweep6.

A workload turns the seed into inputs once (``__init__``), then builds the
requests of each pass from fresh objects (``requests``), so no object of one
pass is reused by the next.  A request is a callable returning the text of
its answer; ``check`` returns, for each failed request of a pass, the reason.
Every call goes through a module attribute at call time, so the wrappers the
traced run installs are seen.
"""

import contextlib
import hashlib
import io
import os

import sweep

REPORT8_INPUTS = (
    ("nil8", "(0,0,0,0,0,0,12,13)", "18+27+36+45"),
    ("torus8", None, None),
)
_BINOM8 = (1, 8, 28, 56, 70, 56, 28, 8, 1)
REPORT8_EXPECTED = {
    "nil8": dict(
        b=(1, 6, 18, 34, 42, 34, 18, 6, 1),
        h_dlambda=(1, 6, 18, 34, 42, 34, 18, 6, 1),
        h_bottchern=(1, 6, 20, 40, 50, 40, 20, 6, 1),
        h_aeppli=(1, 6, 20, 40, 50, 40, 20, 6, 1),
        delta_tilde=(0, 0, 2, 6, 8, 6, 2, 0, 0),
        lefschetz_ranks=(42, 28, 12, 4, 1),
        bc_to_dr=(1, 6, 18, 32, 36, 26, 12, 4, 1),
        dr_to_a=(1, 4, 12, 26, 36, 32, 18, 6, 1),
        hlc=False,
        ddlambda_lemma=False,
    ),
    "torus8": dict(
        b=_BINOM8,
        h_dlambda=_BINOM8,
        h_bottchern=_BINOM8,
        h_aeppli=_BINOM8,
        delta_tilde=(0,) * 9,
        lefschetz_ranks=(70, 56, 28, 8, 1),
        bc_to_dr=_BINOM8,
        dr_to_a=_BINOM8,
        hlc=True,
        ddlambda_lemma=True,
    ),
}

ETA10_EXPECTED = {
    "betti": (1, 8, 26, 50, 73, 84, 73, 50, 26, 8, 1),
    "h_j(1,1)": 16,
    "h_j(2,0)": 10,
    "h_j(2,1)": 40,
    "h_j(3,2)": 50,
    "pure_full": (True, True),
    # (source_dim, target_dim, rank, injective) of the pullback to etabeta5
    "deRham2": (28, 26, 26, False),
    "deRham3": (56, 50, 40, False),
    "deRham4": (70, 73, 25, False),
    "J(2,1)": (48, 40, 40, False),
}


def _canonical(value):
    return repr(value)


class Report8:
    """symplectic.report on an 8-dim 2-step algebra and on the 8-torus."""

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        torus = pkg.catalog.get("torus8")
        self.inputs = [
            (label, d or pkg.parser.render_salamon(torus.algebra),
             omega or pkg.parser.render_form(torus.default_omega))
            for label, d, omega in REPORT8_INPUTS
        ]
        self.digest = hashlib.sha256(repr(self.inputs).encode()).hexdigest()

    def requests(self, index):
        pkg = self.pkg
        out = []
        for label, d, omega in self.inputs:
            algebra = pkg.parser.parse_salamon(d)
            form = pkg.parser.parse_form(omega, algebra.dim)

            def run(algebra=algebra, form=form):
                rep = pkg.symplectic.report(pkg.symplectic.make(algebra, form))
                return _canonical(dict(
                    b=rep.b,
                    h_dlambda=rep.h_dlambda,
                    h_bottchern=rep.h_bottchern,
                    h_aeppli=rep.h_aeppli,
                    delta_tilde=rep.delta_tilde,
                    lefschetz_ranks=rep.lefschetz_ranks,
                    bc_to_dr=tuple(m.bc_to_dr.rank for m in rep.natural_maps),
                    dr_to_a=tuple(m.dr_to_a.rank for m in rep.natural_maps),
                    hlc=rep.hlc,
                    ddlambda_lemma=rep.ddlambda_lemma,
                ))

            out.append((label, run))
        return out

    def check(self, labels, outputs):
        return {
            i: f"{label}: unexpected report"
            for i, (label, text) in enumerate(zip(labels, outputs))
            if text != _canonical(REPORT8_EXPECTED[label])
        }


class Eta10:
    """One session on etabeta5: Betti, pure-type groups, pullbacks to torus8."""

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        self.eta = pkg.parser.render_salamon(pkg.catalog.get("etabeta5").algebra)
        self.torus = pkg.parser.render_salamon(pkg.catalog.get("torus8").algebra)
        self.digest = hashlib.sha256(f"{self.eta}|{self.torus}".encode()).hexdigest()

    def requests(self, index):
        pkg = self.pkg
        acx, morphism = pkg.acx, pkg.morphism
        eta = pkg.parser.parse_salamon(self.eta)
        torus = pkg.parser.parse_salamon(self.torus)
        a = acx.AlmostComplexStructure(eta, pkg.catalog.standard_block_j(10))
        at = acx.AlmostComplexStructure(torus, pkg.catalog.standard_block_j(8))
        projection = pkg.linalg.RationalMatrix(
            [[int(i == j) for j in range(10)] for i in range(8)]
        )
        f = morphism.LieMorphism(eta, torus, projection)

        def pullback(**kwargs):
            rep = morphism.induced_report(f, **kwargs)
            return (rep.source_dim, rep.target_dim, rep.rank, rep.injective)

        out = [("betti", lambda: tuple(pkg.cec.betti(eta)))]
        for p, q in ((1, 1), (2, 0), (2, 1), (3, 2)):
            out.append((f"h_j({p},{q})", lambda p=p, q=q: acx.h_j(a, p, q).dim))
        out.append(("pure_full", lambda: tuple(acx.pure_full_check(a))))
        for k in (2, 3, 4):
            out.append((f"deRham{k}", lambda k=k: pullback(theory="deRham", degree=k)))
        out.append(("J(2,1)", lambda: pullback(
            theory="J", p=2, q=1, source_structure=a, target_structure=at)))
        return [(label, lambda fn=fn: _canonical(fn())) for label, fn in out]

    def check(self, labels, outputs):
        return {
            i: f"{label}: unexpected answer {text}"
            for i, (label, text) in enumerate(zip(labels, outputs))
            if text != _canonical(ETA10_EXPECTED[label])
        }


class Sweep6:
    """Generated nilpotent algebras of dims 4 and 6 through in-process cli.main."""

    def __init__(self, pkg, seed, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.sweep = sweep.Sweep(seed)
        self.digest = self.sweep.digest
        self.dims = [n for _, _, n in self.sweep.structures]

    def requests(self, index):
        out = []
        for i, doc in enumerate(self.sweep.pass_inputs(index)):
            path = os.path.join(self.workdir, f"pass{index}-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
            for argv in (
                ["report", path, "--format", "tsv"],
                ["jdecomp", path, "--p", "1", "--q", "1", "--format", "tsv"],
            ):
                out.append((f"{argv[0]} {i}", lambda argv=argv: self._cli(argv)))
        return out

    def _cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.pkg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def check(self, labels, outputs):
        failed = {}
        for i, n in enumerate(self.dims):
            report, jdecomp = outputs[2 * i], outputs[2 * i + 1]
            bad = sweep.check_report(report, n)
            if bad:
                failed[2 * i] = f"algebra {i}: " + "; ".join(bad)
                failed[2 * i + 1] = f"algebra {i}: b_2 unknown"
                continue
            b2 = int(report.splitlines()[3].split("\t")[1])
            bad = sweep.check_jdecomp(jdecomp, b2)
            if bad:
                failed[2 * i + 1] = f"algebra {i}: " + "; ".join(bad)
        return failed


WORKLOADS = {"report8": Report8, "eta10": Eta10, "sweep6": Sweep6}

# Functions the traced run must see called at least once on each workload:
# the layers each workload exists to exercise (see README.md).
EXPECTED_CALLS = {
    "report8": (
        "linalg.induced_map_rank", "symplectic.natural_map_ranks",
        "symplectic.lefschetz_power_map", "linalg.Subspace.contains",
        "forms.matrix_of", "symplectic.dlam_mat", "symplectic.h_dlambda",
        "symplectic.h_bottchern", "symplectic.h_aeppli",
    ),
    "eta10": (
        "linalg.kernel", "linalg.Subspace.init", "linalg.Subspace.intersect",
        "linalg.Subspace.sum", "linalg.column_space", "linalg.rank", "linalg.matmul",
        "acx.derivation_matrix", "acx.pure_type_subspace", "acx.h_j",
        "acx.pure_full_check", "cec.d_matrix", "cec.betti", "forms.matrix_of",
        "morphism.induced_report", "morphism.validate_morphism",
    ),
    "sweep6": (
        "parser.parse_salamon", "parser.parse_form", "cli.main", "cec.validate",
        "cec.is_nilpotent", "symplectic.make",
    ),
}
