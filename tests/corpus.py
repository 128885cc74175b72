"""Shared structure-function instances used by the algebroid and
acceptance tests: model specs, passing and failing data, expected tables;
a seeded generator of random operands for the structure tests; and the
CLI's law report on a spec."""

import importlib.util
import io
import itertools
import json
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from bvsigma import cli
from bvsigma.algebroid import check_courant, check_lie_algebroid
from bvsigma.modelfile import ModelFile
from bvsigma.models import (
    BfBlock,
    CsBlock,
    CS_BF,
    ModelSpec,
    StructureData,
    ansatz_families,
)
from bvsigma.pstructure import fiber_monomials
from bvsigma.symalg import CoeffSymbol, CPoly, Expr, accumulate, exact, make_symbol
from test_modelfile import print_model


def load_workloads():
    """The benchmark's job and model generator module, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return workloads


def cli_report(command, spec):
    """(exit code, JSON report) of ``bvsigma <command>`` on a model file of
    ``spec``, without data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.model"
        path.write_text(print_model(ModelFile(spec, None)), encoding="utf-8")
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main([command, "--model", str(path)])
    return code, json.loads(out.getvalue())


def law_rows(report):
    """({law: holds}, notes) of a law report's detail lines."""
    results, notes = {}, []
    for line in report["details"]:
        if line.startswith("note: "):
            notes.append(line[len("note: "):])
        else:
            law, verdict = line.rsplit(": ", 1)
            results[law] = verdict == "ok"
    return results, notes


def algebroid_residuals(p, S):
    """The residuals of the checker that check-algebroid runs on the
    action S: the Lie algebroid one at n=2, the Courant one at n=3."""
    return (check_lie_algebroid if p.n == 2 else check_courant)(p, S)


def n2_spec():
    return ModelSpec(n=2, d=3)


def n3_spec():
    return ModelSpec(n=3, d=2, bf_blocks=(BfBlock(1, 2),))


def cs_spec(rank=2, d=2):
    k = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(rank))
        for i in range(rank)
    )
    return ModelSpec(n=3, d=d, flavor=CS_BF, cs_block=CsBlock(rank, k))


def sym_expr(spec, name, lower=(), upper=(), deriv=(), coeff=1):
    fams = {f.name: f for f in ansatz_families(spec)}
    sign, sym = make_symbol(name, lower, upper, deriv, fams[name].groups)
    if sym is None:
        return Expr.zero()
    return Expr({(): CPoly.symbol(sym, Fraction(coeff) * sign)})


def fill_zero(data, spec, names):
    """Assign zero to every not-yet-assigned combination of the families."""
    fams = {f.name: f for f in ansatz_families(spec)}
    for name in names:
        fam = fams[name]
        lo, up = fam.slot_ranges(spec)
        for lower in itertools.product(*(range(1, r + 1) for r in lo)):
            for upper in itertools.product(*(range(1, r + 1) for r in up)):
                sign, sym = make_symbol(name, lower, upper, (), fam.groups)
                if sym is None:
                    continue
                if (name, sym.lower, sym.upper) not in data.values:
                    data.assign(name, sym.lower, sym.upper, CPoly.zero())
    return data


# -- n=2 instances -------------------------------------------------------------


def so3_data():
    data = StructureData(n2_spec())
    data.assign("f1", (), (1, 2), CPoly.base(3))
    data.assign("f1", (), (1, 3), CPoly.base(2).scale(-1))
    data.assign("f1", (), (2, 3), CPoly.base(1))
    return data


def quadratic_poisson_data():
    data = StructureData(n2_spec())
    data.assign("f1", (), (1, 2), CPoly.base(3) * CPoly.base(3))
    data.assign("f1", (), (1, 3), CPoly.zero())
    data.assign("f1", (), (2, 3), CPoly.zero())
    return data


def zero_n2_data():
    return fill_zero(StructureData(n2_spec()), n2_spec(), ["f1"])


def bad_bivector_data():
    data = StructureData(n2_spec())
    data.assign("f1", (), (1, 2), CPoly.base(1))
    data.assign("f1", (), (1, 3), CPoly.zero())
    data.assign("f1", (), (2, 3), CPoly.base(2))
    return data


# -- n=3 two-block instances ------------------------------------------------------


def exact_courant_data():
    spec = n3_spec()
    data = StructureData(spec)
    for a in (1, 2):
        for i in (1, 2):
            data.assign("f2", (), (a, i), CPoly.scalar(-1 if a == i else 0))
    return fill_zero(data, spec, ["f1", "f4", "f5"])


def e_star_lie_data():
    spec = n3_spec()
    data = StructureData(spec)
    data.assign("f4", (1, 2), (1,), CPoly.scalar(1))
    return fill_zero(data, spec, ["f1", "f2", "f4", "f5"])


def perturbed_courant_data():
    spec = n3_spec()
    data = StructureData(spec)
    for a in (1, 2):
        for i in (1, 2):
            data.assign("f2", (), (a, i), CPoly.scalar(-1 if a == i else 0))
    data.assign("f4", (1, 2), (1,), CPoly.scalar(1))
    return fill_zero(data, spec, ["f1", "f4", "f5"])


def zero_n3_data():
    return fill_zero(StructureData(n3_spec()), n3_spec(), ["f1", "f2", "f4", "f5"])


# -- exact Courant algebroids of rank d >= 3 -----------------------------------------


def courant_spec(d):
    return ModelSpec(n=3, d=d, bf_blocks=(BfBlock(1, d),))


def twisted_courant_data(d, family, value):
    """TM + T*M over a d-dimensional base with the anchor embedding the
    tangent directions, ``family`` (f3 or f6) set to ``value`` on the slots
    (1,2,3) and every other component zero."""
    spec = courant_spec(d)
    data = StructureData(spec)
    for a in range(1, d + 1):
        for i in range(1, d + 1):
            data.assign("f2", (), (a, i), CPoly.scalar(-1 if a == i else 0))
    lower, upper = ((1, 2, 3), ()) if family == "f3" else ((), (1, 2, 3))
    data.assign(family, lower, upper, value)
    return fill_zero(data, spec, ["f1", "f3", "f4", "f5", "f6"])


# -- self-paired instances ----------------------------------------------------------


def su2_data(spec):
    data = StructureData(spec)
    data.assign("f2", (1, 2, 3), (), CPoly.scalar(1))
    return fill_zero(data, spec, ["f1", "f2"])


def non_jacobi_cs_data(spec):
    data = StructureData(spec)
    data.assign("f2", (1, 2, 3), (), CPoly.scalar(1))
    data.assign("f2", (1, 4, 5), (), CPoly.scalar(1))
    return fill_zero(data, spec, ["f1", "f2"])


def anchored_cs_data(spec):
    data = StructureData(spec)
    data.assign("f1", (1,), (1,), CPoly.scalar(1))
    return fill_zero(data, spec, ["f1", "f2"])


# -- random operands ------------------------------------------------------------


class RandomExprs:
    """Seeded generator of random homogeneous expressions over a structure:
    1-2 terms, each a fiber monomial of up to 4 factors and degree at most
    ``max_degree`` (default n+2) times one random coefficient term."""

    def __init__(self, pstruct, seed=0, max_degree=None):
        self.pstruct = pstruct
        self.rng = random.Random(seed)
        self.max_degree = max_degree or pstruct.n + 2
        monos = fiber_monomials(pstruct.spec, 4)
        self._pool = {
            deg: [m for m in monos.get(deg, ()) if m]  # () is the scalar
            for deg in range(0, self.max_degree + 1)
        }
        self.degrees = [d for d, pool in self._pool.items() if pool]
        self._bases = range(1, pstruct.spec.d + 1)

    def _coefficient(self):
        """A scalar, times a base power with probability 1/2, times a
        (possibly differentiated) symbol g1 or g2 with probability 2/5:
        one coefficient term, built as such."""
        rng = self.rng
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 2, 3])
        base = syms = ()
        if rng.random() < 0.5:
            j = rng.choice(self._bases)
            base = ((j, rng.choice([1, 1, 2])),)
        if rng.random() < 0.4:
            deriv = ()
            if rng.random() < 0.5:
                deriv = (rng.choice(self._bases),)
            syms = (CoeffSymbol("g%d" % rng.choice([1, 2]), (), (), deriv),)
        return CPoly._of({(syms, base): exact(Fraction(num, den))})

    def homogeneous(self, degree=None):
        rng = self.rng
        if degree is None:
            degree = rng.choice(self.degrees)
        monos = self._pool[degree]
        acc = {}
        for _ in range(rng.randint(1, 2)):
            m = rng.choice(monos)
            accumulate(acc, m, self._coefficient())
        if not acc:
            acc = {rng.choice(monos): CPoly.scalar(1)}
        return Expr._of(acc, None), degree
