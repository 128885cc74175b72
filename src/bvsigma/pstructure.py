"""Antibrackets for the three graded Poisson families and the BV Laplacian.

The bracket is the Darboux-coordinate sum over conjugate pairs

    (F,G) = sum_p  F d_r/dA_p . d_l/dB_{n-p-1} G
            - (-1)^(n p) F d_r/dB_{n-p-1} . d_l/dA_p G

plus, for a self-paired block with constant symmetric metric k,

    (F,G) += F d_r/dA^a k^{ab} d_l/dA^b G.

Signs are read literally off the Darboux expressions; the identity suite in
``check_bv_identities`` is the arbiter that the conventions are consistent.

The sum runs over the operands' support (:meth:`Expr.support`): a term is
taken only when F holds the variable it differentiates F by and G holds
the conjugate one, so every term left out is exactly zero.  The partners of
each variable come from a table built once per structure, and a fixed S
bracketed many times, as in the derived brackets of ``algebroid`` or the
operands of one ``check_bv_identities`` trial, keeps its right derivatives
in a :class:`Hamiltonian`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .grading import BASE_BLOCK, GradedVar
from .models import Matrix, ModelError, ModelSpec
from .symalg import CoeffSymbol, CPoly, Expr, accumulate, exact


@dataclass(frozen=True)
class DarbouxPair:
    """Conjugate blocks (A_p, B_{n-p-1}); p=0 is the (phi, B_{n-1}) pair."""

    a_block: str
    b_block: str
    p: int
    rank: int


@dataclass(frozen=True)
class SelfPair:
    block: str
    rank: int
    metric: Matrix


class PStructure:
    """The antibracket data of one model: Darboux pairs plus self blocks."""

    def __init__(self, n: int, pairs: Sequence[DarbouxPair], self_pairs: Sequence[SelfPair] = (), scope: Optional[str] = None):
        self.n = n
        self.pairs = tuple(pairs)
        self.self_pairs = tuple(self_pairs)
        self.scope = scope
        for sp in self.self_pairs:
            q = (n - 1) // 2
            if n % 2 == 0:
                raise ModelError("self-paired block requires odd n, got n=%d" % n)
            if q % 2 == 0:
                raise ModelError(
                    "self-paired block of even degree %d cannot carry a symmetric "
                    "metric compatible with graded antisymmetry (n=%d)" % (q, n)
                )
        self._darboux_rows, self._rows = self._conjugate_tables()

    @staticmethod
    def from_model(spec: ModelSpec) -> "PStructure":
        n = spec.n
        pairs = [DarbouxPair(BASE_BLOCK, "B%d" % (n - 1), 0, spec.d)]
        for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
            pairs.append(
                DarbouxPair("A%d" % blk.p, "B%d" % (n - blk.p - 1), blk.p, blk.rank)
            )
        self_pairs = []
        if spec.cs_block is not None:
            self_pairs.append(
                SelfPair("A%d" % spec.cs_degree, spec.cs_block.rank, spec.cs_block.metric)
            )
        return PStructure(n, pairs, self_pairs, scope=spec.fingerprint())

    # -- variables ---------------------------------------------------------
    def pair_vars(self, pair: DarbouxPair):
        n = self.n
        for i in range(1, pair.rank + 1):
            av = GradedVar(pair.a_block, pair.p, i)
            bv = GradedVar(pair.b_block, n - pair.p - 1, i)
            yield av, bv

    def self_vars(self, sp: SelfPair):
        q = (self.n - 1) // 2
        return [GradedVar(sp.block, q, i) for i in range(1, sp.rank + 1)]

    def fiber_vars(self) -> list[GradedVar]:
        out = []
        for pair in self.pairs:
            for av, bv in self.pair_vars(pair):
                if pair.p > 0:
                    out.append(av)
                out.append(bv)
        for sp in self.self_pairs:
            out.extend(self.self_vars(sp))
        return sorted(out)

    def base_indices(self) -> range:
        base = next(p for p in self.pairs if p.p == 0)
        return range(1, base.rank + 1)

    def _conjugate_tables(self):
        """The partners of each variable in the bracket sum, in summation
        order: rows (v, j, partners) with partners ((w, jw, k), ...), so
        that (F,G) = sum over rows and partners of k F d_r/dv . d_l/dw G.
        j (jw) is the base index of a base variable and 0 for a fiber one.
        Returns the Darboux rows alone and the Darboux plus self-block rows.
        """
        n = self.n
        darboux = []
        for pair in self.pairs:
            sign = -1 if (n * pair.p) % 2 == 0 else 1  # t2 carries -(-1)^(n p)
            for av, bv in self.pair_vars(pair):
                ja = av.index if av.block == BASE_BLOCK else 0
                darboux.append((av, ja, ((bv, 0, 1),)))
                darboux.append((bv, 0, ((av, ja, sign),)))
        full = list(darboux)
        for sp in self.self_pairs:
            vs = self.self_vars(sp)
            for a, va in enumerate(vs):
                partners = tuple((vb, 0, k) for vb, k in zip(vs, sp.metric[a]) if k)
                if partners:
                    full.append((va, 0, partners))
        return tuple(darboux), tuple(full)

    # -- the bracket ----------------------------------------------------------
    def bracket_darboux(self, f: Union[Expr, "Hamiltonian"], g: Expr) -> Expr:
        """The Darboux-pair part of the bracket, without self-block terms.

        This is exactly the bracket generated by the BV Laplacian; for an
        odd self-paired block the k-term has no second-order generator.
        ``f`` may be a :class:`Hamiltonian`, as in :meth:`bracket`.
        """
        return self._bracket(self._darboux_rows, f, g)

    def bracket(self, f: Union[Expr, "Hamiltonian"], g: Expr) -> Expr:
        """Antibracket (F,G); total degree |F|+|G|-n+1 on homogeneous input.

        ``f`` may be a :class:`Hamiltonian` from :meth:`hamiltonian`, whose
        right derivatives are then reused instead of taken again.
        """
        return self._bracket(self._rows, f, g)

    def hamiltonian(self, s: Expr) -> "Hamiltonian":
        """S with its nonzero right derivatives, for the repeated brackets
        (S,.) of one computation (the Hamiltonian vector field Q = (S,.))."""
        fibers, bases = s.support()
        derivs = {}
        for v, j, _ in self._rows:
            if j in bases if j else v in fibers:
                sv = s.right_deriv(v)
                if sv:
                    derivs[v] = sv
        return Hamiltonian(s, derivs)

    def _bracket(self, rows, f: Union[Expr, "Hamiltonian"], g: Expr) -> Expr:
        """The bracket sum over ``rows`` (see :meth:`_conjugate_tables`),
        restricted to the operands' support: F d_r/dv is taken only when F
        holds v and G holds a partner w of v, and d_l/dw G only when G holds
        w.  The terms left out are exactly zero."""
        derivs = None
        if isinstance(f, Hamiltonian):
            f, derivs = f.expr, f.derivs
        scope = f._merged_scope(g)
        g_fibers, g_bases = g.support()
        if derivs is None:
            f_fibers, f_bases = (g_fibers, g_bases) if f is g else f.support()
        acc: dict = {}
        for v, j, partners in rows:
            if derivs is None:
                if not (j in f_bases if j else v in f_fibers):
                    continue
                fv = None  # taken when a partner is first met in G
            else:
                fv = derivs.get(v)
                if fv is None:
                    continue
            for w, jw, k in partners:
                if jw in g_bases if jw else w in g_fibers:
                    if fv is None:
                        fv = f.right_deriv(v)
                    if not fv:
                        break
                    Expr.mul_into(acc, fv, g.left_deriv(w), k)
        return Expr._collect(acc, scope)

    def laplacian(self, f: Expr) -> Expr:
        """BV Laplacian: sum over pairs of (-1)^p d_l/dA_p d_l/dB, termwise.

        Lowers total degree by n-1.  The per-pair sign is the placement that
        makes the Laplacian generate the Darboux bracket through the
        Leibniz-defect identity (the identity suite is the arbiter; for a
        p=0-only structure the sign is invisible).  Self-paired odd blocks
        contribute nothing: k^{ab} d_l/dA^a d_l/dA^b vanishes identically
        for odd A and symmetric k.
        """
        acc: dict = {}
        for pair in self.pairs:
            neg = pair.p % 2 == 1
            for av, bv in self.pair_vars(pair):
                for m, c in f.left_deriv(bv).left_deriv(av).terms.items():
                    accumulate(acc, m, -c if neg else c)
        return Expr._of(acc, f.scope)

    def bracket_degree(self, f_deg: int, g_deg: int) -> int:
        return f_deg + g_deg - self.n + 1


class Hamiltonian:
    """A fixed S and its nonzero right derivatives d_r S/dv, keyed by v.

    Built by :meth:`PStructure.hamiltonian` for the brackets (S,.) of one
    computation and dropped with it; nothing is cached beyond that.
    """

    __slots__ = ("expr", "derivs")

    def __init__(self, expr: Expr, derivs: dict[GradedVar, Expr]):
        self.expr = expr
        self.derivs = derivs


# -- randomized identity suite ---------------------------------------------------


def _monomials_of_degree(pstruct: PStructure, degree: int, max_len: int = 4):
    """All canonical fiber monomials of the given total degree.

    Degree-0 fiber variables (the n=1 cotangent partner) extend a finished
    monomial without changing its degree, bounded by max_len.
    """
    vars_ = pstruct.fiber_vars()
    out: list[tuple[GradedVar, ...]] = []

    def rec(start: int, remaining: int, acc: list[GradedVar]):
        if remaining == 0:
            out.append(tuple(acc))
        if len(acc) >= max_len:
            return
        for i in range(start, len(vars_)):
            v = vars_[i]
            if v.degree > remaining:
                continue
            if v.parity and acc and acc[-1] == v:
                continue
            acc.append(v)
            # Odd variables cannot repeat; even ones may.
            rec(i if not v.parity else i + 1, remaining - v.degree, acc)
            acc.pop()

    rec(0, degree, [])
    if degree == 0:
        out.remove(())  # the empty monomial is the scalar, not a fiber monomial
    return out


class RandomExprs:
    """Seeded generator of random homogeneous expressions over a structure."""

    def __init__(self, pstruct: PStructure, seed: int = 0, max_degree: Optional[int] = None):
        self.pstruct = pstruct
        self.rng = random.Random(seed)
        self.max_degree = max_degree or pstruct.n + 2
        self._pool = {
            deg: _monomials_of_degree(pstruct, deg)
            for deg in range(0, self.max_degree + 1)
        }
        self.degrees = [d for d, monos in self._pool.items() if monos]
        self._bases = pstruct.base_indices()

    def _coefficient(self) -> CPoly:
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
            syms = (CoeffSymbol("g%d" % rng.choice([1, 2]), (), (), deriv, ()),)
        return CPoly._of({(syms, base): exact(Fraction(num, den))})

    def homogeneous(self, degree: Optional[int] = None) -> tuple[Expr, int]:
        rng = self.rng
        if degree is None:
            degree = rng.choice(self.degrees)
        monos = self._pool[degree]
        expr = Expr.zero()
        for _ in range(rng.randint(1, 2)):
            m = rng.choice(monos)
            expr = expr + Expr({m: self._coefficient()})
        if expr.is_zero():
            expr = Expr({rng.choice(monos): CPoly.scalar(1)})
        return expr, degree


BRACKET_LAWS = (
    "graded antisymmetry",
    "left Leibniz",
    "right Leibniz",
    "graded Jacobi",
    "bracket degree = |F|+|G|-n+1",
)

LAPLACIAN_LAWS = (
    "Delta-Leibniz",
    "Delta^2 = 0",
    "Delta degree = |F|-(n-1)",
)


@dataclass
class BvReport:
    structure: str
    trials: int
    results: dict[str, bool] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def law_passed(self, law: str) -> bool:
        return self.results[law]

    @property
    def bracket_laws_passed(self) -> bool:
        return all(self.results[l] for l in BRACKET_LAWS)


def check_bv_identities(pstruct: PStructure, trials: int = 200, seed: int = 0) -> BvReport:
    """Randomized exact check of the four antibracket laws, the
    Delta-Leibniz identity and Delta^2 = 0, with counterexamples on failure.

    The Delta-Leibniz defect is compared against the Darboux part of the
    bracket (the part a second-order operator can generate; for structures
    without a self block that is the full bracket).  For odd n the identity
    cannot hold at all: the degree -n+1 bracket is then graded-antisymmetric
    while the Leibniz defect of the even operator Delta is graded-symmetric.
    The check still runs and reports the failure; see the report notes.
    When 2(n-1) exceeds the largest random operand degree, Delta^2 F
    vanishes by degree alone, so Delta^2 = 0 passes without being
    exercised; a report note says so.
    """
    n = pstruct.n
    gen = RandomExprs(pstruct, seed)
    report = BvReport(structure=pstruct.scope or "n=%d" % n, trials=trials)
    report.results = {law: True for law in BRACKET_LAWS + LAPLACIAN_LAWS}

    def fail(law: str, msg: str):
        report.results[law] = False
        if len(report.failures) < 8:
            report.failures.append("%s: %s" % (law, msg))

    br = pstruct.bracket
    lap = pstruct.laplacian
    ham = pstruct.hamiltonian
    for trial in range(trials):
        f, fd = gen.homogeneous()
        g, gd = gen.homogeneous()
        h, hd = gen.homogeneous()
        fs, gs, hs = fd + 1 - n, gd + 1 - n, hd + 1 - n
        # Every value below is taken once and read by each law that needs
        # it; the right derivatives of F, G and H once each.
        qf, qg, qh = ham(f), ham(g), ham(h)
        fg, gh, hf, fh = br(qf, g), br(qg, h), br(qh, f), br(qf, h)
        f_g = f * g
        lf = lap(f)

        if not (fg + br(qg, f).scale((-1) ** (fs * gs))).is_zero():
            fail(BRACKET_LAWS[0], "trial %d: F=%s G=%s" % (trial, f, g))

        rhs = fg * h + (g * fh).scale((-1) ** (fs * gd))
        if br(qf, g * h) != rhs:
            fail(BRACKET_LAWS[1], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))

        rhs = f * gh + (fh * g).scale((-1) ** (gd * hs))
        if br(f_g, h) != rhs:
            fail(BRACKET_LAWS[2], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))

        jac = (
            br(qf, gh).scale((-1) ** (fs * hs))
            + br(qg, hf).scale((-1) ** (gs * fs))
            + br(qh, fg).scale((-1) ** (hs * gs))
        )
        if not jac.is_zero():
            fail(BRACKET_LAWS[3], "trial %d: F=%s G=%s H=%s" % (trial, f, g, h))

        if fg and fg.homogeneous_degree() != fd + gd - n + 1:
            fail(BRACKET_LAWS[4], "trial %d" % trial)

        rhs = (
            lf * g
            + pstruct.bracket_darboux(qf, g).scale((-1) ** ((n + 1) * fd))
            + (f * lap(g)).scale((-1) ** fd)
        )
        if lap(f_g) != rhs:
            fail(LAPLACIAN_LAWS[0], "trial %d: F=%s G=%s" % (trial, f, g))

        if not lap(lf).is_zero():
            fail(LAPLACIAN_LAWS[1], "trial %d: F=%s" % (trial, f))

        if lf and lf.homogeneous_degree() != fd - (n - 1):
            fail(LAPLACIAN_LAWS[2], "trial %d" % trial)

    if n % 2 == 1 and not report.results[LAPLACIAN_LAWS[0]]:
        report.notes.append(
            "Delta-Leibniz cannot hold for odd n at target level: the bracket "
            "is graded-antisymmetric there while any second-order Leibniz "
            "defect is graded-symmetric"
        )
    top = max(gen.degrees, default=0)
    if 2 * (n - 1) > top:
        report.notes.append(
            "Delta^2 = 0 not exercised (Delta^2 lowers degree by 2(n-1) = %d, "
            "more than the largest random operand degree %d, so it vanishes "
            "on every operand by degree alone)" % (2 * (n - 1), top)
        )
    if pstruct.self_pairs:
        report.notes.append(
            "Delta-Leibniz compared against the Darboux sector; the self-block "
            "k-term has no second-order generator (k^{ab} d_l d_l vanishes "
            "identically on an odd self-paired block)"
        )
    return report
