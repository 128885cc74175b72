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
the conjugate one, so every term left out is exactly zero.  The square
(S,S) of an S of odd shifted degree |S|+1-n, as in the classical master
equation, sums half the table doubled: each pair's part is graded-
antisymmetric alone, T_A(F,G) = -(-1)^(f~ g~) T_B(G,F) with shifted degrees
f~ = |F|+1-n, g~ = |G|+1-n, and k is symmetric, so on (S,S) each B half
repeats its A half and each self-block (a,b) term the (b,a) one.  The
partners of each variable come from a table built once per structure, and a
fixed S bracketed many times, as in the derived brackets of ``algebroid`` or
the operands of one ``check_bv_identities`` trial, is wrapped once in a
:class:`Hamiltonian`, which keeps each right derivative a bracket reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .grading import BASE_BLOCK, GradedVar
from .models import ModelError, ModelSpec
from .symalg import CoeffSymbol, CPoly, Expr, accumulate, exact, monomial_str


class PStructure:
    """The antibracket data of one model: the conjugate pairs of its spec."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.n = spec.n
        self.pairs = spec.pairs
        self.self_pairs = spec.self_pairs
        self.scope = spec.fingerprint()
        q = spec.cs_degree
        if self.self_pairs and q % 2 == 0:
            raise ModelError(
                "self-paired block of even degree %d cannot carry a symmetric "
                "metric compatible with graded antisymmetry (n=%d)" % (q, self.n)
            )
        self._darboux_rows, self._rows, self._square_rows = self._conjugate_tables()

    def _conjugate_tables(self):
        """The partners of each variable in the bracket sum, in summation
        order: rows (v, j, partners) with partners ((w, jw, k), ...), so
        that (F,G) = sum over rows and partners of k F d_r/dv . d_l/dw G.
        j (jw) is the base index of a base variable and 0 for a fiber one.
        Returns the Darboux rows alone, the Darboux plus self-block rows, and
        the square rows of (F,F) (see :meth:`bracket`): half of them, doubled.
        """
        n, vars_of = self.n, self.spec.vars_of
        darboux, square = [], []
        for pair in self.pairs:
            sign = -1 if (n * pair.p) % 2 == 0 else 1  # t2 carries -(-1)^(n p)
            for av, bv in zip(vars_of(pair.a_block), vars_of(pair.b_block)):
                ja = av.index if av.block == BASE_BLOCK else 0
                darboux.append((av, ja, ((bv, 0, 1),)))
                darboux.append((bv, 0, ((av, ja, sign),)))
                square.append((av, ja, ((bv, 0, 2),)))
        full = list(darboux)
        for sp in self.self_pairs:
            vs = vars_of(sp.block)
            for a, va in enumerate(vs):
                partners = tuple((vb, 0, k) for vb, k in zip(vs, sp.metric[a]) if k)
                if partners:
                    full.append((va, 0, partners))
                half = tuple((vs[b], 0, k if b == a else 2 * k)
                             for b, k in enumerate(sp.metric[a]) if b >= a and k)
                if half:
                    square.append((va, 0, half))
        return tuple(darboux), tuple(full), tuple(square)

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

        ``f`` may be a :class:`Hamiltonian`, whose right derivatives are
        then reused across the brackets it enters instead of taken again.

        (F,F) for one homogeneous F of odd shifted degree f~ = |F|+1-n, as
        S1 is, sums only each pair's A row (weight 2) and the self-block
        terms b >= a (k^{aa}, 2 k^{ab}).  That is exact: T_A(F,G) =
        -(-1)^(f~ g~) T_B(G,F) pair by pair, g~ = |G|+1-n, and k is
        symmetric, so on (F,F) the B half repeats the A half and (b,a)
        repeats (a,b).
        """
        deg = f.homogeneous_degree() if f is g else None
        square = deg is not None and (deg + 1 - self.n) % 2
        return self._bracket(self._square_rows if square else self._rows, f, g)

    def _bracket(self, rows, f: Union[Expr, "Hamiltonian"], g: Expr) -> Expr:
        """The bracket sum over ``rows`` (see :meth:`_conjugate_tables`),
        restricted to the operands' support: F d_r/dv is taken only when F
        holds v and G holds a partner w of v, and d_l/dw G only when G holds
        w.  The terms left out are exactly zero.  A :class:`Hamiltonian` F
        lends its support and kept derivatives; a plain F has each of its
        derivatives taken directly, since each row variable is read once
        per bracket."""
        if isinstance(f, Hamiltonian):
            right_deriv, (f_fibers, f_bases) = f.right_deriv, f.support
            f = f.expr
        else:
            right_deriv, (f_fibers, f_bases) = f.right_deriv, f.support()
        g_fibers, g_bases = (f_fibers, f_bases) if g is f else g.support()
        scope = f._merged_scope(g)
        acc: dict = {}
        for v, j, partners in rows:
            if not (j in f_bases if j else v in f_fibers):
                continue
            fv = None  # taken when a partner is first met in G
            for w, jw, k in partners:
                if jw in g_bases if jw else w in g_fibers:
                    if fv is None:
                        fv = right_deriv(v)
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
        vars_of = self.spec.vars_of
        for pair in self.pairs:
            neg = pair.p % 2 == 1
            for av, bv in zip(vars_of(pair.a_block), vars_of(pair.b_block)):
                for m, c in f.left_deriv(bv).left_deriv(av).terms.items():
                    accumulate(acc, m, -c if neg else c)
        return Expr._of(acc, f.scope)


class Hamiltonian:
    """A fixed S for the brackets (S,.) of one computation (the Hamiltonian
    vector field Q = (S,.)), with its support.  Each right derivative
    d_r S/dv is taken the first time a bracket reads it and kept, zero ones
    too; nothing outlives the computation that built it.
    """

    __slots__ = ("expr", "support", "_derivs")

    def __init__(self, expr: Expr):
        self.expr = expr
        self.support = expr.support()
        self._derivs: dict[GradedVar, Expr] = {}

    def right_deriv(self, v: GradedVar) -> Expr:
        sv = self._derivs.get(v)
        if sv is None:
            sv = self._derivs[v] = self.expr.right_deriv(v)
        return sv


# -- randomized identity suite ---------------------------------------------------


def _monomials_of_degree(pstruct: PStructure, degree: int, max_len: int = 4):
    """All canonical fiber monomials of the given total degree.

    Degree-0 fiber variables (the n=1 cotangent partner) extend a finished
    monomial without changing its degree, bounded by max_len.
    """
    vars_ = pstruct.spec.fiber_vars()
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
        self._bases = range(1, pstruct.spec.d + 1)

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
            syms = (CoeffSymbol("g%d" % rng.choice([1, 2]), (), (), deriv),)
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


def check_bv_identities(pstruct: PStructure, trials: int = 200, seed: int = 0) -> BvReport:
    """Randomized exact check of the four antibracket laws, the
    Delta-Leibniz identity and Delta^2 = 0, with counterexamples on failure.

    The Delta-Leibniz defect is compared against the Darboux part of the
    bracket (the part a second-order operator can generate; for structures
    without a self block that is the full bracket).  For odd n the identity
    cannot hold at all: the degree -n+1 bracket is then graded-antisymmetric
    while the Leibniz defect of the even operator Delta is graded-symmetric.
    The check still runs and reports the failure; see the report notes.
    Delta^2 lowers degree by 2(n-1), past the largest random operand degree
    from n=5 on; each degree k beyond it, up to 2(n-1), is checked on one
    generic operand sum_i u[i;] m_i over the fiber monomials m_i of degree
    k, whose fresh coefficients u have free base jets, so it stands for
    every operand of degree k.
    """
    n = pstruct.n
    gen = RandomExprs(pstruct, seed)
    report = BvReport(structure=pstruct.scope, trials=trials)
    report.results = {law: True for law in BRACKET_LAWS + LAPLACIAN_LAWS}

    def fail(law: str, msg: str):
        report.results[law] = False
        if len(report.failures) < 8:
            report.failures.append("%s: %s" % (law, msg))

    br = pstruct.bracket
    lap = pstruct.laplacian
    for k in range(max(gen.degrees, default=0) + 1, 2 * (n - 1) + 1):
        monos = _monomials_of_degree(pstruct, k, max_len=k)
        u = Expr({m: CPoly.symbol(CoeffSymbol("u", (i,))) for i, m in enumerate(monos)})
        bad = {s.lower[0] for s in lap(lap(u)).symbols()}
        if bad:
            fail(LAPLACIAN_LAWS[1], "degree %d: Delta^2(u*%s) != 0" % (k, monomial_str(monos[min(bad)])))
    for trial in range(trials):
        f, fd = gen.homogeneous()
        g, gd = gen.homogeneous()
        h, hd = gen.homogeneous()
        fs, gs, hs = fd + 1 - n, gd + 1 - n, hd + 1 - n
        # Every value below is taken once and read by each law that needs
        # it; the right derivatives of F, G and H at most once each.
        qf, qg, qh = Hamiltonian(f), Hamiltonian(g), Hamiltonian(h)
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
    if pstruct.self_pairs:
        report.notes.append(
            "Delta-Leibniz compared against the Darboux sector; the self-block "
            "k-term has no second-order generator (k^{ab} d_l d_l vanishes "
            "identically on an odd self-paired block)"
        )
    return report
