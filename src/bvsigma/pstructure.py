"""Antibrackets for the three graded Poisson families and the BV Laplacian.

The bracket is the Darboux-coordinate sum over conjugate pairs

    (F,G) = sum_p  F d_r/dA_p . d_l/dB_{n-p-1} G
            - (-1)^(n p) F d_r/dB_{n-p-1} . d_l/dA_p G

plus, for a self-paired block with constant symmetric metric k,

    (F,G) += F d_r/dA^a k^{ab} d_l/dA^b G.

Signs are read literally off the Darboux expressions; the BV laws, which
:func:`check_bv_identities` proves on generic operands of bounded length,
are the arbiter that the conventions are consistent.

The sum runs over the operands' support (:meth:`Expr.support`): a term is
taken only when F holds the variable it differentiates F by and G holds
the conjugate one, so every term left out is exactly zero.  The square
(S,S) of an S of odd shifted degree |S|+1-n, as in the classical master
equation, sums half the table doubled: each pair's part is graded-
antisymmetric alone, T_A(F,G) = -(-1)^(f~ g~) T_B(G,F) with shifted degrees
f~ = |F|+1-n, g~ = |G|+1-n, and k is symmetric, so on (S,S) each B half
repeats its A half and each self-block (a,b) term the (b,a) one.  The
partners of each variable come from a table built once per structure.  An
operand that enters many brackets, as the fixed S of the derived brackets of
``algebroid`` or a generic operand of :func:`check_bv_identities`, is wrapped
once in a :class:`Hamiltonian`, which keeps each right and left derivative
a bracket or the Laplacian reads; either bracket side may be wrapped.  The
Laplacian, too, takes only the pairs its operand's support holds.  A bracket,
like a product, may add its terms to an accumulator in place with a sign.
"""

from __future__ import annotations

from typing import Optional, Union

from .grading import BASE_BLOCK, GradedVar
from .models import ModelError, ModelSpec
from .symalg import CoeffSymbol, CPoly, Expr, MixedContextError, accumulate, exact


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
        (self._darboux_rows, self._rows, self._square_rows,
         self._laplacian_rows) = self._conjugate_tables()

    def _conjugate_tables(self):
        """The partners of each variable in the bracket sum, in summation
        order: rows (v, j, partners) with partners ((w, jw, k), ...), so
        that (F,G) = sum over rows and partners of k F d_r/dv . d_l/dw G,
        k a canonical scalar (see :func:`bvsigma.symalg.exact`).
        j (jw) is the base index of a base variable and 0 for a fiber one.
        Returns the Darboux rows alone, the Darboux plus self-block rows, the
        square rows of (F,F) (see :meth:`bracket`): half of them, doubled,
        and the Laplacian rows (B, ja, A, (-1)^p), one per Darboux pair.
        """
        n, vars_of = self.n, self.spec.vars_of
        darboux, square, laplacian = [], [], []
        for pair in self.pairs:
            sign = -1 if (n * pair.p) % 2 == 0 else 1  # t2 carries -(-1)^(n p)
            for av, bv in zip(vars_of(pair.a_block), vars_of(pair.b_block)):
                ja = av.index if av.block == BASE_BLOCK else 0
                darboux.append((av, ja, ((bv, 0, 1),)))
                darboux.append((bv, 0, ((av, ja, sign),)))
                square.append((av, ja, ((bv, 0, 2),)))
                laplacian.append((bv, ja, av, -1 if pair.p % 2 else 1))
        full = list(darboux)
        for sp in self.self_pairs:
            vs = vars_of(sp.block)
            for a, va in enumerate(vs):
                partners = tuple((vb, 0, exact(k)) for vb, k in zip(vs, sp.metric[a]) if k)
                if partners:
                    full.append((va, 0, partners))
                half = tuple((vs[b], 0, exact(k if b == a else 2 * k))
                             for b, k in enumerate(sp.metric[a]) if b >= a and k)
                if half:
                    square.append((va, 0, half))
        return tuple(darboux), tuple(full), tuple(square), tuple(laplacian)

    # -- the bracket ----------------------------------------------------------
    def bracket_darboux(self, f: Operand, g: Operand) -> Expr:
        """The Darboux-pair part of the bracket, without self-block terms.

        This is exactly the bracket generated by the BV Laplacian; for an
        odd self-paired block the k-term has no second-order generator.
        Either operand may be a :class:`Hamiltonian`, as in :meth:`bracket`.
        """
        return self._bracket(self._darboux_rows, f, g)

    def bracket(self, f: Operand, g: Operand, into: Optional[dict] = None, sign: int = 1) -> Optional[Expr]:
        """Antibracket (F,G); total degree |F|+|G|-n+1 on homogeneous input.

        Either operand may be a :class:`Hamiltonian`, whose right (as F)
        and left (as G) derivatives are then reused across the brackets it
        enters instead of taken again.  Given an accumulator ``into`` (see
        :meth:`Expr.mul_into`), adds ``sign`` (F,G) to it in place and
        returns None, as :meth:`Expr.__mul__` does for a product.

        (F,F) for one homogeneous F of odd shifted degree f~ = |F|+1-n, as
        S1 is, sums only each pair's A row (weight 2) and the self-block
        terms b >= a (k^{aa}, 2 k^{ab}).  That is exact: T_A(F,G) =
        -(-1)^(f~ g~) T_B(G,F) pair by pair, g~ = |G|+1-n, and k is
        symmetric, so on (F,F) the B half repeats the A half and (b,a)
        repeats (a,b).  F and G are one operand when they wrap or are one
        Expr.
        """
        fe = f.expr if isinstance(f, Hamiltonian) else f
        ge = g.expr if isinstance(g, Hamiltonian) else g
        deg = fe.homogeneous_degree() if fe is ge else None
        square = deg is not None and (deg + 1 - self.n) % 2
        return self._bracket(self._square_rows if square else self._rows, f, g, into, sign)

    def _bracket(self, rows, f: Operand, g: Operand, into: Optional[dict] = None, sign: int = 1) -> Optional[Expr]:
        """The bracket sum over ``rows`` (see :meth:`_conjugate_tables`),
        restricted to the operands' support: F d_r/dv is taken only when F
        holds v and G holds a partner w of v, and d_l/dw G only when G holds
        w.  The terms left out are exactly zero.  A :class:`Hamiltonian`
        lends its support and kept derivatives; a plain operand has each of
        its derivatives taken directly, since each row variable is read once
        per bracket.  With ``into``, the terms, times ``sign``, go there."""
        f, (f_fibers, f_bases), right_deriv = _operand(f, left=False)
        if g is f:
            g_fibers, g_bases, left_deriv = f_fibers, f_bases, f.left_deriv
        else:
            g, (g_fibers, g_bases), left_deriv = _operand(g, left=True)
        scope = self._own_scope(f._merged_scope(g))
        acc: dict = {} if into is None else into
        for v, j, partners in rows:
            if not (j in f_bases if j else v in f_fibers):
                continue
            fv = None  # taken when a partner is first met in G
            for w, jw, k in partners:
                if jw in g_bases if jw else w in g_fibers:
                    if fv is None:
                        fv = right_deriv(v)
                    Expr.mul_into(acc, fv, left_deriv(w), k * sign)
        if into is None:
            return Expr._collect(acc, scope)

    def laplacian(self, f: Operand) -> Expr:
        """BV Laplacian: sum over pairs of (-1)^p d_l/dA_p d_l/dB, termwise.

        Lowers total degree by n-1.  The per-pair sign is the placement that
        makes the Laplacian generate the Darboux bracket through the
        Leibniz-defect identity (the identity suite is the arbiter; for a
        p=0-only structure the sign is invisible).  Self-paired odd blocks
        contribute nothing: k^{ab} d_l/dA^a d_l/dA^b vanishes identically
        for odd A and symmetric k.

        A pair is taken only when F holds its B variable and its A partner
        (a fiber variable, or a base index); every other pair's term is
        exactly zero.  The pairs are read from the Laplacian rows of
        :meth:`_conjugate_tables`.  ``f`` may be a :class:`Hamiltonian`,
        which lends its support and kept left derivatives d_l F/dB.
        """
        f, (fibers, bases), left_deriv = _operand(f, left=True)
        scope = self._own_scope(f.scope)
        acc: dict = {}
        for bv, ja, av, sign in self._laplacian_rows:
            if bv not in fibers or not (ja in bases if ja else av in fibers):
                continue
            for m, c in left_deriv(bv).left_deriv(av).terms.items():
                accumulate(acc, m, c if sign > 0 else -c)
        return Expr._of(acc, scope)

    def _own_scope(self, scope):
        """``scope``, the operands' context, if it is None or this model's;
        variable codes of two models coincide, so any other raises."""
        if scope is not None and scope != self.scope:
            raise MixedContextError("mixed model contexts: %r vs %r" % (scope, self.scope))
        return scope


class Hamiltonian:
    """An operand of many brackets in one computation, such as a fixed S of
    the brackets (S,.) (the Hamiltonian vector field Q = (S,.)), with its
    support.  Each right derivative d_r S/dv (read when S is the first
    operand) and each left derivative d_l S/dv (read when S is the second
    operand, or by the Laplacian) is taken the first time it is read and
    kept, zero ones too; nothing outlives the computation that built it.
    """

    __slots__ = ("expr", "support", "_right", "_left")

    def __init__(self, expr: Expr):
        self.expr = expr
        self.support = expr.support()
        self._right: dict[GradedVar, Expr] = {}
        self._left: dict[GradedVar, Expr] = {}

    def right_deriv(self, v: GradedVar) -> Expr:
        sv = self._right.get(v)
        if sv is None:
            sv = self._right[v] = self.expr.right_deriv(v)
        return sv

    def left_deriv(self, v: GradedVar) -> Expr:
        sv = self._left.get(v)
        if sv is None:
            sv = self._left[v] = self.expr.left_deriv(v)
        return sv


Operand = Union[Expr, Hamiltonian]


def _operand(x: Operand, left: bool):
    """A bracket or Laplacian operand as (Expr, support, graded derivative
    on its side): a :class:`Hamiltonian` lends its support and kept
    derivatives, a plain Expr has them taken directly."""
    if isinstance(x, Hamiltonian):
        return x.expr, x.support, x.left_deriv if left else x.right_deriv
    return x, x.support(), x.left_deriv if left else x.right_deriv


# -- the BV laws on generic operands ---------------------------------------------


def fiber_monomials(spec: ModelSpec, max_len: int) -> dict[int, list[tuple[GradedVar, ...]]]:
    """Every canonical fiber monomial of at most ``max_len`` factors, the
    empty one (the scalar) included, keyed by total degree: variables in
    canonical order, odd ones at most once, even ones repeated."""
    fibers = spec.fiber_vars()
    out: dict[int, list] = {}

    def rec(start: int, mono: tuple, degree: int):
        out.setdefault(degree, []).append(mono)
        if len(mono) < max_len:
            for i in range(start, len(fibers)):
                v = fibers[i]
                rec(i + v.parity, mono + (v,), degree + v.degree)

    rec(0, (), 0)
    return out


def generic_operand(name: str, monos) -> Expr:
    """sum_i name[i;] m_i over ``monos``: fresh symbols with free base jets,
    so the operand stands for every operand spanned by the m_i."""
    return Expr({m: CPoly.symbol(CoeffSymbol(name, (i,))) for i, m in enumerate(monos)})


def _off_degree(e: Expr, degree: int) -> Expr:
    """The terms of ``e`` whose total degree is not ``degree``."""
    return Expr({m: c for m, c in e.terms.items() if sum(v.degree for v in m) != degree})


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


def check_bv_identities(pstruct: PStructure) -> dict[str, Optional[tuple[tuple[int, ...], Expr]]]:
    """Exact check of the four antibracket laws, the two degree laws, the
    Delta-Leibniz identity and Delta^2 = 0, each decided on generic
    operands of bounded length.  Returns, for each law in sorted order,
    (operand degrees, residual) of its first nonzero case in the fixed
    order of degrees, or None when the law holds.

    The generic operand of degree k sums a fresh symbol (u for F, v for
    G, w for H) times each fiber variable of degree k, and at k = 0 a lone
    fresh symbol too.  The symbols' base jets are free, so it stands for
    every operand of length <= 1 (a base function times at most one fiber
    variable) of degree k.  That suffices, with no degree bound:
    - the bracket is a sum of products of a right and a left graded
      derivative, so it is a biderivation; both sides of antisymmetry are
      biderivations, and the Jacobiator of an antisymmetric biderivation is
      a triderivation.  So antisymmetry and the bracket degree are decided
      on pairs, both Leibniz rules (which check the derivatives' sign
      conventions on a product) and Jacobi on triples of generic operands;
    - Delta sums products of two derivatives with constant coefficients, so
      it has order 2: its Leibniz defect Delta(FG) - Delta(F)G -
      (-1)^|F| F Delta(G) is a biderivation, as is the bracket it is
      compared with.  Delta-Leibniz and the Delta degree are decided on
      pairs;
    - Delta^2 has order 4 and lowers degree by 2(n-1): it is decided on one
      generic operand of each degree >= 2(n-1) over the fiber monomials of
      up to 4 factors.

    Kernel faults that only long monomials show are left to the kernels'
    own reference tests.  The Delta-Leibniz defect is compared against the
    Darboux part of the bracket (the part a second-order operator can
    generate; for structures without a self block that is the full
    bracket).  For odd n the identity cannot hold at all: the degree -n+1
    bracket is then graded-antisymmetric while the Leibniz defect of the
    even operator Delta is graded-symmetric; the check still runs and
    returns the failure.  Each residual is summed in place in one
    accumulator, with no intermediate sum, negation or scaled Expr.
    """
    n = pstruct.n
    first: dict = dict.fromkeys(sorted(BRACKET_LAWS + LAPLACIAN_LAWS))

    def check(law: str, degrees: tuple, residual: Expr):
        if residual and first[law] is None:
            first[law] = (degrees, residual)

    br = pstruct.bracket
    lap = pstruct.laplacian
    short = fiber_monomials(pstruct.spec, 1)
    classes = sorted(short)
    # Every value below is taken once and read by each law that needs it.
    # FG = F G and fg = (F,G) of one pair are wrapped, so that Delta(FG),
    # (FG,H) and (H,(F,G)) read each of their derivatives once; a wrapped
    # table would keep every derivative for the whole check.
    F, G, H = ({k: Hamiltonian(generic_operand(name, short[k])) for k in classes} for name in "uvw")
    pairs = [(a, b) for a in classes for b in classes]
    GH = {(b, c): G[b].expr * H[c].expr for b, c in pairs}
    gh = {(b, c): br(G[b], H[c]) for b, c in pairs}
    hf = {(c, a): br(H[c], F[a]) for c, a in pairs}
    fh = {(a, c): br(F[a], H[c]) for a, c in pairs}
    lap_f = {a: lap(F[a]) for a in classes}
    lap_g = {b: lap(G[b]) for b in classes}

    # Brackets and products add into a residual's accumulator with their
    # signs; an Expr term enters as its product with the unit scalar.  The
    # shifted degrees fs, gs, hs are kept mod 2, so every sign is an int.
    one = Expr.scalar(1)
    for a in classes:
        f, fs = F[a].expr, (a + 1 - n) % 2
        check(LAPLACIAN_LAWS[2], (a,), _off_degree(lap_f[a], a - (n - 1)))
        for b in classes:
            g, gs = G[b].expr, (b + 1 - n) % 2
            FG, fg = Hamiltonian(f * g), Hamiltonian(br(F[a], G[b]))
            acc: dict = {}
            Expr.mul_into(acc, fg.expr, one)
            br(G[b], F[a], acc, (-1) ** (fs * gs))
            check(BRACKET_LAWS[0], (a, b), Expr._collect(acc, None))
            check(BRACKET_LAWS[4], (a, b), _off_degree(fg.expr, a + b - n + 1))
            # Without a self block the Darboux rows are the full rows.
            fg_darboux = pstruct.bracket_darboux(F[a], G[b]) if pstruct.self_pairs else fg.expr
            lap_fg = lap(FG)
            acc = {}
            Expr.mul_into(acc, lap_fg, one)
            Expr.mul_into(acc, lap_f[a], g, -1)
            Expr.mul_into(acc, fg_darboux, one, -(-1) ** ((n + 1) * a))
            Expr.mul_into(acc, f, lap_g[b], -(-1) ** a)
            check(LAPLACIAN_LAWS[0], (a, b), Expr._collect(acc, None))
            check(LAPLACIAN_LAWS[2], (a, b), _off_degree(lap_fg, a + b - (n - 1)))
            for c in classes:
                h, hs = H[c].expr, (c + 1 - n) % 2
                acc = {}
                br(F[a], GH[b, c], acc)
                Expr.mul_into(acc, fg.expr, h, -1)
                Expr.mul_into(acc, g, fh[a, c], -(-1) ** (fs * b))
                check(BRACKET_LAWS[1], (a, b, c), Expr._collect(acc, None))
                acc = {}
                br(FG, H[c], acc)
                Expr.mul_into(acc, f, gh[b, c], -1)
                Expr.mul_into(acc, fh[a, c], g, -(-1) ** (b * hs))
                check(BRACKET_LAWS[2], (a, b, c), Expr._collect(acc, None))
                # The Jacobiator is cyclically invariant: on (b, c, a) it is
                # this one with u, v, w renamed.  So it is decided once per
                # cyclic orbit, on its least triple, the first one met.
                if (a, b, c) <= (b, c, a) and (a, b, c) <= (c, a, b):
                    acc = {}
                    br(F[a], gh[b, c], acc, (-1) ** (fs * hs))
                    br(G[b], hf[c, a], acc, (-1) ** (gs * fs))
                    br(H[c], fg, acc, (-1) ** (hs * gs))
                    check(BRACKET_LAWS[3], (a, b, c), Expr._collect(acc, None))

    for k, monos in sorted(fiber_monomials(pstruct.spec, 4).items()):
        if k >= 2 * (n - 1):
            check(LAPLACIAN_LAWS[1], (k,), lap(lap(generic_operand("u", monos))))
    return first
