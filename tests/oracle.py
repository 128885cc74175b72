"""Independent brute-force oracle for the acceptance tests.

A from-scratch Grassmann-polynomial calculator plus direct transcriptions
of the coordinate identity systems, sharing no code with the package under
test.  Variables are small integers; parities live in an explicit table.
Base-variable dependence is a dense exponent tuple.  ``merge_monomials`` and
``perm_sign`` are reference signs for the package's own sort and sign.
"""

from fractions import Fraction
from itertools import product


class GAlg:
    """Polynomial algebra over Q in d base variables and graded fiber
    variables given as {var_id: parity}."""

    def __init__(self, d, parities):
        self.d = d
        self.parities = dict(parities)

    def zero(self):
        return {}

    def term(self, coeff, phi_exps=None, fibers=()):
        phi = tuple(phi_exps or (0,) * self.d)
        sign, fib = self._normalize(tuple(fibers))
        if sign == 0 or coeff == 0:
            return {}
        return {(phi, fib): Fraction(coeff) * sign}

    def _normalize(self, fibers):
        fibers = list(fibers)
        sign = 1
        for i in range(1, len(fibers)):
            j = i
            while j > 0 and fibers[j] < fibers[j - 1]:
                if self.parities[fibers[j]] and self.parities[fibers[j - 1]]:
                    sign = -sign
                fibers[j], fibers[j - 1] = fibers[j - 1], fibers[j]
                j -= 1
        for a, b in zip(fibers, fibers[1:]):
            if a == b and self.parities[a]:
                return 0, ()
        return sign, tuple(fibers)

    def add(self, p, q):
        out = dict(p)
        for key, val in q.items():
            s = out.get(key, Fraction(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return out

    def scale(self, p, c):
        c = Fraction(c)
        return {k: v * c for k, v in p.items()} if c else {}

    def mul(self, p, q):
        out = {}
        for (phi1, fib1), v1 in p.items():
            for (phi2, fib2), v2 in q.items():
                # Sign for interleaving fib2 behind fib1, then normalizing.
                sign, fib = self._normalize(fib1 + fib2)
                if sign == 0:
                    continue
                phi = tuple(a + b for a, b in zip(phi1, phi2))
                key = (phi, fib)
                s = out.get(key, Fraction(0)) + v1 * v2 * sign
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def dphi(self, p, j):
        out = {}
        for (phi, fib), v in p.items():
            if phi[j]:
                new = list(phi)
                new[j] -= 1
                key = (tuple(new), fib)
                s = out.get(key, Fraction(0)) + v * phi[j]
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def left_deriv(self, p, var):
        out = {}
        for (phi, fib), v in p.items():
            sign = 1
            for pos, f in enumerate(fib):
                if f == var:
                    rest = fib[:pos] + fib[pos + 1 :]
                    key = (phi, rest)
                    s = out.get(key, Fraction(0)) + v * sign
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
                if self.parities[var] and self.parities[f]:
                    sign = -sign
        return out

    def right_deriv(self, p, var):
        out = {}
        for (phi, fib), v in p.items():
            sign = 1
            for pos in range(len(fib) - 1, -1, -1):
                f = fib[pos]
                if f == var:
                    rest = fib[:pos] + fib[pos + 1 :]
                    key = (phi, rest)
                    s = out.get(key, Fraction(0)) + v * sign
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
                if self.parities[var] and self.parities[f]:
                    sign = -sign
        return out


def merge_monomials(left, right):
    """Product of two canonical monomials: (sign, canonical monomial).

    A stable merge of the two ascending runs; each odd item of ``right``
    that overtakes k odd items of ``left`` contributes (-1)^k.  Sign is 0
    when an odd item occurs in both.  Repeats inside one run are not looked
    for: a canonical monomial has none.  Works on any items with an order
    and a total ``degree``; an item is odd when ``degree & 1`` is.
    """
    out = []
    sign = 1
    odd_left = sum(1 for u in left if u.degree & 1)
    i, nl = 0, len(left)
    for v in right:
        while i < nl and not v < left[i]:
            u = left[i]
            if u.degree & 1:
                if u == v:
                    return 0, ()
                odd_left -= 1
            out.append(u)
            i += 1
        if odd_left & 1 and v.degree & 1:
            sign = -sign
        out.append(v)
    out.extend(left[i:])
    return sign, tuple(out)


def perm_sign(perm):
    """Sign of a permutation given as a tuple of images, by cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antibracket_full(alg, n, base_pairs, fiber_pairs, self_blocks, f, g):
    """Full bracket: base_pairs = [(phi_index, b_id)], fiber_pairs =
    [(a_id, b_id, p)], self_blocks = [(list_of_ids, k)]."""
    out = alg.zero()
    for j, b_id in base_pairs:
        t1 = alg.mul(alg.dphi(f, j), alg.left_deriv(g, b_id))
        t2 = alg.mul(alg.right_deriv(f, b_id), alg.dphi(g, j))
        out = alg.add(out, alg.add(t1, alg.scale(t2, -1)))
    for a_id, b_id, p in fiber_pairs:
        t1 = alg.mul(alg.right_deriv(f, a_id), alg.left_deriv(g, b_id))
        t2 = alg.mul(alg.right_deriv(f, b_id), alg.left_deriv(g, a_id))
        out = alg.add(out, t1)
        out = alg.add(out, alg.scale(t2, -((-1) ** (n * p))))
    for ids, k in self_blocks:
        for ai, a_id in enumerate(ids):
            for bi, b_id in enumerate(ids):
                if k[ai][bi]:
                    t = alg.mul(alg.right_deriv(f, a_id), alg.left_deriv(g, b_id))
                    out = alg.add(out, alg.scale(t, k[ai][bi]))
    return out


# -- direct identity evaluation on plain commutative polynomials -------------------


def pmul(d, p, q):
    out = {}
    for e1, v1 in p.items():
        for e2, v2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(key, Fraction(0)) + v1 * v2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def padd(p, q):
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pscale(p, c):
    c = Fraction(c)
    return {k: v * c for k, v in p.items()} if c else {}


def pdiff(d, p, j):
    out = {}
    for e, v in p.items():
        if e[j]:
            new = list(e)
            new[j] -= 1
            out[tuple(new)] = out.get(tuple(new), Fraction(0)) + v * e[j]
    return {k: v for k, v in out.items() if v}


def jacobiator(d, f):
    """J^{ijk} = f^{kl} d_l f^{ij} + f^{il} d_l f^{jk} + f^{jl} d_l f^{ki}.

    ``f`` maps (i,j) with i<j to a polynomial dict; antisymmetric extension.
    """

    def fij(i, j):
        if i == j:
            return {}
        if i < j:
            return f.get((i, j), {})
        return pscale(f.get((j, i), {}), -1)

    out = {}
    for i, j, k in product(range(d), repeat=3):
        acc = {}
        for l in range(d):
            acc = padd(acc, pmul(d, fij(k, l), pdiff(d, fij(i, j), l)))
            acc = padd(acc, pmul(d, fij(i, l), pdiff(d, fij(j, k), l)))
            acc = padd(acc, pmul(d, fij(j, l), pdiff(d, fij(k, i), l)))
        out[(i, j, k)] = acc
    return out


def poisson_sigma_bracket_expansion(d, f):
    """(S1,S1) for S1 = 1/2 f^{ij} B_i B_j, via the standalone calculator.

    Returns the Grassmann polynomial in B variables 0..d-1 (all odd).
    """
    alg = GAlg(d, {v: 1 for v in range(d)})
    s1 = alg.zero()
    for (i, j), poly in f.items():
        for e, c in poly.items():
            s1 = alg.add(s1, alg.term(c, e, (i, j)))
    return antibracket_full(alg, 2, [(j, j) for j in range(d)], [], [], s1, s1)
