"""Line-oriented model-definition files: parser and canonical printer.

A model file has sections ``[model]``, optional ``[data]`` and optional
``[symmetry]``.  Polynomial literals use phi1, phi2, ... with ``+ - * ^``,
integer or rational coefficients and parentheses.  Example::

    [model]
    n = 2
    d = 3
    flavor = bf

    [data]
    f1[;1,2] = phi3
    f1[;1,3] = -phi2
    f1[;2,3] = phi1

Parsing is validating: block ranges, metric shape and symmetry, index
ranges, base variables (phi1..phid) and symmetry-consistent assignments are
all checked with line-numbered diagnostics.  ``parse(print(parse(x)))`` equals ``parse(x)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .models import (
    BF,
    CS_BF,
    BfBlock,
    CsBlock,
    ModelError,
    ModelSpec,
    StructureData,
)
from .symalg import ANTISYM, SYM, CPoly


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = "line %d" % line if column is None else "line %d, column %d" % (line, column)
        super().__init__("%s: %s" % (where, message))


# -- polynomial literals -----------------------------------------------------------

_TOKEN = re.compile(r"\s*(phi\d+|\d+|[()+\-*/^])")


class _PolyParser:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError(
                        "unexpected character %r in polynomial" % text[pos:].strip()[0],
                        line,
                        pos + 1,
                    )
                break
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of polynomial", self.line, len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> CPoly:
        poly = self.expr()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError("unexpected %r after polynomial" % tok, self.line, col)
        return poly

    def expr(self) -> CPoly:
        negate = False
        if self.peek() == "-":
            self.next()
            negate = True
        elif self.peek() == "+":
            self.next()
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> CPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = acc * self.factor()
        return acc

    def factor(self) -> CPoly:
        base = self.atom()
        if self.peek() == "^":
            _, col = self.next()
            tok, tcol = self.next()
            if not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer", self.line, tcol)
            power = int(tok)
            out = CPoly.scalar(1)
            for _ in range(power):
                out = out * base
            return out
        return base

    def atom(self) -> CPoly:
        tok, col = self.next()
        if tok == "(":
            inner = self.expr()
            closer, ccol = self.next()
            if closer != ")":
                raise ParseError("expected ')'", self.line, ccol)
            return inner
        if tok == "-":
            return -self.atom()
        if tok.startswith("phi"):
            return CPoly.base(int(tok[3:]))
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.next()
                den, dcol = self.next()
                if not den.isdigit() or int(den) == 0:
                    raise ParseError("invalid rational denominator", self.line, dcol)
                return CPoly.scalar(Fraction(num, int(den)))
            return CPoly.scalar(num)
        raise ParseError("unexpected token %r" % tok, self.line, col)


def parse_poly(text: str, line: int = 1) -> CPoly:
    return _PolyParser(text, line).parse()


# -- model files -------------------------------------------------------------------

_ASSIGN = re.compile(r"^(\w+)\[([\d,\s]*);([\d,\s]*)\]\s*=\s*(.*)$")
_BLOCK = re.compile(r"^block\s+p\s*=\s*(\d+)\s+rank\s*=\s*(\d+)$")
_CS = re.compile(r"^cs\s+rank\s*=\s*(\d+)$")


@dataclass
class ModelFile:
    spec: ModelSpec
    data: Optional[StructureData]

    def __eq__(self, other):
        if not isinstance(other, ModelFile):
            return NotImplemented
        mine = None if self.data is None else sorted(self.data.values.items())
        theirs = None if other.data is None else sorted(other.data.values.items())
        return self.spec == other.spec and mine == theirs


def _indices(text: str, line: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit():
            raise ParseError("invalid index %r" % piece, line)
        out.append(int(piece))
    return tuple(out)


def parse_model(text: str) -> ModelFile:
    """Parse and validate a model file; raises ParseError with position."""
    section = None
    model: dict = {"bf_blocks": [], "k_rows": None, "cs_rank": None}
    data_lines: list[tuple[int, str, tuple, tuple, str]] = []
    symmetry_lines: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[model]", "[data]", "[symmetry]"):
                raise ParseError("unknown section %s" % line, lineno)
            section = line[1:-1]
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)
        if section == "model":
            m = _BLOCK.match(line)
            if m:
                model["bf_blocks"].append((lineno, int(m.group(1)), int(m.group(2))))
                continue
            m = _CS.match(line)
            if m:
                model["cs_rank"] = (lineno, int(m.group(1)))
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in ("n", "d"):
                if not value.isdigit():
                    raise ParseError("%s must be a positive integer" % key, lineno)
                model[key] = int(value)
            elif key == "flavor":
                if value not in (BF, CS_BF):
                    raise ParseError("flavor must be bf or cs_bf", lineno)
                model["flavor"] = value
            elif key == "k":
                rows = []
                for row_text in value.split(";"):
                    row = []
                    for entry in row_text.split():
                        try:
                            row.append(Fraction(entry))
                        except (ValueError, ZeroDivisionError):
                            raise ParseError("invalid metric entry %r" % entry, lineno)
                    rows.append(tuple(row))
                model["k_rows"] = (lineno, tuple(rows))
            else:
                raise ParseError("unknown model key %r" % key, lineno)
        elif section == "data":
            m = _ASSIGN.match(line)
            if m is None:
                raise ParseError("expected 'name[lower;upper] = polynomial'", lineno)
            name = m.group(1)
            lower = _indices(m.group(2), lineno)
            upper = _indices(m.group(3), lineno)
            data_lines.append((lineno, name, lower, upper, m.group(4)))
        else:
            if "=" not in line:
                raise ParseError("expected 'family = antisym|sym lower|upper'", lineno)
            key, _, value = line.partition("=")
            symmetry_lines.append((lineno, key.strip(), value.strip()))

    for required in ("n", "d"):
        if required not in model:
            raise ParseError("missing '%s' in [model] section" % required, 1)

    flavor = model.get("flavor", BF)
    cs_block = None
    if model["cs_rank"] is not None:
        lineno, rank = model["cs_rank"]
        if model["k_rows"] is None:
            raise ParseError("cs block requires a metric line 'k = ...'", lineno)
        krow_line, rows = model["k_rows"]
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise ParseError("metric k must be %dx%d" % (rank, rank), krow_line)
        cs_block = CsBlock(rank, rows)
    elif model["k_rows"] is not None:
        raise ParseError("metric k given without a cs block", model["k_rows"][0])

    try:
        spec = ModelSpec(
            n=model["n"],
            d=model["d"],
            flavor=flavor,
            bf_blocks=tuple(BfBlock(p, r) for _, p, r in model["bf_blocks"]),
            cs_block=cs_block,
        )
    except ModelError as exc:
        where = model["bf_blocks"][0][0] if model["bf_blocks"] else 1
        if cs_block is not None and "odd n" in str(exc):
            where = model["cs_rank"][0]
        raise ParseError(str(exc), where)

    data = StructureData(spec)
    for lineno, name, kind in symmetry_lines:
        fam = data.families.get(name)
        if fam is None:
            raise ParseError("unknown symbol family %r" % name, lineno)
        parts = kind.split()
        if len(parts) != 2 or parts[0] not in (ANTISYM, SYM) or parts[1] not in ("lower", "upper"):
            raise ParseError("expected 'antisym|sym lower|upper'", lineno)
        slots = fam.lower_blocks if parts[1] == "lower" else fam.upper_blocks
        declared = [
            g
            for g in fam.groups
            if g.variance == parts[1] and len(g.slots) == len(slots) and g.kind == parts[0]
        ]
        if len(slots) < 2 or not declared:
            raise ParseError(
                "family %s does not carry a full %s %s symmetry"
                % (name, parts[0], parts[1]),
                lineno,
            )

    for lineno, name, lower, upper, poly_text in data_lines:
        poly = parse_poly(poly_text, lineno)
        try:
            data.assign(name, lower, upper, poly)
        except (ModelError, KeyError) as exc:
            raise ParseError(str(exc), lineno)
    return ModelFile(spec, data if data_lines else None)


def print_model(mf: ModelFile) -> str:
    """Canonical text form; stable under parse-print round trips."""
    spec = mf.spec
    lines = ["[model]", "n = %d" % spec.n, "d = %d" % spec.d, "flavor = %s" % spec.flavor]
    for blk in sorted(spec.bf_blocks, key=lambda b: b.p):
        lines.append("block p=%d rank=%d" % (blk.p, blk.rank))
    if spec.cs_block is not None:
        lines.append("cs rank=%d" % spec.cs_block.rank)
        lines.append(
            "k = " + " ; ".join(" ".join(str(x) for x in row) for row in spec.cs_block.metric)
        )
    if mf.data is not None and mf.data.values:
        lines.append("")
        lines.append("[data]")
        for (name, lower, upper), poly in mf.data.items():
            lines.append(
                "%s[%s;%s] = %s"
                % (
                    name,
                    ",".join(map(str, lower)),
                    ",".join(map(str, upper)),
                    str(poly),
                )
            )
    return "\n".join(lines) + "\n"
