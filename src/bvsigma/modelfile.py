"""Line-oriented model-definition files and their validating parser.

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

Parsing is validating: ``ModelSpec`` checks the ``[model]`` fields, and its
error is reported at the line of the field it names; index ranges, base
variables (phi1..phid) and symmetry-consistent assignments are checked too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .models import (
    BF,
    CS_BF,
    BfBlock,
    CsBlock,
    ModelError,
    ModelSpec,
    StructureData,
)
from .symalg import ANTISYM, SYM, CPoly, MissingSymbolError, SymGroup


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = "line %d" % line if column is None else "line %d, column %d" % (line, column)
        super().__init__("%s: %s" % (where, message))


def _int(digits: str, line: int, column: Optional[int] = None) -> int:
    """The integer ``digits`` spells; a number longer than Python converts
    (``sys.get_int_max_str_digits``) is a ParseError at its position."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer of %d digits is too long" % len(digits), line, column) from None


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
        if self.peek() == "+":
            self.next()
        acc = self.term()
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
        """A run of unary minuses negates the whole factor, its power
        included, once per minus: ``2*-phi1^2`` is -2*phi1^2."""
        minuses = 0
        while self.peek() == "-":
            self.next()
            minuses += 1
        out = base = self.atom()
        if self.peek() == "^":
            self.next()
            tok, tcol = self.next()
            if not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer", self.line, tcol)
            out, power = CPoly.scalar(1), _int(tok, self.line, tcol)
            while power:  # square and multiply: one product per bit
                if power & 1:
                    out = out * base
                power >>= 1
                if power:
                    base = base * base
        return -out if minuses & 1 else out

    def atom(self) -> CPoly:
        tok, col = self.next()
        if tok == "(":
            inner = self.expr()
            closer, ccol = self.next()
            if closer != ")":
                raise ParseError("expected ')'", self.line, ccol)
            return inner
        if tok.startswith("phi"):
            return CPoly.base(_int(tok[3:], self.line, col + 3))
        if tok.isdigit():
            num = _int(tok, self.line, col)
            if self.peek() == "/":
                self.next()
                den, dcol = self.next()
                den = _int(den, self.line, dcol) if den.isdigit() else 0
                if not den:
                    raise ParseError("invalid rational denominator", self.line, dcol)
                return CPoly.scalar(Fraction(num, den))
            return CPoly.scalar(num)
        raise ParseError("unexpected token %r" % tok, self.line, col)


def parse_poly(text: str, line: int = 1) -> CPoly:
    try:
        return _PolyParser(text, line).parse()
    except RecursionError:  # one level per "(": nesting deeper than Python's stack
        raise ParseError("polynomial nested too deeply", line) from None


# -- model files -------------------------------------------------------------------

_ASSIGN = re.compile(r"^(\w+)\[([\d,\s]*);([\d,\s]*)\]\s*=\s*(.*)$")
_BLOCK = re.compile(r"^block\s+p\s*=\s*(\d+)\s+rank\s*=\s*(\d+)$")
_CS = re.compile(r"^cs\s+rank\s*=\s*(\d+)$")


class ModelFile(NamedTuple):
    spec: ModelSpec
    data: Optional[StructureData]


def _indices(text: str, line: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit():
            raise ParseError("invalid index %r" % piece, line)
        out.append(_int(piece, line))
    return tuple(out)


def parse_model(text: str) -> ModelFile:
    """Parse and validate a model file; raises ParseError with position."""
    section = None
    model: dict = {"flavor": BF}
    lines: dict = {}  # [model] field (as in ModelError.field) -> its line
    blocks: list[BfBlock] = []
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
                lines[len(blocks)] = lineno
                blocks.append(BfBlock(_int(m.group(1), lineno), _int(m.group(2), lineno)))
                continue
            m = _CS.match(line)
            if m:
                if "cs" in lines:
                    raise ParseError("repeated model key 'cs rank'", lineno)
                model["cs"], lines["cs"] = _int(m.group(1), lineno), lineno
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in ("n", "d"):
                value = _int(value, lineno) if value.isdecimal() else 0
                if value < 1:
                    raise ParseError("%s must be a positive integer" % key, lineno)
            elif key == "flavor":
                if value not in (BF, CS_BF):
                    raise ParseError("flavor must be bf or cs_bf", lineno)
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
                value = tuple(rows)
            else:
                raise ParseError("unknown model key %r" % key, lineno)
            if key in lines:
                raise ParseError("repeated model key %r" % key, lineno)
            model[key] = value
            lines[key] = lineno
        elif section == "data":
            m = _ASSIGN.match(line)
            if m is None:
                raise ParseError("expected 'name[lower;upper] = polynomial'", lineno)
            lower, upper = _indices(m.group(2), lineno), _indices(m.group(3), lineno)
            data_lines.append((lineno, m.group(1), lower, upper, m.group(4)))
        else:
            if "=" not in line:
                raise ParseError("expected 'family = antisym|sym lower|upper'", lineno)
            key, _, value = line.partition("=")
            symmetry_lines.append((lineno, key.strip(), value.strip()))

    for required in ("n", "d"):
        if required not in model:
            raise ParseError("missing '%s' in [model] section" % required, 1)

    cs_block = None
    if "cs" in model:
        if "k" not in model:
            raise ParseError("cs block requires a metric line 'k = ...'", lines["cs"])
        cs_block = CsBlock(model["cs"], model["k"])
    elif "k" in model:
        raise ParseError("metric k given without a cs block", lines["k"])
    try:
        spec = ModelSpec(model["n"], model["d"], model["flavor"], tuple(blocks), cs_block)
    except ModelError as exc:
        raise ParseError(str(exc), lines.get(exc.field, 1))

    data = StructureData(spec)
    for lineno, name, kind in symmetry_lines:
        fam = data.families.get(name)
        if fam is None:
            raise ParseError("unknown symbol family %r" % name, lineno)
        parts = kind.split()
        if len(parts) != 2 or parts[0] not in (ANTISYM, SYM) or parts[1] not in ("lower", "upper"):
            raise ParseError("expected 'antisym|sym lower|upper'", lineno)
        slots = fam.lower_blocks if parts[1] == "lower" else fam.upper_blocks
        if SymGroup(parts[0], parts[1], tuple(range(len(slots)))) not in fam.groups:
            message = "family %s does not carry a full %s %s symmetry"
            raise ParseError(message % (name, parts[0], parts[1]), lineno)

    for lineno, name, lower, upper, poly_text in data_lines:
        poly = parse_poly(poly_text, lineno)
        try:
            data.assign(name, lower, upper, poly)
        except (ModelError, MissingSymbolError) as exc:
            raise ParseError(str(exc), lineno)
    return ModelFile(spec, data if data_lines else None)
