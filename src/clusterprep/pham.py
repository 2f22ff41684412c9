"""Line-oriented text format for real Pauli-sum operators (``.pham``).

Layout::

    # optional comment lines
    qubits N
    -1 * Z0 Z1
    2.5 * X3

One term per line: a decimal coefficient, a ``*``, then one or more
factors ``X<q>``, ``Y<q>`` or ``Z<q>``.  Unlisted qubits are identities.
Blank lines and ``#`` comments are allowed anywhere.  Serialization is
canonical (sorted terms, factors by ascending qubit, coefficients in
``%.17g``) so equal operators produce byte-identical documents and
``parse(serialize(op)) == op`` exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .pauli import OperatorSum, PauliString

__all__ = ["PhamError", "OperatorDocument", "parse", "parse_document", "serialize"]

_HEADER_RE = re.compile(r"qubits[ \t]+(\d+)[ \t]*$")
_FACTOR_RE = re.compile(r"([XYZ])(\d+)$")


class PhamError(ValueError):
    """Malformed document; carries 1-based line and column of the fault."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class OperatorDocument:
    """Parsed document: declared width, comment lines, canonical operator."""

    declared_qubits: int
    comments: tuple[str, ...]
    operator: OperatorSum


def _fail(msg: str, lineno: int, col: int):
    raise PhamError(msg, lineno, col)


def parse_document(text: str) -> OperatorDocument:
    """Parse a document, keeping comments for provenance round-trips."""
    comments = []
    declared = None
    terms: list[tuple[float, PauliString]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if declared is None:
            m = _HEADER_RE.match(line)
            if m is None:
                _fail("expected header 'qubits N'", lineno, raw.index(line[0]) + 1)
            declared = int(m.group(1))
            if declared < 1:
                _fail("qubit count must be positive", lineno, raw.index(line[0]) + 1)
            continue
        terms.append(_parse_term(raw, line, lineno, declared))
    if declared is None:
        _fail("missing 'qubits N' header", max(1, text.count("\n") + 1), 1)
    return OperatorDocument(declared, tuple(comments), OperatorSum(declared, terms))


def parse(text: str) -> OperatorSum:
    """Parse a document into a canonical operator sum."""
    return parse_document(text).operator


def _parse_term(raw: str, line: str, lineno: int, declared: int) -> tuple[float, PauliString]:
    offset = raw.index(line[0]) + 1  # 1-based column of first payload char
    head, star, tail = line.partition("*")
    if not star:
        _fail("term line needs 'COEFF * FACTOR...'", lineno, offset)
    coeff_text = head.strip()
    if not coeff_text:
        _fail("missing coefficient", lineno, offset)
    try:
        coeff = float(coeff_text)
    except ValueError:
        _fail(f"bad coefficient {coeff_text!r}", lineno, offset)
    if not math.isfinite(coeff):
        _fail(f"non-finite coefficient {coeff_text!r}", lineno, offset)
    factors = list(re.finditer(r"\S+", tail))
    if not factors:
        star_col = offset + line.index("*")
        _fail("term has no factors", lineno, star_col)
    ops: dict[int, str] = {}
    for factor in factors:
        token, col = factor.group(), offset + len(head) + 1 + factor.start()
        m = _FACTOR_RE.match(token)
        if m is None:
            _fail(f"bad factor {token!r}", lineno, col)
        letter, q_text = m.group(1), m.group(2)
        q = int(q_text)
        if q >= declared:
            _fail(f"qubit index {q} outside declared width {declared}", lineno, col)
        if q in ops:
            _fail(f"qubit {q} repeated within one term", lineno, col)
        ops[q] = letter
    return coeff, PauliString.from_ops(declared, ops)


def serialize(op: OperatorSum, comments: tuple[str, ...] = ()) -> str:
    """Canonical text for an operator sum, optional comment header first."""
    lines = [f"# {c}".rstrip() for c in comments]
    lines.append(f"qubits {op.n_qubits}")
    for coeff, s in op.terms:
        if s.x == 0 and s.z == 0:
            raise ValueError("identity term has no factor syntax")
        factors = " ".join(
            f"{s.letter(q)}{q}" for q in range(op.n_qubits) if (s.x | s.z) >> q & 1
        )
        lines.append(f"{coeff:.17g} * {factors}")
    return "\n".join(lines)
