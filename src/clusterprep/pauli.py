"""Exact symbolic algebra for sums of Pauli strings on n qubits.

A Pauli string is stored as a pair of integer bitmasks ``(x, z)`` with
qubit q living on bit q, plus a global phase exponent k meaning i**k.
The letter on qubit q is

    (x_q, z_q) = (0,0) -> I    (1,0) -> X    (0,1) -> Z    (1,1) -> Y

and a phase-free string realizes the plain tensor product of those
Hermitian matrices (the i in Y = i X Z belongs to the letter, not to
the stored phase).  Products of two strings are computed exactly: the
result masks are XORs and the phase exponent is integer arithmetic, so
cancellations in commutators are exact rather than approximate.

Basis-state indexing is little-endian: basis state ``|b>`` has qubit q
in ``|1>`` iff bit q of ``b`` is set, and ``|0>`` is the +1 eigenstate
of Z.

Conserved checks are found and fixed with GF(2) null spaces alone:
`conserved_checks` finds them from an operator's terms, and with a
destabilizer per check and logical pairs they form one basis of strings
(Aaronson & Gottesman, PRA 70, 052328 (2004)).  Read off by symplectic
products, a term's coordinates in it rewrite an operator exactly in a
Clifford frame where each check is a single-qubit Z.  `check_blocks`
gives its dense check-sector blocks, all of them or one sector's, and
`check_basis` the frame's basis, with no full-space Pauli matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "PauliString",
    "OperatorSum",
    "multiply",
    "commutator_terms",
    "commutator_is_zero",
    "conserved_checks",
    "check_blocks",
    "check_basis",
    "to_dense",
    "COEFF_CUTOFF",
    "DENSE_QUBIT_LIMIT",
]

# Coefficients with |c| below this are dropped after merging terms; the
# tolerance only absorbs float noise from merging, never model content.
COEFF_CUTOFF = 1e-14

# Dense realizations refuse above the 4^12 entries of one matrix on this many qubits.
DENSE_QUBIT_LIMIT = 12

_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@dataclass(frozen=True)
class PauliString:
    """A single Pauli string with an overall power-of-i phase."""

    n_qubits: int
    x: int = 0
    z: int = 0
    phase: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bitmask exceeds qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def from_label(cls, label: Sequence[str], phase: int = 0) -> "PauliString":
        """Build from a string or list of letters, qubit 0 leftmost (e.g. ``"XIZY"``)."""
        x = z = 0
        for q, letter in enumerate(label):
            try:
                bx, bz = _BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= bx << q
            z |= bz << q
        return cls(len(label), x, z, phase)

    @classmethod
    def from_ops(cls, n_qubits: int, ops: Mapping[int, str], phase: int = 0) -> "PauliString":
        """Build from a ``{qubit: letter}`` mapping, identities elsewhere."""
        label = ["I"] * n_qubits
        for q, letter in ops.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit index {q} outside 0..{n_qubits - 1}")
            label[q] = letter
        return cls.from_label(label, phase)

    @property
    def letters(self) -> str:
        return "".join(
            _LETTERS[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n_qubits)
        )

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def letter(self, q: int) -> str:
        return _LETTERS[((self.x >> q) & 1, (self.z >> q) & 1)]

    def phase_value(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase]

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase] + self.letters

    def __repr__(self) -> str:
        return f"PauliString({self.letters!r}, phase={self.phase})"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a*b with the accumulated power-of-i phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    cx = a.x ^ b.x
    cz = a.z ^ b.z
    # i-exponent bookkeeping for (i^xz X^x Z^z) factors: each operand
    # contributes its own Y count, commuting Z^za past X^xb gives a sign,
    # and the product's own Y count is removed again.
    k = (
        a.phase
        + b.phase
        + (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (cx & cz).bit_count()
    )
    return PauliString(a.n_qubits, cx, cz, k % 4)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute (symplectic form is even)."""
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


class OperatorSum:
    """A real-coefficient sum of phase-free Pauli strings, kept canonical.

    Canonical form: term strings carry phase 0, terms are merged, sorted
    lexicographically by (z-mask, x-mask), and coefficients with
    ``|c| < COEFF_CUTOFF`` are dropped.  Real coefficients on phase-free
    strings guarantee a Hermitian dense realization.  A merged
    coefficient that is not finite, such as an overflowing product of a
    coupling and a coefficient, raises FloatingPointError.  The hash
    is computed once, here: the caches keyed by operators hash them on
    every lookup.
    """

    __slots__ = ("n_qubits", "terms", "_hash")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString]] = ()):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        acc: dict[tuple[int, int], float] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError("qubit count mismatch in term")
            c = complex(coeff) * string.phase_value()
            if abs(c.imag) > COEFF_CUTOFF * max(1.0, abs(c.real)):
                raise ValueError("term folds to a non-real coefficient")
            key = (string.z, string.x)
            acc[key] = acc.get(key, 0.0) + c.real
        canon = []
        for (z, x) in sorted(acc):
            c = acc[(z, x)]
            if not math.isfinite(c):
                raise FloatingPointError(f"coefficient {c!r} of a term is not finite")
            if abs(c) >= COEFF_CUTOFF:
                canon.append((c, PauliString(n_qubits, x, z)))
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "terms", tuple(canon))
        object.__setattr__(self, "_hash", hash((n_qubits, tuple((c, s.x, s.z) for c, s in canon))))

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSum is immutable")

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, string: PauliString) -> float:
        for c, s in self.terms:
            if s.x == string.x and s.z == string.z:
                return c
        return 0.0

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        return OperatorSum(self.n_qubits, list(self.terms) + list(other.terms))

    def __sub__(self, other: "OperatorSum") -> "OperatorSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "OperatorSum":
        return OperatorSum(self.n_qubits, [(scalar * c, s) for c, s in self.terms])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and all(
            ca == cb and sa.x == sb.x and sa.z == sb.z
            for (ca, sa), (cb, sb) in zip(self.terms, other.terms)
        ) and len(self.terms) == len(other.terms)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        body = " ".join(f"{c:+g}*{s.letters}" for c, s in self.terms[:4])
        more = "" if self.n_terms <= 4 else f" ... ({self.n_terms} terms)"
        return f"OperatorSum({self.n_qubits} qubits: {body}{more})"


def commutator_terms(a: OperatorSum, b: OperatorSum) -> tuple[tuple[complex, PauliString], ...]:
    """Symbolic commutator [a, b] as merged (complex coeff, string) terms.

    Coefficients that must cancel do so exactly (identical float products
    subtracted), so a vanishing commutator comes out with no terms at all.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    acc: dict[tuple[int, int], complex] = {}
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            ab = multiply(sa, sb)
            ba = multiply(sb, sa)
            # same masks either way; phases differ by 2 iff they anticommute
            coeff = ca * cb * (ab.phase_value() - ba.phase_value())
            if coeff == 0:
                continue
            key = (ab.z, ab.x)
            acc[key] = acc.get(key, 0.0) + coeff
    out = []
    for (z, x) in sorted(acc):
        c = acc[(z, x)]
        if abs(c) >= COEFF_CUTOFF:
            out.append((c, PauliString(a.n_qubits, x, z)))
    return tuple(out)


def commutator_is_zero(a: OperatorSum, b: OperatorSum) -> tuple[bool, float]:
    """Whether [a, b] vanishes exactly, plus the residual 1-norm.

    Returns ``(flag, residual)`` where residual is the sum of absolute
    values of the surviving commutator coefficients (0.0 for an exact
    symbolic zero).
    """
    terms = commutator_terms(a, b)
    residual = float(sum(abs(c) for c, _ in terms))
    return residual == 0.0, residual


def _gf2_null_space(rows: Iterable[int], width: int) -> list[int]:
    """Basis of the GF(2) null space of bit-vector rows of ``width`` bits.

    Rows are brought to reduced echelon form (each pivot bit set in its
    own row only); one null vector per free bit, in ascending bit order.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        for bit, pivot_row in pivots.items():
            if (row >> bit) & 1:
                row ^= pivot_row
        if not row:
            continue
        lead = row.bit_length() - 1
        for bit, pivot_row in pivots.items():
            if (pivot_row >> lead) & 1:
                pivots[bit] = pivot_row ^ row
        pivots[lead] = row
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = 1 << free
        for bit, pivot_row in pivots.items():
            if (pivot_row >> free) & 1:
                vec |= 1 << bit
        basis.append(vec)
    return basis


def _anticommute(u: int, w: int, n: int) -> int:
    """Symplectic product of two strings encoded as ``x | z << n``."""
    mask = (1 << n) - 1
    return ((u & mask & (w >> n)).bit_count() + ((u >> n) & w & mask).bit_count()) & 1


def _symplectic_pairs(vectors: Sequence[int], n: int) -> list[tuple[int, Optional[int]]]:
    """Symplectic Gram-Schmidt pass over strings encoded as ``x | z << n``.

    Vectors are taken in order; each either finds an anticommuting
    partner among the rest (the pair is split off and the rest made to
    commute with both) or commutes with all of them (a center vector).
    Returns ``(vector, partner or None)`` in that order.
    """
    rest = list(vectors)
    out = []
    while rest:
        v = rest.pop(0)
        partner = next((i for i, w in enumerate(rest) if _anticommute(v, w, n)), None)
        w = None
        if partner is not None:
            w = rest.pop(partner)
            rest = [u ^ (w if _anticommute(u, v, n) else 0) ^ (v if _anticommute(u, w, n) else 0) for u in rest]
        out.append((v, w))
    return out


def _string(v: int, n: int) -> PauliString:
    return PauliString(n, v & ((1 << n) - 1), v >> n)


def conserved_checks(ops: Sequence[OperatorSum]) -> list[PauliString]:
    """Independent, mutually commuting Pauli strings that commute with every term.

    A string (a, b) commutes with a term (x, z) iff a.z + b.x = 0 mod 2,
    so the strings commuting with all terms of ``ops`` are the GF(2)
    null space of the terms' symplectic (z | x) rows.  A symplectic
    Gram-Schmidt pass over that null space splits it into anticommuting
    pairs and a center; the center plus one string of each pair is a
    maximal commuting set.  Each returned string is conserved by any
    real combination of ``ops``.
    """
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n_qubits
    if any(op.n_qubits != n for op in ops):
        raise ValueError("qubit count mismatch")
    rows = {s.z | (s.x << n) for op in ops for _, s in op.terms}
    return [_string(v, n) for v, _ in _symplectic_pairs(_gf2_null_space(sorted(rows), 2 * n), n)]


def _product(strings: Iterable[PauliString], n: int) -> PauliString:
    """Exact ordered product, the identity for no strings."""
    return functools.reduce(multiply, strings, PauliString(n))


def _frame(checks: Sequence[PauliString], n: int):
    """Destabilizers D_j and logical pairs (Xbar_l, Zbar_l) completing the k validated checks to a basis.

    D_j anticommutes with check j alone among the checks and logicals
    (Aaronson & Gottesman, PRA 70, 052328 (2004); here the D_j may
    anticommute with each other).  With a tag bit on each (z | x) row,
    free tag bit j's null vector is D_j tagged j alone, and a check with
    a bound tag bit depends on the checks before it.
    """
    if any(c.n_qubits != n for c in checks):
        raise ValueError("qubit count mismatch")
    if any(c.phase for c in checks):
        raise ValueError("checks must be phase-free")
    for c1, c2 in itertools.combinations(checks, 2):
        if not commutes(c1, c2):
            raise ValueError(f"checks {c1.letters} and {c2.letters} anticommute")
    centralizer = _gf2_null_space([c.z | (c.x << n) for c in checks], 2 * n)
    logicals = [(_string(v, n), _string(w, n)) for v, w in _symplectic_pairs(centralizer, n) if w is not None]
    rows = [s.z | (s.x << n) for s in [*checks, *itertools.chain(*logicals)]]
    m = len(rows)
    null = _gf2_null_space([(1 << i) | (row << m) for i, row in enumerate(rows)], m + 2 * n)
    # null vectors come in ascending free bit, each with no lower bit set
    for j, check in enumerate(checks):
        if not (null[j] >> j) & 1:
            raise ValueError(f"check {check.letters} depends on the others")
    return [_string(v >> m, n) for v in null[: len(checks)]], logicals


def _frame_image(op: OperatorSum, checks: Sequence[PauliString], destabilizers, logicals) -> OperatorSum:
    """``op`` in a Clifford frame where check j acts as Z on qubit n - k + j.

    ``destabilizers`` and ``logicals`` are the `_frame` of the k
    ``checks``, and every term of ``op`` must commute with all of them
    (ValueError otherwise).  Logical pairs (Xbar_l, Zbar_l) map to
    (X_l, Z_l) on the low n - k qubits.  Each term is factored exactly as
    i^m (product of checks a) Xbar^b Zbar^c, where a_j, b_l and c_l say
    whether it anticommutes with D_j, Zbar_l and Xbar_l, and maps to
    i^m Z^a X^b Z^c, so the map is conjugation by a Clifford and
    involves no rounding.  The image's dense matrix is block diagonal:
    the block at offset 2^(n-k) * a belongs to the sign pattern where
    check j has eigenvalue (-1)^(bit j of a) (Bravyi, Gambetta,
    Mezzacapo & Temme, arXiv:1701.08213).
    """
    n, k = op.n_qubits, len(checks)
    low = n - k
    terms = []
    for coeff, s in op.terms:
        broken = next((c for c in checks if not commutes(s, c)), None)
        if broken is not None:
            raise ValueError(f"term {s.letters} does not commute with check {broken.letters}")
        a = sum(1 << j for j, d in enumerate(destabilizers) if not commutes(s, d))
        b = sum(1 << l for l, (_, zbar) in enumerate(logicals) if not commutes(s, zbar))
        c = sum(1 << l for l, (xbar, _) in enumerate(logicals) if not commutes(s, xbar))
        logical = _product(
            [xbar for l, (xbar, _) in enumerate(logicals) if (b >> l) & 1]
            + [zbar for l, (_, zbar) in enumerate(logicals) if (c >> l) & 1],
            n,
        )
        # s = i^-q (checks in a) * logical, with q the phase of that product
        q = multiply(_product([checks[j] for j in range(k) if (a >> j) & 1], n), logical).phase
        # the image Z^a X^b Z^c: X Z = -iY on each qubit where b and c overlap
        terms.append((coeff, PauliString(n, b, (a << low) | c, -(b & c).bit_count() - q)))
    return OperatorSum(n, terms)


def check_blocks(ops: Sequence[OperatorSum], checks: Sequence[PauliString], sector: Optional[int] = None) -> np.ndarray:
    """Each op's diagonal blocks in the k checks' frame (`_frame_image`): (len(ops), 2^k, d, d).

    Block a belongs to the sign pattern where check j has eigenvalue
    (-1)^(bit j of a), so the all-+1 sector comes first; a ``sector``
    builds block ``sector`` alone, as (len(ops), 1, d, d).  No full-space
    matrix is formed; refuses above 4^DENSE_QUBIT_LIMIT entries in the
    blocks built, and checks that are dependent, anticommuting or phased.
    """
    if not ops:
        raise ValueError("need at least one operator")
    k = len(checks)
    if sector is not None and not 0 <= sector < 1 << k:
        raise ValueError(f"sector {sector} outside 0..{(1 << k) - 1}")
    sectors = range(1 << k) if sector is None else [sector]
    frame = _frame(checks, ops[0].n_qubits)
    return np.stack([_dense_blocks(_frame_image(op, checks, *frame), k, sectors) for op in ops])


def check_basis(n_qubits: int, checks: Sequence[PauliString]) -> np.ndarray:
    """Unitary V whose column i is the state that the checks' Clifford frame maps to |i>.

    So V^dagger to_dense(op) V has the diagonal blocks of `check_blocks`.
    V is fixed up to a phase per check sector, which cancels in
    V_a u V_a^dagger.  Column 0 is the joint +1 eigenstate of the checks
    and the Zbar_l; column b + 2^(n-k) a applies Xbar^b, then D^a, from
    `_frame`: D_j anticommutes with check j alone among the checks and
    logicals.  Entries are exact up to column 0's normalization.
    Strings act as signed row permutations, with no dense Pauli matrix;
    V has 4^n entries, so n > DENSE_QUBIT_LIMIT is refused (ValueError).
    """
    n = n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"check basis of {n} qubits exceeds limit {DENSE_QUBIT_LIMIT}")
    destabilizers, logicals = _frame(checks, n)
    xbars, zbars = [xbar for xbar, _ in logicals], [zbar for _, zbar in logicals]

    def apply(s: PauliString, m: np.ndarray) -> np.ndarray:  # s @ m: row r is factor(r ^ x) * m[r ^ x]
        image, factor = _action(s.x, s.z, np.arange(len(m), dtype=np.int64))
        return factor[image, None] * m[image]
    strings = [*checks, *zbars, *xbars, *destabilizers]
    # (I + g) keeps v in the +1 eigenspace of the stabilizers before g; where it
    # annihilates v, g's partner (which anticommutes with g alone among them)
    # moves v into g's +1 eigenspace instead, so v ends proportional to psi,
    # its entries one power of 2 times 1, -1, i or -i on psi's support
    v = np.zeros((1 << n, 1), dtype=complex)
    v[0] = 1.0
    for g, partner in zip(strings[:n], [*destabilizers, *xbars]):
        w = v + apply(g, v)
        v = w if w.any() else apply(partner, v)
    basis = v / np.linalg.norm(v)
    for g in strings[n:]:
        basis = np.concatenate([basis, apply(g, basis)], axis=1)
    return basis


def _action(x: int, z: int, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the phase-free string (x, z) sends each basis index c in ``cols``, and with what factor.

    |c> goes to i^popcount(x & z) (-1)^popcount(c & z) |c ^ x>; the factors are float64 for a real string.
    """
    y = (x & z).bit_count()
    factor = (1 - 2 * ((y >> 1) & 1)) * (1.0 - 2.0 * (np.bitwise_count(cols & z) & 1))
    return cols ^ x, factor * 1j if y & 1 else factor


def _dense_blocks(op: OperatorSum, k: int, sectors: Sequence[int]) -> np.ndarray:
    """Diagonal blocks ``sectors`` of ``op``'s `to_dense` matrix, each 2^(n-k) wide: (len(sectors), d, d).

    Row and column i d + c of the result are index c of block sectors[i]: every term's x must stay
    below the top k qubits, so that it keeps each column in its block.  Entries that overflow raise
    FloatingPointError.
    """
    low = op.n_qubits - k
    if 4**low * len(sectors) > 4**DENSE_QUBIT_LIMIT:
        raise ValueError(f"dense realization of {len(sectors)} block(s) on {low} qubits exceeds limit {DENSE_QUBIT_LIMIT}")
    positions = np.arange(len(sectors) << low, dtype=np.int64)
    block_cols = positions & ((1 << low) - 1)
    cols = block_cols | np.repeat(np.asarray(sectors, dtype=np.int64) << low, 1 << low)
    real = all((s.x & s.z).bit_count() % 2 == 0 for _, s in op.terms)
    out = np.zeros((len(positions), 1 << low), dtype=np.float64 if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        for coeff, s in op.terms:
            _, factor = _action(s.x, s.z, cols)
            out[positions ^ s.x, block_cols] += coeff * factor
    if not np.isfinite(out).all():
        raise FloatingPointError(f"dense entries of {op!r} are not finite")
    return out.reshape(len(sectors), 1 << low, 1 << low)


def to_dense(op: OperatorSum) -> np.ndarray:
    """Dense Hermitian matrix of an operator sum.

    Refuses when ``op.n_qubits > DENSE_QUBIT_LIMIT``; the result is real
    float64 when every term realizes a real matrix (even number of Y
    letters), complex128 otherwise.
    """
    return _dense_blocks(op, 0, [0])[0]
