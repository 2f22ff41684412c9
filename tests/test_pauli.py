"""Exactness tests for the bitmask Pauli algebra.

The whole point of the symbolic layer is that products and commutators
are integer arithmetic, so cancellations are exact.  Most assertions
here are equalities, not tolerances.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from clusterprep.analysis import plaquette_parts
from clusterprep.models import (
    build_chain_1d,
    build_lattice_2d,
    build_plaquette_3d,
    stabilizer_3d_local,
    stabilizers_1d,
)
from clusterprep.pauli import (
    COEFF_CUTOFF,
    OperatorSum,
    PauliString,
    _frame,
    check_basis,
    check_blocks,
    commutator_is_zero,
    commutator_terms,
    commutes,
    conserved_checks,
    multiply,
    to_dense,
)
from oracles import kron_matrix, projected_levels


def string_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of one Pauli string, phase included, from its bit masks."""
    dim = 1 << p.n_qubits
    cols = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(cols & p.z) & 1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[cols ^ p.x, cols] = p.phase_value() * (1j) ** ((p.x & p.z).bit_count()) * signs
    return mat


def random_string(rng, n: int) -> PauliString:
    mask = (1 << n) - 1
    while True:
        x = int(rng.integers(0, mask + 1))
        z = int(rng.integers(0, mask + 1))
        if x or z:
            return PauliString(n, x, z)


def test_single_qubit_products():
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    z = PauliString.from_label("Z")
    # XY = iZ, YX = -iZ, ZX = iY, XZ = -iY, YZ = iX
    assert multiply(x, y) == PauliString(1, 0, 1, 1)
    assert multiply(y, x) == PauliString(1, 0, 1, 3)
    assert multiply(z, x) == PauliString(1, 1, 1, 1)
    assert multiply(x, z) == PauliString(1, 1, 1, 3)
    assert multiply(y, z) == PauliString(1, 1, 0, 1)
    for p in (x, y, z):
        assert multiply(p, p) == PauliString(1)


def test_two_qubit_product_phase():
    a = PauliString.from_ops(2, {0: "X", 1: "Z"})
    b = PauliString.from_ops(2, {0: "Z", 1: "Z"})
    prod = multiply(a, b)
    assert prod.letters == "YI"
    assert prod.phase_value() == -1j


def test_product_matches_dense(seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a = random_string(rng, n)
        b = random_string(rng, n)
        lhs = string_matrix(multiply(a, b))
        rhs = string_matrix(a) @ string_matrix(b)
        assert np.abs(lhs - rhs).max() == 0.0


def test_string_matrix_matches_kron(seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s = random_string(rng, n)
        np.testing.assert_array_equal(string_matrix(s), kron_matrix(s.letters))


def test_commutes_matches_dense(seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        a = random_string(rng, 3)
        b = random_string(rng, 3)
        ma, mb = string_matrix(a), string_matrix(b)
        dense_commute = np.abs(ma @ mb - mb @ ma).max() == 0.0
        assert commutes(a, b) == dense_commute


def test_phase_free_strings_are_hermitian(seed=17):
    # the i of Y = iXZ lives in the letter, so phase 0 means Hermitian
    rng = np.random.default_rng(seed)
    for _ in range(30):
        m = string_matrix(random_string(rng, 4))
        assert np.abs(m - m.conj().T).max() == 0.0


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(0)
    with pytest.raises(ValueError):
        PauliString(2, x=4)  # bit 2 outside two qubits
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_ops(2, {3: "X"})
    assert PauliString(1, 1, 0, phase=7).phase == 3  # folded mod 4


@pytest.mark.parametrize("build", [lambda: PauliString.from_label("XW"), lambda: PauliString.from_ops(4, {0: "W"})])
def test_unknown_letter_is_a_value_error_from_label_and_ops(build):
    with pytest.raises(ValueError, match="unknown Pauli letter 'W'"):
        build()


def test_from_label_letters_round_trip():
    s = PauliString.from_label("XIZY")
    assert s.letters == "XIZY"
    assert s.weight == 3
    assert s.letter(1) == "I"
    assert str(PauliString(1, 1, 1, 1)) == "+iY"


def test_operator_sum_merges_and_sorts():
    zz = PauliString.from_label("ZZ")
    xi = PauliString.from_label("XI")
    op = OperatorSum(2, [(0.5, zz), (2.0, xi), (0.75, zz)])
    assert op.n_terms == 2
    assert op.coefficient(zz) == 1.25
    assert op.coefficient(xi) == 2.0
    # canonical order is by (z-mask, x-mask): XI has z=0 and sorts first
    assert [s.letters for _, s in op.terms] == ["XI", "ZZ"]


def test_operator_sum_drops_cancelled_terms():
    z = PauliString.from_label("Z")
    op = OperatorSum(1, [(1.0, z), (-1.0, z)])
    assert op.n_terms == 0
    tiny = OperatorSum(1, [(COEFF_CUTOFF / 10, z)])
    assert tiny.n_terms == 0


def test_operator_sum_folds_phase_into_coefficient():
    z_neg = PauliString(1, 0, 1, phase=2)  # -Z
    op = OperatorSum(1, [(3.0, z_neg)])
    assert op.coefficient(PauliString(1, 0, 1)) == -3.0
    with pytest.raises(ValueError, match="non-real"):
        OperatorSum(1, [(1.0, PauliString(1, 0, 1, phase=1))])


def test_operator_sum_arithmetic_and_immutability():
    z = PauliString.from_label("Z")
    x = PauliString.from_label("X")
    a = OperatorSum(1, [(1.0, z), (2.0, x)])
    b = OperatorSum(1, [(1.0, z)])
    assert (a - a).n_terms == 0
    assert (a + b).coefficient(z) == 2.0
    assert (2.0 * a).coefficient(x) == 4.0
    assert a == OperatorSum(1, [(2.0, x), (1.0, z)])
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(ValueError):
        a + OperatorSum(2)


def test_equal_operator_sums_hash_equal_and_keep_their_hash():
    z, x = PauliString.from_label("ZI"), PauliString.from_label("IX")
    a = OperatorSum(2, [(1.0, z), (2.0, x)])
    # built in another order, from merged terms and by arithmetic: the same canonical sum
    for b in (OperatorSum(2, [(2.0, x), (1.0, z)]), OperatorSum(2, [(1.0, x), (1.0, z), (1.0, x)]), a + OperatorSum(2)):
        assert b == a and b is not a and hash(b) == hash(a)
    assert {a: 1}[OperatorSum(2, [(2.0, x), (1.0, z)])] == 1
    assert hash(a) == hash((2, tuple((c, s.x, s.z) for c, s in a.terms)))
    for name in ("_hash", "terms", "n_qubits", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    assert hash(a) == hash(OperatorSum(2, [(1.0, z), (2.0, x)]))


def test_non_finite_coefficients_and_entries_are_refused():
    z, zz = PauliString.from_label("ZI"), PauliString.from_label("ZZ")
    huge = OperatorSum(2, [(1e308, z), (1e308, zz)])
    with pytest.raises(FloatingPointError, match="not finite"):
        10.0 * huge  # an overflowing product of coupling and coefficient
    with pytest.raises(FloatingPointError, match="not finite"):
        OperatorSum(2, [(1e308, z), (1e308, z), (-1e308, zz)])  # an overflowing merge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="not finite"):
            to_dense(huge)  # finite coefficients, but |00> gets 2e308


def test_commutator_of_single_strings():
    a = OperatorSum(1, [(1.0, PauliString.from_label("X"))])
    b = OperatorSum(1, [(1.0, PauliString.from_label("Z"))])
    terms = commutator_terms(a, b)
    assert len(terms) == 1
    coeff, s = terms[0]
    assert s.letters == "Y"
    assert coeff == -2.0j  # XZ - ZX = -iY - iY


def test_commutator_exact_zero():
    # [ZZ, XX] = 0 because the two strings commute termwise
    zz = OperatorSum(2, [(1.0, PauliString.from_label("ZZ"))])
    xx = OperatorSum(2, [(0.7, PauliString.from_label("XX"))])
    ok, residual = commutator_is_zero(zz, xx)
    assert ok and residual == 0.0
    assert commutator_terms(zz, xx) == ()


def test_commutator_cancellation_is_exact():
    # ZZ fails to commute with X0 and with X1 separately, but the
    # coefficients are arranged so the two contributions cancel exactly
    zz = PauliString.from_label("ZZ")
    h = OperatorSum(2, [(0.3, PauliString.from_label("XX"))])
    w = OperatorSum(2, [(1.0, zz)])
    ok, residual = commutator_is_zero(h, w)
    assert ok and residual == 0.0


def test_commutator_matches_dense(seed=23):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = 3
        a = OperatorSum(n, [(float(rng.normal()), random_string(rng, n)) for _ in range(4)])
        b = OperatorSum(n, [(float(rng.normal()), random_string(rng, n)) for _ in range(4)])
        da, db = to_dense(a), to_dense(b)
        dense = da @ db - db @ da
        symbolic = sum(
            (c * string_matrix(s) for c, s in commutator_terms(a, b)),
            np.zeros_like(dense, dtype=complex),
        )
        assert np.abs(dense - symbolic).max() < 1e-12


def test_to_dense_real_dtype_for_even_y():
    op = OperatorSum(2, [(1.0, PauliString.from_label("YY"))])
    mat = to_dense(op)
    assert mat.dtype == np.float64
    np.testing.assert_allclose(mat, kron_matrix("YY").real, atol=0)
    odd = OperatorSum(2, [(1.0, PauliString.from_label("YZ"))])
    assert np.iscomplexobj(to_dense(odd))


def test_to_dense_matches_kron_oracle(seed=41):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        terms = [(float(rng.normal()), random_string(rng, n)) for _ in range(5)]
        op = OperatorSum(n, terms)
        oracle = sum(c * kron_matrix(s.letters) for c, s in op.terms)
        assert np.abs(to_dense(op) - oracle).max() < 1e-14


def test_to_dense_qubit_limit():
    op = OperatorSum(13, [(1.0, PauliString.from_ops(13, {0: "Z"}))])
    with pytest.raises(ValueError, match="exceeds limit"):
        to_dense(op)


# ------------------------------------------------------- conserved checks

def test_conserved_checks_commute_with_every_term_and_each_other():
    # the ZZ ring alone keeps XXXX and every even Z string: a maximal
    # commuting set of the centralizer <XXXX, Z1, ..., Z4> has four members
    ring = OperatorSum(4, [(-1.0, PauliString.from_label(l)) for l in ("ZZII", "IZZI", "IIZZ", "ZIIZ")])
    checks = conserved_checks([ring])
    assert len(checks) == 4
    for c in checks:
        assert all(commutes(c, s) for _, s in ring.terms)
        assert all(commutes(c, other) for other in checks)
    # independent over GF(2): no nonempty subset multiplies to the identity
    for subset in range(1, 1 << len(checks)):
        x = z = 0
        for i, c in enumerate(checks):
            if (subset >> i) & 1:
                x, z = x ^ c.x, z ^ c.z
        assert (x, z) != (0, 0)


def test_conserved_checks_of_a_transverse_field_ring():
    fields = OperatorSum(4, [(-0.7, PauliString.from_label(l)) for l in ("XIII", "IXII", "IIXI", "IIIX")])
    ring = OperatorSum(4, [(-1.0, PauliString.from_label(l)) for l in ("ZZII", "IZZI", "IIZZ", "ZIIZ")])
    assert [c.letters for c in conserved_checks([ring, fields])] == ["XXXX"]
    broken = ring + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    assert conserved_checks([broken, fields]) == []
    with pytest.raises(ValueError, match="qubit count"):
        conserved_checks([ring, OperatorSum(2, [(1.0, PauliString.from_label("XX"))])])


# ------------------------------------------------------- check-sector blocks

def chain_checks(N: int, lam: float):
    inst, ham = build_chain_1d(N, 1.0, lam)
    return ham, [stab.terms[0][1] for stab in stabilizers_1d(inst)]


@pytest.mark.parametrize(
    "case",
    ["chain3", "chain4", "plaquette+", "plaquette-"],
)
def test_one_sector_block_matches_projected_oracle(case):
    if case.startswith("chain"):
        N = int(case[-1])
        op, checks = chain_checks(N, 0.3)
        signs = [1] * N
    else:
        op = build_plaquette_3d(1.0, [0.3, 0.7, 1.1, 0.2])[1]
        checks = [stabilizer_3d_local().terms[0][1]]
        signs = [1 if case.endswith("+") else -1]
    # block a is the sector where check j has sign (-1)^(bit j of a)
    sector = sum(1 << j for j, sign in enumerate(signs) if sign == -1)
    blocks = check_blocks([op], checks, sector=sector)
    d = 1 << (op.n_qubits - len(checks))
    assert blocks.shape == (1, 1, d, d)
    scale = sum(abs(c) for c, _ in op.terms)
    reference = projected_levels(op, checks, signs)
    assert np.abs(np.linalg.eigvalsh(blocks[0, 0]) - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", ["chain3", "chain4", "plaquette"])
def test_each_check_is_its_sign_on_each_block(case):
    if case.startswith("chain"):
        op, checks = chain_checks(int(case[-1]), 0.3)
    else:
        op = build_plaquette_3d(1.0, [0.3, 0.7, 1.1, 0.2])[1]
        checks = [stabilizer_3d_local().terms[0][1]]
    n, k = op.n_qubits, len(checks)
    for j, check in enumerate(checks):
        blocks = check_blocks([OperatorSum(n, [(1.0, check)])], checks)[0]
        for a, block in enumerate(blocks):
            np.testing.assert_array_equal(block, (-1) ** ((a >> j) & 1) * np.eye(1 << (n - k)))
    # conjugation by a Clifford: the blocks' merged levels are the full spectrum
    merged = np.sort(np.linalg.eigvalsh(check_blocks([op], checks)[0]).ravel())
    np.testing.assert_allclose(merged, np.linalg.eigvalsh(to_dense(op)), atol=1e-12)


def test_check_blocks_split_the_sectors_and_refuse_a_broken_check():
    xxxx = [PauliString.from_label("XXXX")]
    blocks = check_blocks([stabilizer_3d_local()], xxxx)
    assert blocks.shape == (1, 2, 8, 8)
    np.testing.assert_array_equal(blocks[0, 0], np.eye(8))  # the + sector first
    np.testing.assert_array_equal(blocks[0, 1], -np.eye(8))
    z0 = OperatorSum(4, [(1.0, PauliString.from_label("ZIII"))])
    with pytest.raises(ValueError, match="ZIII does not commute with check XXXX"):
        check_blocks([stabilizer_3d_local(), z0], xxxx)


def test_taper_rejects_a_term_that_breaks_a_check():
    # restricting to one check sector (here XXXX = +1) refuses a term that leaves it
    broken = build_plaquette_3d(1.0, 0.5)[1] + OperatorSum(4, [(0.3, PauliString.from_label("ZIII"))])
    with pytest.raises(ValueError, match="ZIII does not commute with check XXXX"):
        check_blocks([broken], [PauliString.from_label("XXXX")], sector=0)


def frame_cases():
    """The plaquette's check, the chain's at N = 3..6 and the 2x2 torus's, with their qubit counts."""
    yield pytest.param(4, [stabilizer_3d_local().terms[0][1]], id="plaquette")
    for N in range(3, 7):
        ham, checks = chain_checks(N, 0.3)
        yield pytest.param(ham.n_qubits, checks, id=f"chain{N}")
    _, ham, stabs = build_lattice_2d(2, 2, 1.0, 0.5)
    yield pytest.param(ham.n_qubits, [stab.terms[0][1] for stab in stabs], id="torus")


@pytest.mark.parametrize("n, checks", list(frame_cases()))
def test_each_destabilizer_anticommutes_with_its_check_alone(n, checks):
    destabilizers, logicals = _frame(checks, n)
    assert len(destabilizers) == len(checks) and len(logicals) == n - len(checks)
    for j, d in enumerate(destabilizers):
        assert [not commutes(d, c) for c in checks] == [i == j for i in range(len(checks))]
        assert all(commutes(d, s) for pair in logicals for s in pair)


def basis_cases():
    """Seeded random sums on 2 to 6 qubits (0 to n checks), the plaquette and two chains,
    with their conserved checks; and checks XX, YY, whose +1 state has no weight on |00>."""
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for n_terms in (0, 1, 2, n, 2 * n, 4 * n):
            terms = [(rng.normal(), PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))) for _ in range(n_terms)]
            yield [OperatorSum(n, terms[::2]), OperatorSum(n, terms[1::2])], None
    h0, parts = plaquette_parts()
    yield [h0, *parts], None
    for N in (3, 4):
        yield [chain_checks(N, 0.3)[0]], None
    xx_yy = [PauliString.from_label("XX"), PauliString.from_label("YY")]
    yield [OperatorSum(2, [(1.0, xx_yy[0]), (2.0, xx_yy[1]), (3.0, PauliString.from_label("ZZ"))])], xx_yy


def test_check_basis_takes_each_op_to_its_check_blocks():
    seen = set()
    for ops, checks in basis_cases():
        n = ops[0].n_qubits
        checks = checks or conserved_checks(ops)
        seen.add((n, len(checks)))
        v = check_basis(n, checks)
        assert np.abs(v.conj().T @ v - np.eye(1 << n)).max() <= 1e-13
        blocks = check_blocks(ops, checks)
        d = blocks.shape[-1]
        for op, op_blocks in zip(ops, blocks):
            framed = v.conj().T @ to_dense(op) @ v
            for a, block in enumerate(op_blocks):
                assert np.abs(framed[a * d : (a + 1) * d, a * d : (a + 1) * d] - block).max() <= 1e-13
                # building one sector alone gives that block bit for bit
                assert np.array_equal(check_blocks([op], checks, sector=a)[0, 0], block)
    assert {(n, k) for n in range(2, 7) for k in (0, n)} <= seen


def chain_parts(N: int):
    """The chain's H0 and its one coupling part, with the checks both conserve."""
    h0 = build_chain_1d(N, 1.0, 0.0)[1]
    part = build_chain_1d(N, 1.0, 1.0)[1] - h0
    return [h0, part], conserved_checks([h0, part])


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_frame_builds_in_bounded_memory():
    # neither the blocks nor V may pass through dense full-space Pauli or
    # frame matrices (N = 6 blocks: 1 GB that way; N = 5 basis: 277 MB), and
    # V's column 0 no longer comes from the full projector prod (I + g)
    # (64 MB that way): the basis peaks at 32 MB, twice V's 16 MB
    ops, checks = chain_parts(6)
    assert traced_peak(lambda: check_blocks(ops, checks)) < 32 * 2**20
    ops, checks = chain_parts(5)
    assert traced_peak(lambda: check_basis(10, checks)) < 40 * 2**20


def test_check_frame_refuses_past_the_dense_limit():
    # the 2x2 torus: 16 blocks of 4^12 entries each, 16 times one 12-qubit matrix
    _, ham, stabs = build_lattice_2d(2, 2, 1.0, 0.5)
    with pytest.raises(ValueError, match="exceeds limit"):
        check_blocks([ham], [stab.terms[0][1] for stab in stabs])
    with pytest.raises(ValueError, match="exceeds limit"):
        check_basis(13, [PauliString.from_ops(13, {0: "Z"})])


def test_check_blocks_rejects_bad_checks_sectors_and_empty_ops():
    ring = OperatorSum(4, [(-1.0, PauliString.from_label(l)) for l in ("ZZII", "IZZI", "IIZZ", "ZIIZ")])
    zz = [PauliString.from_label(l) for l in ("ZZII", "IZZI", "ZIZI")]
    # the first check that the ones before it already span is named
    with pytest.raises(ValueError, match="check ZIZI depends on the others"):
        check_blocks([ring], zz)
    with pytest.raises(ValueError, match="check ZIZI depends on the others"):
        check_basis(4, zz)
    with pytest.raises(ValueError, match="anticommute"):
        check_blocks([ring], [PauliString.from_label("XXXX"), PauliString.from_label("ZIII")], sector=0)
    with pytest.raises(ValueError, match="phase-free"):
        check_blocks([ring], [PauliString.from_label("ZZII", phase=2)])
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=r"sector .* outside 0\.\.1"):
            check_blocks([ring], [PauliString.from_label("ZZII")], sector=bad)
    with pytest.raises(ValueError, match="at least one operator"):
        check_blocks([], [PauliString.from_label("ZZII")])
