"""Round-trip and error-reporting tests for the .pham operator format."""

import numpy as np
import pytest

from clusterprep.pauli import OperatorSum, PauliString
from clusterprep.pham import PhamError, parse, parse_document, serialize


def random_operator(rng, n: int, n_terms: int) -> OperatorSum:
    mask = (1 << n) - 1
    terms = []
    for _ in range(n_terms):
        x = int(rng.integers(0, mask + 1))
        z = int(rng.integers(0, mask + 1))
        if x == 0 and z == 0:
            continue  # identity has no factor syntax
        terms.append((float(rng.normal()), PauliString(n, x, z)))
    return OperatorSum(n, terms)


def test_golden_document():
    op = OperatorSum(2, [(-1.0, PauliString.from_label("ZZ"))])
    assert serialize(op) == "qubits 2\n-1 * Z0 Z1"
    assert parse(serialize(op)) == op


def test_round_trip_random_operators():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        op = random_operator(rng, n, int(rng.integers(0, 12)))
        assert parse(serialize(op)) == op


def test_serialize_is_canonical():
    z0 = PauliString.from_ops(3, {0: "Z"})
    xy = PauliString.from_ops(3, {1: "X", 2: "Y"})
    a = OperatorSum(3, [(1.5, z0), (-0.25, xy)])
    b = OperatorSum(3, [(-0.25, xy), (1.5, z0)])
    assert serialize(a) == serialize(b)
    assert not serialize(a).endswith("\n")


def test_parse_ignores_blanks_and_keeps_comments():
    text = "# produced by hand\n\nqubits 2\n# mid comment\n0.5 * X0\n"
    doc = parse_document(text)
    assert doc.declared_qubits == 2
    assert doc.comments == ("produced by hand", "mid comment")
    assert doc.operator.coefficient(PauliString.from_ops(2, {0: "X"})) == 0.5


def test_comments_survive_serialize():
    op = OperatorSum(1, [(2.0, PauliString.from_label("X"))])
    text = serialize(op, comments=("alpha", "beta"))
    assert text.splitlines()[:2] == ["# alpha", "# beta"]
    doc = parse_document(text)
    assert doc.comments == ("alpha", "beta")


def test_declared_width_wider_than_support():
    # a declared qubit with no factors is a legitimate identity wire
    op = parse("qubits 4\n1 * Z0")
    assert op.n_qubits == 4


def expect_error(text: str, line: int, column: int, fragment: str):
    with pytest.raises(PhamError) as info:
        parse(text)
    err = info.value
    assert err.line == line
    assert err.column == column
    assert fragment in str(err)


def test_error_positions():
    expect_error("", 1, 1, "missing 'qubits N' header")
    expect_error("hello\n", 1, 1, "expected header")
    expect_error("qubits 0\n", 1, 1, "must be positive")
    expect_error("qubits 2\n-1 Z0 Z1", 2, 1, "needs 'COEFF * FACTOR")
    expect_error("qubits 2\n  bad * X0", 2, 3, "bad coefficient")
    expect_error("qubits 2\ninf * X0", 2, 1, "non-finite")
    expect_error("qubits 2\n1 *", 2, 3, "no factors")
    expect_error("qubits 2\n1 * W0", 2, 5, "bad factor")
    expect_error("qubits 2\n1 * X9", 2, 5, "outside declared width")
    expect_error("qubits 2\n1 * X0 Z0", 2, 8, "repeated within one term")
    expect_error("qubits 12\n1 * Z1 Z1", 2, 8, "repeated within one term")
    expect_error("qubits 12\n1.5 * Z10 Z1 Z1", 2, 14, "repeated within one term")


def test_error_reports_later_line():
    text = "qubits 3\n1 * Z0 Z1\n2 * X0\n0.1 * Y5\n"
    with pytest.raises(PhamError) as info:
        parse(text)
    assert info.value.line == 4


def test_serialize_rejects_identity_term():
    op = OperatorSum(1, [(1.0, PauliString(1))])
    with pytest.raises(ValueError, match="identity term"):
        serialize(op)


def test_coefficients_round_trip_exactly():
    # %.17g is enough to reproduce any double bit-for-bit
    values = [1 / 3, np.pi, -2.5000000000000004, 1e-13, 123456.789]
    op = OperatorSum(1, [(sum(values), PauliString.from_label("Z"))])
    parsed = parse(serialize(op))
    assert parsed.terms[0][0] == op.terms[0][0]
