"""GF(2) core: products, transpose, row ops, inversion, unit combinations.

The unit combinations are the ones the synthesizer reads off its carried
inverse (``conftest.unit_combinations``), checked against subset
enumeration.
"""

import random
from itertools import product

import pytest

from cnotroute.gf2 import (BitMatrix, SingularMatrixError, invert, is_unit,
                           mat_mul, row_add, transpose, vec_support)

from conftest import (bits_of, brute_force_unit_combinations, matrix,
                      random_invertible_matrix, unit_combinations)

P_BITS = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [1, 0, 1, 1]]
PT_BITS = [[1, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]


def test_mat_mul_gate_composition():
    later = matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                    [0, 0, 1, 0], [0, 0, 1, 1]])
    earlier = matrix([[1, 0, 0, 0], [0, 1, 0, 0],
                      [1, 0, 1, 0], [0, 0, 0, 1]])
    assert bits_of(mat_mul(later, earlier)) == P_BITS


def test_mat_mul_identity():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        a = random_invertible_matrix(rng, n)
        i = BitMatrix.identity(n)
        assert mat_mul(i, a) == a
        assert mat_mul(a, i) == a


def test_mat_mul_elementary_self_inverse():
    e = matrix([[1, 1], [0, 1]])
    assert mat_mul(e, e) == BitMatrix.identity(2)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(BitMatrix.identity(2), BitMatrix.identity(3))


def test_transpose_example():
    assert bits_of(transpose(matrix(P_BITS))) == PT_BITS
    assert transpose(BitMatrix.identity(5)) == BitMatrix.identity(5)


def test_transpose_involution():
    rng = random.Random(4)
    for _ in range(20):
        a = random_invertible_matrix(rng, rng.randrange(1, 10))
        assert transpose(transpose(a)) == a


@pytest.mark.parametrize("op, rows", [(transpose, [4, 1]), (invert, [1, 6]),
                                      (invert, [-1, 1])])
def test_rows_outside_n_bits_are_rejected(op, rows):
    with pytest.raises(ValueError, match="2-bit vectors"):
        op(BitMatrix(2, rows))


def test_row_add_examples():
    m = BitMatrix.identity(3)
    row_add(m, 2, 0)
    assert bits_of(m) == [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    row_add(m, 2, 0)
    assert m == BitMatrix.identity(3)

    m2 = matrix([[1, 1], [0, 1]])
    row_add(m2, 0, 1)
    assert bits_of(m2) == [[1, 0], [0, 1]]


def test_row_add_rejects_equal_indices():
    m = BitMatrix.identity(2)
    with pytest.raises(ValueError):
        row_add(m, 1, 1)


def test_matrix_is_unhashable():
    # rows change in place (row_add, linear_matrix), so a content hash would go stale
    with pytest.raises(TypeError):
        hash(BitMatrix.identity(2))


def test_invert_permutation_is_transpose():
    perm = matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert invert(perm) == transpose(perm)


def test_invert_worked_example():
    pt = matrix(PT_BITS)
    inv = invert(pt)
    assert bits_of(inv) == [[1, 0, 1, 0], [0, 1, 0, 0],
                            [0, 0, 1, 1], [0, 0, 0, 1]]
    assert mat_mul(pt, inv) == BitMatrix.identity(4)
    assert mat_mul(inv, pt) == BitMatrix.identity(4)


def test_invert_singular_flag():
    m = matrix([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        invert(m)


def test_invert_randomized_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 65)
        a = random_invertible_matrix(rng, n)
        assert mat_mul(a, invert(a)) == BitMatrix.identity(n)


def test_solve_unit_basic_state():
    m = matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert unit_combinations(m, 0) == [(1, frozenset({0}))]
    assert unit_combinations(m, 2) == [(2, frozenset({2}))]


def test_solve_unit_worked_example():
    pt = matrix(PT_BITS)
    assert unit_combinations(pt, 0) == [(0, frozenset({0, 2}))]


def test_solve_unit_rejects_singular():
    m = matrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        unit_combinations(m, 0)


def _all_invertible(n):
    for rows in product(range(1, 1 << n), repeat=n):
        m = BitMatrix(n, list(rows))
        try:
            invert(m)
        except SingularMatrixError:
            continue
        yield m


def test_solve_unit_vs_brute_force_exhaustive_small():
    # Every invertible matrix up to n = 3, every node.
    for n in (1, 2, 3):
        for m in _all_invertible(n):
            for u in range(n):
                assert unit_combinations(m, u) == \
                    brute_force_unit_combinations(m, u)


def test_solve_unit_vs_brute_force_sampled():
    rng = random.Random(6)
    for n in (4, 5, 6, 8, 10):
        for _ in range(40):
            m = random_invertible_matrix(rng, n)
            u = rng.randrange(n)
            assert unit_combinations(m, u) == \
                brute_force_unit_combinations(m, u)


def test_solve_unit_nonempty_for_all_nodes():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 11)
        m = random_invertible_matrix(rng, n)
        covered = set()
        for u in range(n):
            sols = unit_combinations(m, u)
            assert sols, f"no solution for node {u} of {m!r}"
            covered.update(e for e, _ in sols)
        # Every column of the inverse is non-zero, so every basis vector
        # is reachable from some node.
        assert covered == set(range(n))


def test_vec_helpers():
    assert vec_support(0b1011) == (0, 1, 3)
    assert is_unit(0b100) and not is_unit(0b101) and not is_unit(0)
