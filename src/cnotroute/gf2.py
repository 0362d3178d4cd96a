"""GF(2) vector and square-matrix arithmetic on packed int bitsets.

A length-n vector over GF(2) is stored as a Python int whose bit ``i``
is the i-th entry, so adding two vectors is a single XOR.  A matrix is a
list of such row ints.  Row addition is the hot path of the routing
loops, which is why rows are machine words rather than element lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class SingularMatrixError(ValueError):
    """Raised when an operation requires an invertible matrix."""


# _BYTE_SUPPORTS[k][b]: the ascending indices of the 1-bits of byte value b
# at byte offset k, one table (about 20 KiB) per offset that a vector has
# reached so far
_BYTE_SUPPORTS: List[tuple] = []


def vec_support(v: int) -> tuple:
    """Indices of the 1-bits in ascending order, read one byte at a time.

    Raises ValueError on a negative int, which has no finite support.
    """
    if v < 0:
        raise ValueError(f"vector {v} is negative")
    tables = _BYTE_SUPPORTS
    while v >> 8 * len(tables):
        # each bit doubles the table: the values with it set append it
        table = [()]
        for i in range(8 * len(tables), 8 * len(tables) + 8):
            table += [t + (i,) for t in table]
        tables.append(tuple(table))
    out = ()
    for table in tables:
        if not v:
            break
        out += table[v & 255]
        v >>= 8
    return out


def is_unit(v: int) -> bool:
    """True if the vector is a standard basis vector."""
    return v != 0 and v & (v - 1) == 0


@dataclass(slots=True)
class BitMatrix:
    """Square matrix over GF(2) with rows packed into ints.

    Compares by value but is not hashable: the rows change in place.
    """

    n: int
    rows: Optional[List[int]] = None

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            raise ValueError(f"matrix size {n!r} is not an int")
        rows = self.rows = [0] * n if self.rows is None else list(self.rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        if any(type(r) is not int for r in rows) or rows and (min(rows) < 0 or max(rows) >> n):
            raise ValueError(f"rows must be {n}-bit vectors, 0 <= row < 2**{n}")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, [1 << i for i in range(n)])

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.n, self.rows)

    def is_permutation(self) -> bool:
        """Exactly one 1 per row and per column."""
        seen = 0
        for r in self.rows:
            if not is_unit(r):
                return False
            if seen & r:
                return False
            seen |= r
        return seen == (1 << self.n) - 1

    def __repr__(self) -> str:
        body = ",".join(
            "".join(str((r >> j) & 1) for j in range(self.n)) for r in self.rows
        )
        return f"BitMatrix({self.n}, [{body}])"


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2)."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    brows = b.rows
    out = []
    for r in a.rows:
        acc = 0
        k = 0
        while r:
            if r & 1:
                acc ^= brows[k]
            r >>= 1
            k += 1
        out.append(acc)
    return BitMatrix(a.n, out)


def transpose(a: BitMatrix) -> BitMatrix:
    """Transpose, one step per 1-bit: row i's bit j becomes row j's bit i."""
    return BitMatrix(a.n, _transpose_rows(a.rows))


def _transpose_rows(rows: List[int]) -> List[int]:
    """``transpose`` on a bare row list, which must be a matrix's rows.

    Builds no ``BitMatrix``, so the rows are not checked again; the
    synthesizer transposes the inverse this way once, on entry, and then
    carries both forms.
    """
    out = [0] * len(rows)
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


def row_add(a: BitMatrix, target: int, source: int) -> None:
    """In place: row[target] ^= row[source].

    Equal indices are rejected; a CNOT cannot target its own control.
    """
    if target == source:
        raise ValueError(f"row_add target equals source ({target})")
    a.rows[target] ^= a.rows[source]


def invert(a: BitMatrix) -> BitMatrix:
    """Inverse by Gauss-Jordan elimination; raises SingularMatrixError if singular."""
    n = a.n
    work = list(a.rows)
    aug = [1 << i for i in range(n)]
    for col in range(n):
        bit = 1 << col
        pivot = -1
        for r in range(col, n):
            if work[r] & bit:
                pivot = r
                break
        if pivot < 0:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
        wc = work[col]
        ac = aug[col]
        for r in range(n):
            if r != col and work[r] & bit:
                work[r] ^= wc
                aug[r] ^= ac
    return BitMatrix(n, aug)
