"""Circuit model, wire-to-node mappings, and the circuit text format.

Format, one gate per line after a ``qubits <n>`` header::

    # comment
    qubits 4
    cnot 0 2
    swap 1 3
    1q H 0

Wire indices are 0-based.  Numbers are ASCII decimals without a sign,
underscore or leading zero.  One-qubit gates are opaque: the label is
carried through routing untouched.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

CNOT = "cnot"
SWAP = "swap"
ONEQ = "1q"


class CircuitFormatError(ValueError):
    """Raised for malformed circuit or mapping files."""


class Gate(NamedTuple):
    """CNOT(a=control, b=target), SWAP(a, b), or 1q(label, a=wire)."""

    kind: str
    a: int
    b: int = -1
    label: str = ""

    def wires(self) -> Tuple[int, ...]:
        return (self.a,) if self.kind == ONEQ else (self.a, self.b)


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise ValueError("a CNOT cannot target its own control")
    return Gate(CNOT, control, target)


def swap_gate(a: int, b: int) -> Gate:
    if a == b:
        raise ValueError("a SWAP needs two distinct wires")
    return Gate(SWAP, a, b)


def one_qubit(label: str, wire: int) -> Gate:
    """A one-qubit gate; the label must be one text token, as a file holds it."""
    if type(label) is not str or label.split() != [label] or "#" in label:
        raise ValueError(f"one-qubit label {label!r} must be a str of one token without '#'")
    return Gate(ONEQ, wire, -1, label)


@dataclass(frozen=True)
class Circuit:
    """A gate list on ``n_wires`` wires, checked once when built.

    The gates are held as a tuple, so a circuit cannot change after its
    check, and it is hashable.  Every gate is a CNOT or SWAP on two
    distinct int wires in 0..n_wires-1 without a label, or a one-qubit
    gate on one such wire whose label ``one_qubit`` accepts: exactly the
    gates the circuit text format writes and reads back unchanged.
    """

    n_wires: int
    gates: Tuple[Gate, ...] = ()

    def __post_init__(self):
        n = self.n_wires
        if type(n) is not int or n < 1:
            raise ValueError(f"wire count {n!r} is not a positive int")
        object.__setattr__(self, "gates", tuple(self.gates))
        # one inline test per gate, the label's being ``one_qubit``'s rule;
        # only a bad gate pays for naming its fault
        for g in self.gates:
            kind, a, b, label = g
            if type(a) is int and 0 <= a < n and (
                    (type(label) is str and label.split() == [label] and "#" not in label
                     and b == -1) if kind == ONEQ else (kind == CNOT or kind == SWAP)
                    and type(b) is int and 0 <= b < n and a != b and label == ""):
                continue
            if kind not in (CNOT, SWAP, ONEQ):
                raise ValueError(f"gate {g} is not a {CNOT}, {SWAP} or {ONEQ} gate")
            for w in g.wires():
                if type(w) is not int:
                    raise ValueError(f"gate {g} uses wire {w!r}, which is not an int")
                if not 0 <= w < n:
                    raise ValueError(f"gate {g} uses wire {w} outside 0..{n - 1}")
            if kind == ONEQ:
                one_qubit(label, a)  # raises its message for the label
            raise ValueError(f"gate {g} uses wire {a} twice" if a == b else
                             f"gate {g} sets a field that a {kind} gate leaves unset")

    def is_cnot_only(self) -> bool:
        return all(g.kind == CNOT for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)


class Mapping(tuple):
    """Bijection from circuit wires to architecture nodes: the tuple of each wire's node."""

    __slots__ = ()

    def __new__(cls, nodes: Sequence[int]):
        nodes = tuple(nodes)
        if any(type(x) is not int for x in nodes) or sorted(nodes) != list(range(len(nodes))):
            raise ValueError("mapping must be a bijection onto 0..n-1")
        return super().__new__(cls, nodes)

    @classmethod
    def identity(cls, n: int) -> "Mapping":
        return cls(range(n))

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The nodes as a plain tuple, whose repr carries no class name."""
        return tuple(self)

    def __repr__(self) -> str:
        return f"Mapping({list(self)})"

    def to_pairs(self, names: Optional[Sequence[str]] = None) -> List[List[str]]:
        """[["w1", "Q1"], ...] rows for reports and mapping files."""
        out = []
        for w, node in enumerate(self):
            label = names[node] if names is not None else str(node)
            out.append([f"w{w + 1}", label])
        return out


def _natural(token: str, what: str) -> int:
    """ASCII decimal digits without a sign, underscore or leading zero."""
    if not re.fullmatch(r"0|[1-9][0-9]*", token):
        raise ValueError(f"bad {what} {token!r}")
    return int(token)


def parse_circuit(text: str, source: str = "<circuit>") -> Circuit:
    """Parse the line-based circuit format; strict about wire ranges."""
    n_wires = None
    gates: List[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        where = f"{source}:{lineno}"
        if n_wires is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise CircuitFormatError(f"{where}: expected 'qubits <n>' header")
            try:
                n_wires = _natural(parts[1], "qubit count")
            except ValueError as exc:
                raise CircuitFormatError(f"{where}: {exc}") from exc
            if n_wires < 1:
                raise CircuitFormatError(f"{where}: qubit count must be positive")
            continue
        if len(parts) != 3 or parts[0] not in (CNOT, SWAP, ONEQ):
            raise CircuitFormatError(f"{where}: unrecognized gate line {line!r}")
        kind, x, y = parts
        try:
            if kind == ONEQ:
                g = one_qubit(x, _natural(y, "wire number"))
            else:
                make = cnot if kind == CNOT else swap_gate
                g = make(_natural(x, "wire number"), _natural(y, "wire number"))
        except ValueError as exc:
            raise CircuitFormatError(f"{where}: {exc}") from exc
        for w in g.wires():
            if not 0 <= w < n_wires:
                raise CircuitFormatError(f"{where}: wire {w} outside 0..{n_wires - 1}")
        gates.append(g)
    if n_wires is None:
        raise CircuitFormatError(f"{source}: missing 'qubits <n>' header")
    return Circuit(n_wires, gates)


def format_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n_wires}"]
    for g in c.gates:
        if g.kind == ONEQ:
            lines.append(f"1q {g.label} {g.a}")
        else:
            lines.append(f"{g.kind} {g.a} {g.b}")
    return "\n".join(lines) + "\n"


def load_json(text: str, source: str, error: type):
    """``json.loads``, raising ``error`` for malformed text, too deep nesting
    or an integer with more digits than Python converts."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{source}: not valid JSON: {exc}") from exc


def parse_wire_pairs(pairs: list, names: Sequence[str], source: str,
                     error: type) -> List[int]:
    """Node index per wire from a list of [wire, node-name] pairs.

    Wires are labelled "w1".."wn" for the n nodes in ``names``: a "w"
    then the wire number in ASCII digits, without a sign, spaces or
    leading zeros.  The pairs must map the wires one-to-one onto the
    nodes.  Any violation raises ``error`` naming ``source``.
    """
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    nodes = [-1] * n
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise error(f"{source}: malformed mapping entry {pair!r}")
        wire, node = pair
        if not (isinstance(wire, str) and re.fullmatch(r"w[1-9][0-9]*", wire)):
            raise error(f"{source}: wire label {wire!r} must look like 'w3'")
        w = int(wire[1:]) - 1
        if not 0 <= w < n:
            raise error(f"{source}: wire {wire!r} out of range")
        if not isinstance(node, str):
            raise error(f"{source}: unknown node {node!r}: node names must be a string")
        if node not in index:
            raise error(f"{source}: unknown node {node!r}")
        if nodes[w] != -1:
            raise error(f"{source}: wire {wire!r} mapped twice")
        nodes[w] = index[node]
    if -1 in nodes or len(set(nodes)) != n:
        raise error(f"{source}: mapping is not a bijection")
    return nodes


def parse_mapping_json(text: str, names: Sequence[str],
                       source: str = "<mapping>") -> Mapping:
    """Mapping file: JSON list of [wire, node-name] pairs, wires 'w1'..'wn'."""
    data = load_json(text, source, CircuitFormatError)
    n = len(names)
    if not isinstance(data, list) or len(data) != n:
        raise CircuitFormatError(f"{source}: expected {n} [wire, node] pairs")
    return Mapping(parse_wire_pairs(data, names, source, CircuitFormatError))


def format_mapping_json(mapping: Mapping, names: Sequence[str]) -> str:
    return json.dumps(mapping.to_pairs(names), indent=2) + "\n"
