"""CNOT circuit synthesis and qubit routing via token reduction on parity-matrix rows."""

from .arch import (ArchGraph, DisconnectedGraphError, get_architecture,
                   list_architectures, path_from_successors,
                   resolve_architecture)
from .bench import (BenchConfig, BenchReport, random_cnot_circuit,
                    run_benchmark, swap_insertion_baseline)
from .circuit import (Circuit, CircuitFormatError, Gate, Mapping, cnot,
                      format_circuit, one_qubit, parse_circuit, swap_gate)
from .gf2 import (BitMatrix, SingularMatrixError, invert, mat_mul, row_add,
                  transpose)
from .heuristic import (Assignment, CostTable, build_cost_table,
                        heuristic_token_reduction, hungarian_assign, loss)
from .synthesis import (RoutedResult, RouteStats, complies,
                        equivalence_failure, linear_matrix, postprocess,
                        route_cnot_block, route_general, verify_equivalence)

__version__ = "0.1.0"

__all__ = [
    "ArchGraph", "Assignment", "BenchConfig", "BenchReport", "BitMatrix",
    "Circuit", "CircuitFormatError", "CostTable", "DisconnectedGraphError",
    "Gate", "Mapping", "RoutedResult", "RouteStats", "SingularMatrixError",
    "build_cost_table", "cnot", "complies", "equivalence_failure",
    "format_circuit", "get_architecture", "heuristic_token_reduction",
    "hungarian_assign", "invert", "linear_matrix", "list_architectures",
    "loss", "mat_mul", "one_qubit", "parse_circuit", "path_from_successors",
    "postprocess", "random_cnot_circuit", "resolve_architecture",
    "route_cnot_block", "route_general", "row_add", "run_benchmark",
    "swap_gate", "swap_insertion_baseline", "transpose", "verify_equivalence",
]
