"""Genetic variation operators.

The paper uses "SBX and PM standard" — simulated binary crossover and
polynomial mutation — on integer server-id genomes; the real-coded
operators run in continuous space and children are rounded and clipped
back into ``[0, m)``.  A discrete pair (uniform crossover + random-reset
mutation) is provided for the operator ablation study.
"""

from repro.ea.operators.sbx import sbx_crossover
from repro.ea.operators.polynomial import polynomial_mutation
from repro.ea.operators.discrete import uniform_crossover, random_reset_mutation
from repro.ea.operators.selection import binary_tournament

__all__ = [
    "sbx_crossover",
    "polynomial_mutation",
    "uniform_crossover",
    "random_reset_mutation",
    "binary_tournament",
]
