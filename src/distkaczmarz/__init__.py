"""Distributed Kaczmarz solvers on rooted trees and DAGs.

The package splits into:

- :mod:`distkaczmarz.numerics` -- dense real or complex linear algebra helpers.
- :mod:`distkaczmarz.topology` -- tree/DAG networks, weights and paths.
- :mod:`distkaczmarz.solver` -- the dispersion/pooling iteration engine.
- :mod:`distkaczmarz.closedform` -- explicit iteration matrices and the
  relaxation-parameter analysis built on them.
- :mod:`distkaczmarz.experiments` -- seeded generators, spectral-radius
  sweeps and reproducible report bundles.
- :mod:`distkaczmarz.cli` -- the ``distkaczmarz`` command line front end.
"""

from .solver import (
    LinearSystem,
    RelaxationAssignment,
    SolveReport,
    SolverConfig,
    dag_iterate,
    solve,
    tree_iterate,
)
from .topology import (
    DagNetwork,
    SubnetworkPartition,
    TreeNetwork,
    hasse_reduce,
    minimal_distance_diameter,
    topological_order,
    validate_dag,
    validate_subnetworks,
    validate_tree,
)
from .closedform import (
    AffineIteration,
    check_admissibility,
    build_p_omega,
    dag_block_p,
    dag_block_structure,
    dag_fixed_point,
    fixed_point,
    tree_affine,
    weighted_ls_minimizer,
)

__all__ = [
    "AffineIteration",
    "DagNetwork",
    "LinearSystem",
    "RelaxationAssignment",
    "SolveReport",
    "SolverConfig",
    "SubnetworkPartition",
    "TreeNetwork",
    "build_p_omega",
    "check_admissibility",
    "dag_block_p",
    "dag_block_structure",
    "dag_fixed_point",
    "dag_iterate",
    "fixed_point",
    "hasse_reduce",
    "minimal_distance_diameter",
    "solve",
    "topological_order",
    "tree_affine",
    "tree_iterate",
    "validate_dag",
    "validate_subnetworks",
    "validate_tree",
    "weighted_ls_minimizer",
]

__version__ = "0.1.0"
