"""Exact hitting-/return-time oracle for word targets in finite Markov shifts."""

from .automaton import PatternTarget, build_automaton
from .exact import (
    BlockChain,
    ExactPMF,
    ProductChain,
    block_hitting_pmf,
    block_return_pmf,
    block_set_return_pmf,
    consecutive_joint_pmf,
    hitting_pmf,
    masses_at,
    require_shift_split_budget,
    return_excess,
    return_pmf,
    theta_exact,
    verify_inducing_identity,
    verify_shift_identity_grid,
)
from .reports import (
    CONVERGENCE_HEADER,
    ConvergenceRow,
    PrunedTargetReport,
    counterexample_pruned_target,
    k_grid,
    llt_convergence_table,
)
from .source import MarkovSource

__all__ = [
    "BlockChain",
    "CONVERGENCE_HEADER",
    "ConvergenceRow",
    "ExactPMF",
    "MarkovSource",
    "PatternTarget",
    "ProductChain",
    "PrunedTargetReport",
    "block_hitting_pmf",
    "block_return_pmf",
    "block_set_return_pmf",
    "build_automaton",
    "consecutive_joint_pmf",
    "counterexample_pruned_target",
    "hitting_pmf",
    "k_grid",
    "llt_convergence_table",
    "masses_at",
    "require_shift_split_budget",
    "return_excess",
    "return_pmf",
    "theta_exact",
    "verify_inducing_identity",
    "verify_shift_identity_grid",
]
