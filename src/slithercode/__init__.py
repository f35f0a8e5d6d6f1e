"""Slither codes: bijections between labelled rooted trees and sequences.

Encode any rooted tree on 1..n as a sequence in [n]^(n-1), decode any such
sequence back, and read independence number, matching number, path cover
number, root, and P-set straight off the sequence.  Uniform sequences are
uniform trees, which turns the codec into an exact sampler and turns
coupon-collector style chance games into tree-parameter simulators.
"""

from .asymptotics import (CltReport, ConstantsReport, clt_check, constants,
                          gaussian_cdf, solve_fixed_point)
from .codec import (CodeError, ReadResult, SlitherCode, decode_sequence,
                    prefix_alpha, prufer_decode, prufer_encode, read_alpha,
                    read_capacity_edges, read_matching_via_beta, read_path_edges,
                    read_root_and_pset, slither_decode, slither_encode)
from .counting import (DistributionTable, count_full_binary, count_independence,
                       exact_dice_distribution, exact_rooted_distribution,
                       expected_alpha, full_binary_table, independence_table,
                       stirling2)
from .games import (ChiSquareResult, Deck, RandomSource, TrialHistogram,
                    binary_lr_trial, chi_square, dice_trial, fresh_seed,
                    full_binary_trial, plane_trial, run_trials,
                    sample_uniform_labelled_tree, sample_uniform_rooted_tree,
                    tv_distance)
from .trees import (COMPLY, NORMAL, PositionMap, RootedTree, TreeError,
                    Variant, bf_max_capacity_edges, bf_max_independent, classify,
                    independence_number, matching_number, max_capacity_edges,
                    path_cover_decomposition, strategic_set, validate_tree)

__version__ = "0.1.0"

__all__ = [
    "CltReport", "ConstantsReport", "clt_check", "constants", "gaussian_cdf",
    "solve_fixed_point",
    "CodeError", "ReadResult", "SlitherCode", "decode_sequence", "prefix_alpha",
    "prufer_decode", "prufer_encode", "read_alpha", "read_capacity_edges",
    "read_matching_via_beta", "read_path_edges", "read_root_and_pset",
    "slither_decode", "slither_encode",
    "DistributionTable", "count_full_binary", "count_independence",
    "exact_dice_distribution", "exact_rooted_distribution", "expected_alpha",
    "full_binary_table", "independence_table", "stirling2",
    "ChiSquareResult", "Deck", "RandomSource", "TrialHistogram",
    "binary_lr_trial", "chi_square", "dice_trial", "fresh_seed",
    "full_binary_trial", "plane_trial", "run_trials",
    "sample_uniform_labelled_tree", "sample_uniform_rooted_tree", "tv_distance",
    "COMPLY", "NORMAL", "PositionMap", "RootedTree", "TreeError",
    "Variant", "bf_max_capacity_edges", "bf_max_independent", "classify",
    "independence_number", "matching_number", "max_capacity_edges",
    "path_cover_decomposition", "strategic_set", "validate_tree",
]
