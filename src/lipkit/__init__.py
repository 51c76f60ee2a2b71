"""Constructive Lipschitz analysis on finite metric samples.

Spaces with matrix, Euclidean, graph, and grid backends; upper and
lower Lipschitz extension envelopes with global or per-point
constants; interval-valued extension; cozero covers, shrinking, and
staircase partitions of unity; local witnesses, increasing covers,
moduli of Lipschitz type, bounded decompositions, and local-to-global
extension; strict selections, insertions, and decreasing
approximations between semicontinuous bounds.  Every construction
ships an independent certificate checked on the sampled pairs.
"""

from ._version import __version__
from .certify import (Certificate, certify_local_witness, check_k_lipschitz,
                      feasible_interval, pou_report, random_k_extension)
from .errors import (CoverError, DomainError, GridError, InputError,
                     LipkitError, PreconditionError)
from .extension import (DualityReport, Envelope, EnvelopePair,
                        PointwiseWitness, duality_check, extend_to_interval,
                        generate_pointwise_witness, mcshane_envelopes,
                        pointwise_envelopes, pointwise_extend_to_interval)
from .local_lipschitz import (Decomposition, IncreasingCover, LocalWitness,
                              ModulusWitness, decompose, generate_local_witness,
                              increasing_cover, local_extend, modulus_witness,
                              witness_from_modulus)
from .metric_space import (MetricSpace, MetricViolation, Subset,
                           ValidationReport, validate_metric)
from .partition_of_unity import (CozeroCover, MatherRefinement,
                                 PartitionOfUnity, SplitResult, frolik_pou,
                                 index_subordinate, mather_refine,
                                 nonexpansive_split, staircase,
                                 staircase_partial_sum, witness_from_balls)
from .scalar_field import (Constant, Coordinate, DistanceTo, Interval,
                           LipEstimate, ScalarField, Series, Tabulated,
                           Transported, global_lip, maximum, minimum,
                           pointwise_lip, scaled_oscillation)
from .selection import (IntervalMapping, OpennessReport, decreasing_approx,
                        graph_open_check, insert, select, select_extend)

__all__ = [
    "__version__",
    "Certificate", "Constant", "Coordinate", "CoverError", "CozeroCover",
    "Decomposition", "DistanceTo", "DomainError",
    "DualityReport", "Envelope", "EnvelopePair", "GridError",
    "IncreasingCover", "InputError", "Interval", "IntervalMapping",
    "LipEstimate", "LipkitError", "LocalWitness", "MatherRefinement",
    "MetricSpace", "MetricViolation", "ModulusWitness", "OpennessReport",
    "PartitionOfUnity", "PointwiseWitness", "PreconditionError",
    "ScalarField", "Series", "SplitResult", "Subset", "Tabulated",
    "Transported", "ValidationReport",
    "certify_local_witness", "check_k_lipschitz", "decompose",
    "decreasing_approx", "duality_check", "extend_to_interval",
    "feasible_interval", "frolik_pou", "generate_local_witness",
    "generate_pointwise_witness", "global_lip", "graph_open_check",
    "increasing_cover", "index_subordinate", "insert", "local_extend",
    "mather_refine", "maximum", "mcshane_envelopes", "minimum",
    "modulus_witness", "nonexpansive_split", "pointwise_envelopes",
    "pointwise_extend_to_interval", "pointwise_lip", "pou_report",
    "random_k_extension", "scaled_oscillation", "select", "select_extend",
    "staircase", "staircase_partial_sum", "validate_metric",
    "witness_from_balls", "witness_from_modulus",
]
