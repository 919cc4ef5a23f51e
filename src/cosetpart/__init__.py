"""Schreier automata of finite-index subgroups of free groups: exact
transition-matrix spectra, rational generating functions, and mechanical
verification of the partition identities and period/index repetition
theorems on coset partitions, including covering systems of the integers
as the rank-1 case."""

from .cyclo import CycloNumber, cyclotomic
from .partition import (
    AnalysisReport,
    NotAPartition,
    PartitionSpec,
    PartitionVerdict,
    analyze,
    check_coefficient_identity,
    check_sum_identity,
    davenport_rado_check,
    generate_partition,
    generate_z_covering,
    lemma8_diagnostic,
    residue_sum_check,
    theorem1_check,
    theorem2_check,
    verify_partition,
    z_lift,
    z_to_schreier,
    z_verify,
)
from .poly import IntPolynomial
from .ratfunc import RationalFunction, genfunc, geometric, series_from_matrix
from .schreier import (
    Coset,
    InfiniteIndex,
    NotTransitive,
    SchreierGraph,
    coset,
    fold,
    from_permutations,
    membership,
    resolve,
    subgroup_coset,
    transversal,
)
from .spectral import SpectralSummary, char_data, period, transition_matrix
from .words import (
    InvalidLetter,
    Word,
    enumerate_positive,
    enumerate_reduced,
    format_word,
    parse_word,
    reduce_word,
)

__version__ = "0.1.0"
