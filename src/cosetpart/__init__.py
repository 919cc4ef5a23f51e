"""Schreier automata of finite-index subgroups of free groups: exact
transition-matrix spectra, rational generating functions, and mechanical
verification of the partition identities and period/index repetition
theorems on coset partitions, including covering systems of the integers
as the rank-1 case.

Importing the package loads none of its modules.  Each public name is
imported from the module that defines it on first access (PEP 562), and
so is each module, so a program loads only the modules it uses.  The
references (the word enumerations, series_from_matrix, the residues of
generating functions) are not exported: import them from
cosetpart.oracle.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "covering": (
        "NotAPartition",
        "PartitionSpec",
        "PartitionVerdict",
        "davenport_rado_check",
        "z_verify",
    ),
    "corpus": ("generate_partition",),
    "cyclo": ("CycloNumber", "cyclotomic"),
    "folding": ("fold",),
    "partition": (
        "AnalysisReport",
        "analyze",
        "check_coefficient_identity",
        "check_sum_identity",
        "lemma8_diagnostic",
        "residue_sum_check",
        "theorem1_check",
        "theorem2_check",
        "verify_partition",
        "z_lift",
    ),
    "poly": ("IntPolynomial",),
    "ratfunc": ("RationalFunction", "genfunc", "geometric"),
    "schreier": (
        "Coset",
        "InfiniteIndex",
        "NotTransitive",
        "SchreierGraph",
        "coset",
        "from_permutations",
        "membership",
        "resolve",
        "subgroup_coset",
        "transversal",
    ),
    "spectral": ("SpectralSummary", "char_data", "period", "transition_matrix"),
    "words": (
        "InvalidLetter",
        "Word",
        "format_word",
        "parse_word",
        "reduce_word",
    ),
    "zcovering": ("generate_z_covering",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
