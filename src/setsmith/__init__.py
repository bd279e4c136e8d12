"""setsmith: exact Smith groups and diagonal forms of subset intersection
matrices and of integer combinations of them."""

from .exact import (AbelianGroup, ConstructionError, ExactError, IntMatrix,
                    SmithForm, group_from_diagonal, group_from_smith,
                    smith_normal_form, stack)
from .scheme import (DEFAULT_CAP, MsMatrix, ParameterError, SchemeParams,
                     SizeCapExceeded, SmithGroupResult, SpectrumEntry,
                     block_multiplicity, c_coeff, degree,
                     diagonal_form_entries, eigenvalues, ms_matrices,
                     ms_matrix, smith_group, unit_coeffs)
from .subsets import (STANDARD, SUPER_STANDARD, UNRESTRICTED, binomial,
                      enumerate_subsets, is_boundary, is_standard,
                      is_super_standard, mu, phi, phi_inverse)

__version__ = "0.1.0"

# The dense oracle, the proof objects and the super-standard construction
# load on first use of one of their names (PEP 562): the block reduction
# needs none of them.
_LAZY = {
    "oracle": ("BenchReport", "THEOREMS", "VerificationReport", "bench",
               "brute_force_group", "closed_form_entries",
               "closed_form_group", "intersection_matrix",
               "scheme_element_matrix", "verify_closed_form"),
    "proof": ("bier_p", "d_diag", "d_matrix", "d_product", "e_matrices",
              "f_coeff", "gcd_minors", "index", "is_unimodular",
              "triangular_check", "unimodular_completion",
              "unimodular_inverse", "w_matrix"),
    "superstandard": ("BoundarySplit", "ConjectureReport",
                      "boundary_interior_split", "check_conjecture",
                      "check_simpler_lemma", "p_tilde",
                      "phi_boundary_column_match", "w_tilde"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module
            loaded = import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
