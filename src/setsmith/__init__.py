"""setsmith: exact Smith groups and diagonal forms of subset intersection
matrices and of integer combinations of them."""

from .exact import (AbelianGroup, ConstructionError, ExactError, IntMatrix,
                    SmithForm, gcd_minors, group_from_diagonal,
                    group_from_smith, index, is_unimodular,
                    smith_normal_form, stack, unimodular_completion,
                    unimodular_inverse)
from .scheme import (DEFAULT_CAP, MsMatrix, ParameterError, SchemeParams,
                     SizeCapExceeded, SmithGroupResult, SpectrumEntry, bier_p,
                     block_multiplicity, c_coeff, d_diag, d_matrix, d_product,
                     degree, diagonal_form_entries, e_matrices, eigenvalues,
                     f_coeff, intersection_matrix, ms_matrices, ms_matrix,
                     scheme_element_matrix, smith_group, triangular_check,
                     unit_coeffs, w_matrix)
from .subsets import (STANDARD, SUPER_STANDARD, UNRESTRICTED, binomial,
                      enumerate_subsets, is_boundary, is_standard,
                      is_super_standard, mu, phi, phi_inverse)

__version__ = "0.1.0"

# The oracle and the super-standard construction load on first use of one
# of their names (PEP 562): the block reduction needs neither.
_LAZY = {
    "oracle": ("BenchReport", "THEOREMS", "VerificationReport", "bench",
               "brute_force_group", "closed_form_entries",
               "closed_form_group", "verify_closed_form"),
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
