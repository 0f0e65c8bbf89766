"""Exact-arithmetic computations with finite-dimensional evolution
algebras: annihilating series, nilpotency, decomposability, and the
classification of nilpotent evolution algebras of dimension at most 5.
"""

from .errors import (AlgebraSyntaxError, AmbientMismatch, BudgetExceeded,
                     DivisionByZero, DomainError, EvoalgError, FieldLacksI,
                     KindMismatch, MixedFields, NotAnIdeal, NotNilpotent,
                     ShapeError, Singular, SpecMismatch, SqrtUnavailable,
                     UnsupportedDim, UnsupportedField)
from .fields import (GF, QI, QQ, FieldDescriptor, FieldElement, is_square,
                     order_key, parse_element, sqrt_if_square, total_order)
from .linalg import Matrix, Subspace, kernel, rref
from .algebra import (DecompVerdict, EvolutionAlgebra, InvariantProfile,
                      WeightedGraph, component_index_sets,
                      decomposability_check, graph_of, invariant_profile,
                      is_ideal, power_nilpotency, power_subspaces,
                      product_subspace, relative_annihilator,
                      restrict_to_indices, split_components, square_subspace,
                      upper_series)
from .families import (FamilySpec, build, build_Ub, build_Ubfg, build_Ubg,
                       build_Ubu, family_iso_test, scaled_spec,
                       scaling_isomorphism)
from .tables import (ClassEntry, anharmonic_j, anharmonic_orbit,
                     canonical_table, find_entry, orbit_min)
from .classify import (CanonicalLabel, Classification, Decomposed, classify,
                       labels_equal, normal_form, witness_isomorphism)
from .oracle import (SearchBudget, exhaustive_iso, randomized_iso,
                     verify_hom)

# The CLI (and argparse) loads on first use of one of its names, so that
# ``python -m evoalg.cli`` runs cli.py once, as __main__, and a plain
# ``import evoalg`` stays cheap.
_CLI_NAMES = ("dispatch", "emit_dot", "parse_algebra_file",
              "write_algebra_text")

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += _CLI_NAMES


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
