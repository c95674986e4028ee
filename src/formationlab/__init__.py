"""formationlab: finite permutation-group engine and verification harness.

Computes subgroup lattices of small permutation groups and decides a family
of class-membership predicates (supersolubility, Sylow-tower type, prime-step
subnormality of cyclic primary subgroups, the iterated-commutator word law,
and a chief-factor local test), then cross-checks that the last four agree on
whole corpora of groups.
"""

from .errors import InputError, InvariantError, ResourceLimitError
from .perms import (
    Permutation,
    commutator,
    compose,
    format_cycles,
    identity,
    inverse,
    order_of,
    parse_cycles,
    power,
)
from .groups import (
    GroupTable,
    QuotientMap,
    Subgroup,
    centralizer,
    centralizer_mod,
    close_generators,
    commutator_subgroup,
    derived_series,
    exponent,
    lower_central_series,
    quotient_by,
    subgroup_generated,
)
from .lattice import (
    ChiefFactor,
    Lattice,
    all_subgroups,
    chief_series,
    frattini,
    is_normal,
    maximal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
    p_reachable,
)
from .predicates import (
    has_sylow_tower_sst,
    in_f_p,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_primary,
    is_soluble,
    is_supersoluble,
)
from .checkers import (
    BrandlState,
    BrandlTrace,
    ClassReport,
    brandl_next,
    brandl_terminates,
    classify,
    condition_b_law,
    condition_b_subgroups,
    condition_lf_f,
    condition_x,
    is_p_subnormal,
)

__version__ = "0.1.0"
