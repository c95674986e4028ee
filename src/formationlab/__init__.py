"""formationlab: finite permutation-group engine and verification harness.

Computes subgroup lattices of small permutation groups and decides a family
of class-membership predicates (supersolubility, Sylow-tower type, prime-step
subnormality of cyclic primary subgroups, the iterated-commutator word law,
and a chief-factor local test), then cross-checks that the last four agree on
whole corpora of groups.
"""

__version__ = "0.1.0"
