"""Verified combinatorics of k-indivisible noncrossing partitions.

The ground set is [N] with N = kn + 1.  The library provides the poset
of k-indivisible noncrossing partitions under the order generated by
(k+1)-cycles, its m-divisible extension, the Hurwitz action on reduced
factorizations of the long cycle, the polygon-dissection and parking
function bijections, the nonnesting side, and exact closed-form counts
for all of it, cross-checked by brute-force oracles at small sizes.
"""

from .counting import (
    binomial,
    catalan,
    chain_count,
    commutation_class_count,
    fuss_catalan,
    mobius_invariant,
    nc_cardinality,
    raney,
    zeta_value,
)
from .nc import (
    NoncrossingElement,
    enumerate_nc,
    is_k_indivisible_i,
    is_k_indivisible_ii,
    is_k_indivisible_iii,
    is_noncrossing,
    kreweras,
)
from .perm import (
    KParams,
    Permutation,
    covers_below,
    ell_k,
    ell_k_oracle,
    format_cycles,
    from_cycles,
    identity,
    is_one_mod_k,
    long_cycle,
    parse_cycles,
)

__all__ = [
    "KParams",
    "NoncrossingElement",
    "Permutation",
    "binomial",
    "catalan",
    "chain_count",
    "commutation_class_count",
    "covers_below",
    "ell_k",
    "ell_k_oracle",
    "enumerate_nc",
    "format_cycles",
    "from_cycles",
    "fuss_catalan",
    "identity",
    "is_k_indivisible_i",
    "is_k_indivisible_ii",
    "is_k_indivisible_iii",
    "is_noncrossing",
    "is_one_mod_k",
    "kreweras",
    "long_cycle",
    "mobius_invariant",
    "nc_cardinality",
    "parse_cycles",
    "raney",
    "zeta_value",
]

__version__ = "0.1.0"
