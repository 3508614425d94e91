"""Exact degree-power extremal computations on small graphs.

Core objects: bitset graphs (n <= 64), weak majorization on integer tuples,
structural predicates (C4-freeness, connectivity, degeneracy), named
extremal families including polarity graphs over GF(q), isomorph-free
enumeration, and an executable verification harness for the desk-scale
theorem instances.
"""

from .enumeration import (
    ExtremalReport,
    SearchPredicate,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    extremal_ep,
)
from .families import (
    FamilyId,
    FiniteField,
    complete_bipartite,
    construct,
    cycle_graph,
    ep_closed_form,
    finite_field,
    friendship,
    polarity_graph,
    split_graph,
    star,
    wheel,
)
from .graphs import (
    Graph,
    degree_sequence,
    ep,
    from_graph6,
    induced_subgraph,
    new_graph,
    to_graph6,
)
from .majorization import (
    Prop1Verdict,
    majorizes,
    p_power_norm,
    prop1_check,
    weakly_majorizes,
)
from .structure import (
    degeneracy,
    edge_connectivity,
    has_c4,
    has_even_cycle,
    is_k_degenerate,
    is_maximal_k_degenerate,
    is_minimally_t_connected,
    is_minimally_t_edge_connected,
    vertex_connectivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
