"""The zoo of finite-net dynamical systems."""

from .base import (DynamicalSystem, bowen_distance, bowen_space, bowen_spaces,
                   identity_system, system_from_step)
from .shifts import (full_shift, binary_exp_shift, rho_distance,
                     discrete_alphabet, lattice_alphabet)
from .intervals import (doubling_grid, unit_lattice, null_sequence_space,
                        random_space, static_system)
from .kolyada import (KolyadaSnohaMap, HorseshoeBlock,
                      symbolic_separated_count, nonadjacent_lower_count)
from .banach import (BanachLattice, banach_spanning_set, min_separation,
                     verify_separated, audit_spanning)
from .combine import product_system, power_system
from .probe import horseshoe_entropy_probe, entropy_scale_table, ladder_grid

__all__ = [
    "DynamicalSystem", "bowen_distance", "bowen_space", "bowen_spaces",
    "identity_system", "system_from_step", "full_shift", "binary_exp_shift",
    "rho_distance", "discrete_alphabet", "lattice_alphabet", "doubling_grid",
    "unit_lattice", "null_sequence_space", "random_space", "static_system",
    "KolyadaSnohaMap", "HorseshoeBlock", "symbolic_separated_count",
    "nonadjacent_lower_count", "BanachLattice", "banach_spanning_set",
    "min_separation", "verify_separated", "audit_spanning",
    "product_system", "power_system", "horseshoe_entropy_probe",
    "entropy_scale_table", "ladder_grid",
]
