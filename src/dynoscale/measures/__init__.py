"""Atomic measures, transport metrics, quantization, induced dynamics."""

from .atomic import (AtomicMeasure, pushforward, measure_to_json,
                     measure_from_json)
from .wasserstein import wasserstein, CouplingPlan, w1_pairs_two_atom
from .prokhorov import levy_prokhorov, lp_condition_holds, w1_upper_report
from .quantization import (quantization_number, quantization_order,
                           dynamical_quantization_rate,
                           dynamical_quantization_order, LP_KIND, W_KIND)
from .constructions import (LadderMeasure, LadderLayer, ladder_construction,
                            ladder_scale, dominated_layer,
                            transport_lower_bound, check_transport_lower_bound,
                            apart_count)
from .induced import (measure_lattice, lattice_transport_space, induced_step,
                      induced_sweep, InducedCell)

__all__ = [
    "AtomicMeasure", "pushforward", "measure_to_json", "measure_from_json",
    "wasserstein", "CouplingPlan", "w1_pairs_two_atom",
    "levy_prokhorov", "lp_condition_holds", "w1_upper_report",
    "quantization_number", "quantization_order",
    "dynamical_quantization_rate", "dynamical_quantization_order",
    "LP_KIND", "W_KIND",
    "LadderMeasure", "LadderLayer", "ladder_construction", "ladder_scale",
    "dominated_layer", "transport_lower_bound", "check_transport_lower_bound",
    "apart_count",
    "measure_lattice", "lattice_transport_space", "induced_step",
    "induced_sweep", "InducedCell",
]
