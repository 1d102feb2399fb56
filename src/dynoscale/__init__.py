"""dynoscale: finite-scale dimension and entropy invariants of dynamical systems.

The package computes, at desk scale, the counting quantities behind
box-counting dimension, metric order, entropy at scale, metric mean
dimension and its metric-order variant, together with exact transport and
Levy-Prokhorov distances, quantization numbers, and the inequality suites
tying them together.
"""

__version__ = "0.1.0"  # the harness fingerprints traces with it
