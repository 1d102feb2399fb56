"""Atomic measures, transport metrics, quantization, induced dynamics."""
