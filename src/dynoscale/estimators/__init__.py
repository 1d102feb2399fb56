"""Finite-scale slope estimators for the limit quantities."""
