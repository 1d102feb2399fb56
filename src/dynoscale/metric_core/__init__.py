"""Finite metric spaces, dynamical metrics, and counting quantities."""
