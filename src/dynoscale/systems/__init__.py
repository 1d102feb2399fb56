"""The zoo of finite-net dynamical systems."""
