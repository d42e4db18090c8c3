"""Glued large-charge SU(2) monopole shell configurations."""

__version__ = "0.1.0"
