"""Glued large-charge SU(2) monopole shell configurations."""

from .monopole import ScaledMonopole
from .shell import ShellConfig, make_shell_config, place_points, residues
from .glued import higgs_norm, phi_theta

__version__ = "0.1.0"

__all__ = [
    "ScaledMonopole",
    "ShellConfig",
    "higgs_norm",
    "make_shell_config",
    "phi_theta",
    "place_points",
    "residues",
    "__version__",
]
