"""Pulse-density-modulation toolkit for SS-compensated wireless power transfer.

Subpackages cover the full chain from modulator design to system-level
verification: notch NTF construction (`ntf`), the 1-bit error-feedback
modulator (`modulator`), the switched resonant-tank co-simulator (`plant`),
the envelope small-signal model (`gssa`), measurement utilities
(`analysis`), experiment presets (`experiments`), and the command-line
front end (`cli`). The input rules they share live in `checks`.
"""

from . import analysis, checks, datafiles, experiments, gssa, modulator, ntf, plant

__all__ = ["analysis", "checks", "datafiles", "experiments", "gssa", "modulator",
           "ntf", "plant"]
__version__ = "0.1.0"
