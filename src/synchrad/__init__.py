"""Numerical toolkit for synchrotron photon emission, multiple-photon
corrections, infrared-regularized soft-photon spectra, and the decoherence
and localization of the emitting electron.

All internal quantities use Hartree atomic units; see synchrad.units for the
conversion boundary.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    NegativityError,
    RangeError,
    SynchradError,
    UncertifiedWidthWarning,
)
from .units import (
    AU_TIME_SECONDS,
    BOHR_PER_METER,
    C_AU,
    ELECTRON_REST_GEV,
    FIAN_60,
    BeamParams,
    LabInput,
    beam_from_lab,
)

__version__ = "0.1.0"

__all__ = [
    "SynchradError",
    "RangeError",
    "DomainError",
    "ConvergenceError",
    "NegativityError",
    "UncertifiedWidthWarning",
    "BeamParams",
    "LabInput",
    "beam_from_lab",
    "C_AU",
    "BOHR_PER_METER",
    "ELECTRON_REST_GEV",
    "AU_TIME_SECONDS",
    "FIAN_60",
    "__version__",
]
