"""Synthetic RiCEPS-style corpus: profiles, generator, census detector."""

from .detector import CensusResult, census_source
from .generator import (
    STYLES,
    GeneratedProgram,
    generate_program,
    generate_riceps_program,
)
from .riceps import RICEPS_PROFILES, RicepsProfile, profile

__all__ = [
    "CensusResult",
    "GeneratedProgram",
    "RICEPS_PROFILES",
    "RicepsProfile",
    "STYLES",
    "census_source",
    "generate_program",
    "generate_riceps_program",
    "profile",
]
