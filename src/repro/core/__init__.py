"""Core simulation primitives: event engine, errors, units, RNG."""

from repro.core.engine import Engine, Event
from repro.core.errors import (
    ConfigurationError,
    FeatureUnavailableError,
    HarnessError,
    ReproError,
    SimulationError,
)
from repro.core.rng import RngFactory

__all__ = [
    "Engine",
    "Event",
    "RngFactory",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "FeatureUnavailableError",
    "HarnessError",
]
