"""Exact simulator for two-photon polarization-correlation experiments (quick-start API; see each module)."""

from .experiments import (
    CANONICAL_CHSH_ANGLES,
    CascadeGeometry,
    ScenarioResult,
    chsh_S,
    coincidence,
    correlation_E,
    fig3_visibility,
    source,
)

__version__ = "0.1.0"
