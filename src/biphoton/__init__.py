"""Exact simulator for two-photon polarization-correlation experiments."""

from .detection import (
    AllDark,
    BeamProfile,
    ScanGrid,
    coincidence_rate,
    default_beams,
    intensity_map,
    singles_rate,
    visibility,
)
from .experiments import (
    CANONICAL_CHSH_ANGLES,
    CascadeGeometry,
    DarkDenominator,
    ScenarioResult,
    chsh_S,
    coincidence,
    correlation_E,
    fig1_conditional_check,
    fig3_visibility,
    same_channel_probability,
    same_channel_table,
    source,
    split_probability,
)
from .fock import (
    FockKet,
    LinearForm,
    add,
    apply_form,
    apply_form_dagger,
    combination_forms,
    form_commutator,
    inner,
    named_state,
    norm2,
    occupation,
    pair_factor_forms,
    unit_form,
    vacuum,
)
from .modes import ModeId, freq_mode, pol_mode
from .optics import (
    ChannelField,
    apply_jones,
    beamsplitter_5050,
    empty_field,
    frequency_component,
    hwp,
    polarizer,
)
from .scenario import ParseError, ScenarioSpec, ValidationError, format_scenario, parse_scenario

__version__ = "0.1.0"
