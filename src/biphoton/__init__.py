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
    cascade_coincidence,
    chsh_S,
    correlation_E,
    fig1_coincidence,
    fig1_conditional_check,
    fig2_split_coincidence,
    fig3_visibility,
    pair_source,
    pdc_coincidence,
    same_channel_probability,
    same_channel_table,
    split_probability,
)
from .fock import (
    FockKet,
    LinearForm,
    ZeroState,
    add,
    apply_form,
    apply_form_dagger,
    combination_forms,
    form_commutator,
    inner,
    named_state,
    norm2,
    normalize,
    occupation,
    pair_factor_forms,
    psi_u_composite,
    unit_form,
    vacuum,
    zero_form,
)
from .modes import ModeId, composite_mode, freq_mode, pol_mode
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
