"""Per-channel polarization fields and the analyzers that read them.

A ChannelField is the positive-frequency field of one beam line, written in
the Heisenberg picture as a pair of annihilator combinations (vertical and
horizontal component).  A balanced splitter whose other input port is vacuum
passes half of a field to each output, and an analyzer projects a field onto
one transmission axis, yielding the detector operator for that arm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fock import _SQRT1_2, LinearForm


class ChannelField(NamedTuple):
    """Positive-frequency field of one channel: v e_v + h e_h."""

    v: LinearForm
    h: LinearForm


def vacuum_split(field: ChannelField) -> ChannelField:
    """Either output of a balanced splitter with vacuum in its other input
    port: the field times 1/sqrt2 (both ports carry the same field)."""
    return ChannelField(field.v.scale(_SQRT1_2), field.h.scale(_SQRT1_2))


def polarizer(field: ChannelField, theta: float) -> LinearForm:
    """Absorbing analyzer at angle theta: the transmitted detector operator
    cos(theta) * v + sin(theta) * h.  The orthogonal component is discarded."""
    return field.v.scale(math.cos(theta)).plus(field.h.scale(math.sin(theta)))
