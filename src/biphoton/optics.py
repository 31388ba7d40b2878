"""Propagation of per-channel polarization fields through linear elements.

A ChannelField is the positive-frequency field of one beam line, written in
the Heisenberg picture as a pair of annihilator combinations (vertical and
horizontal component).  Wave plates mix the two components with a 2x2 Jones
matrix, a balanced splitter mixes two fields, and an analyzer projects a
field onto one transmission axis, yielding the detector operator for that arm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fock import _SQRT1_2, LinearForm

#: 2x2 complex matrix acting on the (v, h) component pair, indexed [row][column].
JonesMatrix = tuple[tuple[complex, complex], tuple[complex, complex]]


class ChannelField(NamedTuple):
    """Positive-frequency field of one channel: v e_v + h e_h."""

    v: LinearForm
    h: LinearForm


def empty_field() -> ChannelField:
    """Vacuum-port field: both components identically zero."""
    return ChannelField(LinearForm(), LinearForm())


def hwp(axis_angle: float) -> JonesMatrix:
    """Half-wave plate with its fast axis at the given angle.

    hwp(0) flips the sign of the horizontal component (a pi phase difference
    between the components); hwp(pi/4) swaps the two components.
    """
    c, s = math.cos(2.0 * axis_angle), math.sin(2.0 * axis_angle)
    return (complex(c), complex(s)), (complex(s), complex(-c))


def apply_jones(field: ChannelField, matrix: JonesMatrix) -> ChannelField:
    """Mix the (v, h) components linearly."""
    v = field.v.scale(matrix[0][0]).plus(field.h.scale(matrix[0][1]))
    h = field.v.scale(matrix[1][0]).plus(field.h.scale(matrix[1][1]))
    return ChannelField(v, h)


def beamsplitter_5050(a: ChannelField, b: ChannelField) -> tuple[ChannelField, ChannelField]:
    """Balanced splitter: component-wise ((a+b)/sqrt2, (a-b)/sqrt2), returned
    as (sum port, difference port)."""

    def mix(x: LinearForm, y: LinearForm, sign: float) -> LinearForm:
        return x.scale(_SQRT1_2).plus(y.scale(sign * _SQRT1_2))

    out_sum = ChannelField(mix(a.v, b.v, 1.0), mix(a.h, b.h, 1.0))
    out_diff = ChannelField(mix(a.v, b.v, -1.0), mix(a.h, b.h, -1.0))
    return out_sum, out_diff


def polarizer(field: ChannelField, theta: float) -> LinearForm:
    """Absorbing analyzer at angle theta: the transmitted detector operator
    cos(theta) * v + sin(theta) * h.  The orthogonal component is discarded."""
    return field.v.scale(math.cos(theta)).plus(field.h.scale(math.sin(theta)))


def frequency_component(field: ChannelField, freq: str) -> ChannelField:
    """Restriction of the field to modes carrying one frequency tag (a color
    filter in front of the analyzer)."""

    def pick(form: LinearForm) -> LinearForm:
        return LinearForm({m: c for m, c in form.items() if m.freq == freq})

    return ChannelField(pick(field.v), pick(field.h))
