"""Bosonic mode labels.

A mode is identified by a small tuple of tags: the channel (beam line) it
belongs to, a polarization letter and an optional frequency tag for
two-color sources.  Equality of all tags is the only identity criterion, and
plain tuple order (channel, then polarization, then frequency) is the
canonical mode order that keeps occupation-vector keys deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

POLARIZATIONS = ("V", "H")
FREQUENCIES = ("w1", "w2")


class ModeId(NamedTuple):
    """Label of one bosonic mode.

    channel: small integer beam tag (0 marks a source mode that is not
             assigned to a particular output beam).
    pol:     "V" or "H".
    freq:    "w1" or "w2" for two-color sources, else "".
    """

    channel: int
    pol: str
    freq: str = ""

    def __str__(self) -> str:
        return ":".join(tag for tag in (f"ch{self.channel}", self.freq, self.pol) if tag)


def pol_mode(channel: int, pol: str) -> ModeId:
    """Polarized mode in a numbered beam channel."""
    if pol not in POLARIZATIONS:
        raise ValueError(f"unknown polarization tag {pol!r}")
    return ModeId(channel, pol)


def freq_mode(freq: str, pol: str) -> ModeId:
    """Polarized source mode carrying a frequency tag (two-color emission)."""
    mode = pol_mode(0, pol)
    if freq not in FREQUENCIES:
        raise ValueError(f"unknown frequency tag {freq!r}")
    return mode._replace(freq=freq)


# Single-beam source modes (circularly polarized pair source).
BEAM_V = pol_mode(0, "V")
BEAM_H = pol_mode(0, "H")

# Two-channel down-conversion modes.
V1 = pol_mode(1, "V")
H1 = pol_mode(1, "H")
V2 = pol_mode(2, "V")
H2 = pol_mode(2, "H")

# Two-color cascade source modes.
W1V = freq_mode("w1", "V")
W1H = freq_mode("w1", "H")
W2V = freq_mode("w2", "V")
W2H = freq_mode("w2", "H")
