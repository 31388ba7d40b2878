"""Bosonic mode labels.

A mode is identified by a small tuple of tags: the channel (beam line) it
belongs to, a polarization letter and an optional frequency tag for
two-color sources.  Equality of all tags is the only identity criterion, and
plain tuple order (channel, then polarization, then frequency) is the
canonical mode order that keeps occupation-vector keys deterministic.

The ten constants below are the package's modes, literals with the tag
values ModeId lists; no tag is validated, as no outside input names one.
"""

from __future__ import annotations

from typing import NamedTuple


class ModeId(NamedTuple):
    """Label of one bosonic mode.

    channel: beam tag, 1 or 2; 0 marks a source mode that is not
             assigned to a particular output beam.
    pol:     "V" or "H".
    freq:    "w1" or "w2" for two-color sources, else "".
    """

    channel: int
    pol: str
    freq: str = ""

    def __str__(self) -> str:
        return ":".join(tag for tag in (f"ch{self.channel}", self.freq, self.pol) if tag)


# Single-beam source modes (circularly polarized pair source).
BEAM_V = ModeId(0, "V")
BEAM_H = ModeId(0, "H")

# Two-channel down-conversion modes.
V1 = ModeId(1, "V")
H1 = ModeId(1, "H")
V2 = ModeId(2, "V")
H2 = ModeId(2, "H")

# Two-color cascade source modes.
W1V = ModeId(0, "V", "w1")
W1H = ModeId(0, "H", "w1")
W2V = ModeId(0, "V", "w2")
W2H = ModeId(0, "H", "w2")
