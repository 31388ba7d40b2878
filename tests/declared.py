"""The output differences this tree makes on purpose against BASE, for
`python tests/differ.py REV --expect stderr --declared tests/declared.py`.

BASE is the full hash of the commit the declarations were written against;
the differ applies them only where REV is that commit, and otherwise says
the file is stale and ignores it.  A change that makes differences on
purpose sets BASE to its merge base and DECLARED to its own entries.
DECLARED lists (name, one-line reason, predicate) entries; each predicate
takes a difference's category, input, parent outcome and tree outcome, and
claims the differences it holds for.  Against BASE, a declaration that
claims none fails the differ's run.
"""

from __future__ import annotations

from differ import within_ulps

BASE = "678a6dc8c5f3988e9b4017274b5a0f3725a7b746"

DECLARED = [
    (
        "fig1_conditional_off_the_pair_matrix",
        "fig1_conditional_check reads |c1^T M b|^2 off _pair_matrix, not the engine's singles rate: "
        "the last bit of a value may move",
        lambda category, given, old, new: (
            category == "api" and given == ("fig1_conditional_check", "circular_pair", False)
            and within_ulps(old, new, 1)
        ),
    ),
]
