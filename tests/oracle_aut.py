"""Reference `.aut` renderer: the straightforward code `chorcheck.conformance`
used before state numbers were rendered from one table.

Every transition formats its two state numbers afresh.  `export_aut` must
give exactly these bytes.
"""

from __future__ import annotations

from chorcheck.conformance import _render_label
from chorcheck.semantics import Lts


def export_aut(lts: Lts) -> bytes:
    labels = {id(label): label for _, label, _ in lts.transitions}
    middle = {i: f', "{_render_label(label)}", ' for i, label in labels.items()}
    lines = [f"des ({lts.initial}, {len(lts.transitions)}, {lts.n_states})"]
    lines += [f"({src}{middle[id(label)]}{tgt})" for src, label, tgt in lts.transitions]
    return ("\n".join(lines) + "\n").encode("ascii")
