"""Stockholm alignment files and WUSS consensus structures.

Rfam — the realistic source of family-level RNA secondary structures —
distributes alignments in Stockholm format, with the consensus structure
on ``#=GC SS_cons`` lines in WUSS notation.  This module reads enough of
the format to feed the comparison pipeline:

* sequences (gapped, possibly wrapped over multiple blocks) per name;
* the consensus structure, where the WUSS bracket families ``<>``, ``()``,
  ``[]`` and ``{}`` all denote nested pairs, letters ``Aa``/``Bb``/...
  denote **pseudoknotted** pairs (rejected by this model, or optionally
  dropped), and everything else (``.,:_-~``) is unpaired;
* per-sequence structures obtained by **projecting** the consensus onto a
  gapped sequence: columns where the sequence has a gap lose their pairs.

Only the subset of Stockholm needed for structure work is implemented;
unknown annotation lines are ignored, as the format prescribes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TextIO

from repro.errors import ParseError, PseudoknotError
from repro.structure.arcs import Structure
from repro.structure.io import _as_text_stream

__all__ = ["StockholmAlignment", "read_stockholm", "wuss_to_structure"]

_OPENERS = {"<": ">", "(": ")", "[": "]", "{": "}"}
_CLOSERS = {v: k for k, v in _OPENERS.items()}
_UNPAIRED = set(".,:_-~")
_GAPS = set(".-~_")


def wuss_to_structure(
    text: str,
    *,
    drop_pseudoknots: bool = False,
) -> Structure:
    """Parse a WUSS (or plain dot-bracket) consensus string.

    All bracket families pair with their own kind; alphabetic characters
    mark pseudoknot pairs (upper = open, lower = close), which either
    raise :class:`PseudoknotError` or are dropped.
    """
    arcs: list[tuple[int, int]] = []
    stacks: dict[str, list[int]] = {opener: [] for opener in _OPENERS}
    knot_stacks: dict[str, list[int]] = {}
    knot_arcs: list[tuple[int, int]] = []
    for pos, char in enumerate(text):
        if char in _OPENERS:
            stacks[char].append(pos)
        elif char in _CLOSERS:
            opener = _CLOSERS[char]
            if not stacks[opener]:
                raise ParseError(
                    f"WUSS: unbalanced {char!r} at column {pos}"
                )
            arcs.append((stacks[opener].pop(), pos))
        elif char.isalpha():
            if char.isupper():
                knot_stacks.setdefault(char, []).append(pos)
            else:
                stack = knot_stacks.get(char.upper())
                if not stack:
                    raise ParseError(
                        f"WUSS: pseudoknot close {char!r} at column {pos} "
                        "without a matching open"
                    )
                knot_arcs.append((stack.pop(), pos))
        elif char in _UNPAIRED:
            continue
        else:
            raise ParseError(
                f"WUSS: unexpected character {char!r} at column {pos}"
            )
    for opener, stack in stacks.items():
        if stack:
            raise ParseError(
                f"WUSS: unbalanced {opener!r} at column {stack[-1]}"
            )
    for letter, stack in knot_stacks.items():
        if stack:
            raise ParseError(
                f"WUSS: pseudoknot open {letter!r} at column {stack[-1]} "
                "never closed"
            )
    if knot_arcs and not drop_pseudoknots:
        crossing = knot_arcs[0]
        raise PseudoknotError(crossing, arcs[0] if arcs else crossing)
    # Bracket families can themselves cross each other in exotic WUSS; the
    # Structure constructor is the arbiter of the non-pseudoknot model.
    return Structure(len(text), arcs)


@dataclass(frozen=True)
class StockholmAlignment:
    """A parsed Stockholm file: gapped sequences plus consensus structure."""

    names: tuple[str, ...]
    sequences: dict[str, str]  # gapped, full alignment width
    consensus: Structure  # over alignment columns
    consensus_text: str

    @property
    def width(self) -> int:
        return self.consensus.length

    def project(self, name: str) -> Structure:
        """The consensus structure projected onto one (degapped) sequence.

        Columns where the sequence carries a gap disappear; pairs with a
        gapped endpoint are dropped.  The result carries the degapped
        sequence.
        """
        try:
            gapped = self.sequences[name]
        except KeyError:
            raise KeyError(
                f"no sequence {name!r}; available: {sorted(self.sequences)}"
            ) from None
        keep = [pos for pos, ch in enumerate(gapped) if ch not in _GAPS]
        new_index = {pos: k for k, pos in enumerate(keep)}
        arcs = [
            (new_index[a.left], new_index[a.right])
            for a in self.consensus.arcs
            if a.left in new_index and a.right in new_index
        ]
        sequence = "".join(gapped[pos] for pos in keep).upper()
        return Structure(len(keep), arcs, sequence=sequence)


def read_stockholm(
    source: str | os.PathLike | TextIO,
    *,
    drop_pseudoknots: bool = True,
) -> StockholmAlignment:
    """Read one Stockholm alignment (``# STOCKHOLM 1.0`` ... ``//``).

    Sequence and ``SS_cons`` lines may be wrapped over multiple blocks;
    fragments are concatenated per the format.  Pseudoknot letters in the
    consensus are dropped by default (Rfam uses them routinely) — pass
    ``drop_pseudoknots=False`` to reject such families instead.
    """
    stream, owned = _as_text_stream(source)
    try:
        lines = stream.read().splitlines()
    finally:
        if owned:
            stream.close()

    if not lines or not lines[0].startswith("# STOCKHOLM"):
        raise ParseError("not a Stockholm file (missing '# STOCKHOLM' header)")

    order: list[str] = []
    fragments: dict[str, list[str]] = {}
    ss_fragments: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped == "//":
            continue
        if stripped.startswith("#=GC"):
            fields = stripped.split()
            if len(fields) >= 3 and fields[1] == "SS_cons":
                ss_fragments.append(fields[2])
            continue
        if stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise ParseError(
                f"stockholm line {lineno}: expected 'name sequence', got "
                f"{len(fields)} fields"
            )
        name, fragment = fields
        if name not in fragments:
            order.append(name)
            fragments[name] = []
        fragments[name].append(fragment)

    if not ss_fragments:
        raise ParseError("stockholm: no '#=GC SS_cons' consensus structure")
    consensus_text = "".join(ss_fragments)
    sequences = {name: "".join(parts) for name, parts in fragments.items()}
    for name, seq in sequences.items():
        if len(seq) != len(consensus_text):
            raise ParseError(
                f"stockholm: sequence {name!r} has width {len(seq)} but "
                f"SS_cons has width {len(consensus_text)}"
            )
    consensus = wuss_to_structure(
        consensus_text, drop_pseudoknots=drop_pseudoknots
    )
    return StockholmAlignment(
        names=tuple(order),
        sequences=sequences,
        consensus=consensus,
        consensus_text=consensus_text,
    )
