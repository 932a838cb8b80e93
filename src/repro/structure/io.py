"""File formats for RNA secondary structures.

Three formats commonly produced by structure databases and folding tools are
supported, enough to load real data into the comparison pipeline:

``bpseq``
    One line per position: ``index base pair`` with 1-based indices and
    ``pair == 0`` for unpaired positions (the format used by the Comparative
    RNA Web site, the source of the paper's 23S rRNA structures).
``ct``
    The Zuker connect format: a header line with the length, then
    ``index base prev next pair index`` per position, 1-based.
``vienna``
    FASTA-like: ``>name`` line, sequence line, dot-bracket line.
"""

from __future__ import annotations

import io
import os
from typing import TextIO

from repro.errors import ParseError
from repro.structure.arcs import Structure
from repro.structure.dotbracket import from_dotbracket, to_dotbracket

__all__ = [
    "read_bpseq",
    "write_bpseq",
    "read_ct",
    "write_ct",
    "read_vienna",
    "write_vienna",
    "load_structure",
]


def _as_text_stream(source: str | os.PathLike | TextIO) -> tuple[TextIO, bool]:
    """Return a readable text stream and whether we own (must close) it.

    A path is read and decoded as UTF-8 up front, so a file that is not
    UTF-8 text raises :class:`ParseError` naming it.
    """
    if hasattr(source, "read"):
        return source, False  # type: ignore[return-value]
    path = os.fspath(source)
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None), True
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def _pairs_to_structure(
    pairs: dict[int, int], bases: dict[int, str], length: int, what: str
) -> Structure:
    arcs = []
    for pos, mate in pairs.items():
        if mate == 0:
            continue
        i, j = pos - 1, mate - 1
        if not 0 <= j < length:
            raise ParseError(f"{what}: pair index {mate} out of range at line {pos}")
        back = pairs.get(mate, 0)
        if back != pos:
            raise ParseError(
                f"{what}: asymmetric pairing {pos}<->{mate} (reverse says {back})"
            )
        if i < j:
            arcs.append((i, j))
    seq = None
    if bases and len(bases) == length:
        seq = "".join(bases[k] for k in sorted(bases))
    return Structure(length, arcs, sequence=seq)


# ----------------------------------------------------------------------
# bpseq
# ----------------------------------------------------------------------
def read_bpseq(source: str | os.PathLike | TextIO) -> Structure:
    """Read a bpseq file (``index base pair``, 1-based, 0 = unpaired)."""
    stream, owned = _as_text_stream(source)
    try:
        pairs: dict[int, int] = {}
        bases: dict[int, str] = {}
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(
                    f"bpseq line {lineno}: expected 3 fields, got {len(fields)}"
                )
            try:
                idx, base, pair = int(fields[0]), fields[1], int(fields[2])
            except ValueError as exc:
                raise ParseError(f"bpseq line {lineno}: {exc}") from exc
            if idx in pairs:
                raise ParseError(f"bpseq line {lineno}: duplicate index {idx}")
            pairs[idx] = pair
            bases[idx] = base
        if not pairs:
            return Structure(0, ())
        length = max(pairs)
        if sorted(pairs) != list(range(1, length + 1)):
            raise ParseError("bpseq: position indices are not contiguous from 1")
        return _pairs_to_structure(pairs, bases, length, "bpseq")
    finally:
        if owned:
            stream.close()


def write_bpseq(structure: Structure, target: str | os.PathLike | TextIO) -> None:
    """Write a structure in bpseq format."""
    stream, owned = (
        (target, False)
        if hasattr(target, "write")
        else (open(os.fspath(target), "w", encoding="utf-8"), True)
    )
    try:
        seq = structure.sequence or "N" * structure.length
        for pos in range(structure.length):
            mate = structure.partner_of(pos)
            stream.write(f"{pos + 1} {seq[pos]} {mate + 1 if mate >= 0 else 0}\n")
    finally:
        if owned:
            stream.close()


# ----------------------------------------------------------------------
# ct
# ----------------------------------------------------------------------
def read_ct(source: str | os.PathLike | TextIO) -> Structure:
    """Read a Zuker connect (.ct) file."""
    stream, owned = _as_text_stream(source)
    try:
        header = stream.readline()
        if not header.strip():
            return Structure(0, ())
        try:
            length = int(header.split()[0])
        except (IndexError, ValueError) as exc:
            raise ParseError(f"ct header not parseable: {header!r}") from exc
        pairs: dict[int, int] = {}
        bases: dict[int, str] = {}
        for lineno, line in enumerate(stream, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 6:
                raise ParseError(
                    f"ct line {lineno}: expected >= 6 fields, got {len(fields)}"
                )
            try:
                idx, base, pair = int(fields[0]), fields[1], int(fields[4])
            except ValueError as exc:
                raise ParseError(f"ct line {lineno}: {exc}") from exc
            pairs[idx] = pair
            bases[idx] = base
        # Compare lengths first: a bogus header like 10**20 must not
        # materialize list(range(...)) (OverflowError past C ssize_t).
        if len(pairs) != length or sorted(pairs) != list(range(1, length + 1)):
            raise ParseError(
                f"ct: expected {length} contiguous positions, got {len(pairs)}"
            )
        return _pairs_to_structure(pairs, bases, length, "ct")
    finally:
        if owned:
            stream.close()


def write_ct(
    structure: Structure,
    target: str | os.PathLike | TextIO,
    name: str = "structure",
) -> None:
    """Write a structure in Zuker connect (.ct) format."""
    stream, owned = (
        (target, False)
        if hasattr(target, "write")
        else (open(os.fspath(target), "w", encoding="utf-8"), True)
    )
    try:
        n = structure.length
        seq = structure.sequence or "N" * n
        stream.write(f"{n} {name}\n")
        for pos in range(n):
            mate = structure.partner_of(pos)
            nxt = pos + 2 if pos + 1 < n else 0
            stream.write(
                f"{pos + 1} {seq[pos]} {pos} {nxt} "
                f"{mate + 1 if mate >= 0 else 0} {pos + 1}\n"
            )
    finally:
        if owned:
            stream.close()


# ----------------------------------------------------------------------
# vienna
# ----------------------------------------------------------------------
def read_vienna(source: str | os.PathLike | TextIO) -> tuple[str, Structure]:
    """Read a Vienna file; returns ``(name, structure)``."""
    stream, owned = _as_text_stream(source)
    try:
        lines = [line.strip() for line in stream if line.strip()]
    finally:
        if owned:
            stream.close()
    if not lines:
        raise ParseError("vienna: empty input")
    name = "structure"
    if lines[0].startswith(">"):
        name = lines[0][1:].strip() or name
        lines = lines[1:]
    if len(lines) == 1:
        return name, from_dotbracket(lines[0])
    if len(lines) >= 2:
        seq, db = lines[0], lines[1].split()[0]
        if len(seq) != len(db):
            raise ParseError(
                f"vienna: sequence length {len(seq)} != structure length {len(db)}"
            )
        return name, from_dotbracket(db, sequence=seq)
    raise ParseError("vienna: expected a dot-bracket line")


def write_vienna(
    structure: Structure,
    target: str | os.PathLike | TextIO,
    name: str = "structure",
) -> None:
    """Write a structure in Vienna (FASTA + dot-bracket) format."""
    stream, owned = (
        (target, False)
        if hasattr(target, "write")
        else (open(os.fspath(target), "w", encoding="utf-8"), True)
    )
    try:
        stream.write(f">{name}\n")
        stream.write((structure.sequence or "N" * structure.length) + "\n")
        stream.write(to_dotbracket(structure) + "\n")
    finally:
        if owned:
            stream.close()


def load_structure(path: str | os.PathLike) -> Structure:
    """Load a structure, inferring the format from the file extension."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext == ".bpseq":
        return read_bpseq(path)
    if ext == ".ct":
        return read_ct(path)
    if ext in (".vienna", ".fold", ".dbn", ".fasta", ".fa"):
        return read_vienna(path)[1]
    # Fall back to sniffing: try vienna then bpseq.
    stream, _ = _as_text_stream(path)
    text = stream.read()
    try:
        return read_vienna(io.StringIO(text))[1]
    except ParseError:
        return read_bpseq(io.StringIO(text))
