"""Fuzzing the parsers: arbitrary text must parse or raise ParseError —
never crash with anything else."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError, StructureError
from repro.structure.dotbracket import from_dotbracket
from repro.structure.io import read_bpseq, read_ct, read_vienna
from repro.structure.stockholm import read_stockholm, wuss_to_structure

_EXPECTED = (ParseError, StructureError)


@given(st.text(max_size=200))
@settings(max_examples=150, deadline=None)
def test_dotbracket_never_crashes(text):
    try:
        structure = from_dotbracket(text)
    except _EXPECTED:
        return
    assert structure.length == len("".join(text.split()))


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_bpseq_never_crashes(text):
    try:
        read_bpseq(io.StringIO(text))
    except _EXPECTED:
        pass


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_ct_never_crashes(text):
    try:
        read_ct(io.StringIO(text))
    except _EXPECTED:
        pass


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_vienna_never_crashes(text):
    try:
        read_vienna(io.StringIO(text))
    except _EXPECTED:
        pass


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=30),
            st.text(alphabet="ACGUN", min_size=1, max_size=1),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_bpseq_structured_fuzz(rows):
    """Structurally plausible bpseq content: either a valid structure or a
    ParseError/StructureError with a meaningful message."""
    text = "\n".join(f"{idx} {base} {pair}" for idx, base, pair in rows)
    try:
        structure = read_bpseq(io.StringIO(text))
    except _EXPECTED as exc:
        assert str(exc)
        return
    assert structure.length >= 0


# ----------------------------------------------------------------------
# Stockholm: raw text, plus lines shaped like sequence and SS_cons rows
# so the fuzzer reaches the width checks and the projection.
# ----------------------------------------------------------------------
_WUSS_CHARS = "<>()[]{}AaBb.,:_-~x"
_STOCKHOLM_LINE = st.one_of(
    st.text(max_size=40),
    st.tuples(
        st.sampled_from(["s1", "s2", "#=GS s1"]),
        st.text(alphabet="ACGUacgu.-~_", max_size=20),
    ).map(" ".join),
    st.text(alphabet=_WUSS_CHARS, max_size=20).map("#=GC SS_cons ".__add__),
    st.sampled_from(["//", "#=GF ID x", ""]),
)


@given(
    st.one_of(
        st.text(max_size=300),
        st.lists(_STOCKHOLM_LINE, max_size=8).map("\n".join),
    ),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_stockholm_never_crashes(text, drop_pseudoknots):
    try:
        alignment = read_stockholm(
            io.StringIO("# STOCKHOLM 1.0\n" + text),
            drop_pseudoknots=drop_pseudoknots,
        )
        for name in alignment.names:
            alignment.project(name)
    except ReproError:
        pass


@given(
    st.one_of(st.text(max_size=200), st.text(alphabet=_WUSS_CHARS, max_size=60))
)
@settings(max_examples=150, deadline=None)
def test_wuss_never_crashes(text):
    try:
        structure = wuss_to_structure(text)
    except ReproError:
        return
    assert structure.length == len(text)
