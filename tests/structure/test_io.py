"""Structure file formats: bpseq, ct, vienna."""

import io

import pytest
from hypothesis import given

from repro.errors import ParseError
from repro.structure.arcs import Arc, Structure
from repro.structure.dotbracket import from_dotbracket
from repro.structure.io import (
    load_structure,
    read_bpseq,
    read_ct,
    read_vienna,
    write_bpseq,
    write_ct,
    write_vienna,
)
from repro.structure.stockholm import read_stockholm
from tests.conftest import structures


@pytest.fixture
def sample() -> Structure:
    return Structure(6, [(0, 5), (1, 4)], sequence="GGAACC")


class TestBpseq:
    def test_round_trip_stream(self, sample):
        buffer = io.StringIO()
        write_bpseq(sample, buffer)
        buffer.seek(0)
        again = read_bpseq(buffer)
        assert again == sample
        assert again.sequence == "GGAACC"

    def test_round_trip_file(self, sample, tmp_path):
        path = tmp_path / "x.bpseq"
        write_bpseq(sample, path)
        assert read_bpseq(path) == sample

    def test_comments_and_blanks_ignored(self):
        text = "# header\n1 G 4\n\n2 C 0\n3 A 0\n4 C 1\n"
        s = read_bpseq(io.StringIO(text))
        assert s.arcs == (Arc(0, 3),)

    def test_empty(self):
        assert read_bpseq(io.StringIO("")).length == 0

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="expected 3 fields"):
            read_bpseq(io.StringIO("1 G\n"))

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            read_bpseq(io.StringIO("1 G x\n"))

    def test_duplicate_index(self):
        with pytest.raises(ParseError, match="duplicate index"):
            read_bpseq(io.StringIO("1 G 0\n1 C 0\n"))

    def test_non_contiguous(self):
        with pytest.raises(ParseError, match="not contiguous"):
            read_bpseq(io.StringIO("1 G 0\n3 C 0\n"))

    def test_asymmetric_pairing(self):
        with pytest.raises(ParseError, match="asymmetric"):
            read_bpseq(io.StringIO("1 G 3\n2 C 0\n3 A 2\n"))

    def test_pair_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            read_bpseq(io.StringIO("1 G 9\n2 C 0\n"))

    @given(structures())
    def test_round_trip_property(self, s: Structure):
        buffer = io.StringIO()
        write_bpseq(s, buffer)
        buffer.seek(0)
        assert read_bpseq(buffer) == s


class TestCt:
    def test_round_trip(self, sample, tmp_path):
        path = tmp_path / "x.ct"
        write_ct(sample, path, name="demo")
        again = read_ct(path)
        assert again == sample
        assert again.sequence == "GGAACC"

    def test_empty(self):
        assert read_ct(io.StringIO("")).length == 0

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            read_ct(io.StringIO("not-a-number x\n"))

    def test_short_line(self):
        with pytest.raises(ParseError, match="expected >= 6 fields"):
            read_ct(io.StringIO("1 demo\n1 G 0 2 0\n"))

    def test_length_mismatch(self):
        with pytest.raises(ParseError, match="contiguous"):
            read_ct(io.StringIO("2 demo\n1 G 0 2 0 1\n"))

    @given(structures())
    def test_round_trip_property(self, s: Structure):
        buffer = io.StringIO()
        write_ct(s, buffer)
        buffer.seek(0)
        assert read_ct(buffer) == s


class TestVienna:
    def test_round_trip(self, sample, tmp_path):
        path = tmp_path / "x.vienna"
        write_vienna(sample, path, name="demo")
        name, again = read_vienna(path)
        assert name == "demo"
        assert again == sample

    def test_structure_only(self):
        name, s = read_vienna(io.StringIO("((..))\n"))
        assert s == from_dotbracket("((..))")
        assert name == "structure"

    def test_length_mismatch(self):
        with pytest.raises(ParseError, match="length"):
            read_vienna(io.StringIO(">x\nACGU\n(.)\n"))

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            read_vienna(io.StringIO(""))


class TestLoadStructure:
    def test_by_extension(self, sample, tmp_path):
        for ext, writer in (
            (".bpseq", write_bpseq),
            (".ct", write_ct),
            (".vienna", write_vienna),
        ):
            path = tmp_path / f"s{ext}"
            writer(sample, path)
            assert load_structure(path) == sample

    def test_sniffing_unknown_extension(self, sample, tmp_path):
        path = tmp_path / "s.txt"
        write_vienna(sample, path)
        assert load_structure(path) == sample
        path2 = tmp_path / "s2.dat"
        write_bpseq(sample, path2)
        assert load_structure(path2) == sample


class TestUndecodableFiles:
    """A file that is not UTF-8 text raises ParseError naming the path."""

    @pytest.mark.parametrize(
        "read, name",
        [
            (read_bpseq, "bad.bpseq"),
            (read_ct, "bad.ct"),
            (read_vienna, "bad.vienna"),
            (read_stockholm, "bad.sto"),
            (load_structure, "bad.bpseq"),
            (load_structure, "bad.txt"),
        ],
    )
    def test_invalid_bytes_raise_parse_error(self, read, name, tmp_path):
        path = tmp_path / name
        path.write_bytes(b"1 G 0\n2 \xff 0\n")
        with pytest.raises(ParseError, match=name):
            read(path)
