"""The artifact CSV dialect: what ``write_csv`` writes reads back equal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread.csvio import read_csv, read_rows, write_csv

# Cells lean on the characters CSV must quote, plus empty and non-ASCII text.
special = st.sampled_from([",", '"', "\n", "\r", " ", "a", "é", "漢"])
cells = st.text(alphabet=special) | st.text()


@st.composite
def tables(draw):
    header = draw(st.lists(cells, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(cells, min_size=len(header), max_size=len(header))))
    return header, rows


class TestRoundTrip:
    @given(tables())
    @settings(max_examples=200, deadline=None)
    def test_written_rows_read_back_equal(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        assert read_rows(path, header) == rows
        with read_csv(path) as (found, reader):
            assert (found, list(reader)) == (header, rows)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with read_csv(path) as (header, rows):
            assert (header, list(rows)) == (None, [])


class TestHeaderCheck:
    def test_wrong_header_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["user", "raw"], [["u", 1]])
        with pytest.raises(ValueError, match=r"unexpected header in .*t\.csv: \['user', 'raw'\]"):
            read_rows(path, ["user", "group"])

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="unexpected header"):
            read_rows(path, ["a", "b"])


def test_rows_from_a_generator_are_written_as_they_are_drawn(tmp_path):
    """Each row is written before the next is drawn: nothing is materialized."""
    events = []

    class Row(list):
        def __iter__(self):
            events.append(("write", self[0]))
            return super().__iter__()

    def rows():
        for k in ("0", "1", "2"):
            events.append(("draw", k))
            yield Row([k])

    path = tmp_path / "t.csv"
    write_csv(path, ["k"], rows())
    assert events == [
        ("draw", "0"), ("write", "0"), ("draw", "1"), ("write", "1"), ("draw", "2"), ("write", "2")
    ]
    assert read_rows(path, ["k"]) == [["0"], ["1"], ["2"]]
