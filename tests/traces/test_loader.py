"""Trace I/O: CSV and webcachesim round trips and error handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.loader import (
    load_trace_csv,
    load_trace_webcachesim,
    save_trace_csv,
    save_trace_webcachesim,
)
from repro.traces.request import Trace


@pytest.fixture()
def sample_trace():
    return Trace.from_tuples(
        [(0.5, 1, 100), (1.25, 2, 2048), (2.0, 1, 100)], name="sample"
    )


class TestCsv:
    def test_round_trip(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv"
        save_trace_csv(sample_trace, path)
        loaded = load_trace_csv(path)
        assert len(loaded) == len(sample_trace)
        for original, restored in zip(sample_trace, loaded):
            assert restored.obj_id == original.obj_id
            assert restored.size == original.size
            assert restored.time == pytest.approx(original.time, abs=1e-6)

    def test_name_defaults_to_stem(self, tmp_path, sample_trace):
        path = tmp_path / "mytrace.csv"
        save_trace_csv(sample_trace, path)
        assert load_trace_csv(path).name == "mytrace"

    def test_explicit_name(self, tmp_path, sample_trace):
        path = tmp_path / "x.csv"
        save_trace_csv(sample_trace, path)
        assert load_trace_csv(path, name="renamed").name == "renamed"

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(path)

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,obj_id,size\n1.0,2\n")
        with pytest.raises(ValueError, match="3 columns"):
            load_trace_csv(path)


class TestWebcachesim:
    def test_round_trip(self, tmp_path, sample_trace):
        path = tmp_path / "trace.tr"
        save_trace_webcachesim(sample_trace, path)
        loaded = load_trace_webcachesim(path)
        assert [r.obj_id for r in loaded] == [r.obj_id for r in sample_trace]
        assert [r.size for r in loaded] == [r.size for r in sample_trace]

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.tr"
        path.write_text("1.0 1 100\n\n2.0 2 200\n")
        assert len(load_trace_webcachesim(path)) == 2

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.tr"
        path.write_text("1.0 1\n")
        with pytest.raises(ValueError, match="3 fields"):
            load_trace_webcachesim(path)

    def test_indices_sequential(self, tmp_path, sample_trace):
        path = tmp_path / "trace.tr"
        save_trace_webcachesim(sample_trace, path)
        loaded = load_trace_webcachesim(path)
        assert [r.index for r in loaded] == [0, 1, 2]


#: (loader, file header, field separator, line number of row 0).
FORMATS = {
    "csv": (load_trace_csv, "time,obj_id,size\n", ",", 2),
    "webcachesim": (load_trace_webcachesim, "", " ", 1),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestRowValidation:
    def _write(self, tmp_path, fmt, rows):
        _, header, sep, _ = FORMATS[fmt]
        path = tmp_path / f"trace.{fmt}"
        path.write_text(header + "".join(sep.join(map(str, row)) + "\n" for row in rows))
        return path

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ((0.5, 3, 10), "decreases"),
            ((2.0, 3, 0), "size must be positive"),
            ((2.0, 3, -7), "size must be positive"),
            (("nan", 3, 10), "finite"),
            ((-1.0, 3, 10), "finite and non-negative"),
            (("soon", 3, 10), "soon"),
            ((2.0, 3, "big"), "big"),
        ],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, fmt, bad_row, message):
        loader, _, _, first_line = FORMATS[fmt]
        path = self._write(tmp_path, fmt, [(1.0, 1, 10), (1.0, 2, 10), bad_row])
        with pytest.raises(ValueError, match=message) as caught:
            loader(path)
        assert f"{path}:{first_line + 2}:" in str(caught.value)

    def test_equal_timestamps_are_accepted(self, tmp_path, fmt):
        loader = FORMATS[fmt][0]
        path = self._write(tmp_path, fmt, [(1.0, 1, 10), (1.0, 2, 10), (1.0, 1, 10)])
        assert [r.time for r in loader(path)] == [1.0, 1.0, 1.0]


ROWS = st.lists(
    st.tuples(
        st.floats(min_value=-2.0, max_value=50.0, allow_nan=False),
        st.integers(-(2**40), 2**40),
        st.integers(-3, 5000),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, fmt=st.sampled_from(sorted(FORMATS)))
def test_loaders_accept_exactly_the_valid_prefix(tmp_path_factory, rows, fmt):
    """Random rows either load verbatim or fail at the first bad row,
    with that row's ``path:line`` in the message."""
    loader, header, sep, first_line = FORMATS[fmt]
    path = tmp_path_factory.mktemp("fuzz") / f"trace.{fmt}"
    path.write_text(header + "".join(f"{t!r}{sep}{o}{sep}{s}\n" for t, o, s in rows))
    bad = next(
        (
            i
            for i, (t, _, s) in enumerate(rows)
            if t < 0 or s <= 0 or (i and t < rows[i - 1][0])
        ),
        None,
    )
    if bad is None:
        assert [(r.time, r.obj_id, r.size) for r in loader(path)] == rows
        return
    with pytest.raises(ValueError) as caught:
        loader(path)
    assert f"{path}:{first_line + bad}:" in str(caught.value)
