"""Table writer: byte identity with the per-value writer, chunking, errors."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsepdm import datafiles


def oracle_format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (complex, np.complexfloating)):
        return str(complex(v))
    try:
        return repr(float(v))
    except (TypeError, ValueError):
        return str(v)


def oracle_write_rows(path, header, rows):
    """The row-at-a-time writer: one `format_value` call per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(oracle_format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _special_floats(dtype):
    return st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                            float(np.finfo(dtype).smallest_subnormal),
                            -float(np.finfo(dtype).smallest_subnormal)])


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_KINDS = {
    "int8": st.integers(-128, 127).map(np.int8),
    "int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "uint64": st.integers(0, 2**64 - 1).map(np.uint64),
    "float32": st.one_of(st.floats(width=32), _special_floats(np.float32)).map(np.float32),
    "float64": st.one_of(st.floats(), _special_floats(np.float64)).map(np.float64),
    "bool": st.booleans().map(np.bool_),
    "str": _TEXT,
    "complex": st.complex_numbers(),
    "list": st.one_of(st.integers(), st.floats(), st.booleans(), _TEXT,
                      st.complex_numbers(), st.lists(st.integers(), max_size=3)),
}
# Lengths around the chunk boundary as well as short tables.
_LENGTHS = st.one_of(st.integers(0, 40),
                     st.sampled_from([datafiles.CHUNK_ROWS - 1, datafiles.CHUNK_ROWS,
                                      datafiles.CHUNK_ROWS + 1, 2 * datafiles.CHUNK_ROWS + 3]))


@st.composite
def tables(draw):
    """(header, columns): ndarrays for numpy kinds, a list or an ndarray for
    str and complex, Python lists otherwise; long columns repeat a short
    drawn pattern."""
    n = draw(_LENGTHS)
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        pattern = draw(st.lists(_KINDS[kind], min_size=1, max_size=12))
        cells = [pattern[i % len(pattern)] for i in range(n)]
        if kind == "list":
            columns.append(cells)
        elif kind in ("str", "complex"):
            columns.append(draw(st.sampled_from([cells, np.array(cells, dtype=kind)])))
        else:
            columns.append(np.array(cells, dtype=np.dtype(kind)))
    return [f"c{i}" for i in range(len(columns))], columns


# Complex cells, Python or numpy scalars from a complex ndarray column, are
# written the way a Python complex is, real and imaginary parts both.
@given(table=tables())
def test_column_writer_matches_row_writer(tmp_path_factory, table):
    header, columns = table
    out = tmp_path_factory.mktemp("w")
    datafiles.write_rows(out / "new.csv", header, columns)
    oracle_write_rows(out / "old.csv", header, zip(*columns))
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@given(rows=st.lists(st.tuples(st.integers(), _TEXT, st.floats(), st.booleans()),
                     max_size=30))
def test_row_tables_through_zip_match_row_writer(tmp_path_factory, rows):
    header = ["i", "s", "x", "b"]
    out = tmp_path_factory.mktemp("w")
    datafiles.write_rows(out / "new.csv", header, zip(*rows, strict=True))
    oracle_write_rows(out / "old.csv", header, rows)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_two_dimensional_views_match_row_writer(tmp_path):
    """``states.T``-style columns: strided rows of a 2-D array."""
    rng = np.random.default_rng(5)
    t = np.arange(3000) * 1e-8
    states = rng.normal(size=(3000, 4)) * [5, 5, 200, 200]
    u = rng.choice([-15.0, 0.0, 15.0], size=(3000, 2))
    datafiles.write_rows(tmp_path / "new.csv", list("tabcdef"), (t, *states.T, *u.T))
    oracle_write_rows(tmp_path / "old.csv", list("tabcdef"),
                      np.column_stack([t, states, u]))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("columns", [[], [np.empty(0), np.empty(0, dtype=int)],
                                     zip(*[], strict=True)])
def test_header_only_table(tmp_path, columns):
    datafiles.write_rows(tmp_path / "new.csv", ["a", "b"], columns)
    oracle_write_rows(tmp_path / "old.csv", ["a", "b"], [])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@given(rows=st.lists(st.lists(st.integers(), min_size=1, max_size=4), min_size=2,
                     max_size=6).filter(lambda rows: len({len(r) for r in rows}) > 1))
def test_ragged_row_raises_before_writing(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("w") / "t.csv"
    with pytest.raises(ValueError):
        datafiles.write_rows(path, [f"c{i}" for i in range(max(map(len, rows)))],
                             zip(*rows, strict=True))
    assert not path.exists()


def test_ragged_columns_and_header_mismatch_raise(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="ragged"):
        datafiles.write_rows(path, ["a", "b"], (np.zeros(3), [1, 2]))
    with pytest.raises(ValueError, match="header"):
        datafiles.write_rows(path, ["a", "b", "c"], (np.zeros(3), np.ones(3)))
    assert not path.exists()


@pytest.mark.parametrize("v", [np.complex128(1 + 2j), np.complex64(1 + 2j), 1 + 2j])
def test_complex_cell_written_like_python_complex(tmp_path, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning from a float cast
        assert datafiles.format_value(v) == "(1+2j)"
        datafiles.write_rows(tmp_path / "c.csv", ["z"], [np.array([v, 3j])])
    assert (tmp_path / "c.csv").read_text() == "z\n(1+2j)\n3j\n"
