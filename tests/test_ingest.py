"""CSV ingest against the reference reader: the one-call parse and the
per-cell walk must give the same values, labels and errors."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffcorr import SampleMatrix, dataset, read_matrix_csv, read_sample_csv
from oracles import naive_read_csv

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")),
    st.integers(-999, 999).map(str),
    st.sampled_from(["1.5", "-0.25", "0", "-0", "1e-5", "2.5E+10", "-7e-310", "+.5", "5."]),
)
ODD_CELLS = st.sampled_from([
    "1_000", "١٢", "１", "nan", "inf", "-Infinity", "1e400", "#", "#1", "1#",
    "", " ", "oops", '"1.5"', '"1,5"', '" 2 "', "\x1c1", "1\x1f",
])
CELLS = st.one_of(
    NUMBERS,
    NUMBERS.map(lambda x: f" {x}\t"),
    ODD_CELLS,
)
LABELS = st.sampled_from(["A", "B", " C ", "grp", '"A,B"', ""])


@st.composite
def csv_files(draw):
    """The bytes of a CSV file: a header and rows of cells, mostly numeric,
    in a varied layout, malformed in a few of the ways real files are."""
    width = draw(st.integers(1, 4))
    header = [f"g{j}" for j in range(width)]
    label_at = draw(st.integers(0, width - 1))
    if draw(st.booleans()):
        header[label_at] = "grp"
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, width - 1))] = draw(st.sampled_from(['"h,1"', " g9 ", ""]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        odd = draw(st.integers(0, 5)) == 0
        row = [draw(CELLS if odd else NUMBERS) for _ in range(width)]
        if "grp" in header:
            row[header.index("grp")] = draw(LABELS)
        rows.append(row)
    if rows and draw(st.integers(0, 5)) == 0:  # a row of another width
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    lines = [",".join(row) for row in [header, *rows]]
    if len(lines) > 1 and draw(st.integers(0, 5)) == 0:  # a blank middle row
        lines.insert(draw(st.integers(1, len(lines) - 1)), draw(st.sampled_from(["", ",,", " "])))
    lines += draw(st.lists(st.sampled_from(["", ",,", " , ", ","]), max_size=2))  # trailing blanks
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def _outcome(read):
    """What a read gives: its arrays as (shape, bytes) and its labels, or the
    class, message and location of the error it raises."""
    try:
        result = read()
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return [
        (x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x for x in result
    ]


def _sample(read, path):
    sample = read(path)
    return sample.data, sample.names


def _reference_sample(path):
    names, _, values = naive_read_csv(path)
    return SampleMatrix(values, names)


def _matrix(path):
    col_labels, row_labels, values = naive_read_csv(path, 0)
    return values, tuple(row_labels), col_labels


# where np.loadtxt and float() disagree: a '#' comment, a blank row,
# underscores, non-ASCII digits, the separators 0x1c-0x1f, a longer row
# next to a label column
@settings(max_examples=300, deadline=None)
@given(content=csv_files())
@example(content=b"a,b\n1,2#\n3,4\n")
@example(content=b"a\n1\n\n2\n")
@example(content="a,b\n1_000,\u0661\u0662\n3,4\n".encode())
@example(content=b"a,b\n1\x1c,2\n3,\x1f4\n")
@example(content=b"grp,a\nA,1,2\nB,3\n")
def test_ingest_matches_the_reference_reader(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "in.csv")
        Path(path).write_bytes(content)
        got = _outcome(lambda: _sample(read_sample_csv, path))
        assert got == _outcome(lambda: _sample(_reference_sample, path))
        assert _outcome(lambda: read_matrix_csv(path)) == _outcome(lambda: _matrix(path))
        for label in (None, 0, "grp"):
            got = _outcome(lambda: dataset._read_table(path, label))
            assert got == _outcome(lambda: naive_read_csv(path, label))


def test_plain_numeric_file_takes_the_one_call_parse(tmp_path, monkeypatch):
    def walked(*args):
        raise AssertionError("the per-cell walk ran on a plain numeric file")

    monkeypatch.setattr(dataset, "_parse_cell", walked)
    x = np.random.default_rng(0).standard_normal((30, 5))
    path = tmp_path / "x.csv"
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header="a,b,c,d,e", comments="")
    assert np.array_equal(read_sample_csv(path).data, x)
    labeled = tmp_path / "labeled.csv"
    rows = [f"{'AB'[i % 2]}," + ",".join(format(v, ".17g") for v in row) for i, row in enumerate(x)]
    labeled.write_text("grp,a,b,c,d,e\r\n" + "\r\n".join(rows) + "\r\n\r\n")
    ds = dataset.read_labeled_csv(labeled, "grp")
    assert np.array_equal(ds.group1.data, x[::2]) and np.array_equal(ds.group2.data, x[1::2])
    values, row_labels, _ = read_matrix_csv(labeled)
    assert np.array_equal(values, x) and row_labels == tuple("AB"[i % 2] for i in range(30))
