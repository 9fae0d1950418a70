import csv
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tabfuse.schema
from tabfuse.errors import DataError
from tabfuse.schema import (
    DEFAULT_MISSING_VALUES,
    ColumnKind,
    ColumnSpec,
    DataTable,
    TableSchema,
    load_csv,
    load_schema,
    save_schema,
    write_csv,
)

# Python 3.10's csv module can neither write nor read NUL.
NUL_OK = sys.version_info >= (3, 11)
# Text that CSV quoting and line handling treat specially.
AWKWARD = [",", '"', "\r", "\n", "\r\n", " ", "NA", "a", "\u00e9", "\U0001F600"]
AWKWARD += ["\x00"] if NUL_OK else []
CELLS = (
    st.none()
    | st.lists(st.sampled_from(AWKWARD), max_size=4).map("".join)
    | st.text(max_size=3).filter(lambda text: NUL_OK or "\x00" not in text)
)
QUOTED_LABELS = ("home", 'admitted, "ward 3"\r\n')


def make_schema():
    return TableSchema(
        columns=(
            ColumnSpec("temperature", ColumnKind.NUMERICAL),
            ColumnSpec("complaint", ColumnKind.CATEGORICAL),
            ColumnSpec("outcome", ColumnKind.CATEGORICAL),
        ),
        target="outcome",
        class_labels=("home", "admitted"),
    )


def quoting_schema():
    """A schema whose second column name and second class label csv must quote."""
    return TableSchema(
        columns=(
            ColumnSpec("temperature", ColumnKind.NUMERICAL),
            ColumnSpec('complaint, "free text"', ColumnKind.CATEGORICAL),
            ColumnSpec("outcome", ColumnKind.CATEGORICAL),
        ),
        target="outcome",
        class_labels=QUOTED_LABELS,
    )


QUOTING_ROWS = st.lists(
    st.tuples(CELLS, CELLS, st.sampled_from([None, *QUOTED_LABELS])), max_size=12
)


def csv_writer_bytes(header, rows) -> bytes:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


class TestTableSchema:
    def test_basic_properties(self):
        s = make_schema()
        assert s.column_names == ("temperature", "complaint", "outcome")
        assert s.numeric_feature_names == ("temperature",)
        assert s.categorical_feature_names == ("complaint",)
        assert s.n_classes == 2

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            TableSchema(
                (ColumnSpec("a", "numerical"), ColumnSpec("a", "categorical")),
                target="a",
                class_labels=("x", "y"),
            )

    def test_target_must_exist(self):
        with pytest.raises(DataError, match="not found"):
            TableSchema(
                (ColumnSpec("a", "numerical"),), target="b", class_labels=("x", "y")
            )

    def test_target_must_be_categorical(self):
        with pytest.raises(DataError, match="categorical"):
            TableSchema(
                (ColumnSpec("a", "numerical"),), target="a", class_labels=("x", "y")
            )

    def test_needs_two_class_labels(self):
        with pytest.raises(DataError, match="2 class labels"):
            TableSchema(
                (ColumnSpec("a", "categorical"),), target="a", class_labels=("x",)
            )

    def test_kind_coercion_from_string(self):
        spec = ColumnSpec("a", "numerical")
        assert spec.kind is ColumnKind.NUMERICAL

    def test_json_round_trip(self, tmp_path):
        s = make_schema()
        path = tmp_path / "schema.json"
        save_schema(s, path)
        assert load_schema(path) == s

    def test_load_schema_names_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="nowhere.json"):
            load_schema(tmp_path / "nowhere.json")


class TestDataTable:
    def test_row_arity_checked_with_row_number(self):
        s = make_schema()
        with pytest.raises(DataError, match="row 2"):
            DataTable(s, (("1", "x", "home"), ("1", "x")))

    def test_target_values_must_be_class_labels(self):
        s = make_schema()
        with pytest.raises(DataError, match="discharged"):
            DataTable(s, (("1", "x", "discharged"),))

    def test_first_bad_row_named_whatever_its_fault(self):
        s = make_schema()
        bad_target_first = (("1", "x", "home"), ("1", "x", "discharged"), ("1", "x"))
        with pytest.raises(DataError, match="row 2: target value 'discharged'"):
            DataTable(s, bad_target_first)
        short_row_first = (("1", "x"), ("1", "x", "discharged"))
        with pytest.raises(DataError, match="row 1: expected 3 cells"):
            DataTable(s, short_row_first)

    def test_missing_target_allowed(self):
        """Rows without a label are legal; they are prediction-only input."""
        s = make_schema()
        t = DataTable(s, (("1", "x", None),))
        assert t.column("outcome") == (None,)

    def test_column_access_and_subset(self):
        s = make_schema()
        t = DataTable(s, (("1", "a", "home"), ("2", "b", "admitted")))
        assert t.column("complaint") == ("a", "b")
        assert t.subset([1]).column("temperature") == ("2",)

    @pytest.mark.parametrize(
        "picks, bad", [([-1], -1), ([0, 1, 2, 5], 5), ([1, 4, -1], 4), (iter([1, 3]), 3)]
    )
    def test_subset_refuses_an_index_outside_the_table(self, picks, bad):
        """A negative index does not count from the end; the first bad index is named."""
        s = make_schema()
        t = DataTable(s, (("1", "a", "home"), ("2", "b", "admitted"), ("3", "c", None)))
        with pytest.raises(DataError, match=rf"^row index {bad} is outside a table of 3 rows$"):
            t.subset(picks)

    def test_subset_takes_an_empty_pick_and_an_iterator(self):
        s = make_schema()
        t = DataTable(s, (("1", "a", "home"), ("2", "b", "admitted")))
        empty = t.subset([])
        assert empty.row_count == 0 and empty == DataTable(s, ())
        assert DataTable(s, ()).subset(iter([])) == empty
        assert t.subset(iter([1, 0, 1])).column("temperature") == ("2", "1", "2")
        with pytest.raises(DataError, match="row index 0 is outside a table of 0 rows"):
            DataTable(s, ()).subset([0])

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.none() | st.text(max_size=4),
                st.none() | st.text(max_size=4),
                st.sampled_from([None, "home", "admitted"]),
            ),
            max_size=6,
        ),
        picks=st.lists(st.integers(0, 5), max_size=8),
    )
    def test_rows_and_columns_build_the_same_table(self, rows, picks):
        """0, 1 and more rows; a subset may repeat, reorder or drop rows."""
        s = make_schema()
        by_rows = DataTable(s, rows)
        columns = [[row[j] for row in rows] for j in range(3)]
        by_columns = DataTable.from_columns(s, columns)
        assert by_rows == by_columns
        assert by_rows.row_count == by_columns.row_count == len(rows)
        assert by_rows.cells == by_columns.cells == tuple(rows)
        for j, name in enumerate(s.column_names):
            assert by_rows.column(name) == by_columns.column(name) == tuple(columns[j])
        picks = [i for i in picks if i < len(rows)]
        sub = by_columns.subset(picks)
        assert sub == by_rows.subset(iter(picks)) == DataTable(s, [rows[i] for i in picks])
        assert sub.cells == tuple(rows[i] for i in picks)

    def test_columns_checked_like_rows(self):
        s = make_schema()
        with pytest.raises(DataError, match="expected 3 columns, got 2"):
            DataTable.from_columns(s, [("1",), ("x",)])
        with pytest.raises(DataError, match="differ in length"):
            DataTable.from_columns(s, [("1", "2"), ("x",), ("home", "home")])
        with pytest.raises(DataError, match="row 2: target value 'discharged'"):
            DataTable.from_columns(s, [("1", "2"), ("x", "y"), ("home", "discharged")])

    def test_unknown_column_named(self):
        with pytest.raises(DataError, match="no column named 'pulse'"):
            DataTable(make_schema()).column("pulse")


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        s = make_schema()
        t = DataTable(s, (("37.2", "chest pain", "home"), ("36.1", None, "admitted")))
        path = tmp_path / "t.csv"
        write_csv(t, path)
        assert load_csv(path, s) == t

    def test_missing_sentinels(self, tmp_path):
        """Empty cells and the literal NA both load as missing."""
        s = make_schema()
        path = tmp_path / "t.csv"
        path.write_text("temperature,complaint,outcome\nNA,,home\n")
        t = load_csv(path, s)
        assert t.cells == ((None, None, "home"),)

    def test_header_order_free(self, tmp_path):
        s = make_schema()
        path = tmp_path / "t.csv"
        path.write_text("outcome,temperature,complaint\nhome,37.0,rash\n")
        t = load_csv(path, s)
        assert t.cells == (("37.0", "rash", "home"),)

    def test_header_mismatch_lists_columns(self, tmp_path):
        s = make_schema()
        path = tmp_path / "t.csv"
        path.write_text("temperature,complaint,oops\n1,x,home\n")
        with pytest.raises(DataError) as err:
            load_csv(path, s)
        assert "outcome" in str(err.value)
        assert "oops" in str(err.value)

    def test_row_width_error_names_row(self, tmp_path):
        s = make_schema()
        path = tmp_path / "t.csv"
        path.write_text("temperature,complaint,outcome\n1,x,home\n2,y\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, s)

    def test_blocks_of_rows_load_as_one_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tabfuse.schema, "_CSV_BLOCK_ROWS", 2)
        s = make_schema()
        rows = [(str(r), None if r % 3 else f"c{r}", ("home", "admitted")[r % 2]) for r in range(7)]
        path = tmp_path / "t.csv"
        write_csv(DataTable(s, rows), path)
        assert load_csv(path, s).cells == tuple(rows)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("8,x\n")
        with pytest.raises(DataError, match="row 8 has 2 cells"):
            load_csv(path, s)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "no.csv", make_schema())

    @pytest.mark.parametrize("line", [1, 3])
    def test_line_the_reader_cannot_parse_is_named(self, tmp_path, line):
        """csv.reader refuses a cell of more than 131,072 characters."""
        lines = ["temperature,complaint,outcome", "1,x,home", "2,y,admitted"]
        lines[line - 1] = "x" * 200_000 + lines[line - 1]
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"t.csv: line {line}: field larger than field limit"):
            load_csv(path, make_schema())

    def test_quoted_cells_with_commas(self, tmp_path):
        s = make_schema()
        t = DataTable(s, (("1.0", "nausea, vomiting", "home"),))
        path = tmp_path / "t.csv"
        write_csv(t, path)
        assert load_csv(path, s).column("complaint") == ("nausea, vomiting",)

    @settings(max_examples=300, deadline=None)
    @given(rows=QUOTING_ROWS, block=st.integers(1, 5))
    def test_writes_the_bytes_csv_writer_wrote(self, rows, block):
        s = quoting_schema()
        expected = [["" if c is None else c for c in row] for row in rows]
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            tabfuse.schema, "_WRITE_BLOCK_ROWS", block
        ):
            path = Path(tmp) / "t.csv"
            write_csv(DataTable(s, rows), path)
            assert path.read_bytes() == csv_writer_bytes(s.column_names, expected)

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("outcome",), [(None,), ("home",), (None,)]),
            (("temperature", 'complaint, "free text"', "outcome"), []),
        ],
        ids=["one-column", "header-only"],
    )
    def test_one_column_and_header_only_tables(self, tmp_path, columns, rows):
        """A row that is one empty field is written as two quotes, as csv.writer does."""
        s = quoting_schema()
        s = TableSchema(tuple(c for c in s.columns if c.name in columns), "outcome", QUOTED_LABELS)
        t = DataTable(s, rows)
        path = tmp_path / "t.csv"
        write_csv(t, path)
        expected = [["" if c is None else c for c in row] for row in rows]
        assert path.read_bytes() == csv_writer_bytes(columns, expected)
        assert load_csv(path, s) == t

    @settings(max_examples=300, deadline=None)
    @given(rows=QUOTING_ROWS)
    def test_load_reads_back_what_write_wrote(self, rows):
        """Every cell but a missing sentinel, which loads as missing, comes back."""
        rows = [tuple(None if c in DEFAULT_MISSING_VALUES else c for c in row) for row in rows]
        s = quoting_schema()
        t = DataTable(s, rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(t, path)
            assert load_csv(path, s) == t
