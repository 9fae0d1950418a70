import json
import logging
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tabfuse.preprocess
from tabfuse.errors import DataError, SchemaMismatchError
from tabfuse.models import FrequencyEncoder
from tabfuse.preprocess import (
    _TOKEN_RE,
    PAD_INDEX,
    UNKNOWN_INDEX,
    ColumnVocabulary,
    EncodedDataset,
    PreprocessState,
    _encode_column,
    _parse_cells,
    _parse_float,
    fit,
    stratified_split,
    tokenize,
    transform,
)
from tabfuse.schema import ColumnKind, ColumnSpec, DataTable, TableSchema


def small_schema():
    return TableSchema(
        (
            ColumnSpec("temp", ColumnKind.NUMERICAL),
            ColumnSpec("complaint", ColumnKind.CATEGORICAL),
            ColumnSpec("mode", ColumnKind.CATEGORICAL),
            ColumnSpec("outcome", ColumnKind.CATEGORICAL),
        ),
        target="outcome",
        class_labels=("home", "admitted"),
    )


def small_table():
    return DataTable(
        small_schema(),
        (
            ("1", "chest pain", "walk", "home"),
            ("2", "pain chest chest", "walk", "home"),
            ("3", "chest pain", "ambulance", "admitted"),
            ("4", "chest pain", "walk", "admitted"),
        ),
    )


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Chest Pain") == ["chest", "pain"]

    def test_punctuation_runs_are_delimiters(self):
        assert tokenize("BP-120/80!") == ["bp", "120", "80"]

    def test_underscore_is_a_delimiter(self):
        assert tokenize("left_arm") == ["left", "arm"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("--/!!") == []


class TestFit:
    def test_numeric_mean_and_population_std(self):
        state = fit(small_table())
        assert state.means == (2.5,)
        # population std of 1..4 = sqrt(1.25)
        assert state.stds == (1.118033988749895,)

    def test_vocabulary_sorted_from_two(self):
        state = fit(small_table())
        voc = state.vocabularies["complaint"]
        assert voc.token_to_index == {"chest": 2, "pain": 3}
        assert voc.pad_length == 3

    def test_mode_most_frequent(self):
        state = fit(small_table())
        assert state.vocabularies["mode"].mode_value == "walk"

    def test_mode_tie_breaks_lexicographically(self):
        schema = TableSchema(
            (ColumnSpec("c", "categorical"), ColumnSpec("y", "categorical")),
            target="y",
            class_labels=("a", "b"),
        )
        t = DataTable(schema, (("zeta", "a"), ("alpha", "a"), ("zeta", "b"), ("alpha", "b")))
        assert fit(t).vocabularies["c"].mode_value == "alpha"

    def test_unparseable_numeric_treated_as_missing(self, caplog):
        schema = small_schema()
        t = DataTable(
            schema,
            (
                ("1", "x", "w", "home"),
                ("oops", "x", "w", "home"),
                ("3", "x", "w", "admitted"),
            ),
        )
        with caplog.at_level(logging.WARNING, logger="tabfuse.preprocess"):
            state = fit(t)
        assert state.means == (2.0,)
        assert caplog.messages == ["column 'temp': 1 non-numeric cell(s) treated as missing"]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tabfuse.preprocess"):
            enc = transform(t, state)
        assert enc.numeric[1, 0] == 0.0
        assert caplog.messages == ["column 'temp': 1 non-numeric cell(s) imputed to the mean"]

    def test_all_missing_column_rejected(self):
        schema = small_schema()
        t = DataTable(
            schema,
            ((None, "x", "w", "home"), (None, "x", "w", "admitted")),
        )
        with pytest.raises(DataError, match="temp"):
            fit(t)

    def test_column_offsets_are_disjoint(self):
        state = fit(small_table())
        tokens = transform(small_table(), state).tokens
        # complaint's block: pad, unknown, chest 2, pain 3, over 3 positions
        assert tokens[:, :3].tolist() == [[2, 3, 0], [3, 2, 2], [2, 3, 0], [2, 3, 0]]
        # mode's block starts after complaint's 4 indices: ambulance 4 + 2, walk 4 + 3
        assert tokens[:, 3].tolist() == [4 + 3, 4 + 3, 4 + 2, 4 + 3]
        assert state.total_vocab_size == 4 + 4


class TestTransform:
    def test_standardized_numeric_oracle(self):
        state = fit(small_table())
        enc = transform(small_table(), state)
        expected = [
            -1.3416407864998738,
            -0.4472135954999579,
            0.4472135954999579,
            1.3416407864998738,
        ]
        assert np.allclose(enc.numeric[:, 0], expected, atol=1e-15)

    def test_mean_value_maps_to_zero(self):
        state = fit(small_table())
        t = DataTable(small_schema(), (("2.5", "chest", "walk", None),))
        enc = transform(t, state)
        assert enc.numeric[0, 0] == 0.0

    def test_encode_pad_example(self):
        """Cell "Chest Pain" with vocab {chest: 2, pain: 3} pads to [2, 3, 0]."""
        state = fit(small_table())
        t = DataTable(small_schema(), (("1", "Chest Pain", "walk", None),))
        enc = transform(t, state)
        assert enc.tokens[0, :3].tolist() == [2, 3, 0]

    def test_second_column_gets_offset_indices(self):
        state = fit(small_table())
        enc = transform(small_table(), state)
        mode_block = enc.tokens[:, 3:]
        # mode vocab is {ambulance: 2, walk: 3}, shifted by base offset 4
        assert mode_block[0, 0] == 4 + 3
        assert mode_block[2, 0] == 4 + 2

    def test_unknown_token_maps_to_offset_unknown(self):
        state = fit(small_table())
        t = DataTable(small_schema(), (("1", "sudden dizziness", "walk", None),))
        enc = transform(t, state)
        assert enc.tokens[0, :3].tolist() == [1, 1, 0]

    def test_overlong_cell_truncates(self):
        state = fit(small_table())
        t = DataTable(small_schema(), (("1", "chest pain chest pain chest", "walk", None),))
        enc = transform(t, state)
        assert enc.tokens[0, :3].tolist() == [2, 3, 2]

    def test_missing_categorical_imputes_mode(self):
        state = fit(small_table())
        t = DataTable(small_schema(), (("1", None, None, None),))
        enc = transform(t, state)
        # complaint mode "chest pain" -> [2, 3, 0]; mode column mode "walk"
        assert enc.tokens[0].tolist() == [2, 3, 0, 4 + 3]

    def test_missing_numeric_imputes_to_zero_after_zscore(self):
        state = fit(small_table())
        t = DataTable(small_schema(), ((None, "chest", "walk", None),))
        enc = transform(t, state)
        assert enc.numeric[0, 0] == 0.0

    def test_constant_column_standardizes_to_zero(self):
        schema = TableSchema(
            (ColumnSpec("n", "numerical"), ColumnSpec("y", "categorical")),
            target="y",
            class_labels=("a", "b"),
        )
        t = DataTable(schema, (("5", "a"), ("5", "b"), ("5", "a")))
        enc = transform(t, fit(t))
        assert np.all(enc.numeric == 0.0)

    def test_labels_and_missing_target(self):
        state = fit(small_table())
        t = DataTable(
            small_schema(),
            (("1", "chest", "walk", "admitted"), ("2", "pain", "walk", None)),
        )
        enc = transform(t, state)
        assert enc.labels.tolist() == [1, -1]

    def test_width_identity(self):
        state = fit(small_table())
        enc = transform(small_table(), state)
        total = sum(v.pad_length for v in state.vocabularies.values())
        assert state.total_padded_width == total
        assert enc.tokens.shape[1] == total

    def test_transform_is_idempotent(self):
        state = fit(small_table())
        a = transform(small_table(), state)
        b = transform(small_table(), state)
        assert np.array_equal(a.numeric, b.numeric)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)

    def test_schema_mismatch_rejected(self):
        state = fit(small_table())
        other = TableSchema(
            (ColumnSpec("x", "numerical"), ColumnSpec("y", "categorical")),
            target="y",
            class_labels=("home", "admitted"),
        )
        t = DataTable(other, (("1", "home"),))
        with pytest.raises(SchemaMismatchError):
            transform(t, state)

    def test_zero_rows_keep_their_widths(self):
        state = fit(small_table())
        enc = transform(DataTable(small_schema(), ()), state)
        assert enc.numeric.shape == (0, 1)
        assert enc.tokens.shape == (0, state.total_padded_width)
        assert enc.labels.shape == (0,)

    def test_no_categorical_features_gives_empty_int_tokens(self):
        schema = TableSchema(
            (ColumnSpec("n", "numerical"), ColumnSpec("y", "categorical")),
            target="y",
            class_labels=("a", "b"),
        )
        t = DataTable(schema, (("1", "a"), ("2", "b"), ("3", "a")))
        enc = transform(t, fit(t))
        assert enc.tokens.shape == (3, 0)
        assert enc.tokens.dtype == np.int64

    def test_each_distinct_cell_is_tokenized_once(self, monkeypatch):
        complaints = ("chest pain", "Fever", "cough cough", "fever")
        rows = tuple(
            (str(r), complaints[r % 4] if r % 5 else None, ("walk", "car")[r % 2], "home")
            for r in range(40)
        )
        table = DataTable(small_schema(), rows)
        distinct = {
            (c, cell) for c in ("complaint", "mode") for cell in table.column(c) if cell
        }
        calls = Counter()
        real = tabfuse.preprocess.tokenize

        def counting(text):
            calls[text] += 1
            return real(text)

        monkeypatch.setattr(tabfuse.preprocess, "tokenize", counting)
        state = fit(table)
        assert sum(calls.values()) == len(distinct) == 6
        assert max(calls.values()) == 1
        calls.clear()
        transform(table, state)
        assert sum(calls.values()) == len(distinct)
        assert max(calls.values()) == 1

    def test_no_nan_or_inf_in_output(self):
        state = fit(small_table())
        enc = transform(small_table(), state)
        assert np.all(np.isfinite(enc.numeric))


def _encode_cell(cell: str, voc: ColumnVocabulary, base: int) -> list[int]:
    """Reference: global token indices of one cell, column ``base`` + local
    index, truncated and padded to the pad length, from the regular
    expression alone."""
    toks = _TOKEN_RE.findall(cell.lower())[: voc.pad_length]
    idx = [base + voc.token_to_index.get(t, UNKNOWN_INDEX) for t in toks]
    idx.extend([PAD_INDEX] * (voc.pad_length - len(idx)))
    return idx


# Plain words and text the whitespace split must not take at face value:
# final sigma, İ (its lowercase adds a combining mark), NUL, combining marks,
# underscore, punctuation, whitespace that only str.split or only the regular
# expression might see, Arabic-Indic digits, and empty or blank cells.
WORDS = st.sampled_from(["chest", "Pain", "FEVER", "ember0", "x", "ΟΔΟΣ", "ὈΔΥΣΣΕΎΣ", "straße"])
TRAPS = st.sampled_from(
    ["Σ", "ΑΣ'", "ΣΑ", "İ", "İzmir", "\x00", "a\x00b", "e\u0301", "\u0301", "_", "left_arm",
     "Chest-Pain", "!", ",", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2007",
     "\u0661\u0662", "ǅ", "", " ", " \t\n "]
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", "", "\x85", "\xa0"])
TEXT_CELLS = (
    st.lists(st.tuples(WORDS | WORDS | TRAPS, SEPARATORS), max_size=4).map(
        lambda pairs: "".join(word + sep for word, sep in pairs)
    )
    | st.text(max_size=6)
)


class TestTokenizeFastPath:
    def test_fast_path_character_classes(self):
        """The fast path rests on two facts about every code point."""
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(_TOKEN_RE.findall(chars)) == "".join(filter(str.isalnum, chars))
        assert not [c for c in chars if c.isspace() and c.isalnum()]

    @settings(max_examples=500, deadline=None)
    @given(text=TEXT_CELLS)
    @example(text="ΟΔΟΣ plain")
    @example(text="ΣΑΣ a\x00b")
    @example(text="İzmir left_arm")
    @example(text=" \t")
    def test_equals_regular_expression(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_encode_column_equals_per_cell_reference(self, data):
        cells = data.draw(st.lists(st.none() | TEXT_CELLS, min_size=1, max_size=16), label="cells")
        known = data.draw(st.lists(TEXT_CELLS, max_size=6), label="known")
        tokens = sorted({t for cell in known for t in _TOKEN_RE.findall(cell.lower())})
        voc = ColumnVocabulary(
            tuple(tokens),
            data.draw(st.integers(1, 4), label="pad_length"),
            data.draw(TEXT_CELLS, label="mode"),
        )
        base = data.draw(st.integers(0, 50), label="base")
        expected = np.array(
            [_encode_cell(voc.mode_value if c is None else c, voc, base) for c in cells],
            dtype=np.int64,
        )
        got = _encode_column(tuple(cells), voc, base)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


# Text float() and str.strip() treat differently, or that parses to a
# non-finite value: \x1c-\x1f are stripped but rejected by float().
PAD = st.sampled_from(["", " ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2007"])
CORE = st.sampled_from(
    ["1", "-2.5", "1_000", "1__0", "\u0661\u0662", "\uff13", "nan", "-nan", "inf",
     "-Infinity", "1e999", "-1e999", "1e-400", "0x1", "abc", "", "1,5", ".", "-0"]
) | st.floats().map(repr) | st.text(max_size=4)
CELLS = st.none() | st.builds(lambda a, b, c: a + b + c, PAD, CORE, PAD)


class TestNumericParsing:
    @settings(max_examples=300, deadline=None)
    @given(columns=st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(CELLS, min_size=n, max_size=n), max_size=4)
    ))
    def test_one_pass_equals_parse_float_bit_for_bit(self, columns):
        columns = [tuple(c) for c in columns]
        expected = np.array(
            [[math.nan if c is None else _parse_float(c) for c in col] for col in columns],
            dtype=np.float64,
        ).reshape(len(columns), len(columns[0]) if columns else 0)
        got = _parse_cells(columns)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestEncodedDataset:
    @pytest.mark.parametrize("block", ["tokens", "labels", "row_indices", "frequency"])
    def test_every_block_holds_one_entry_per_row(self, block):
        """A 5-entry block beside 2 rows is refused; ``subset`` would pair the
        encoded rows with the wrong table rows."""
        blocks = dict(
            numeric=np.zeros((2, 1)),
            tokens=np.zeros((2, 1), dtype=np.int64),
            labels=np.zeros(2, dtype=np.int64),
            row_indices=np.arange(2, dtype=np.int64),
        )
        EncodedDataset(**blocks)
        like = blocks.get(block, np.zeros((2, 1)))
        blocks[block] = np.zeros((5, *like.shape[1:]), like.dtype)
        with pytest.raises(DataError, match="disagree on row count"):
            EncodedDataset(**blocks)

    def test_subset_picks_frequency_rows_in_order(self):
        d = EncodedDataset(
            numeric=np.zeros((3, 1)),
            tokens=np.zeros((3, 1), dtype=np.int64),
            labels=np.zeros(3, dtype=np.int64),
            row_indices=np.arange(3, dtype=np.int64),
            frequency=np.array([[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]]),
        )
        sub = d.subset([2, 0])
        assert sub.frequency.tolist() == [[0.3, 0.6], [0.1, 0.4]]
        assert sub.row_indices.tolist() == [2, 0]
        no_block = EncodedDataset(d.numeric, d.tokens, d.labels, d.row_indices)
        assert no_block.subset([2, 0]).frequency is None

    def test_transform_fills_frequency_block_from_encoder(self):
        table = small_table()
        state = fit(table)
        encoder = FrequencyEncoder.fit(table, state, np.arange(3))
        frequency = transform(table, state, encoder).frequency
        expected = encoder.encode(table)
        assert frequency.shape == expected.shape == (4, 2)
        assert frequency.dtype == expected.dtype
        assert frequency.tobytes() == expected.tobytes()
        assert transform(table, state).frequency is None


class TestTransformPlan:
    def test_warm_and_cold_plan_give_the_same_bits(self):
        table = small_table()
        state = fit(table)
        cold = transform(table, state)
        warm = transform(table, state)
        loaded = PreprocessState.from_json_dict(state.to_json_dict())
        for enc in (warm, transform(table, loaded)):
            assert enc.numeric.tobytes() == cold.numeric.tobytes()
            assert enc.tokens.tobytes() == cold.tokens.tobytes()
            assert enc.labels.tobytes() == cold.labels.tobytes()
        # Transforming leaves nothing on the state that equality, the JSON
        # form or the fingerprint could see.
        assert loaded == state
        assert loaded.to_json_dict() == state.to_json_dict()
        assert state.fingerprint() == loaded.fingerprint()

    def test_tables_without_numeric_or_categorical_features(self):
        for kind in (ColumnKind.NUMERICAL, ColumnKind.CATEGORICAL):
            schema = TableSchema(
                (ColumnSpec("x", kind), ColumnSpec("outcome", ColumnKind.CATEGORICAL)),
                target="outcome",
                class_labels=("home", "admitted"),
            )
            table = DataTable(schema, (("1", "home"), ("2", "admitted"), ("3", None)))
            enc = transform(table, fit(table))
            numeric = 1 if kind is ColumnKind.NUMERICAL else 0
            assert enc.numeric.shape == (3, numeric)
            assert enc.tokens.shape == (3, 1 - numeric)
            assert enc.labels.tolist() == [0, 1, -1]


class TestStateSerialization:
    def test_round_trip(self):
        state = fit(small_table())
        doc = json.loads(json.dumps(state.to_json_dict()))
        loaded = PreprocessState.from_json_dict(doc)
        assert loaded == state
        assert loaded.fingerprint() == state.fingerprint()

    def test_fingerprint_changes_with_state(self):
        state = fit(small_table())
        other = fit(
            DataTable(
                small_schema(),
                (("10", "chest pain", "walk", "home"),
                 ("20", "pain", "walk", "admitted")),
            )
        )
        assert state.fingerprint() != other.fingerprint()

    def test_stores_only_what_the_schema_does_not_give(self):
        doc = fit(small_table()).to_json_dict()
        assert doc["numeric_stats"] == {"means": [2.5], "stds": [1.118033988749895]}
        assert doc["vocabularies"]["complaint"] == {
            "tokens": ["chest", "pain"], "pad_length": 3, "mode_value": "chest pain"
        }
        assert set(doc) == {"schema", "numeric_stats", "vocabularies"}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["numeric_stats"]["means"].append(0.0), "1 finite means"),
            (lambda d: d["numeric_stats"]["stds"].clear(), "1 finite stds"),
            (lambda d: d["numeric_stats"]["means"].__setitem__(0, math.nan), "finite means"),
            (lambda d: d["numeric_stats"]["stds"].__setitem__(0, math.inf), "finite stds"),
            (lambda d: d["numeric_stats"]["means"].__setitem__(0, "2.5"), "finite means"),
            (lambda d: d["numeric_stats"]["stds"].__setitem__(0, -1.0), "negative"),
            (lambda d: vocab(d).update(pad_length=0), "pad length 0"),
            (lambda d: vocab(d).update(pad_length=2.5), "pad length 2.5"),
            (lambda d: vocab(d).update(pad_length="3"), "pad length '3'"),
            (lambda d: vocab(d).update(tokens=["chest", "chest"]), "distinct strings"),
            (lambda d: vocab(d).update(tokens=["chest", 3]), "distinct strings"),
            (lambda d: vocab(d).update(mode_value=None), "mode None"),
            (lambda d: d["vocabularies"].pop("mode"), "follow the categorical features"),
            (lambda d: d["vocabularies"].update(extra=vocab(d)), "follow the categorical"),
        ],
        ids=[
            "extra-mean", "no-stds", "nan-mean", "inf-std", "text-mean", "negative-std",
            "pad-0", "pad-fraction", "pad-text", "token-twice", "token-number",
            "mode-none", "vocabulary-missing", "vocabulary-extra",
        ],
    )
    def test_decode_checks_what_the_schema_does_not_give(self, edit, message):
        doc = json.loads(json.dumps(fit(small_table()).to_json_dict()))
        edit(doc)
        with pytest.raises(DataError, match=message):
            PreprocessState.from_json_dict(doc)


def vocab(doc: dict) -> dict:
    return doc["vocabularies"]["complaint"]


def _dataset_with_labels(labels):
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    return EncodedDataset(
        numeric=np.zeros((n, 1)),
        tokens=np.zeros((n, 1), dtype=np.int64),
        labels=labels,
        row_indices=np.arange(n, dtype=np.int64),
    )


# Per-class train and validation counts for classes of 3, 4, ..., 50 members.
SPLIT_COUNTS = [
    (
        (0.7, 0.2, 0.1),
        [2, 3, 4, 4, 5, 5, 6, 7, 8, 8, 9, 10, 11, 11, 12, 12, 13, 14, 15, 15, 16, 17, 18, 18,
         19, 19, 20, 21, 22, 22, 23, 24, 25, 25, 26, 26, 27, 28, 29, 29, 30, 31, 31, 32, 33, 33,
         34, 35],
        [1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6,
         7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 10, 10, 10],
    ),
    (
        (0.6, 0.25, 0.15),
        [2, 2, 3, 4, 4, 5, 6, 6, 6, 7, 8, 8, 9, 10, 10, 11, 11, 12, 13, 13, 14, 14, 15, 16, 16,
         17, 18, 18, 18, 19, 20, 20, 21, 22, 22, 23, 23, 24, 25, 25, 26, 26, 27, 28, 28, 29, 30,
         30],
        [1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 8, 8,
         8, 8, 9, 9, 9, 9, 9, 10, 10, 10, 11, 11, 11, 11, 11, 12, 12, 12, 13],
    ),
    (
        (1 / 3, 1 / 3, 1 / 3),
        [1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10,
         11, 11, 11, 12, 12, 12, 13, 13, 13, 14, 14, 14, 15, 15, 15, 16, 16, 16, 17, 17],
        [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10,
         10, 11, 11, 11, 12, 12, 12, 13, 13, 13, 14, 14, 14, 15, 15, 15, 16, 16, 16, 17],
    ),
]


class TestStratifiedSplit:
    def test_spec_allocation_60_40(self):
        """60+40 rows at 0.8/0.1/0.1 must give 48/6/6 and 32/4/4."""
        data = _dataset_with_labels([0] * 60 + [1] * 40)
        tr, va, te = stratified_split(data, (0.8, 0.1, 0.1), seed=1)
        assert [int((s.labels == 0).sum()) for s in (tr, va, te)] == [48, 6, 6]
        assert [int((s.labels == 1).sum()) for s in (tr, va, te)] == [32, 4, 4]

    def test_partition_is_exact(self):
        data = _dataset_with_labels([0] * 23 + [1] * 31 + [2] * 17)
        tr, va, te = stratified_split(data, (0.6, 0.2, 0.2), seed=5)
        joined = np.concatenate([tr.row_indices, va.row_indices, te.row_indices])
        assert sorted(joined.tolist()) == list(range(71))

    def test_deterministic_per_seed(self):
        data = _dataset_with_labels([0] * 30 + [1] * 30)
        a = stratified_split(data, seed=9)
        b = stratified_split(data, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.row_indices, y.row_indices)

    def test_seed_changes_assignment(self):
        data = _dataset_with_labels([0] * 50 + [1] * 50)
        a = stratified_split(data, seed=1)
        b = stratified_split(data, seed=2)
        assert not np.array_equal(a[0].row_indices, b[0].row_indices)

    def test_counts_within_one_many_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            sizes = rng.integers(3, 120, size=k)
            labels = np.repeat(np.arange(k), sizes)
            f = rng.uniform(0.1, 1.0, size=3)
            f = tuple(f / f.sum())
            splits = stratified_split(
                _dataset_with_labels(labels), f, seed=int(rng.integers(0, 1000))
            )
            for c in range(k):
                n_c = int(sizes[c])
                for frac, split in zip(f, splits):
                    got = int((split.labels == c).sum())
                    assert abs(got - n_c * frac) < 1.0

    @pytest.mark.parametrize("fractions, train, val", SPLIT_COUNTS, ids=["70-20-10", "60-25-15", "thirds"])
    def test_counts_per_class_size_are_pinned(self, fractions, train, val):
        """Classes of 3 to 50 members split into these (train, val) counts, the
        rest to test. The shares are used as given: renormalising 0.7/0.2/0.1,
        which sums to 0.9999999999999999, moves the counts of 8, 18, 28, 32, 38
        and 42 members."""
        sizes = range(3, 51)
        data = _dataset_with_labels(np.repeat(np.arange(len(sizes)), sizes))
        splits = stratified_split(data, fractions, seed=0)
        got = [[int((s.labels == c).sum()) for s in splits] for c in range(len(sizes))]
        assert got == [[t, v, n - t - v] for n, t, v in zip(sizes, train, val)]

    def test_small_class_rejected(self):
        data = _dataset_with_labels([0, 0, 0, 1, 1])
        with pytest.raises(DataError, match="at least 3"):
            stratified_split(data)

    def test_fraction_validation(self):
        data = _dataset_with_labels([0] * 5 + [1] * 5)
        with pytest.raises(DataError, match="sum"):
            stratified_split(data, (0.5, 0.2, 0.2))
        with pytest.raises(DataError, match="positive"):
            stratified_split(data, (1.0, 0.0, 0.0))
        with pytest.raises(DataError, match="positive"):
            stratified_split(data, (0.8, 0.1, float("nan")))

    def test_missing_labels_rejected(self):
        data = _dataset_with_labels([0, 0, 0, -1, 1, 1, 1])
        with pytest.raises(DataError, match="missing"):
            stratified_split(data)
