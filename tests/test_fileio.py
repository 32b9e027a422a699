import json
import math
import re

import csvref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botaclip.errors import DataError, UsageError
from botaclip.fileio import (
    _read_plain_matrix,
    config_hash,
    load_checkpoint,
    load_config,
    load_embeddings,
    read_csv,
    read_locations,
    read_matrix_csv,
    read_occurrences,
    read_releves,
    read_soil,
    read_split_manifest,
    save_checkpoint,
    save_embeddings,
    set_config_key,
    write_csv,
    write_manifest,
    write_matrix_csv,
    write_split_manifest,
)
from botaclip.numerics import Rng


class TestEmbeddingFile:
    def test_round_trip_payload_bit_identical(self, tmp_path):
        path = tmp_path / "x.emb"
        values = Rng(0).substream("e").normal(size=(4, 8)).astype(np.float32)
        save_embeddings(path, values)
        loaded, ids = load_embeddings(path, normalize=False)
        assert ids is None
        np.testing.assert_array_equal(loaded.astype(np.float32), values)

    def test_ids_round_trip(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(path, np.ones((2, 3)), ids=["a#0", "b#0"])
        _, ids = load_embeddings(path, normalize=True)
        assert ids == ["a#0", "b#0"]

    def test_normalize_on_load(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(path, np.array([[3.0, 4.0]]))
        loaded, _ = load_embeddings(path, normalize=True)
        np.testing.assert_allclose(loaded, [[0.6, 0.8]], atol=1e-7)

    def test_loaded_matrix_is_read_only(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(path, np.ones((2, 2)))
        loaded, _ = load_embeddings(path, normalize=True)
        with pytest.raises(ValueError):
            loaded[0, 0] = 5.0

    def test_bad_row_is_a_data_error(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(path, np.zeros((1, 4)))
        with pytest.raises(DataError, match=r"x\.emb, row 0: zero norm"):
            load_embeddings(path, normalize=True)
        load_embeddings(path, normalize=False)
        values = np.ones((3, 2))
        values[1, 0] = np.inf
        values[2] = 0.0
        save_embeddings(path, values, ids=["a", "b", "c"])
        for normalize in (True, False):
            with pytest.raises(DataError,
                               match=r"x\.emb, row 1 \(id 'b'\): NaN or inf"):
                load_embeddings(path, normalize=normalize)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataError, match="is not an embedding file"):
            load_embeddings(path, normalize=True)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(path, np.ones((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:30])
        with pytest.raises(DataError, match=r"wanted \d+ bytes, got"):
            load_embeddings(path, normalize=True)

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_embeddings(tmp_path / "x.emb", np.ones((2, 2)),
                            ids=["a", "a"])


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        gen = Rng(1).substream("c")
        params = {
            "layer.weight": gen.normal(size=(3, 4)),
            "layer.bias": gen.normal(size=3),
            "scalars.tau": np.float64(2.302585092994046),
        }
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded["scalars.tau"].shape == ()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"EMB1" + b"\0" * 16)
        with pytest.raises(DataError, match="is not a checkpoint file"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones((8, 8))})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataError, match=r"wanted \d+ bytes, got"):
            load_checkpoint(path)


class TestCsv:
    def test_float_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        vals = [1.0 / 3.0, 2.0 ** -52, 1e300, -0.1234567890123456789]
        write_csv(path, ["v"], [[v] for v in vals])
        _, rows = read_csv(path)
        assert [float(r[0]) for r in rows] == vals

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        values = Rng(2).substream("m").normal(size=(3, 4))
        write_matrix_csv(path, values, ["a", "b", "c"], list("wxyz"))
        loaded, row_ids, col_ids = read_matrix_csv(path)
        np.testing.assert_array_equal(loaded, values)
        assert row_ids == ["a", "b", "c"]
        assert col_ids == list("wxyz")

    def test_split_manifest_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        cells = np.array([[0, 1], [2, -3]])
        write_split_manifest(path, ["p1", "p2"], cells, np.array([0, 1]),
                             np.array(["train", "validation"], dtype=object))
        ids, cells2, folds, roles = read_split_manifest(path)
        assert ids == ["p1", "p2"]
        np.testing.assert_array_equal(cells2, cells)
        np.testing.assert_array_equal(folds, [0, 1])
        assert list(roles) == ["train", "validation"]


# any text a UTF-8 file can hold: commas, quotes, CR/LF, NUL, non-ASCII
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda k: st.tuples(
        st.lists(_TEXT, min_size=k, max_size=k),
        st.lists(st.lists(_TEXT, min_size=k, max_size=k), max_size=4))))
    def test_text_cells(self, tmp_path_factory, table):
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, rows)
        assert read_csv(path) == (header, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TEXT, min_size=1, max_size=4, unique=True),
           st.lists(_TEXT, min_size=1, max_size=4), st.data())
    def test_matrix_ids_and_floats(self, tmp_path_factory, row_ids, col_ids,
                                   data):
        values = np.array(data.draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=len(col_ids), max_size=len(col_ids)),
            min_size=len(row_ids), max_size=len(row_ids))))
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_matrix_csv(path, values, row_ids, col_ids)
        loaded, ids, cols = read_matrix_csv(path)
        assert (ids, cols) == (row_ids, col_ids)
        assert loaded.tobytes() == values.tobytes()

    def test_floats_across_the_exponent_range(self, tmp_path):
        vals = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308]
        vals += [math.ldexp(s * 0.7853981633974483, e)
                 for e in range(-1074, 1025, 3) for s in (1, -1)]
        path = tmp_path / "f.csv"
        write_matrix_csv(path, np.array([vals]), ["r"],
                         [f"c{j}" for j in range(len(vals))])
        loaded, _, _ = read_matrix_csv(path)
        assert loaded.tobytes() == np.array([vals]).tobytes()

    def test_id_with_a_comma(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(2), ["a,b", "c"], ["x", "y"])
        assert path.read_text().splitlines()[1] == '"a,b",1.0,0.0'
        _, ids, _ = read_matrix_csv(path)
        assert ids == ["a,b", "c"]

    def test_blank_lines_skipped_and_lines_counted(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text('plot_id,x_m,y_m\n\n"p\n1",1.0,2.0\n  \n'
                        '"p\n2",1.0,nan\n')
        with pytest.raises(DataError,
                           match=re.escape(f"{path}, line 7: non-finite")):
            read_locations(path)
        path.write_text('plot_id,x_m,y_m\n\n"p\n1",1.0,2.0\n  \n')
        ids, pts = read_locations(path)
        assert ids == ["p\n1"] and pts.tolist() == [[1.0, 2.0]]

    def test_stray_quote_names_the_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('plot_id,class_id\na,0\n"b"x,1\n')
        with pytest.raises(DataError, match=re.escape(f"{path}, line 3")):
            read_csv(path)


def _matrix_outcome(read, path):
    """What a matrix reader gives for path: its values' shape and bytes,
    row ids and column ids, or the text of the DataError it raised."""
    try:
        values, row_ids, col_ids = read(path)
    except DataError as exc:
        return str(exc)
    return values.shape, values.tobytes(), row_ids, col_ids


def _reference_outcome(path):
    """The frozen reader's outcome, with the DataError naming the first
    repeated row id in place of a result that has one."""
    want = _matrix_outcome(csvref.read_matrix_csv, path)
    if not isinstance(want, str):
        row_ids = want[2]
        k = next((k for k in range(len(row_ids))
                  if row_ids[k] in row_ids[:k]), None)
        if k is not None:
            want = str(csvref.row_error(
                path, k, f"row id {row_ids[k]!r} repeats an earlier row"))
    return want


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1e22, math.nan, math.inf,
     -math.inf])
# ids that need quoting, or text around them, beside plain ones
_MATRIX_ID = _TEXT | st.sampled_from(["a,b", 'q"x', "l\nm", "c\rd", " "])


@st.composite
def _numeric_matrices(draw):
    shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 5)))
    kind = draw(st.sampled_from(["float64", "float32", "int64", "bool"]))
    if kind == "int64":
        values = draw(hnp.arrays(np.int64, shape))
    elif kind == "bool":
        values = draw(hnp.arrays(np.bool_, shape))
    else:
        values = draw(hnp.arrays(np.float64, shape, elements=_FLOATS))
        with np.errstate(over="ignore"):  # 1e300 becomes inf in float32
            values = values.astype(kind)
    row_ids = draw(st.lists(_MATRIX_ID, min_size=shape[0],
                            max_size=shape[0]))
    col_ids = draw(st.lists(_MATRIX_ID, min_size=shape[1],
                            max_size=shape[1]))
    return values, row_ids, col_ids


_NUMBER_TEXT = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.integers(-10**30, 10**30).map(str))
# cells float() reads and numpy does not, non-finite ones, blank ones,
# quoted ones, and bad ones
_ODD_TEXT = st.sampled_from(
    ["1_0", "\u0661", "nan", "-inf", "1e400", "", " ", " 1.5 ", "\u20032",
     "+.5", "\x1c1", "1\x1f", "0x10", "1e", '"2.5"', '"1,5"', '2"', "1\x00"])
_CELL_TEXT = st.integers(0, 11).flatmap(
    lambda k: _ODD_TEXT if k == 0 else _NUMBER_TEXT)
_ROW_ID_TEXT = (st.integers(0, 6).map(lambda k: f"p{k}")
                | st.sampled_from(["", " x ", '"q,1"', '"r""s"', "t\x00"]))


@st.composite
def _matrix_texts(draw):
    """CSV text shaped like a matrix file: blank and whitespace-only
    lines, ragged rows, odd cells, LF or CRLF line ends."""
    width = draw(st.integers(0, 4))
    lines = [",".join(["plot_id"] + [f"s{j}" for j in range(width)])]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0"])))
        n = width if draw(st.integers(0, 7)) else draw(st.integers(0, width + 1))
        lines.append(",".join([draw(_ROW_ID_TEXT)]
                              + [draw(_CELL_TEXT) for _ in range(n)]))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol, eol + eol]))


class TestMatrixAgainstReference:
    """The bulk matrix writer and reader against the per-cell ones in
    tests/csvref.py."""

    @settings(max_examples=300, deadline=None)
    @given(_numeric_matrices())
    def test_writer_bytes(self, tmp_path_factory, matrix):
        values, row_ids, col_ids = matrix
        out = tmp_path_factory.mktemp("csv")
        write_matrix_csv(out / "new.csv", values, row_ids, col_ids)
        csvref.write_matrix_csv(out / "ref.csv", values, row_ids, col_ids)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

    def test_writer_bytes_wider_than_the_paper(self, tmp_path):
        gen = Rng(4).substream("wide")
        values = gen.normal(size=(3, 4000)) * 10.0 ** gen.integers(
            -320, 300, size=(3, 4000))
        values[0, :6] = [-0.0, 5e-324, 1e16, 1e-5, math.nan, -math.inf]
        ids, cols = ["p,1", 'p"2', "p3"], [f"sp{j:04d}" for j in range(4000)]
        with np.errstate(over="ignore"):
            narrow = values.astype(np.float32)
        for v in (values, narrow, values > 0,
                  gen.integers(-2**63, 2**63 - 1, size=(3, 4000))):
            write_matrix_csv(tmp_path / "new.csv", v, ids, cols)
            csvref.write_matrix_csv(tmp_path / "ref.csv", v, ids, cols)
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes()

    def test_writer_rejects_text_values(self, tmp_path):
        with pytest.raises(TypeError, match="numbers"):
            write_matrix_csv(tmp_path / "m.csv", np.array([["a"]]), ["r"],
                             ["c"])

    @settings(max_examples=500, deadline=None)
    @given(_matrix_texts())
    def test_reader_values_ids_and_errors(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _matrix_outcome(read_matrix_csv, path) == \
            _reference_outcome(path)

    def test_written_matrix_is_read_in_bulk(self, tmp_path):
        path = tmp_path / "m.csv"
        values = Rng(6).substream("bulk").normal(size=(5, 3700))
        write_matrix_csv(path, values, [f"p{k}" for k in range(5)],
                         [f"sp{j}" for j in range(3700)])
        assert _read_plain_matrix(path) is not None
        loaded, _, _ = read_matrix_csv(path)
        assert loaded.tobytes() == values.tobytes()
        assert _matrix_outcome(read_matrix_csv, path) == \
            _reference_outcome(path)

    @pytest.mark.parametrize("text", [
        'plot_id,a,b\n"p1",1.0,2.0\n',
        "plot_id,a,b\r\np1,1.0,2.0\r\n",
        "plot_id,a,b\np1,1_0,2.0\n",
        "plot_id,a,b\np1,\u0661,2.0\n",
        "plot_id,a,b\np1,1.0,nan\n",
        "plot_id,a,b\np1,1e400,2.0\n",
        "plot_id,a,b\np1,,2.0\n",
        "plot_id,a,b\np1,1.0\n",
        "plot_id,a,b\np1,1.0,\x1c2.0\n",
        "plot_id,a,b\n",
        "plot_id\np1\n",
        "\n \n",
    ], ids=["quote", "crlf", "underscore", "arabic_digit", "nan", "overflow",
            "empty_cell", "ragged", "separator_char", "header_only",
            "no_value_column", "blank"])
    def test_odd_file_takes_the_csv_path(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _read_plain_matrix(path) is None
        assert _matrix_outcome(read_matrix_csv, path) == \
            _reference_outcome(path)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["bulk", "csv"])
    def test_repeated_row_id_names_its_line(self, tmp_path, eol):
        path = tmp_path / "m.csv"
        path.write_bytes(eol.join(["plot_id,a", "p1,1.0", "", "p2,2.0",
                                   "p1,3.0", ""]).encode())
        with pytest.raises(DataError, match=re.escape(
                f"{path}, line 5: row id 'p1' repeats an earlier row")):
            read_matrix_csv(path)


class TestDomainReaders:
    def test_releves_reader(self, tmp_path):
        path = tmp_path / "releves.csv"
        path.write_text(
            "plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n"
            "p1,100.0,200.0,3,spA,5\n"
            "p1,100.0,200.0,3,spB,+\n"
            "p2,9000.0,150.0,7,spA,r\n")
        releves = read_releves(path)
        assert [r.plot_id for r in releves] == ["p1", "p2"]
        assert releves[0].species_covers == [("spA", "5"), ("spB", "+")]
        assert releves[1].prodrome_class == 7

    def test_occurrences_reader(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text(
            "species_id,x_m,y_m,label\n"
            "b1,0.0,0.0,1\n"
            "b1,10.0,0.0,0\n"
            "b2,5.0,5.0,1\n"
            "b1,20.0,0.0,0\n")
        occ, row_index = read_occurrences(path)
        assert set(occ) == {"b1", "b2"}
        assert occ["b1"].presences.shape == (1, 2)
        assert occ["b1"].candidate_absences.shape == (2, 2)
        pres_rows, cand_rows = row_index["b1"]
        np.testing.assert_array_equal(pres_rows, [0])
        np.testing.assert_array_equal(cand_rows, [1, 3])

    def test_soil_reader(self, tmp_path):
        path = tmp_path / "soil.csv"
        path.write_text(
            "sample_id,x_m,y_m,elevation_m,g1,g2\n"
            "s1,0.0,0.0,800.0,0.2,0.8\n"
            "s2,10.0,0.0,1600.0,0.5,0.5\n")
        table = read_soil(path)
        assert table.group_ids == ["g1", "g2"]
        np.testing.assert_array_equal(table.elevations, [800.0, 1600.0])


class TestConfig:
    def test_defaults_loaded(self):
        cfg = load_config()
        assert cfg["lambda"] == 1.0
        assert cfg["optimizer"]["lr"] == 1e-3
        assert cfg["train"]["batch_size"] == 256
        assert cfg["botania_train"]["lr"] == 0.3

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 0.0,
                                    "optimizer": {"lr": 0.01}}))
        cfg = load_config(path)
        assert cfg["lambda"] == 0.0
        assert cfg["optimizer"]["lr"] == 0.01
        assert cfg["optimizer"]["weight_decay"] == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(UsageError):
            load_config(path)

    @pytest.mark.parametrize("doc", [{"optimizer": {"momentum": 0.9}},
                                     {"optimizer": {"beta1": 0.5}},
                                     {"data": {"split": "s.csv"}}],
                             ids=["momentum", "beta1", "split"])
    def test_nested_unknown_key_rejected(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(UsageError):
            load_config(path)

    def test_explicit_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 5}))
        overrides = {}
        set_config_key(overrides, "seed", 9)
        set_config_key(overrides, "optimizer.lr", 0.5)
        cfg = load_config(path, overrides)
        assert cfg["seed"] == 9
        assert cfg["optimizer"]["lr"] == 0.5

    def test_int_passes_for_float(self):
        cfg = load_config(overrides={"lambda": 0, "cell_size_m": 100,
                                     "optimizer": {"lr": 1}})
        assert cfg["lambda"] == 0 and cfg["optimizer"]["lr"] == 1

    def test_config_hash_stable_under_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_manifest_contains_hashes(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("hello")
    out = tmp_path / "out.txt"
    out.write_text("world")
    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, "demo", {"seed": 1}, [src], [out])
    doc = json.loads(mpath.read_text())
    assert doc["command"] == "demo"
    assert str(src) in doc["inputs"]
    assert len(doc["inputs"][str(src)]) == 64
    assert "config_sha256" in doc


# --- binary round trips, bit for bit ------------------------------------------

_NAME = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
# float64 bit patterns: any, plus ±0.0, the smallest and largest
# subnormals, infinities and NaNs with a payload and the sign bit set
_F64_BITS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([
    0, 1 << 63, 1, (1 << 52) - 1, (1 << 63) | 1, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000001, 0xFFF4000000000abc]))


@st.composite
def _checkpoint_params(draw):
    names = draw(st.lists(_NAME, max_size=4, unique=True))
    return {name: draw(hnp.arrays(np.uint64, hnp.array_shapes(
        min_dims=0, max_dims=3, min_side=0, max_side=3),
        elements=_F64_BITS)).view(np.float64) for name in names}


class TestBinaryRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_checkpoint_params())
    def test_checkpoint(self, tmp_path_factory, params):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(params)
        for name, value in params.items():
            assert loaded[name].shape == value.shape
            assert np.array_equal(loaded[name].view(np.uint64),
                                  value.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_embeddings_raw(self, tmp_path_factory, data):
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        # finite float32 bit patterns (exponent not all ones): subnormals
        # and ±0.0 included
        bits = data.draw(hnp.arrays(np.uint32, (rows, cols), elements=(
            st.integers(0, 2**32 - 1).filter(lambda b: (b >> 23) & 0xFF != 0xFF))))
        ids = data.draw(st.none() | st.lists(
            st.text(st.sampled_from(',"\n\'') | st.characters(
                blacklist_categories=("Cs",)), max_size=6),
            min_size=rows, max_size=rows, unique=True))
        path = tmp_path_factory.mktemp("emb") / "e.emb"
        save_embeddings(path, bits.view(np.float32), ids)
        values, loaded_ids = load_embeddings(path, normalize=False)
        assert loaded_ids == ids
        assert values.dtype == np.float64
        assert np.array_equal(values.astype(np.float32).view(np.uint32), bits)
