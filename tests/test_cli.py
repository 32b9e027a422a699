import builtins
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import botaclip
from botaclip import cli, errors, fileio, training
from botaclip.cli import main
from botaclip.encoders import AlignmentModel, BotaniaMLP
from botaclip.evaluate import MetricReport
from botaclip.numerics import Rng


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out-dir", str(out), "--pairs", "160",
               "--latent-dim", "4", "--img-dim", "16", "--n-species", "16",
               "--views", "2", "--noise", "0.8", "--seed", "0"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = {
        "seed": 0,
        "data": {"embeddings": str(synth_dir / "images.emb"),
                 "covers": str(synth_dir / "covers.csv"),
                 "locations": str(synth_dir / "locations.csv")},
        "train": {"max_epochs": 8, "patience": 5},
        "model": {"botania_hidden": 24, "botania_classes": 8},
    }
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["train-botaclip", "--config", str(cfg_path),
               "--out-dir", str(out)])
    assert rc == 0
    return out


class TestSynthCommand:
    def test_outputs_exist(self, synth_dir):
        for name in ("images.emb", "covers.csv", "locations.csv",
                     "classes.csv", "latents.csv", "eval_species.csv",
                     "manifest_synth.json"):
            assert (synth_dir / name).exists()

    def test_embeddings_carry_view_ids(self, synth_dir):
        _, ids = fileio.load_embeddings(synth_dir / "images.emb",
                                        normalize=True)
        assert ids[0] == "p00000#0"
        assert len(ids) == 320


# the exit code cli.main gives each exception family, in its order of checks
_EXIT_CODES = ((errors.UsageError, 1),
               ((errors.DataError, OSError, UnicodeDecodeError), 2),
               (errors.NumericError, 3), (ValueError, 1))


def _one_error_line(capsys):
    """The one JSON error line on stderr, checked against cli.main's codes:
    its error names a package or builtin exception, its exit that class's."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    cls = getattr(errors, doc["error"], None) or getattr(builtins,
                                                        doc["error"], None)
    assert isinstance(cls, type) and issubclass(cls, Exception), doc
    assert doc["exit"] == next(code for family, code in _EXIT_CODES
                               if issubclass(cls, family)), doc
    return doc


class TestSplitCommand:
    def test_split_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "split.csv"
        rc = main(["split", "--locations", str(synth_dir / "locations.csv"),
                   "--out", str(out), "--folds", "5", "--fold", "1",
                   "--seed", "0"])
        assert rc == 0
        ids, cells, folds, roles = fileio.read_split_manifest(out)
        assert len(ids) == 160
        assert set(roles) <= {"train", "validation", "buffer-excluded"}

    def test_non_numeric_coordinate_exit_2(self, tmp_path, capsys):
        locations = tmp_path / "locations.csv"
        locations.write_text("plot_id,x_m,y_m\n"
                             "p1,100.0,200.0\n"
                             "\n"
                             "p2,east,150.0\n")
        rc = main(["split", "--locations", str(locations),
                   "--out", str(tmp_path / "split.csv")])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{locations}, line 4" in doc["message"]

    def test_non_finite_coordinate_exit_2(self, synth_dir, tmp_path, capsys):
        lines = (synth_dir / "locations.csv").read_text().splitlines()
        pid, x, _ = lines[7].split(",")
        lines[7] = f"{pid},{x},nan"
        locations = tmp_path / "locations.csv"
        locations.write_text("\n".join(lines) + "\n")
        rc = main(["split", "--locations", str(locations),
                   "--out", str(tmp_path / "split.csv")])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{locations}, line 8" in doc["message"]


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["bulk", "csv"])
def test_repeated_plot_id_exit_2(tmp_path, capsys, eol):
    # a second p00000 row would otherwise leave the first without a view
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--pairs", "24",
                 "--latent-dim", "4", "--img-dim", "8", "--n-species", "6",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    covers = data / "covers.csv"
    lines = covers.read_text().splitlines()
    lines.insert(2, lines[1])
    covers.write_bytes(eol.join(lines + [""]).encode())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"embeddings": str(data / "images.emb"), "covers": str(covers),
                 "locations": str(data / "locations.csv")},
        "train": {"max_epochs": 2},
        "model": {"botania_hidden": 8, "botania_classes": 4}}))
    rc = main(["train-botaclip", "--config", str(cfg),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    assert doc["message"] == (f"{covers}, line 3: row id 'p00000' repeats "
                              "an earlier row")


# a two-epoch run of each trainer on the synth_dir data, and the file its
# model is saved to
TRAINERS = {
    "train-botania": ("botania.ckpt", {
        "data": {"labels": "classes.csv"},
        "model": {"botania_hidden": 8, "botania_embed": 6,
                  "botania_classes": 8},
        "botania_train": {"max_epochs": 2}}),
    "train-botaclip": ("model.ckpt", {
        "data": {"embeddings": "images.emb"},
        "model": {"botania_hidden": 8, "botania_classes": 8},
        "train": {"max_epochs": 2}}),
    "train-botasp": ("botasp.ckpt", {
        "data": {"embeddings": "images.emb"},
        "model": {"botasp_hidden": 8},
        "botasp_train": {"max_epochs": 2}}),
}


def _train_on_locations(synth_dir, run, command, lines):
    """Run command on the synth_dir covers with a locations file of lines;
    (exit code, the locations file, the saved model or None)."""
    ckpt, cfg = TRAINERS[command]
    run.mkdir()
    locations = run / "locations.csv"
    locations.write_text("\n".join(lines) + "\n")
    data = {k: str(synth_dir / v) for k, v in cfg["data"].items()}
    data.update(covers=str(synth_dir / "covers.csv"),
                locations=str(locations))
    (run / "cfg.json").write_text(json.dumps({**cfg, "data": data}))
    rc = main([command, "--config", str(run / "cfg.json"),
               "--out-dir", str(run / "out")])
    model = run / "out" / ckpt
    return rc, locations, model.read_bytes() if model.exists() else None


@pytest.mark.parametrize("command", TRAINERS)
def test_trainers_match_locations_by_plot_id(synth_dir, tmp_path, command):
    header, *rows = (synth_dir / "locations.csv").read_text().splitlines()
    rc, _, ordered = _train_on_locations(synth_dir, tmp_path / "ordered",
                                         command, [header, *rows])
    assert rc == 0 and ordered is not None
    for name, changed in (("reversed", rows[::-1]),
                          ("extra_row", [*rows, "q00000,1.0,2.0"])):
        rc, _, model = _train_on_locations(synth_dir, tmp_path / name,
                                           command, [header, *changed])
        assert (rc, model) == (0, ordered), name


@pytest.mark.parametrize("command", TRAINERS)
def test_trainers_reject_missing_or_repeated_location(synth_dir, tmp_path,
                                                      capsys, command):
    header, *rows = (synth_dir / "locations.csv").read_text().splitlines()
    missing = rows[5].split(",")[0]
    rc, _, model = _train_on_locations(synth_dir, tmp_path / "missing",
                                       command, [header, *rows[:5],
                                                 *rows[6:]])
    assert (rc, model) == (2, None)
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    assert doc["message"] == f"no location for plot {missing}"

    rc, locations, model = _train_on_locations(
        synth_dir, tmp_path / "repeated", command,
        [header, *rows[:3], rows[0], *rows[3:]])
    assert (rc, model) == (2, None)
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    assert doc["message"] == (f"{locations}, line 5: row id 'p00000' "
                              "repeats an earlier row")


@pytest.mark.parametrize("variant", ["mlp", "attention"])
def test_botania_checkpoint_with_other_variant_exit_1(synth_dir, tmp_path,
                                                      capsys, variant):
    # a checkpoint the variant would load, hash as an input and not use
    ckpt = tmp_path / "botania.ckpt"
    botania = BotaniaMLP(16, 8, 6, 8, 0.4, gen=Rng(0).substream("b"))
    fileio.save_checkpoint(ckpt, training.model_state(botania))
    out = tmp_path / "out"
    rc = main(["train-botaclip", "--out-dir", str(out),
               "--set", f"data.embeddings={synth_dir / 'images.emb'}",
               "--set", f"data.covers={synth_dir / 'covers.csv'}",
               "--set", f"data.locations={synth_dir / 'locations.csv'}",
               "--set", f"data.botania_checkpoint={ckpt}",
               "--set", f"variant={variant}", "--set", "train.max_epochs=1"])
    assert rc == 1
    doc = _one_error_line(capsys)
    assert doc["error"] == "UsageError" and doc["exit"] == 1
    assert doc["message"] == ("data.botania_checkpoint seeds only the "
                              f"botania-linear variant, not '{variant}'")
    assert not out.exists()


def test_alignment_checkpoint_as_botania_seed_exit_2(synth_dir, trained_dir,
                                                     tmp_path, capsys):
    # a botania-linear model.ckpt holds botania.* arrays, but it is not a
    # train-botania checkpoint
    ckpt = trained_dir / "model.ckpt"
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["train-botaclip", "--out-dir", str(out),
               "--set", f"data.embeddings={synth_dir / 'images.emb'}",
               "--set", f"data.covers={synth_dir / 'covers.csv'}",
               "--set", f"data.locations={synth_dir / 'locations.csv'}",
               "--set", f"data.botania_checkpoint={ckpt}",
               "--set", "model.botania_hidden=24",
               "--set", "model.botania_classes=8",
               "--set", "train.max_epochs=1"])
    assert rc == 2
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    assert doc["message"] == (f"{ckpt}: a checkpoint of AlignmentModel, not "
                              "of BotaniaMLP")
    assert not out.exists()


_SURVEY = "plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n"


class TestPrepCommand:
    def test_long_format_to_matrices(self, tmp_path):
        releves = tmp_path / "releves.csv"
        releves.write_text(
            "plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n"
            "p1,100.0,200.0,3,spA,5\n"
            "p1,100.0,200.0,3,spB,+\n"
            "p2,9000.0,150.0,7,spB,2\n")
        out = tmp_path / "prep"
        rc = main(["prep", "--releves", str(releves), "--out-dir", str(out)])
        assert rc == 0
        values, row_ids, col_ids = fileio.read_matrix_csv(
            out / "cover_matrix.csv")
        assert row_ids == ["p1", "p2"]
        assert col_ids == ["spA", "spB"]
        np.testing.assert_array_equal(values, [[87.5, 0.5], [0.0, 15.0]])

    def test_duplicate_species_exit_code_2(self, tmp_path, capsys):
        releves = tmp_path / "releves.csv"
        releves.write_text(
            "plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n"
            "p1,0.0,0.0,1,spA,5\n"
            "p1,0.0,0.0,1,spA,2\n")
        rc = main(["prep", "--releves", str(releves),
                   "--out-dir", str(tmp_path / "prep")])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert doc["message"] == "plot p1: species 'spA' recorded twice"

    def test_species_index_is_an_input(self, tmp_path):
        survey = tmp_path / "survey.csv"
        survey.write_text(_SURVEY + "p1,0.0,0.0,1,spB,5\n")
        index = tmp_path / "species.txt"
        index.write_text("spA\nspB\n")
        out = tmp_path / "prep"
        assert main(["prep", "--releves", str(survey), "--out-dir", str(out),
                     "--species-index", str(index)]) == 0
        doc = json.loads((out / "manifest_prep.json").read_text())
        assert doc["config"] == {"species_index": str(index)}
        assert doc["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (survey, index)}

    def test_species_index_is_read_as_utf8(self, tmp_path):
        # an ASCII locale, where a text file opened without an encoding
        # cannot hold the index's non-ASCII species
        survey = tmp_path / "survey.csv"
        survey.write_text(_SURVEY + "p1,0.0,0.0,1,sp\u00c4,5\n",
                          encoding="utf-8")
        index = tmp_path / "species.txt"
        index.write_text("spA\nsp\u00c4\n", encoding="utf-8")
        src = str(Path(botaclip.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0")
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c",
             "import sys; from botaclip.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "prep", "--releves",
             str(survey), "--out-dir", str(tmp_path / "prep"),
             "--species-index", str(index)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        values, _, species = fileio.read_matrix_csv(
            tmp_path / "prep" / "cover_matrix.csv")
        assert species == ["spA", "sp\u00c4"]
        np.testing.assert_array_equal(values, [[0.0, 87.5]])

    def test_species_listed_twice_exit_2(self, tmp_path, capsys):
        survey = tmp_path / "survey.csv"
        survey.write_text(_SURVEY + "p1,0.0,0.0,1,a,5\n")
        index = tmp_path / "species.txt"
        index.write_text("a\na\nb\n")
        rc = main(["prep", "--releves", str(survey), "--out-dir",
                   str(tmp_path / "prep"), "--species-index", str(index)])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert doc["message"] == "species 'a' listed twice in the index"
        assert not (tmp_path / "prep" / "cover_matrix.csv").exists()

    def test_short_row_exit_2(self, tmp_path, capsys):
        releves = tmp_path / "releves.csv"
        releves.write_text(
            "plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n"
            "p1,0.0,0.0,1,spA,5\n"
            "p1,0.0,0.0,1,spB\n")
        rc = main(["prep", "--releves", str(releves),
                   "--out-dir", str(tmp_path / "prep")])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{releves}, line 3" in doc["message"]

    @pytest.mark.parametrize("name,text,command", [
        ("soil.csv", "sample_id,x_m,y_m,elevation_m,g1\n"
                     "s1,0.0,0.0,120.0,1.0\ns2,0.0,0.0,high,1.0\n",
         ["eval", "--task", "soil", "--soil"]),
        ("labels.csv", "plot_id,class_id\na,0\nb,x\n",
         ["cluster-metrics", "--labels"]),
        ("covers.csv", "plot_id,spA,spB\na,1.0,0.0\nb,1.0\n",
         ["eval", "--task", "plant", "--split", "split.csv", "--covers"]),
        ("covers.csv", "plot_id,spA,spB\na,1.0,0.0\nb,0.0,nan\n",
         ["eval", "--task", "plant", "--split", "split.csv", "--covers"]),
        ("occ.csv", "species_id,x_m,y_m,label\nb1,0.0,0.0,1\nb1,nan,0.0,0\n",
         ["eval", "--task", "butterfly", "--occurrences"]),
        ("occ.csv", "species_id,x_m,y_m,label\nb1,0.0,0.0,1\nb1,1.0,0.0,2\n",
         ["eval", "--task", "butterfly", "--occurrences"]),
        ("survey.csv", _SURVEY + "p1,0.0,0.0,1,spA,5\np2,nan,0.0,1,spA,5\n",
         ["prep", "--releves"]),
        ("survey.csv", _SURVEY + "p1,0.0,0.0,1,spA,5\np1,0.0,1.0,1,spB,5\n",
         ["prep", "--releves"]),
        ("survey.csv", _SURVEY + "p1,0.0,0.0,1,spA,5\np1,0.0,0.0,2,spB,5\n",
         ["prep", "--releves"]),
        ("split.csv", "sample_id,cell_ix,cell_iy,fold,role\n"
                      "a,0,0,0,train\nb,0,0,1,validation\n",
         ["eval", "--task", "plant", "--covers", "covers.csv", "--split"]),
    ], ids=["soil_elevation", "label_class", "ragged_matrix_row",
            "non_finite_matrix_cell", "occurrence_coordinate",
            "occurrence_label", "survey_coordinate", "survey_plot_moves",
            "survey_plot_class", "split_cell_two_folds"])
    def test_malformed_row_exit_2(self, tmp_path, capsys, monkeypatch, name,
                                  text, command):
        # relative paths in a command name files in tmp_path; a well-formed
        # covers.csv is there unless the case itself writes one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "covers.csv").write_text("plot_id,spA\na,1.0\nb,0.0\n")
        emb = tmp_path / "e.emb"
        fileio.save_embeddings(emb, np.ones((2, 3)))
        path = tmp_path / name
        path.write_text(text)
        if command[0] == "prep":
            rest = ["--out-dir", str(tmp_path / "prep")]
        else:
            rest = ["--embeddings", str(emb),
                    "--out", str(tmp_path / "out.csv")]
        rc = main(command + [str(path)] + rest)
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{path}, line 3" in doc["message"]
        if name == "split.csv":
            assert "cell (0, 0) maps to folds 0 and 1" in doc["message"]


def _eval_soil(tmp_path, bad_g2_in_row=None, bad=""):
    """eval --task soil on 120 samples and 3 groups; optionally with the g2
    abundance of one data row replaced by `bad`. Returns (exit code,
    report path)."""
    from botaclip.numerics import Rng, l2_normalize_rows
    gen = Rng(4).substream("s")
    n = 120
    emb = l2_normalize_rows(gen.normal(size=(n, 6)))
    vals = np.exp(emb[:, :2] @ gen.normal(size=(2, 3)))
    lines = ["sample_id,x_m,y_m,elevation_m,g1,g2,g3"]
    for i in range(n):
        cells = [f"s{i}", "0.0", "0.0", repr(float(500 + 20 * i))]
        cells += [repr(float(v)) for v in vals[i]]
        if i == bad_g2_in_row:
            cells[5] = bad
        lines.append(",".join(cells))
    soil = tmp_path / "soil.csv"
    soil.write_text("\n".join(lines) + "\n")
    embf = tmp_path / "emb.emb"
    fileio.save_embeddings(embf, emb)
    out = tmp_path / "report.csv"
    rc = main(["eval", "--task", "soil", "--embeddings", str(embf),
               "--soil", str(soil), "--out", str(out),
               "--set", "metrics.n_trees=8", "--set", "n_folds=3"])
    return rc, out


class TestTrainAndEmbed:
    def test_train_outputs(self, trained_dir):
        for name in ("model.ckpt", "train_log.csv", "split.csv",
                     "manifest_train_botaclip.json"):
            assert (trained_dir / name).exists()

    def test_embed_identity_adapter_reproduces_input(self, synth_dir,
                                                     tmp_path):
        from botaclip.encoders import init_identity_adapter
        from botaclip.encoders import AlignmentModel, BotaniaMLP
        from botaclip.training import model_state
        from botaclip.encoders import AlignmentModel
        from botaclip.numerics import Rng

        botania = BotaniaMLP(16, 8, 16, 4, 0.4, gen=Rng(0).substream("b"))
        model = AlignmentModel("botania-linear", d_img=16, d_tab=16,
                               rng=Rng(0), proj_dim=16, botania=botania,
                               adapter_noise_variance=0.0)
        ckpt = tmp_path / "identity.ckpt"
        fileio.save_checkpoint(ckpt, model_state(model))
        out = tmp_path / "adapted.emb"
        rc = main(["embed", "--checkpoint", str(ckpt), "--embeddings",
                   str(synth_dir / "images.emb"), "--out", str(out)])
        assert rc == 0
        orig, ids = fileio.load_embeddings(synth_dir / "images.emb",
                                           normalize=True)
        adapted, ids2 = fileio.load_embeddings(out, normalize=True)
        assert ids == ids2
        np.testing.assert_allclose(adapted, orig, atol=1e-6)

    def test_attention_checkpoint_with_qk_entries_loads(self, synth_dir,
                                                         tmp_path):
        # checkpoints written while the attention block kept its Q/K
        # projections hold four more arrays; loading ignores them
        from botaclip.encoders import AlignmentModel
        from botaclip.numerics import Rng
        from botaclip.training import model_from_state, model_state

        model = AlignmentModel("attention", d_img=16, d_tab=16, rng=Rng(0),
                               proj_dim=8, mlp_img_hidden=12,
                               attn_model_dim=8)
        state = model_state(model)
        old = {}
        for name, value in state.items():
            if name == "tab_encoder.mha.v.weight":
                gen = Rng(1).substream("qk")
                for qk in ("q", "k"):
                    old[f"tab_encoder.mha.{qk}.weight"] = gen.normal(
                        size=(8, 8))
                    old[f"tab_encoder.mha.{qk}.bias"] = gen.normal(size=8)
            old[name] = value
        assert len(old) == len(state) + 4
        outs = []
        for tag, st in (("new", state), ("old", old)):
            ckpt = tmp_path / f"{tag}.ckpt"
            fileio.save_checkpoint(ckpt, st)
            out = tmp_path / f"{tag}.emb"
            assert main(["embed", "--checkpoint", str(ckpt), "--embeddings",
                         str(synth_dir / "images.emb"), "--out",
                         str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        covers, _, _ = fileio.read_matrix_csv(synth_dir / "covers.csv")
        rebuilt = model_from_state(
            fileio.load_checkpoint(tmp_path / "old.ckpt"), dropout_rate=0.0)
        assert model_state(rebuilt).keys() == state.keys()
        np.testing.assert_array_equal(rebuilt.encode_tables(covers),
                                      model.encode_tables(covers))

    def test_embed_then_eval_and_stats(self, synth_dir, trained_dir,
                                       tmp_path):
        adapted = tmp_path / "adapted.emb"
        rc = main(["embed", "--checkpoint", str(trained_dir / "model.ckpt"),
                   "--embeddings", str(synth_dir / "images.emb"),
                   "--out", str(adapted)])
        assert rc == 0
        reports = []
        for name, emb in (("adapted", adapted),
                          ("raw", synth_dir / "images.emb")):
            report = tmp_path / f"report_{name}.csv"
            rc = main(["eval", "--task", "plant", "--embeddings", str(emb),
                       "--covers", str(synth_dir / "eval_species.csv"),
                       "--split", str(trained_dir / "split.csv"),
                       "--out", str(report), "--set", "metrics.n_trees=8"])
            assert rc == 0
            reports.append(report)
        loaded = MetricReport.from_csv(reports[0])
        assert loaded.scores_for("tss")
        stats_out = tmp_path / "stats.csv"
        rc = main(["stats", "--reports", str(reports[0]), str(reports[1]),
                   "--names", "adapted", "raw", "--metric", "tss",
                   "--out", str(stats_out)])
        assert rc == 0
        header, rows = fileio.read_csv(stats_out)
        assert header[0] == "comparison"
        assert rows[0][0] == "friedman"

    def test_stats_identical_reports_no_winner(self, tmp_path, capsys):
        report = MetricReport("plant")
        for unit in ("a", "b", "c", "d"):
            report.add(unit, 1, 0, "tss", 0.3 + 0.01 * ord(unit[0]))
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        report.to_csv(p1)
        report.to_csv(p2)
        rc = main(["stats", "--reports", str(p1), str(p2), "--metric", "tss",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        assert "no significant winner" in capsys.readouterr().out


    def test_stats_reports_units_left_out(self, tmp_path, capsys):
        paths = []
        for name, units in (("full", "abcde"), ("short", "abde")):
            report = MetricReport("plant")
            for u in units:
                report.add(u, 1, 0, "tss", 0.1 * ord(u) - 9.0)
            paths.append(tmp_path / f"{name}.csv")
            report.to_csv(paths[-1])
        rc = main(["stats", "--reports", *map(str, paths), "--metric", "tss"])
        assert rc == 0
        # without --out no file is written, a manifest neither
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        out = capsys.readouterr().out
        assert "full: 1 of 5 units left out" in out
        assert "short: 0 of 4 units left out" in out
        assert "over 4 units" in out

    def test_stats_reports_units_left_out_when_too_few_shared(self, tmp_path,
                                                              capsys):
        paths = []
        for name, units in (("full", "abc"), ("other", "cde")):
            report = MetricReport("plant")
            for u in units:
                report.add(u, 1, 0, "tss", 0.1 * ord(u) - 9.0)
            paths.append(tmp_path / f"{name}.csv")
            report.to_csv(paths[-1])
        rc = main(["stats", "--reports", *map(str, paths), "--metric", "tss"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "full: 2 of 3 units left out" in out
        assert "other: 2 of 3 units left out" in out

    @staticmethod
    def _reports(tmp_path, names):
        paths = []
        for k, name in enumerate(names):
            report = MetricReport("plant")
            for u in "abcde":
                report.add(u, 1, 0, "tss", 0.1 * k + 0.01 * ord(u))
            paths.append(tmp_path / name)
            paths[-1].parent.mkdir(exist_ok=True)
            report.to_csv(paths[-1])
        return [str(p) for p in paths]

    @pytest.mark.parametrize("files, names, repeated", [
        (["r1.csv", "r2.csv", "r3.csv"], ["a", "b", "a"], "a"),
        (["x/report.csv", "y/report.csv"], [], "report"),
    ], ids=["names", "stems"])
    def test_stats_duplicate_model_name_exit_1(self, tmp_path, capsys, files,
                                               names, repeated):
        # the scores of one model would silently replace the other's
        out = tmp_path / "stats.csv"
        argv = ["stats", "--reports", *self._reports(tmp_path, files),
                "--metric", "tss", "--out", str(out)]
        if names:
            argv += ["--names", *names]
        capsys.readouterr()
        assert main(argv) == 1
        doc = _one_error_line(capsys)
        assert doc["error"] == "UsageError"
        assert repr(repeated) in doc["message"]
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["nan", "2", "1", "0", "-0.1"])
    def test_stats_alpha_out_of_range_exit_1(self, tmp_path, capsys, alpha):
        out = tmp_path / "stats.csv"
        capsys.readouterr()
        assert main(["stats", "--reports",
                     *self._reports(tmp_path, ["r1.csv", "r2.csv"]),
                     "--metric", "tss", "--alpha", alpha,
                     "--out", str(out)]) == 1
        doc = _one_error_line(capsys)
        assert doc["exit"] == 1 and "alpha" in doc["message"]
        assert not out.exists()


class TestOtherTrainers:
    def test_botania_then_seeded_alignment(self, synth_dir, tmp_path):
        # 2 pretraining epochs: the canonical lr 0.3 saturates the tiny
        # desk-scale embedding layer soon after
        cfg = {
            "seed": 0,
            "data": {"covers": str(synth_dir / "covers.csv"),
                     "labels": str(synth_dir / "classes.csv"),
                     "locations": str(synth_dir / "locations.csv")},
            "model": {"botania_hidden": 24, "botania_embed": 16,
                      "botania_classes": 8},
            "botania_train": {"max_epochs": 2, "patience": 5},
        }
        cfg_path = tmp_path / "cfg_botania.json"
        cfg_path.write_text(json.dumps(cfg))
        bot = tmp_path / "bot"
        assert main(["train-botania", "--config", str(cfg_path),
                     "--out-dir", str(bot)]) == 0
        assert (bot / "botania.ckpt").exists()

        cfg2 = {
            "seed": 0,
            "data": {"embeddings": str(synth_dir / "images.emb"),
                     "covers": str(synth_dir / "covers.csv"),
                     "locations": str(synth_dir / "locations.csv"),
                     "botania_checkpoint": str(bot / "botania.ckpt")},
            "train": {"max_epochs": 3, "patience": 5},
        }
        cfg2_path = tmp_path / "cfg_align.json"
        cfg2_path.write_text(json.dumps(cfg2))
        out = tmp_path / "align"
        assert main(["train-botaclip", "--config", str(cfg2_path),
                     "--out-dir", str(out)]) == 0
        state = fileio.load_checkpoint(out / "model.ckpt")
        assert "botania.lin1.weight" in state
        assert "img_adapter.weight" in state

    @pytest.fixture(scope="class")
    def botasp_dir(self, synth_dir, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("botasp")
        cfg = {
            "seed": 0,
            "data": {"embeddings": str(synth_dir / "images.emb"),
                     "covers": str(synth_dir / "covers.csv"),
                     "locations": str(synth_dir / "locations.csv")},
            "model": {"botasp_hidden": 20},
            "botasp_train": {"max_epochs": 4, "patience": 5},
            "metrics": {"min_presences": 5},
        }
        cfg_path = tmp_path / "cfg_botasp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "sp"
        assert main(["train-botasp", "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
        return out

    def test_botasp(self, botasp_dir):
        state = fileio.load_checkpoint(botasp_dir / "botasp.ckpt")
        assert state["botasp.hidden.weight"].shape[0] == 20

    def test_botasp_embed_eval_and_stats(self, synth_dir, trained_dir,
                                         botasp_dir, tmp_path):
        # the supervised baseline scored beside the adapted and raw rows
        images = synth_dir / "images.emb"
        embedded = {"raw": images}
        for name, ckpt in (("adapted", trained_dir / "model.ckpt"),
                           ("supervised", botasp_dir / "botasp.ckpt")):
            embedded[name] = tmp_path / f"{name}.emb"
            assert main(["embed", "--checkpoint", str(ckpt), "--embeddings",
                         str(images), "--out", str(embedded[name])]) == 0
        # BotaSP's hidden features of every view, stored as float32
        model = training.model_from_state(
            fileio.load_checkpoint(botasp_dir / "botasp.ckpt"),
            dropout_rate=0.0)
        x, ids = fileio.load_embeddings(images, normalize=True)
        got, got_ids = fileio.load_embeddings(embedded["supervised"],
                                              normalize=False)
        assert got_ids == ids and got.shape == (320, 20)
        np.testing.assert_array_equal(
            got, model.encode_images(x).astype(np.float32))
        reports = []
        for name, emb in embedded.items():
            reports.append(tmp_path / f"report_{name}.csv")
            assert main(["eval", "--task", "plant", "--embeddings", str(emb),
                         "--covers", str(synth_dir / "eval_species.csv"),
                         "--split", str(trained_dir / "split.csv"),
                         "--out", str(reports[-1]),
                         "--set", "metrics.n_trees=8"]) == 0
        stats_out = tmp_path / "stats.csv"
        assert main(["stats", "--reports", *map(str, reports),
                     "--names", *embedded, "--metric", "tss",
                     "--out", str(stats_out)]) == 0
        _, rows = fileio.read_csv(stats_out)
        assert rows[0][0] == "friedman"

    @pytest.mark.parametrize("kind", ["botania", "unknown"])
    def test_embed_rejects_checkpoint_without_image_encoder(
            self, synth_dir, tmp_path, capsys, kind):
        state = training.model_state(
            BotaniaMLP(16, 8, 6, 8, 0.4, gen=Rng(0).substream("b")))
        if kind == "unknown":
            state = {f"other.{name}": value for name, value in state.items()}
        ckpt = tmp_path / f"{kind}.ckpt"
        fileio.save_checkpoint(ckpt, state)
        out = tmp_path / "embedded.emb"
        capsys.readouterr()
        assert main(["embed", "--checkpoint", str(ckpt), "--embeddings",
                     str(synth_dir / "images.emb"), "--out", str(out)]) == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert doc["message"] == {
            "botania": f"{ckpt}: a checkpoint of BotaniaMLP, not of "
                       "AlignmentModel or BotaSPModel",
            "unknown": f"{ckpt}: not a model checkpoint (no parameter "
                       "'botania.lin1.weight')"}[kind]
        assert list(tmp_path.iterdir()) == [ckpt]

    @pytest.mark.parametrize("damage, message", [
        ("bias_7", "parameter img_encoder.lin1.bias has shape (7,), not (6,)"),
        ("weight_1d", "parameter img_encoder.lin1.weight is not a non-empty "
                      "matrix"),
        ("weight_empty", "parameter img_encoder.lin1.weight is not a "
                         "non-empty matrix"),
    ], ids=["bias_7", "weight_1d", "weight_empty"])
    def test_embed_rejects_misshapen_parameter(self, synth_dir, tmp_path,
                                               capsys, damage, message):
        state = training.model_state(AlignmentModel(
            "mlp", d_img=16, d_tab=16, rng=Rng(0), proj_dim=4,
            mlp_img_hidden=6, mlp_tab_hidden=5))
        if damage == "bias_7":
            state["img_encoder.lin1.bias"] = np.zeros(7)
        elif damage == "weight_1d":
            state["img_encoder.lin1.weight"] = np.zeros(96)
        else:
            state["img_encoder.lin1.weight"] = np.zeros((6, 0))
        ckpt = tmp_path / "model.ckpt"
        fileio.save_checkpoint(ckpt, state)
        out = tmp_path / "embedded.emb"
        capsys.readouterr()
        assert main(["embed", "--checkpoint", str(ckpt), "--embeddings",
                     str(synth_dir / "images.emb"), "--out", str(out)]) == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert doc["message"] == f"{ckpt}: {message}"
        assert list(tmp_path.iterdir()) == [ckpt]

    def test_lambda_is_the_only_drift_switch(self, botasp_dir, tmp_path,
                                             capsys):
        # the `regularized` key, which did what lambda 0 does, is gone
        cfg = str(botasp_dir.parent / "cfg_botasp.json")
        out = tmp_path / "regularized"
        capsys.readouterr()
        assert main(["train-botasp", "--config", cfg, "--out-dir", str(out),
                     "--set", "regularized=false"]) == 1
        doc = _one_error_line(capsys)
        assert doc["error"] == "UsageError"
        assert "unknown config key: regularized" in doc["message"]
        assert not out.exists()
        # lambda 0 trains another model than the fixture's default lambda 1
        out = tmp_path / "lambda"
        assert main(["train-botasp", "--config", cfg, "--out-dir", str(out),
                     "--set", "lambda=0"]) == 0
        assert (botasp_dir / "botasp.ckpt").read_bytes() != \
            (out / "botasp.ckpt").read_bytes()

    def test_mlp_and_attention_variants(self, synth_dir, tmp_path):
        for variant, model in (
                ("mlp", {"projection_dim": 8, "mlp_img_hidden": 12,
                         "mlp_tab_hidden": 12}),
                ("attention", {"projection_dim": 8, "mlp_img_hidden": 12,
                               "attention_model_dim": 8})):
            cfg = {
                "seed": 0,
                "variant": variant,
                "data": {"embeddings": str(synth_dir / "images.emb"),
                         "covers": str(synth_dir / "covers.csv"),
                         "locations": str(synth_dir / "locations.csv")},
                "model": model,
                "train": {"max_epochs": 2, "patience": 5},
            }
            cfg_path = tmp_path / f"cfg_{variant}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / variant
            assert main(["train-botaclip", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == 0
            adapted = out / "adapted.emb"
            assert main(["embed", "--checkpoint", str(out / "model.ckpt"),
                         "--embeddings", str(synth_dir / "images.emb"),
                         "--out", str(adapted)]) == 0
            emb, _ = fileio.load_embeddings(adapted, normalize=False)
            assert emb.shape == (320, 8)


def _butterfly_inputs(tmp_path):
    """(embeddings, occurrences) files of one butterfly species."""
    from botaclip.numerics import l2_normalize_rows
    gen = Rng(3).substream("b")
    n = 240
    emb = l2_normalize_rows(gen.normal(size=(n, 8)))
    coords = gen.uniform(0, 60000, size=(n, 2))
    labels = (emb[:, 0] > 0.3).astype(int)
    lines = ["species_id,x_m,y_m,label"]
    for (x, y), lab in zip(coords, labels):
        lines.append(f"bf,{float(x)!r},{float(y)!r},{lab}")
    occ = tmp_path / "occ.csv"
    occ.write_text("\n".join(lines) + "\n")
    embf = tmp_path / "emb.emb"
    fileio.save_embeddings(embf, emb)
    return embf, occ


class TestEvalButterflySoilCommands:
    def test_butterfly(self, tmp_path):
        embf, occ = _butterfly_inputs(tmp_path)
        out = tmp_path / "report.csv"
        rc = main(["eval", "--task", "butterfly", "--embeddings", str(embf),
                   "--occurrences", str(occ), "--out", str(out),
                   "--set", "metrics.n_trees=8", "--set", "n_folds=3"])
        assert rc == 0
        assert MetricReport.from_csv(out).scores_for("tss")

    def test_butterfly_too_few_embedding_rows_exit_2(self, tmp_path, capsys):
        occ = tmp_path / "occ.csv"
        occ.write_text("species_id,x_m,y_m,label\n" + "".join(
            f"bf,{1000.0 * i!r},0.0,{i % 2}\n" for i in range(40)))
        embf = tmp_path / "emb.emb"
        fileio.save_embeddings(embf, np.eye(10))
        rc = main(["eval", "--task", "butterfly", "--embeddings", str(embf),
                   "--occurrences", str(occ), "--out",
                   str(tmp_path / "report.csv")])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2

    def test_butterfly_no_unit_scored_exit_2(self, tmp_path, capsys):
        # one grid cell holds every point, so no fold can be built
        embf, occ = _butterfly_inputs(tmp_path)
        out = tmp_path / "report.csv"
        rc = main(["eval", "--task", "butterfly", "--embeddings", str(embf),
                   "--occurrences", str(occ), "--out", str(out),
                   "--set", "cell_size_m=1e12", "--set", "metrics.n_trees=2"])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError"
        assert doc["message"] == "butterfly task: no unit could be scored"
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    def test_soil(self, tmp_path):
        rc, out = _eval_soil(tmp_path)
        assert rc == 0
        report = MetricReport.from_csv(out)
        assert len(report.scores_for("mae")) == 3

    @pytest.mark.parametrize("bad", ["nan", "-0.5", "inf"])
    def test_soil_bad_abundance_exit_2(self, tmp_path, capsys, bad):
        rc, _ = _eval_soil(tmp_path, bad_g2_in_row=3, bad=bad)
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{tmp_path / 'soil.csv'}, line 5" in doc["message"]


class TestClusterMetricsCommand:
    def test_two_clusters(self, tmp_path):
        emb = tmp_path / "e.emb"
        fileio.save_embeddings(
            emb, np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]))
        labels = tmp_path / "labels.csv"
        labels.write_text("plot_id,class_id\na,0\nb,0\nc,1\nd,1\n")
        out = tmp_path / "cluster.csv"
        rc = main(["cluster-metrics", "--embeddings", str(emb), "--labels",
                   str(labels), "--out", str(out), "--raw-input"])
        assert rc == 0
        header, rows = fileio.read_csv(out)
        values = {r[0]: float(r[1]) for r in rows}
        assert abs(values["davies_bouldin"] - 0.1) < 1e-9
        assert abs(values["calinski_harabasz"] - 200.0) < 1e-9
        # without --out no file is written, a manifest neither
        files = sorted(tmp_path.iterdir())
        assert main(["cluster-metrics", "--embeddings", str(emb),
                     "--labels", str(labels), "--raw-input"]) == 0
        assert sorted(tmp_path.iterdir()) == files


def test_cluster_metrics_rejects_repeated_label_id(synth_dir, tmp_path,
                                                  capsys):
    header, *rows = (synth_dir / "classes.csv").read_text().splitlines()
    labels = tmp_path / "classes.csv"
    labels.write_text("\n".join([header, *rows, rows[0]]) + "\n")
    rc = main(["cluster-metrics", "--embeddings",
               str(synth_dir / "images.emb"), "--labels", str(labels)])
    assert rc == 2
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    plot = rows[0].split(",")[0]
    assert doc["message"] == (f"{labels}, line {len(rows) + 2}: row id "
                              f"{plot!r} repeats an earlier row")


def _embed_command(command, synth_dir, emb):
    if command == "cluster-metrics":
        return ["cluster-metrics", "--embeddings", str(emb), "--labels",
                str(synth_dir / "classes.csv")]
    return ["train-botaclip", "--out-dir", str(emb.parent / "out"),
            "--set", f"data.embeddings={emb}",
            "--set", f"data.covers={synth_dir / 'covers.csv'}",
            "--set", f"data.locations={synth_dir / 'locations.csv'}",
            "--set", "train.max_epochs=1"]


@pytest.mark.parametrize("command", ["cluster-metrics", "train-botaclip"])
@pytest.mark.parametrize("bad_id, message", [
    ("p00000#x", "embedding row id 'p00000#x': view 'x' is not an "
                 "integer in [0, 2**63)"),
    ("p00000#-1", "embedding row id 'p00000#-1': view '-1' is not an "
                  "integer in [0, 2**63)"),
    ("p00000#" + "9" * 20, f"embedding row id 'p00000#{'9' * 20}': view "
                           f"'{'9' * 20}' is not an integer in [0, 2**63)"),
    ("p00000", "embedding rows 'p00000#0' and 'p00000' are both view 0 of "
               "plot 'p00000'"),
], ids=["malformed_view", "negative_view", "huge_view", "repeated_view"])
def test_bad_embedding_view_id_exit_2(synth_dir, tmp_path, capsys, command,
                                      bad_id, message):
    values, ids = fileio.load_embeddings(synth_dir / "images.emb",
                                         normalize=False)
    assert ids[:2] == ["p00000#0", "p00000#1"]
    emb = tmp_path / "images.emb"
    fileio.save_embeddings(emb, values, ids=[ids[0], bad_id, *ids[2:]])
    rc = main(_embed_command(command, synth_dir, emb))
    assert rc == 2
    doc = _one_error_line(capsys)
    assert doc["error"] == "DataError" and doc["exit"] == 2
    assert doc["message"] == message
    assert not (tmp_path / "out").exists()


def _trainer_exits_1(synth_dir, tmp_path, capsys, command, setting,
                     message):
    """command on the synth_dir inputs with setting exits 1 with one JSON
    line carrying message, and makes no output directory."""
    _, cfg = TRAINERS[command]
    data = {k: str(synth_dir / v) for k, v in cfg["data"].items()}
    data.update(covers=str(synth_dir / "covers.csv"),
                locations=str(synth_dir / "locations.csv"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "data": data}))
    capsys.readouterr()
    rc = main([command, "--config", str(cfg_path),
               "--out-dir", str(tmp_path / "run"), "--set", setting])
    assert rc == 1
    doc = _one_error_line(capsys)
    assert doc["error"] == "ValueError" and doc["exit"] == 1
    assert doc["message"] == message
    assert not (tmp_path / "run").exists()


class TestErrorPaths:
    def test_usage_error_exit_1(self, capsys):
        rc = main(["eval", "--task", "plant", "--embeddings", "x.emb",
                   "--out", "r.csv"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["exit"] == 1

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_magic_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"XXXX" + b"\0" * 16)
        rc = main(["embed", "--checkpoint", str(bad), "--embeddings",
                   str(bad), "--out", str(tmp_path / "o.emb")])
        assert rc == 2

    def test_malformed_report_exit_2(self, tmp_path, capsys):
        good = MetricReport("plant")
        for unit in ("spA", "spB"):
            good.add(unit, 1, 0, "tss", 0.5)
        r2 = tmp_path / "r2.csv"
        good.to_csv(r2)
        r1 = tmp_path / "r1.csv"
        r1.write_text("task,unit,fold,seed,metric,value\n"
                      "plant,spA,1,0,tss,0.5\nplant,spB,1,0,tss,zero\n")
        rc = main(["stats", "--reports", str(r1), str(r2), "--metric", "tss"])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{r1}, line 3" in doc["message"]

    def test_mixed_task_report_exit_2(self, tmp_path, capsys):
        good = MetricReport("plant")
        good.add("spA", 1, 0, "tss", 0.5)
        r2 = tmp_path / "r2.csv"
        good.to_csv(r2)
        r1 = tmp_path / "r1.csv"
        r1.write_text("task,unit,fold,seed,metric,value\n"
                      "plant,spA,1,0,tss,0.5\nsoil,spA,1,0,tss,0.9\n")
        rc = main(["stats", "--reports", str(r1), str(r2), "--metric", "tss"])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert f"{r1}, line 3" in doc["message"] and "soil" in doc["message"]

    def test_label_without_view0_embedding_exit_2(self, tmp_path, capsys):
        emb = tmp_path / "e.emb"
        fileio.save_embeddings(emb, np.eye(3), ids=["a#0", "b#0", "c#1"])
        labels = tmp_path / "labels.csv"
        labels.write_text("plot_id,class_id\na,0\nb,1\nc,1\n")
        rc = main(["cluster-metrics", "--embeddings", str(emb),
                   "--labels", str(labels)])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert "plot c" in doc["message"]

    def test_bad_embedding_value_exit_2(self, tmp_path, capsys):
        # a bad value in an .emb input is a data error, as in a CSV
        emb = tmp_path / "z.emb"
        fileio.save_embeddings(emb, np.zeros((2, 3)))
        labels = tmp_path / "labels.csv"
        labels.write_text("plot_id,class_id\na,0\nb,1\n")
        rc = main(["cluster-metrics", "--embeddings", str(emb),
                   "--labels", str(labels)])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError" and doc["exit"] == 2
        assert "z.emb, row 0: zero norm" in doc["message"]
        # raw input skips normalization but must still reject NaN
        values = np.ones((4, 8))
        values[2, 5] = np.nan
        fileio.save_embeddings(emb, values, ids=["a#0", "b#0", "c#0", "d#0"])
        labels.write_text("plot_id,class_id\na,0\nb,0\nc,1\nd,1\n")
        rc = main(["cluster-metrics", "--embeddings", str(emb),
                   "--labels", str(labels), "--raw-input"])
        assert rc == 2
        doc = _one_error_line(capsys)
        assert doc["error"] == "DataError"
        assert "z.emb, row 2 (id 'c#0'): NaN or inf" in doc["message"]

    @pytest.mark.parametrize("args", [
        ["split", "--folds", "1"],
        ["split", "--fold", "9"],
        ["split", "--cell-size", "0"],
        ["train-botaclip", "--set", "variant=foo"],
        ["train-botaclip", "--set", "train.patience=0"],
        ["train-botaclip", "--set", "lambda=-1"],
        ["train-botaclip", "--set", "train.max_epochs=0"],
        ["train-botaclip", "--set", "train.batch_size=0"],
        ["train-botaclip", "--set", "train.batch_size=-5"],
        ["train-botania", "--set", "botania_train.max_epochs=0"],
        ["train-botasp", "--set", "botasp_train.max_epochs=-1"],
        ["eval", "--set", "metrics.seeds=0"],
        ["eval", "--set", "metrics.threshold=2.5"],
        ["eval", "--set", "metrics.threshold=-0.1"],
    ], ids=["folds_1", "fold_9", "cell_size_0", "variant_foo", "patience_0",
            "lambda_negative", "max_epochs_0", "batch_size_0",
            "batch_size_negative", "botania_max_epochs_0",
            "botasp_max_epochs_negative", "seeds_0", "threshold_above_1",
            "threshold_below_0"])
    def test_out_of_range_value_exit_1(self, synth_dir, tmp_path, capsys,
                                       args):
        key = args[-1].split("=")[0]
        if args[0] == "split":
            args = args + ["--locations", str(synth_dir / "locations.csv"),
                           "--out", str(tmp_path / "split.csv")]
        elif args[0] == "eval":
            # inputs a plant evaluation would run on, so that only the
            # setting can fail
            split = tmp_path / "split.csv"
            assert main(["split", "--locations",
                         str(synth_dir / "locations.csv"),
                         "--out", str(split)]) == 0
            args = args + ["--task", "plant",
                           "--embeddings", str(synth_dir / "images.emb"),
                           "--covers", str(synth_dir / "eval_species.csv"),
                           "--split", str(split),
                           "--set", "metrics.n_trees=2",
                           "--out", str(tmp_path / "report.csv")]
        else:
            cfg = {"data": {"embeddings": str(synth_dir / "images.emb"),
                            "covers": str(synth_dir / "covers.csv"),
                            "locations": str(synth_dir / "locations.csv")},
                   "model": {"botania_hidden": 24, "botania_classes": 8}}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            args = args + ["--config", str(cfg_path),
                           "--out-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert main(args) == 1
        doc = _one_error_line(capsys)
        assert doc["error"] == "ValueError" and doc["exit"] == 1
        if "." in key:
            assert key in doc["message"]
        assert not (tmp_path / "run" / "model.ckpt").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("command, setting, message", [
        ("train-botania", "model.botania_hidden=0",
         "botania.lin1: widths must be at least 1, got 16 -> 0"),
        ("train-botania", "model.botania_dropout=1.0",
         "dropout rate must be in [0, 1), got 1.0"),
    ], ids=["hidden_0", "dropout_1"])
    def test_bad_layer_setting_exit_1(self, synth_dir, tmp_path, capsys,
                                      command, setting, message):
        _trainer_exits_1(synth_dir, tmp_path, capsys, command, setting,
                         message)

    @pytest.mark.parametrize("command, setting, message", [
        ("train-botaclip", "optimizer.lr=-0.001",
         "lr must be in (0, inf), got -0.001"),
        ("train-botaclip", "optimizer.lr=0", "lr must be in (0, inf), got 0"),
        ("train-botaclip", "optimizer.weight_decay=-5",
         "weight_decay must be in [0, inf), got -5"),
        ("train-botania", "botania_train.lr=-1",
         "lr must be in (0, inf), got -1"),
        ("train-botasp", "botasp_train.lr=-1",
         "lr must be in (0, inf), got -1"),
        ("train-botasp", "botasp_train.weight_decay=-1",
         "weight_decay must be in [0, inf), got -1"),
        ("train-botaclip", "lambda=NaN", "lam must be in [0, inf), got nan"),
        ("train-botasp", "lambda=NaN", "lam must be in [0, inf), got nan"),
        ("train-botaclip", "lambda=Infinity",
         "lam must be in [0, inf), got inf"),
        ("train-botasp", "lambda=Infinity",
         "lam must be in [0, inf), got inf"),
    ], ids=["lr_negative", "lr_0", "weight_decay_negative",
            "botania_lr_negative", "botasp_lr_negative",
            "botasp_weight_decay_negative", "lambda_nan", "botasp_lambda_nan",
            "lambda_inf", "botasp_lambda_inf"])
    def test_bad_optimizer_setting_exit_1(self, synth_dir, tmp_path, capsys,
                                          command, setting, message):
        _trainer_exits_1(synth_dir, tmp_path, capsys, command, setting,
                         message)

    def test_numeric_failure_writes_one_json_line(self, synth_dir, tmp_path,
                                                  capsys):
        cfg = {"data": {"embeddings": str(synth_dir / "images.emb"),
                        "covers": str(synth_dir / "covers.csv"),
                        "locations": str(synth_dir / "locations.csv")},
               "model": {"botania_hidden": 24, "botania_classes": 8}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        # the overflows on the way to the non-finite matrix warn nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train-botaclip", "--config", str(cfg_path),
                       "--set", "optimizer.lr=1e100",
                       "--set", "train.max_epochs=3",
                       "--out-dir", str(tmp_path / "run")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        assert _one_error_line(capsys)["exit"] == 3

    @pytest.mark.parametrize("setting", [
        "train.batch_size=abc", "lambda=abc", 'fold="1"',
        "train.max_epochs=2.5", "normalize_on_load=no", "lambda=true",
        "train.shuffle=1", "data.covers=3", "fold=false", "seed=null"])
    def test_config_value_of_wrong_type_exit_1(self, tmp_path, capsys,
                                               setting):
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train-botaclip", "--set", setting,
                     "--out-dir", str(out)]) == 1
        doc = _one_error_line(capsys)
        assert doc["error"] == "UsageError" and doc["exit"] == 1
        assert f"config key {setting.split('=')[0]} must be" in doc["message"]
        assert not out.exists()

    def test_no_trees_exit_1(self, synth_dir, trained_dir, tmp_path, capsys):
        report = tmp_path / "report.csv"
        capsys.readouterr()
        rc = main(["eval", "--task", "plant",
                   "--embeddings", str(synth_dir / "images.emb"),
                   "--covers", str(synth_dir / "eval_species.csv"),
                   "--split", str(trained_dir / "split.csv"),
                   "--out", str(report), "--set", "metrics.n_trees=0"])
        assert rc == 1
        doc = _one_error_line(capsys)
        assert doc["error"] == "ValueError" and "tree" in doc["message"]
        assert not report.exists()

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        locations = tmp_path / "locations.csv"
        locations.write_bytes(b"plot_id,x_m,y_m\np\xff1,1.0,2.0\n")
        rc = main(["split", "--locations", str(locations),
                   "--out", str(tmp_path / "split.csv")])
        assert rc == 2
        assert _one_error_line(capsys)["error"] == "UnicodeDecodeError"

    def test_stats_needs_two_reports(self, tmp_path, capsys):
        rc = main(["stats", "--reports", "a.csv", "--metric", "tss"])
        assert rc == 1


class TestNonFiniteCellSize:
    """A cell size must lie in (0, inf): NaN or inf exits 1 with one JSON
    line and writes nothing, where it used to fail as too few cells or
    write NaN coordinates or an empty report."""

    @staticmethod
    def _exits_1(capsys, shown):
        doc = _one_error_line(capsys)
        assert doc["error"] == "ValueError" and doc["exit"] == 1
        assert doc["message"] == f"cell_size must be in (0, inf), got {shown}"

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf")])
    def test_split(self, synth_dir, tmp_path, capsys, value, shown):
        out = tmp_path / "split.csv"
        capsys.readouterr()
        assert main(["split", "--locations", str(synth_dir / "locations.csv"),
                     "--out", str(out), "--cell-size", value]) == 1
        self._exits_1(capsys, shown)
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf")])
    def test_synth(self, tmp_path, capsys, value, shown):
        out = tmp_path / "data"
        capsys.readouterr()
        assert main(["synth", "--out-dir", str(out), "--pairs", "20",
                     "--cell-size", value]) == 1
        self._exits_1(capsys, shown)
        assert not out.exists()

    @pytest.mark.parametrize("value, shown", [("NaN", "nan"),
                                              ("Infinity", "inf")])
    def test_train_botaclip(self, synth_dir, tmp_path, capsys, value, shown):
        _trainer_exits_1(synth_dir, tmp_path, capsys, "train-botaclip",
                         f"cell_size_m={value}",
                         f"cell_size must be in (0, inf), got {shown}")

    @pytest.mark.parametrize("value, shown", [("NaN", "nan"),
                                              ("Infinity", "inf")])
    def test_eval_butterfly(self, tmp_path, capsys, value, shown):
        embf, occ = _butterfly_inputs(tmp_path)
        out = tmp_path / "report.csv"
        capsys.readouterr()
        assert main(["eval", "--task", "butterfly", "--embeddings", str(embf),
                     "--occurrences", str(occ), "--out", str(out),
                     "--set", "metrics.n_trees=2",
                     "--set", f"cell_size_m={value}"]) == 1
        self._exits_1(capsys, shown)
        assert not out.exists()


def test_config_flag_overrides_file(synth_dir, tmp_path):
    cfg = {
        "seed": 3,
        "data": {"embeddings": str(synth_dir / "images.emb"),
                 "covers": str(synth_dir / "covers.csv"),
                 "locations": str(synth_dir / "locations.csv")},
        "train": {"max_epochs": 2, "patience": 5},
        "model": {"botania_hidden": 24},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    rc = main(["train-botaclip", "--config", str(cfg_path), "--out-dir",
               str(out), "--seed", "7", "--set", "lambda=0.5"])
    assert rc == 0
    doc = json.loads((out / "manifest_train_botaclip.json").read_text())
    assert doc["config"]["seed"] == 7
    assert doc["config"]["lambda"] == 0.5


def test_main_calls_share_one_parser(synth_dir, tmp_path, monkeypatch,
                                     capsys):
    # successive calls of one process, with other commands and flags in
    # between, write what each call writes in a process of its own
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"seed": 1, "metrics": {"n_trees": 2}}))
    data = str(synth_dir)
    plant = ["eval", "--task", "plant", "--embeddings", f"{data}/images.emb",
             "--covers", f"{data}/eval_species.csv", "--config", str(cfg)]
    calls = [
        ["split", "--locations", f"{data}/locations.csv", "--out", "a.csv",
         "--seed", "4", "--folds", "3", "--fold", "2"],
        ["split", "--locations", f"{data}/locations.csv", "--out", "b.csv"],
        ["split", "--bogus"],
        [*plant, "--split", "b.csv", "--out", "r1.csv", "--seed", "2",
         "--set", "metrics.n_trees=3"],
        [*plant, "--split", "a.csv", "--out", "r2.csv"],
        ["cluster-metrics", "--embeddings", f"{data}/images.emb",
         "--labels", f"{data}/classes.csv", "--out", "c1.csv", "--raw-input"],
        ["cluster-metrics", "--embeddings", f"{data}/images.emb",
         "--labels", f"{data}/classes.csv", "--out", "c2.csv"],
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    codes, files = {}, {}
    for side in ("shared", "fresh"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        cli._parser.cache_clear()
        built.clear()
        codes[side] = []
        for argv in calls:
            if side == "fresh":
                cli._parser.cache_clear()
            codes[side].append(main(argv))
        files[side] = {f.name: f.read_bytes()
                       for f in sorted(Path().iterdir())}
        assert len(built) == (1 if side == "shared" else len(calls))
    capsys.readouterr()
    assert codes["shared"] == codes["fresh"] == [0, 0, 1, 0, 0, 0, 0]
    assert files["shared"] == files["fresh"]
    assert len(files["shared"]) == 12  # 6 outputs, each with its manifest
    # the split after the one with flags took the defaults
    default = fileio.DEFAULT_CONFIG
    assert (json.loads(files["shared"]["b.csv.manifest.json"])["config"]
            == {"cell_size": default["cell_size_m"],
                "folds": default["n_folds"], "fold": default["fold"],
                "seed": default["seed"]})
    assert files["shared"]["a.csv"] != files["shared"]["b.csv"]


@pytest.fixture(scope="module")
def embed_inputs(tmp_path_factory):
    """A 2-wide alignment checkpoint, mostly names and shapes, and a 3-row
    embedding file it can adapt."""
    from botaclip.encoders import AlignmentModel, BotaniaMLP
    from botaclip.numerics import Rng
    from botaclip.training import model_state

    out = tmp_path_factory.mktemp("garble")
    botania = BotaniaMLP(2, 2, 2, 2, 0.4, gen=Rng(0).substream("b"))
    model = AlignmentModel("botania-linear", d_img=2, d_tab=2, rng=Rng(0),
                           proj_dim=2, botania=botania,
                           adapter_noise_variance=1e-4)
    fileio.save_checkpoint(out / "model.ckpt", model_state(model))
    fileio.save_embeddings(out / "images.emb",
                           Rng(1).substream("e").normal(size=(3, 2)),
                           ids=["a", "b#1", "c"])
    return out


# how to damage a file: cut it at a fraction of its length, or overwrite
# one to three bytes, each at a fraction of its length, xor a nonzero byte
_DAMAGE = st.one_of(
    st.tuples(st.just("cut"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
        min_size=1, max_size=3)))


def _damaged(data: bytes, damage) -> bytes:
    how, arg = damage
    if how == "cut":
        return data[:int(arg * len(data))]
    buf = bytearray(data)
    for frac, mask in arg:
        buf[int(frac * len(buf))] ^= mask
    return bytes(buf)


class TestDamagedBinaries:
    """embed on a truncated or byte-flipped checkpoint or embedding file
    exits 0, or exits 2 with one JSON line; it never raises. A flip inside a
    checkpoint's float can also make a NaN or inf output, which exits 3 as
    documented for non-finite values; in an embedding file a NaN, inf or
    zero row is bad input and exits 2."""

    @settings(max_examples=300, deadline=None)
    @given(which=st.sampled_from(["model.ckpt", "images.emb"]),
           damage=_DAMAGE)
    def test_embed_never_raises(self, embed_inputs, which, damage):
        damaged = embed_inputs / ("damaged_" + which)
        damaged.write_bytes(_damaged((embed_inputs / which).read_bytes(),
                                     damage))
        files = {"model.ckpt": embed_inputs / "model.ckpt",
                 "images.emb": embed_inputs / "images.emb", which: damaged}
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["embed", "--checkpoint", str(files["model.ckpt"]),
                       "--embeddings", str(files["images.emb"]),
                       "--out", str(embed_inputs / "out.emb")])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert len(lines) == 1, lines
            doc = json.loads(lines[0])
            assert doc["exit"] == rc
            if which == "images.emb":
                assert rc == 2, doc
            else:
                assert rc == 2 or (doc["error"] == "NumericError" and re.search(
                    "NaN or inf|has norm", doc["message"])), doc
