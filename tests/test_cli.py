import dataclasses
import hashlib
import json
import math
import pickle
import re
import shutil
import warnings
import weakref
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gaborface as gf
from gaborface.cli import (
    StudyConfig,
    main,
    render_scatter,
    run_stage,
    run_study,
)
from gaborface import cli, gabor, nmds, rank_stats, ratings
from gaborface.errors import ValidationError
from oracles import (
    amplitude,
    filter_response,
    fresh_modules,
    gabor_image_similarity,
    matrix_csv,
    matrix_document,
)
from synthetic_study import make_synthetic_study, read_summary


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    config_path = make_synthetic_study(root, n_images=6)
    return config_path


@pytest.fixture(scope="module")
def matrices_study(tmp_path_factory):
    """A synthetic study whose matrices are written, ready to correlate."""
    config_path = make_synthetic_study(tmp_path_factory.mktemp("matrices"),
                                       n_images=4)
    for stage in ("encode", "matrices"):
        assert main(["--config", str(config_path), "--stage", stage]) == 0
    return config_path


@pytest.fixture(scope="module")
def scanned_study(tmp_path_factory):
    """The out/ directory of a full synthetic study with dimension scans."""
    config_path = make_synthetic_study(tmp_path_factory.mktemp("scanned"),
                                       n_images=6)
    doc = json.loads(config_path.read_text())
    doc["options"]["scan_dims"] = 2
    config_path.write_text(json.dumps(doc))
    assert main(["--config", str(config_path)]) == 0
    return config_path.parent / "out"


def load_config(config_path):
    return StudyConfig.from_file(config_path)


def tree_digest(root):
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def edit_json(change):
    """A file edit: parse the JSON, apply change(doc) in place, write it back."""
    def edit(data):
        doc = json.loads(data)
        change(doc)
        return json.dumps(doc).encode()
    return edit


def changed_config(config_path, source, change):
    """The study config at `config_path` with change(doc) made to its JSON
    document: written to the file and read back (source "file"), or the
    file's config given the changed ids, labels and options by
    dataclasses.replace (source "code")."""
    doc = json.loads(config_path.read_text())
    change(doc)
    if source == "code":
        return dataclasses.replace(load_config(config_path),
                                   expressers=doc["expressers"], labels=doc["labels"],
                                   options=cli.StudyOptions(**doc["options"]))
    config_path.write_text(json.dumps(doc))
    return load_config(config_path)


def run_changed(config_path, source, change, capsys, stage="study"):
    """The exit code and error of `stage` run on the study at `config_path`
    with change(doc) made to its config: main's, less the error line's
    `error: <config path>: ` (source "file"); or 1 and the ValidationError
    of changed_config or the stage, else 0 and None (source "code")."""
    if source == "code":
        try:
            config = changed_config(config_path, source, change)
            if stage == "study":
                run_study(config)
            else:
                run_stage(config, stage)
        except ValidationError as exc:
            return 1, str(exc)
        return 0, None
    config_path.write_bytes(edit_json(change)(config_path.read_bytes()))
    code = main(["--config", str(config_path), "--stage", stage])
    err = capsys.readouterr().err
    prefix = f"error: {config_path}: "
    if code == 0:
        assert err == ""
        return code, None
    assert err.startswith(prefix) and err.count("\n") == 1
    return code, err[len(prefix):-1]


def from_file_and_code(cases):
    """pytest params of each case of the dict `cases`, id -> its argument
    values: the values and then the config's source, "file" under the id
    and "code" under the id and `-code` (see changed_config)."""
    return [pytest.param(*values, source, id=case + suffix)
            for case, values in cases.items()
            for source, suffix in (("file", ""), ("code", "-code"))]


def set_no_fear(config_path, no_fear):
    """Rewrite the study config at `config_path` with `no_fear` set."""
    doc = json.loads(config_path.read_text())
    doc["no_fear"] = no_fear
    config_path.write_text(json.dumps(doc))


def infinite_pair(matrix_doc):
    matrix_doc["values"][0][1] = matrix_doc["values"][1][0] = math.inf


def nan_coordinate(configuration_doc):
    configuration_doc["coordinates"][0][0] = math.nan


class TestEncode:
    def test_jet_files_have_34x18_amplitudes(self, study):
        config = load_config(study)
        run_stage(config, "encode")
        jet_dir = config.out_dir / "jets"
        files = sorted(jet_dir.glob("*.json"))
        assert len(files) == 6
        doc = json.loads(files[0].read_text())
        assert len(doc["points"]) == 34
        assert all(len(p["amplitudes"]) == 18 for p in doc["points"])

    def test_missing_grid_fails_its_image_alone(self, study, tmp_path, capsys):
        doc = json.loads(study.read_text())
        doc["expressers"]["ghost"] = "SY"
        doc["out_dir"] = str(tmp_path / "out")
        config_path = study.with_name("ghost.json")
        config_path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="image 'ghost' failed"):
            assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        grid_path = load_config(study).grid_dir / "ghost.json"
        assert capsys.readouterr().err == f"error: {grid_path}: no such file\n"
        assert sorted(p.name for p in (tmp_path / "out" / "jets").iterdir()) == [
            f"img{i:02d}.json" for i in range(6)]

    def test_bad_grid_removes_the_old_jet(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        (tmp_path / "grids" / "img00.json").write_text("{not json")
        with pytest.warns(UserWarning, match="image 'img00' failed"):
            assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        assert not (tmp_path / "out" / "jets" / "img00.json").exists()
        capsys.readouterr()
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        assert "run the encode stage" in capsys.readouterr().err

    def test_grids_of_twice_the_image_size_give_the_same_jets(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        jets = tree_digest(tmp_path / "out" / "jets")

        def doubled(doc):
            doc["source_size"] = [2 * v for v in doc["source_size"]]
            for node in doc["nodes"]:
                node["x"], node["y"] = 2 * node["x"], 2 * node["y"]

        for path in (tmp_path / "grids").iterdir():
            path.write_bytes(edit_json(doubled)(path.read_bytes()))
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        assert tree_digest(tmp_path / "out" / "jets") == jets

    def test_unit_survives_a_pickle_round_trip(self, study, tmp_path):
        """A worker process started by spawn or forkserver gets a stage's
        unit and config by pickle."""
        config = dataclasses.replace(load_config(study), out_dir=tmp_path / "direct")
        run_stage(config, "encode")
        unit, config = pickle.loads(pickle.dumps(
            (cli._STAGES["encode"][0][1], StudyConfig.from_file(study))))
        out = {".json": tmp_path / "img03.json"}
        unit(config, "img03", out)
        assert out[".json"].read_bytes() == (
            tmp_path / "direct" / "jets" / "img03.json").read_bytes()

    def test_rerun_is_byte_identical(self, study):
        config = load_config(study)
        run_stage(config, "encode")
        first = tree_digest(config.out_dir / "jets")
        run_stage(config, "encode")
        assert tree_digest(config.out_dir / "jets") == first


class TestStudyPipeline:
    def test_full_study(self, study):
        config = load_config(study)
        run_study(config)
        out = config.out_dir
        rows = read_summary(out)
        assert list(rows) == ["SY", "Average"]
        assert rows["SY"]["gabor_rho"] > 0.8
        assert rows["SY"]["gabor_p"] < 0.01
        for name in ["SY_gabor", "SY_geometry", "SY_semantic"]:
            assert (out / "matrices" / f"{name}.json").exists()
            assert (out / "matrices" / f"{name}.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "correlations" / "SY_gabor.json").exists()
        assert (out / "embeddings" / "SY_gabor.json").exists()
        assert (out / "align" / "SY.json").exists()
        assert (out / "plots" / "SY_gabor.svg").exists()

    def test_summary_reproducible_from_emitted_files(self, study):
        config = load_config(study)
        run_study(config)
        summary = (config.out_dir / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        model, semantic = (gf.PairMatrix.from_document(json.loads(
            (config.out_dir / "matrices" / f"SY_{m}.json").read_text()))
            for m in ("gabor", "semantic"))
        [recomputed] = gf.correlate_model_with_ratings([model], semantic)
        assert float(row["gabor_rho"]) == recomputed.rho
        stored = json.loads(
            (config.out_dir / "correlations" / "SY_gabor.json").read_text())
        assert stored["rho"] == recomputed.rho

    def test_small_group_skipped_with_warning(self, study, tmp_path):
        config = load_config(study)
        # move one image into its own tiny group
        first = sorted(config.expressers)[0]
        config = dataclasses.replace(config, out_dir=tmp_path / "out",
                                     expressers={**config.expressers, first: "LONE"})
        run_stage(config, "encode")
        with pytest.warns(UserWarning, match="LONE"):
            run_stage(config, "matrices")

    @pytest.mark.parametrize("change,message", [
        (lambda doc: doc.pop("rho"), "missing 'rho'"),
        (lambda doc: doc.update(rho="0.9"), "rho must be a number, got '0.9'"),
        (lambda doc: doc.update(p_two_sided=math.nan), "need a finite p_two_sided >= 0"),
        (lambda doc: doc.update(rho=10**400), "need a finite rho >= -inf"),
        (lambda doc: doc.update(n_pairs=6.0), "n_pairs must be an integer"),
        (lambda doc: doc.update(method=None), "method None is not 'permutation'"),
        (lambda doc: doc.update(method="t-approximation"),
         "method 't-approximation' is not 'permutation'"),
        (lambda doc: doc.update(rho=3.0), "rho must lie in [-1, 1]"),
        (lambda doc: doc.update(rho=-1.5), "rho must lie in [-1, 1]"),
        (lambda doc: doc.update(p_two_sided=7.5), "p_two_sided in (0, 1]"),
        (lambda doc: doc.update(p_two_sided=0), "p_two_sided in (0, 1]"),
    ], ids=["no-rho", "string-rho", "nan-p", "huge-rho", "float-n-pairs",
            "no-method", "other-method", "rho-above-1", "rho-below-minus-1",
            "p-above-1", "p-zero"])
    def test_summary_refuses_a_malformed_correlation_file(self, tmp_path, change,
                                                          message):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        for stage in ("encode", "matrices", "correlate"):
            assert main(["--config", str(config_path), "--stage", stage]) == 0
        config = load_config(config_path)
        path = config.out_dir / "correlations" / "SY_geometry.json"
        path.write_bytes(edit_json(change)(path.read_bytes()))
        out = cli._outputs(config, "correlate", "summary", 1)
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(str(path))}: malformed correlation result: .*"
                f"{re.escape(message)}.*; re-run the correlate stage$")):
            cli._write_summary(config, ["SY"], out)

    def test_exclusion_changes_only_average(self, study, tmp_path):
        config = load_config(study)
        run_study(config)
        with_avg = (config.out_dir / "summary.csv").read_text().splitlines()
        config = dataclasses.replace(config, exclude_from_average=("SY",))
        run_stage(config, "correlate")
        without_avg = (config.out_dir / "summary.csv").read_text().splitlines()
        assert with_avg[1] == without_avg[1]  # per-expresser row unchanged
        assert any(line.startswith("Average") for line in with_avg)
        assert not any(line.startswith("Average") for line in without_avg)


class TestRenderScatter:
    def square_config(self):
        pts = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        return gf.Configuration(("a", "b", "c", "d"), pts, 0.0, 1.0, 3)

    def test_square_has_four_markers(self):
        svg = render_scatter(self.square_config(), {"a": "HA", "b": "SA"})
        assert svg.count("<circle") == 4
        assert ">HA<" in svg and ">SA<" in svg

    def test_fallback_labels_are_item_ids(self):
        svg = render_scatter(self.square_config(), {})
        for item_id in ("a", "b", "c", "d"):
            assert f">{item_id}<" in svg

    def test_equal_aspect(self):
        pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        config = gf.Configuration(("a", "b", "c", "d"), pts, 0.0, 1.0, 0)
        svg = render_scatter(config)
        xs, ys = [], []
        for line in svg.splitlines():
            if line.startswith("<circle"):
                xs.append(float(line.split('cx="')[1].split('"')[0]))
                ys.append(float(line.split('cy="')[1].split('"')[0]))
        # data aspect 2:1 must be preserved in pixel space
        assert (max(xs) - min(xs)) == pytest.approx(2 * (max(ys) - min(ys)))

    def test_deterministic_bytes(self):
        config = self.square_config()
        assert render_scatter(config) == render_scatter(config)

    def test_rejects_non_2d(self):
        config = gf.Configuration(("a", "b"), np.array([[0.0], [1.0]]), 0.0, 1.0, 0)
        with pytest.raises(ValidationError):
            render_scatter(config)

    def test_markup_in_labels_and_ids_is_escaped(self):
        pts = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]])
        config = gf.Configuration(("a", "b", "<c>"), pts, 0.0, 1.0, 3)
        svg = render_scatter(config, {"a": "NE<1>", "b": "H&S"})
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == ["NE<1>", "H&S", "<c>"]

    @given(st.text(st.sampled_from("&<>;amp#x") | st.characters())
           .filter(lambda label: not cli.BAD_TEXT.search(label)))
    @example("H&S")
    @example("NE<1>")
    @example("a]]>b")
    @example("&amp;")  # escaped once: &amp;amp;
    def test_label_text_is_what_html_escape_writes(self, label):
        import html  # the oracle only: the package does not load it
        svg = render_scatter(self.square_config(), {"a": label})
        texts = re.findall(r'font-size="12">([^<]*)</text>', svg)
        assert texts == [html.escape(label, quote=False), "b", "c", "d"]


class TestMainCli:
    def test_study_stage_exit_zero(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_naming_a_regular_file_exits_one(self, tmp_path, capsys, under):
        # refused before any unit runs, so no jet file is written and failed
        config_path = make_synthetic_study(tmp_path / "study", n_images=4)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if under else taken
        assert main(["--config", str(config_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {taken}: not a directory; the "
                                           f"encode stage writes in {out / 'jets'}\n")
        assert taken.read_text() == ""

    def test_output_directory_that_is_a_file_fails_library_callers(
            self, matrices_study, tmp_path):
        config = dataclasses.replace(load_config(matrices_study),
                                     out_dir=tmp_path / "out")
        config.out_dir.mkdir()
        (config.out_dir / "correlations").write_text("")
        # run_study checks every stage's directories before encode writes
        for run in (lambda: run_stage(config, "correlate"), lambda: run_study(config)):
            with pytest.raises(ValidationError, match="correlations: not a directory; "
                                                      "the correlate stage writes in"):
                run()
        config = dataclasses.replace(config, out_dir=tmp_path / "taken")
        config.out_dir.write_text("")
        with pytest.raises(ValidationError, match="taken: not a directory; "
                                                  "the encode stage writes in"):
            run_study(config)
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "correlations", "out", "taken"]

    @pytest.mark.parametrize("key", ["image_dir", "grid_dir", "ratings", "out_dir"])
    @pytest.mark.parametrize("value", [5, None, ["out"], "a\0b"],
                             ids=["int", "null", "list", "nul"])
    def test_path_field_that_is_not_a_path_string_exits_one_naming_it(
            self, tmp_path, capsys, key, value):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        config_path.write_bytes(edit_json(lambda doc: doc.update({key: value}))(
            config_path.read_bytes()))
        assert main(["--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (f"error: {config_path}: {key!r} must be "
                                           f"a path string, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    def test_no_fear_drops_labelled_images(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=5)
        doc = json.loads(config_path.read_text())
        victim = sorted(doc["labels"])[0]
        doc["labels"][victim] = "FE"
        doc["no_fear"] = True
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        out = tmp_path / "out" / "jets"
        assert not (out / f"{victim}.json").exists()
        assert len(list(out.glob("*.json"))) == 4

    def test_threads_flag_matches_serial(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode",
                     "--out", str(tmp_path / "o1"), "--threads", "1"]) == 0
        assert main(["--config", str(config_path), "--stage", "encode",
                     "--out", str(tmp_path / "o2"), "--threads", "4"]) == 0
        assert tree_digest(tmp_path / "o1") == tree_digest(tmp_path / "o2")

    def test_failed_image_keeps_no_stale_jet(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        jet = (tmp_path / "out" / "jets" / "img01.json").resolve()
        assert jet.exists()
        image = tmp_path / "images" / "img01.pgm"
        image.write_bytes(image.read_bytes()[:100])
        with pytest.warns(UserWarning, match="image 'img01' failed"):
            assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        assert "PGM raster too short" in capsys.readouterr().err
        assert not jet.exists()
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        assert capsys.readouterr().err == (
            f"error: {jet}: no such file; run the encode stage\n")

    def test_failed_images_leave_the_same_jets_on_any_thread_count(self, tmp_path,
                                                                   capsys):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        for victim in ("img01", "img03"):
            (tmp_path / "images" / f"{victim}.pgm").write_bytes(b"P5\n")
        trees = []
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["--config", str(config_path), "--stage", "encode",
                             "--out", str(out), "--threads", threads]) == 1
            # every image is coded; the failures are warned in image order,
            # and the first is raised
            assert [str(w.message).split(":")[0] for w in caught] == [
                "image 'img01' failed", "image 'img03' failed"]
            assert "img01.pgm" in capsys.readouterr().err
            trees.append(tree_digest(out))
        assert sorted(trees[0]) == [f"jets/img0{k}.json" for k in (0, 2, 4, 5)]
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("stage,victim,writer", [
        pytest.param("matrices", "jets/img00.json", "encode",
                     id="matrices-jets/img00.json"),
        pytest.param("embed", "matrices/SY_gabor.json", "matrices",
                     id="embed-matrices/SY_gabor.json"),
        pytest.param("align", "embeddings/SY_gabor.json", "embed",
                     id="align-embeddings/SY_gabor.json")])
    def test_truncated_intermediate_exits_one(self, tmp_path, capsys, stage, victim,
                                              writer):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / victim
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert main(["--config", str(config_path), "--stage", stage]) == 1
        err = capsys.readouterr().err
        assert "malformed" in err and str(path) in err
        assert err.endswith(f"; re-run the {writer} stage\n")

    @pytest.mark.parametrize("stage,victim,content,message,writer", [
        ("matrices", "jets/img00.json", b"\xff\xfe{", "not UTF-8 text", "encode"),
        ("align", "embeddings/SY_gabor.json", None, "run the embed stage", "embed"),
        ("embed", "matrices/SY_semantic.json", edit_json(infinite_pair),
         "must be finite", "matrices"),
        ("align", "embeddings/SY_gabor.json", edit_json(nan_coordinate),
         "must be finite", "embed"),
        ("plot", "embeddings/SY_gabor.json", edit_json(nan_coordinate),
         "must be finite", "embed"),
        ("align", "embeddings/SY_gabor.json",
         edit_json(lambda doc: doc.update(iterations="many")),
         "iterations must be an integer", "embed"),
        # numbers in intermediate files must be JSON numbers
        ("embed", "matrices/SY_semantic.json",
         edit_json(lambda doc: doc.update(values=[[repr(v) for v in row]
                                                  for row in doc["values"]])),
         "values must be numbers, got str", "matrices"),
        ("embed", "matrices/SY_gabor.json",
         edit_json(lambda doc: doc.update(item_ids="".join(doc["item_ids"]))),
         "item_ids must be a list", "matrices"),
        ("matrices", "jets/img00.json",
         edit_json(lambda doc: doc["points"][0]["amplitudes"].__setitem__(0, "1.5")),
         "jet amplitudes must be numbers, got str", "encode"),
        ("matrices", "jets/img00.json",
         edit_json(lambda doc: doc["points"][0].update(x="10")),
         "must be numbers, got str", "encode"),
        ("matrices", "jets/img00.json",
         edit_json(lambda doc: doc.update(image_id="imgXX")),
         "holds image_id 'imgXX', not 'img00'", "encode"),
        ("align", "embeddings/SY_gabor.json",
         edit_json(lambda doc: doc["coordinates"][0].__setitem__(0, True)),
         "must be numbers, got bool", "embed"),
        ("matrices", "jets/img02.json",
         edit_json(lambda doc: doc["bank"].update(sigma=doc["bank"]["sigma"] + 0.5)),
         "coded with a different filter bank", "encode"),
        ("matrices", "jets/img01.json", edit_json(lambda doc: doc.pop("source_size")),
         "malformed jet document: missing 'source_size'", "encode"),
        ("embed", "matrices/SY_gabor.json",
         edit_json(lambda doc: doc["item_ids"].__setitem__(0, "aaa")),
         "its 4 items are not the expresser's 4 images in the config", "matrices"),
    ])
    def test_unreadable_intermediate_exits_one(self, tmp_path, capsys, stage,
                                               victim, content, message, writer):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / victim
        if content is None:
            path.unlink()
        elif callable(content):
            path.write_bytes(content(path.read_bytes()))
        else:
            path.write_bytes(content)
        assert main(["--config", str(config_path), "--stage", stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err
        run = "run" if content is None else "re-run"
        assert err.endswith(f"; {run} the {writer} stage\n")

    @pytest.mark.parametrize("measure,kind,stage", [
        ("gabor", "dissimilarity", "correlate"), ("gabor", "dissimilarity", "embed"),
        ("geometry", "similarity", "correlate"), ("semantic", "similarity", "embed")])
    def test_matrix_of_another_kind_fails_its_unit(self, tmp_path, capsys, measure,
                                                   kind, stage):
        # relabelled, with the diagonal of its new kind, the gabor matrix
        # would flip the sign of its correlation with the ratings; the unit
        # fails instead, so its summary row reads failed, and embed exits 1
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / "matrices" / f"SY_{measure}.json"

        def relabel(doc):
            doc["kind"] = kind
            for i, row in enumerate(doc["values"]):
                row[i] = 1.0 if kind == "similarity" else 0.0
        path.write_bytes(edit_json(relabel)(path.read_bytes()))
        message = (f"{path}: a {kind} matrix, where the {measure} matrix is a "
                   f"{cli.KINDS[measure]} matrix; re-run the matrices stage")
        failed = re.escape(f"expresser 'SY' failed: {message}")
        with pytest.warns(UserWarning, match=failed):
            code = main(["--config", str(config_path), "--stage", stage])
        if stage == "correlate":
            assert code == 0
            assert read_summary(tmp_path / "out")["SY"]["gabor_rho"] == "failed"
        else:
            assert code == 1 and capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("stage,victim", [
        ("encode", "jets/img00.json"), ("matrices", "matrices/SY_gabor.csv"),
        ("correlate", "summary.txt")])
    def test_directory_in_place_of_an_output_file_exits_one(self, tmp_path, capsys,
                                                            stage, victim):
        # the unit cannot remove its old file: a unit failure, not an OSError
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / victim
        path.unlink()
        path.mkdir()
        with pytest.warns(UserWarning, match="failed"):
            assert main(["--config", str(config_path), "--stage", stage]) == 1
        assert capsys.readouterr().err == f"error: {path}: cannot remove: Is a directory\n"
        assert path.is_dir()

    @pytest.mark.parametrize("change,message", [
        (lambda doc: doc.update(stress=-4, rsq=9), "stress and rsq must lie in [0, 1]"),
        (lambda doc: doc.update(coordinates=[[] for _ in doc["coordinates"]]),
         "in d >= 1 dimensions"),
    ], ids=["stress-and-rsq", "no-columns"])
    def test_impossible_embedding_exits_one(self, tmp_path, capsys, change, message):
        # embed writes neither; align must not carry them into align/
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / "embeddings" / "SY_gabor.json"
        path.write_bytes(edit_json(change)(path.read_bytes()))
        assert main(["--config", str(config_path), "--stage", "align"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed configuration: ")
        assert message in err

    @pytest.mark.parametrize("stage,victim,outputs", [
        ("embed", "matrices/{}_semantic.json",
         ["embeddings/{}_gabor.json", "embeddings/{}_semantic.json"]),
        ("align", "embeddings/{}_semantic.json", ["align/{}.json"]),
        ("plot", "embeddings/{}_semantic.json",
         ["plots/{}_gabor.svg", "plots/{}_semantic.svg"]),
    ])
    def test_failing_expresser_is_isolated(self, tmp_path, capsys, stage, victim,
                                           outputs):
        # AA sorts first and fails on its second input, after its unit has
        # written a fresh output; ZZ still runs, then the stage exits 1
        config_path = make_synthetic_study(tmp_path, n_images=8)
        doc = json.loads(config_path.read_text())
        ids = sorted(doc["expressers"])
        doc["expressers"] = {i: "AA" if n < 4 else "ZZ" for n, i in enumerate(ids)}
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 0
        out = tmp_path / "out"
        path = out / victim.format("AA")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        for name in outputs:
            assert (out / name.format("AA")).exists()
            (out / name.format("ZZ")).unlink()
        with pytest.warns(UserWarning, match="expresser 'AA' failed"):
            assert main(["--config", str(config_path), "--stage", stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed") and err.count("\n") == 1
        assert all((out / name.format("ZZ")).exists() for name in outputs)
        assert not any((out / name.format("AA")).exists() for name in outputs)


    def test_ragged_matrix_fails_embed_and_its_expresser(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / "matrices" / "SY_semantic.json"
        doc = json.loads(path.read_text())
        doc["values"][1] = doc["values"][1][:-1]
        path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "embed"]) == 1
        assert "malformed pair-matrix" in capsys.readouterr().err
        with pytest.warns(UserWarning, match="'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1:] == ["SY,failed,,,,"]

    def test_summary_text_aligns_a_long_failed_expresser(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        long_id = "X" * 24
        doc = json.loads(config_path.read_text())
        doc["expressers"] = dict.fromkeys(doc["expressers"], long_id)
        config_path.write_text(json.dumps(doc))
        for stage in ("encode", "matrices"):
            assert main(["--config", str(config_path), "--stage", stage]) == 0
        (tmp_path / "out" / "matrices" / f"{long_id}_semantic.json").write_text("[")
        with pytest.warns(UserWarning, match=f"'{long_id}' failed"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        assert (tmp_path / "out" / "summary.txt").read_text().splitlines() == [
            f"{'Expresser':<24}  {'Gabor':>8}  {'Geometry':>8}",
            f"{long_id}  {'failed':>8}  {'failed':>8}"]

    @pytest.mark.parametrize("item_id", [7, "img01"], ids=["number", "duplicate"])
    def test_bad_item_id_fails_its_expresser(self, tmp_path, capsys, item_id):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        path = tmp_path / "out" / "matrices" / "SY_gabor.json"
        doc = json.loads(path.read_text())
        doc["item_ids"][0] = item_id
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1:] == ["SY,failed,,,,"]

    def test_expresser_id_with_a_dot_keeps_its_matrix_files(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        doc = json.loads(config_path.read_text())
        doc["expressers"] = {i: "S.Y" for i in doc["expressers"]}
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 0
        names = {p.name for p in (tmp_path / "out" / "matrices").iterdir()}
        assert names == {f"S.Y_{m}.{x}" for m in ("gabor", "geometry", "semantic")
                         for x in ("json", "csv")}

    def test_failed_expresser_leaves_no_stale_correlations(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        out = tmp_path / "out"
        stale = [out / "correlations" / f"SY_{m}.json" for m in cli.MEASURES]
        assert all(path.exists() for path in stale)
        path = out / "matrices" / "SY_semantic.json"
        doc = json.loads(path.read_text())
        doc["values"][1] = doc["values"][1][:-1]
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        assert (out / "summary.csv").read_text().splitlines()[1:] == ["SY,failed,,,,"]
        assert not any(path.exists() for path in stale)

    def test_skipped_expresser_keeps_no_earlier_outputs(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=8)
        doc = json.loads(config_path.read_text())
        ids = sorted(doc["expressers"])
        doc["expressers"] = {i: "AA" if n < 4 else "ZZ" for n, i in enumerate(ids)}
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 0
        out = tmp_path / "out"
        stages = [out / directory for steps in cli._STAGES.values()
                  for scope, _, directory, _ in steps if scope == "expresser"]
        assert all(list(d.glob("AA*")) and list(d.glob("ZZ*")) for d in stages)
        doc["expressers"][ids[0]] = "ZZ"  # AA keeps 3 images
        config_path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="expresser 'AA' has only 3 images"):
            assert main(["--config", str(config_path)]) == 0
        assert not any(list(d.glob("AA*")) for d in stages)
        assert all(list(d.glob("ZZ*")) for d in stages)
        assert [line.split(",")[0] for line in
                (out / "summary.csv").read_text().splitlines()] == [
            "expresser", "ZZ", "Average"]

    @pytest.mark.parametrize("stage,patched,fail_on_call,outputs", [
        ("align", (gf.nmds, "procrustes_align"), 1, ["align/SY.json"]),
        ("plot", (cli, "render_scatter"), 2,
         ["plots/SY_gabor.svg", "plots/SY_semantic.svg"]),
    ], ids=["align", "plot"])
    def test_unit_error_outside_the_policy_leaves_none_of_its_files(
            self, tmp_path, monkeypatch, stage, patched, fail_on_call, outputs):
        # the unit raises after writing none or some of this run's files
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert all((out / name).exists() for name in outputs)
        module, function = patched
        original, calls = getattr(module, function), []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_on_call:
                raise RuntimeError("not a validation error")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, function, failing)
        with pytest.raises(RuntimeError, match="not a validation error"):
            run_stage(load_config(config_path), stage)
        assert len(calls) == fail_on_call
        assert not any((out / name).exists() for name in outputs)

    @pytest.mark.parametrize("stage,victim,writer", [
        ("matrices", "jets/img00.json", "encode"),
        ("correlate", "matrices/SY_semantic.json", "matrices"),
        ("embed", "matrices/SY_gabor.json", "matrices"),
        ("align", "embeddings/SY_semantic.json", "embed"),
        ("plot", "embeddings/SY_gabor.json", "embed"),
    ])
    def test_missing_intermediate_names_the_stage_that_writes_it(
            self, scanned_study, tmp_path, capsys, stage, victim, writer):
        study = tmp_path / "study"
        shutil.copytree(scanned_study.parent, study)
        path = (study / "out" / victim).resolve()
        path.unlink()
        message = f"{path}: no such file; run the {writer} stage"
        with pytest.warns(UserWarning) as caught:
            code = main(["--config", str(study.resolve() / "study.json"),
                         "--stage", stage])
        assert [str(w.message) for w in caught] == [
            f"expresser 'SY' failed: {message}"]
        if stage == "correlate":  # the failure is its summary row
            assert code == 0 and capsys.readouterr().err == ""
            summary = (study / "out" / "summary.csv").read_text().splitlines()
            assert summary[1:] == ["SY,failed,,,,"]
        else:
            assert code == 1 and capsys.readouterr().err == f"error: {message}\n"

    def test_jet_file_without_placement_exits_one(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        path = tmp_path / "out" / "jets" / "img01.json"
        doc = json.loads(path.read_text())
        del doc["source_size"], doc["nose_tip"]
        path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: malformed jet document: missing 'source_size'; "
            "re-run the encode stage\n")

    def test_jet_file_of_another_bank_exits_one(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        path = tmp_path / "out" / "jets" / "img02.json"
        doc = json.loads(path.read_text())
        doc["bank"]["sigma"] += 0.5
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: coded with a different filter bank; re-run the encode "
            "stage\n")

    def test_grid_file_of_another_image_exits_one(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        path = tmp_path / "grids" / "img01.json"
        doc = json.loads(path.read_text())
        doc["image_id"] = "other"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="image 'img01' failed"):
            assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: holds image_id 'other', not 'img01'\n")
        assert sorted(p.name for p in (tmp_path / "out" / "jets").iterdir()) == [
            "img00.json", "img02.json", "img03.json"]

    def test_bad_ratings_table_removes_the_old_matrices(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        (tmp_path / "ratings.csv").write_text("garbage")
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        assert f"error: {tmp_path / 'ratings.csv'}: " in capsys.readouterr().err
        assert list((tmp_path / "out" / "matrices").iterdir()) == []
        with pytest.warns(UserWarning, match="run the matrices stage"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1:] == ["SY,failed,,,,"]

    def test_unknown_excluded_expresser_exits_one(self, matrices_study, capsys):
        doc = json.loads(matrices_study.read_text())
        doc["exclude_from_average"] = ["NOPE", "SY", "ZZ"]
        config_path = matrices_study.with_name("unknown_excluded.json")
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "correlate"]) == 1
        assert capsys.readouterr().err == (
            f"error: {config_path}: cannot exclude unknown expressers ['NOPE', 'ZZ'] "
            "from the average\n")

    def test_unknown_excluded_expresser_fails_library_callers(self, matrices_study):
        # the config refuses it when it is made, before any stage runs
        with pytest.raises(ValidationError, match=r"^cannot exclude unknown "
                                                  r"expressers \['NOPE'\]"):
            dataclasses.replace(load_config(matrices_study),
                                exclude_from_average=("SY", "NOPE"))

    def test_refused_exclusion_leaves_no_summary(self, tmp_path, capsys):
        # no stage runs, so the summary and the correlation files it was
        # made of stay as they were, 50-draw p-values not written
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        before = tree_digest(tmp_path / "out")
        doc = json.loads(config_path.read_text())
        doc["exclude_from_average"] = ["NOPE"]
        doc["options"]["permutations"] = 50
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "correlate"]) == 1
        assert capsys.readouterr().err == (
            f"error: {config_path}: cannot exclude unknown expressers ['NOPE'] from "
            "the average\n")
        assert tree_digest(tmp_path / "out") == before

    def test_last_group_shrunk_below_four_images_leaves_no_summary(self, tmp_path,
                                                                   capsys):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        doc = json.loads(config_path.read_text())
        for image_id in sorted(doc["expressers"])[:3]:
            del doc["expressers"][image_id], doc["labels"][image_id]
        config_path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="expresser 'SY' has only 3 images"):
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 1
        assert capsys.readouterr().err.startswith("error: no expresser has >= 4 images")
        out = tmp_path / "out"
        assert list(out.glob("summary.*")) == []
        assert list((out / "correlations").iterdir()) == []

    def test_no_fear_semantic_matrix_ignores_fear_column(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=5)
        ratings_path = tmp_path / "ratings.csv"
        original = ratings_path.read_text()
        rewritten = "\n".join(
            line if i == 0 else f"{line.rsplit(',', 1)[0]},{1.0 + i * 0.7!r}"
            for i, line in enumerate(original.splitlines())) + "\n"
        assert rewritten != original
        matrix = tmp_path / "out" / "matrices" / "SY_semantic.json"

        def semantic(table, no_fear=False):
            ratings_path.write_text(table)
            set_no_fear(config_path, no_fear)
            for stage in ("encode", "matrices"):
                assert main(["--config", str(config_path), "--stage", stage]) == 0
            return matrix.read_bytes()

        assert semantic(rewritten, no_fear=True) == semantic(original, no_fear=True)
        assert semantic(rewritten) != semantic(original)

    def test_no_fear_drops_a_fear_column_named_with_spaces(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=5)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        ratings_path = tmp_path / "ratings.csv"
        plain = ratings_path.read_text()
        header, rows = plain.split("\n", 1)
        spaced = header.replace(",", ", ") + "\n" + rows
        matrix = tmp_path / "out" / "matrices" / "SY_semantic.json"

        def semantic(table, no_fear=False):
            ratings_path.write_text(table)
            set_no_fear(config_path, no_fear)
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 0
            return matrix.read_bytes()

        # the fixture's fear ratings are not all equal, so dropping them shows
        assert semantic(plain, no_fear=True) != semantic(plain)
        assert semantic(spaced, no_fear=True) == semantic(plain, no_fear=True)

    def test_no_fear_stage_by_stage_matches_study(self, tmp_path):
        # every stage reads no_fear from the config, so separate calls
        # cannot mix a fear-free matrix with a summary of every image
        config_path = make_synthetic_study(tmp_path, n_images=8)
        doc = json.loads(config_path.read_text())
        for image_id in ("img02", "img05"):
            doc["labels"][image_id] = "FE"
        doc["no_fear"] = True
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--out",
                     str(tmp_path / "whole")]) == 0
        for stage in ("encode", "matrices", "correlate"):
            assert main(["--config", str(config_path), "--stage", stage,
                         "--out", str(tmp_path / "staged")]) == 0
        summary = (tmp_path / "staged" / "summary.csv").read_bytes()
        assert summary == (tmp_path / "whole" / "summary.csv").read_bytes()
        assert summary.splitlines()[1].endswith(b",15")  # 6 images, 15 pairs
        assert not (tmp_path / "staged" / "jets" / "img02.json").exists()

    def test_no_fear_set_in_code_writes_the_tree_of_the_file_setting(self, tmp_path):
        # image_ids(), not the config reader, leaves out the FE images, so a
        # config changed in code drops them with the fear column
        config_path = make_synthetic_study(tmp_path, n_images=5)
        doc = json.loads(config_path.read_text())
        doc["labels"]["img00"] = "FE"
        config_path.write_text(json.dumps(doc))
        run_study(dataclasses.replace(load_config(config_path), no_fear=True,
                                      out_dir=tmp_path / "in_code"))
        set_no_fear(config_path, True)
        from_file = dataclasses.replace(load_config(config_path),
                                        out_dir=tmp_path / "from_file")
        run_study(from_file)
        tree = tree_digest(tmp_path / "from_file")
        assert "jets/img01.json" in tree and "jets/img00.json" not in tree
        assert tree_digest(tmp_path / "in_code") == tree

    def test_intermediate_of_other_images_is_refused(self, tmp_path, capsys):
        # the matrices and embeddings of all 6 images stay in out/ when
        # no_fear then leaves img00 out; no later stage may read them
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        doc = json.loads(config_path.read_text())
        doc["labels"]["img00"] = "FE"
        doc["no_fear"] = True
        config_path.write_text(json.dumps(doc))
        out = (tmp_path / "out").resolve()

        def stale(victim, writer):
            return (f"{out / victim}: its 6 items are not the expresser's 5 "
                    f"images in the config; re-run the {writer} stage")

        with pytest.warns(UserWarning, match="expresser 'SY' failed") as caught:
            assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        assert stale("matrices/SY_semantic.json", "matrices") in str(caught[0].message)
        assert (out / "summary.csv").read_text().splitlines()[1:] == ["SY,failed,,,,"]
        # embed last: it removes the embeddings that align and plot read
        for stage, victim, writer in [("align", "embeddings/SY_gabor.json", "embed"),
                                      ("plot", "embeddings/SY_gabor.json", "embed"),
                                      ("embed", "matrices/SY_gabor.json", "matrices")]:
            with pytest.warns(UserWarning, match="expresser 'SY' failed"):
                assert main(["--config", str(config_path), "--stage", stage]) == 1
            assert capsys.readouterr().err == f"error: {stale(victim, writer)}\n"

    @pytest.mark.parametrize("change", [
        {"options": {"dims": "x"}},
        {"options": {"permutations": "abc"}},
        {"options": {"seed": None}},
        {"options": {"permutations": -1}},
        {"options": {"dims": 2.5}},
        {"exclude_from_average": "KA"},
        {"options": 3},
        {"expressers": ["img00", "img01"]},
        {"expressers": {"img00": 7, "img01": "SY"}},
        {"bank": {"wavenumbers": ["k"]}},
        {"options": {"tolerance": "1e-3"}},
        {"options": {"tolerance": True}},
        {"options": {"max_iterations": True}},
        {"options": {"permutations": True}},
        {"options": {"scan_dims": False}},
    ])
    def test_ill_typed_config_exits_one(self, tmp_path, capsys, change):
        doc = {"image_dir": "images", "grid_dir": "grids",
               "ratings": "ratings.csv", "out_dir": "out",
               "expressers": {"img00": "SY", "img01": "SY"}, **change}
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "correlate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bank,field", [
        ({"wavenumbers": ["1.5", True]}, "wavenumbers"),
        ({"wavenumbers": [1.5, True]}, "wavenumbers"),
        ({"orientations": [0.0, "1"]}, "orientations"),
        ({"sigma": "3.0"}, "sigma"),
        ({"sigma": False}, "sigma"),
        ({"sigma": [3.0]}, "sigma"),
        ({"wavenumbers": "12"}, "wavenumbers"),
        ({"wavenumbers": 1.5}, "wavenumbers"),
        ({"orientations": {"0": 1, "1": 2}}, "orientations"),
    ], ids=["strings-and-bool", "bool", "string-orientation", "string-sigma",
            "bool-sigma", "list-sigma", "string-list", "number-list", "object-list"])
    def test_bank_takes_json_numbers_in_json_lists(self, tmp_path, capsys, bank,
                                                   field):
        doc = {"image_dir": "images", "grid_dir": "grids",
               "ratings": "ratings.csv", "out_dir": "out",
               "expressers": {"img00": "SY"}, "bank": bank}
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=f"bank '{field}'"):
            StudyConfig.from_file(config_path)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize("bank", [
        {"wavenumbers": [1e-300]}, {"sigma": 1e300}, {"wavenumbers": [1e-3]}],
        ids=["tiny-wavenumber", "huge-sigma", "small-wavenumber"])
    def test_bank_of_too_wide_a_kernel_exits_one(self, tmp_path, capsys, bank):
        doc = {"image_dir": "images", "grid_dir": "grids",
               "ratings": "ratings.csv", "out_dir": "out",
               "expressers": {"img00": "SY"}, "bank": bank}
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "encode"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: bank 'sigma' and "
                              "'wavenumbers' give a kernel half-width")
        assert err.count("\n") == 1

    def test_jet_file_of_too_wide_a_kernel_exits_one(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        path = tmp_path / "out" / "jets" / "img02.json"
        doc = json.loads(path.read_text())
        doc["bank"]["wavenumbers"] = [1e-300]
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "matrices"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed jet document: bank "
                              "'sigma' and 'wavenumbers' give a kernel half-width")
        assert err.count("\n") == 1

    def test_bank_of_json_numbers_loads(self, tmp_path):
        doc = {"image_dir": "images", "grid_dir": "grids",
               "ratings": "ratings.csv", "out_dir": "out",
               "expressers": {"img00": "SY"},
               "bank": {"wavenumbers": [2, 0.5], "orientations": [0, 1.0],
                        "sigma": 3}}
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps(doc))
        bank = StudyConfig.from_file(config_path).filter_bank
        assert (bank.wavenumbers, bank.orientations, bank.sigma) == (
            (2.0, 0.5), (0.0, 1.0), 3.0)

    def test_expresser_of_three_images_is_skipped_at_every_stage(self, tmp_path,
                                                                  capsys):
        # 3 images give 3 pairs, too few for a significance test; with no
        # other expresser, every stage after encode has nothing to analyse
        config_path = make_synthetic_study(tmp_path, n_images=3)
        skipped = "expresser 'SY' has only 3 images; skipping (need >= 4)"
        for stage in ("study", *list(cli._STAGES)[1:]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["--config", str(config_path), "--stage", stage]) == 1
            assert [str(w.message) for w in caught] == [skipped]
            err = capsys.readouterr().err
            assert err.startswith("error: no expresser has >= 4 images")
            assert err.count("\n") == 1
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["jets"]

    @pytest.mark.parametrize("role,source", from_file_and_code(
        {"image": ("image",), "expresser": ("expresser",)}))
    @pytest.mark.parametrize("item_id", [
        "", ".", "..", "../../LEAK", "a/b", "a\0b", "a,b", 'a"b', "a\rb", "a\nb",
        "a\u0007b", "a\u001bb", "a\ufffeb", "a\uffffb"])
    def test_id_that_leaves_out_or_breaks_a_csv_is_refused(self, tmp_path, capsys,
                                                          role, item_id, source):
        config_path = make_synthetic_study(tmp_path, n_images=4)

        def change(doc):
            if role == "image":
                first = sorted(doc["expressers"])[0]
                doc["expressers"][item_id] = doc["expressers"].pop(first)
            else:
                doc["expressers"] = dict.fromkeys(doc["expressers"], item_id)

        before = sorted(tmp_path.rglob("*"))
        code, error = run_changed(config_path, source, change, capsys)
        assert code == 1 and error.startswith(f"bad id {item_id!r}")
        assert sorted(tmp_path.rglob("*")) == before

    def test_id_that_is_not_a_string_is_refused(self, matrices_study):
        # JSON gives a number as an expresser id (test_ill_typed_config_exits_one);
        # code can give one as either id
        config = load_config(matrices_study)
        for expressers in ({**config.expressers, 7: "SY"},
                           dict.fromkeys(config.expressers, 7)):
            with pytest.raises(ValidationError, match="bad id 7: an image or "
                                                      "expresser id must be a string"):
                dataclasses.replace(config, expressers=expressers)

    def test_labels_id_that_is_not_a_string_is_refused(self, matrices_study):
        # JSON keys are strings; code can give a number, alone or among them
        config = load_config(matrices_study)
        for labels in ({1: "HA"}, {1: "HA", "zz": "NE"}):
            with pytest.raises(ValidationError, match="^bad 'labels' id 1: an "
                                                      "image id must be a string"):
                dataclasses.replace(config, labels=labels)

    @pytest.mark.parametrize("name,value", [
        ("exclude_from_average", "SY"), ("exclude_from_average", {"SY": 1}),
        ("expressers", ["img00"]), ("labels", ["NE"]), ("filter_bank", None),
        ("options", {}), ("image_dir", None), ("out_dir", 7)],
        ids=["exclude-str", "exclude-dict", "expressers-list", "labels-list",
             "bank-none", "options-dict", "image-dir-none", "out-dir-int"])
    def test_field_of_the_wrong_type_is_refused(self, matrices_study, name, value):
        # JSON cannot give these (test_ill_typed_config_exits_one); in code,
        # each would fail in a stage with a traceback, and "SY" would pass
        # its characters as expresser ids
        with pytest.raises(ValidationError, match=f"^'{name}' must be "):
            dataclasses.replace(load_config(matrices_study), **{name: value})

    def test_path_fields_given_as_strings_become_paths(self, tmp_path):
        config = load_config(make_synthetic_study(tmp_path, n_images=4))
        out = tmp_path / "in_code"
        paths = {name: str(getattr(config, name))
                 for name in ("image_dir", "grid_dir", "ratings_path")}
        in_code = dataclasses.replace(config, out_dir=str(out), **paths)
        assert in_code == dataclasses.replace(config, out_dir=out)
        run_study(in_code)
        assert list(read_summary(out)) == ["SY", "Average"]

    @pytest.mark.parametrize("label,source", from_file_and_code(
        {"bel": ("A\u0007B",), "esc": ("A\u001bB",), "fffe": ("A\ufffeB",),
         "ffff": ("A\uffffB",)}))
    def test_label_that_svg_text_cannot_hold_is_refused(self, tmp_path, capsys, label,
                                                        source):
        # a C0 control character but tab, U+FFFE or U+FFFF: XML has no such
        # character, so the plots' labels would not be well-formed (ids keep
        # to the same rule, in test_id_that_leaves_out_or_breaks_a_csv_is_refused)
        config_path = make_synthetic_study(tmp_path, n_images=4)
        first = sorted(load_config(config_path).expressers)[0]
        before = sorted(tmp_path.rglob("*"))
        assert run_changed(config_path, source,
                           lambda doc: doc["labels"].update({first: label}),
                           capsys) == (1, (
            f"bad label {label!r} of {first!r}: a label must be a string without "
            "a control character but tab, a lone surrogate, U+FFFE or U+FFFF"))
        assert sorted(tmp_path.rglob("*")) == before

    def test_label_with_a_tab_plots_well_formed_svg(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        doc = json.loads(config_path.read_text())
        doc["labels"] = dict.fromkeys(doc["labels"], "A\tB")
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 0
        for svg in (tmp_path / "out" / "plots").glob("*.svg"):
            labels = [t.text for t in ElementTree.parse(svg).iter(
                "{http://www.w3.org/2000/svg}text")]
            assert labels == ["A\tB"] * 4

    @pytest.mark.parametrize("role,longest,source", from_file_and_code(
        {"image-246": ("image", 246), "expresser-233": ("expresser", 233)}))
    def test_id_whose_file_name_under_out_is_too_long_is_refused(
            self, tmp_path, capsys, role, longest, source):
        # the longest file name of an id under out/ is the id, its longest
        # name in _STAGES and .tmp: img.json.tmp, or E_semantic_scan.csv.tmp
        # (written with scan_dims set), at most 255 UTF-8 bytes
        for item_id, code in (("a" * longest, 0), ("a" * (longest - 1) + "\u00e9", 1)):
            root = tmp_path / str(code)
            config_path = make_synthetic_study(root, n_images=4)
            first = sorted(load_config(config_path).expressers)[0]
            if role == "image":  # the image's files and grid take the new id
                images = root / "images"
                (images / f"{first}.pgm").rename(images / f"{item_id}.pgm")
                grid_doc = json.loads((root / "grids" / f"{first}.json").read_text())
                (root / "grids" / f"{first}.json").unlink()
                (root / "grids" / f"{item_id}.json").write_text(
                    json.dumps({**grid_doc, "image_id": item_id}))

            def change(doc):
                if role == "image":
                    doc["expressers"][item_id] = doc["expressers"].pop(first)
                else:
                    doc["expressers"] = dict.fromkeys(doc["expressers"], item_id)
                doc["options"]["scan_dims"] = 1

            stage = "encode" if role == "image" else "study"  # its longest name
            refusal = (f"bad id {item_id!r}: an {role} id of over {longest} UTF-8 "
                       "bytes makes a file name under out/ of over 255")
            assert run_changed(config_path, source, change, capsys, stage) == (
                code, refusal if code else None)
            if code:
                assert not (root / "out").exists()
            else:
                names = [p.name for p in (root / "out").rglob(f"{item_id}*")]
                assert max(len(n.encode()) for n in names) == longest + (
                    len(".json") if role == "image" else len("_semantic_scan.csv"))

    @pytest.mark.parametrize("role,text,stage,source", from_file_and_code(
        {f"{role}-{text}-{stage}": (role, text, stage) for role, text, stage in [
            ("image", "img\ud800", "encode"), ("expresser", "K\udc00", "study"),
            ("label", "N\ud800", "study")]}))
    def test_id_or_label_that_utf8_cannot_encode_is_refused(
            self, tmp_path, capsys, role, text, stage, source):
        # a lone surrogate, from a JSON escape, names no file and writes no text
        config_path = make_synthetic_study(tmp_path, n_images=4)
        first = sorted(load_config(config_path).expressers)[0]

        def change(doc):
            if role == "image":
                doc["expressers"][text] = doc["expressers"].pop(first)
            elif role == "expresser":
                doc["expressers"] = dict.fromkeys(doc["expressers"], text)
            else:
                doc["labels"][first] = text

        before = sorted(tmp_path.rglob("*"))
        code, error = run_changed(config_path, source, change, capsys, stage)
        assert code == 1 and error.startswith(
            f"bad label {text!r} of {first!r}: " if role == "label"
            else f"bad id {text!r}: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_expresser_id_average_is_refused_and_image_id_average_is_not(
            self, tmp_path, capsys):
        # the summaries label their mean row "Average"; both sources of a
        # config run in this one test, which keeps its name from before
        for source in ("file", "code"):
            config_path = make_synthetic_study(tmp_path / source, n_images=4)
            first = sorted(load_config(config_path).expressers)[0]

            def image_average(doc):
                doc["expressers"]["Average"] = doc["expressers"].pop(first)
                doc["labels"]["Average"] = doc["labels"].pop(first)

            config = changed_config(config_path, source, image_average)
            assert "Average" in config.expressers
            before = sorted(tmp_path.rglob("*"))
            code, error = run_changed(
                config_path, source,
                lambda doc: doc.update(expressers=dict.fromkeys(doc["expressers"],
                                                                "Average")),
                capsys)
            assert code == 1 and error.startswith("bad id 'Average'")
            assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("options,message", [
        ({"dims": True}, "dims must be"), ({"seed": 1.5}, "seed must be"),
        ({"dims": "2"}, "dims must be"), ({"tolerance": "1e-3"}, "tolerance must be"),
        ({"max_iterations": None}, "max_iterations must be"),
        ({"permutations": 2.0}, "permutations must be"),
        ({"scan_dims": False}, "scan_dims must be"),
        ({"tolerance": 10**400}, "need a finite tolerance"),
    ], ids=["dims-bool", "seed-float", "dims-string", "tolerance-string",
            "max-iterations-none", "permutations-float", "scan-dims-bool",
            "tolerance-overflow"])
    def test_ill_typed_option_is_validation_error(self, options, message):
        with pytest.raises(ValidationError, match=message):
            cli.StudyOptions(**options)

    def test_plot_removes_the_plot_of_a_replaced_2d_embedding(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=5)
        assert main(["--config", str(config_path)]) == 0
        plots = tmp_path / "out" / "plots"
        assert sorted(p.name for p in plots.glob("SY_*.svg")) == [
            "SY_gabor.svg", "SY_semantic.svg"]
        doc = json.loads(config_path.read_text())
        doc["options"]["dims"] = 3
        config_path.write_text(json.dumps(doc))
        for stage in ("embed", "align"):
            assert main(["--config", str(config_path), "--stage", stage]) == 0
        with pytest.warns(UserWarning, match="skipping plot"):
            assert main(["--config", str(config_path), "--stage", "plot"]) == 0
        assert not list(plots.glob("SY_*.svg"))

    def test_embed_removes_the_scan_of_an_unscanned_embedding(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        doc = json.loads(config_path.read_text())
        doc["options"]["scan_dims"] = 2
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 0
        embeddings = tmp_path / "out" / "embeddings"
        assert sorted(p.name for p in embeddings.glob("SY_*_scan.csv")) == [
            "SY_gabor_scan.csv", "SY_semantic_scan.csv"]
        doc["options"].update(scan_dims=None, seed=12)
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "embed"]) == 0
        assert sorted(p.name for p in embeddings.iterdir()) == [
            "SY_gabor.json", "SY_semantic.json"]

    @pytest.mark.parametrize("measure", cli.EMBEDDED)
    def test_scan_row_of_the_embedded_dimension_is_the_embedding(
            self, scanned_study, measure):
        embeddings = scanned_study / "embeddings"
        config = json.loads((embeddings / f"SY_{measure}.json").read_text())
        lines = (embeddings / f"SY_{measure}_scan.csv").read_text().splitlines()
        assert lines[0] == "d,stress,rsq"
        rows = {int(d): (float(s), float(r))
                for d, s, r in (line.split(",") for line in lines[1:])}
        assert sorted(rows) == [1, 2] and config["d"] == 2
        assert rows[config["d"]] == (config["stress"], config["rsq"])

    def test_embed_fits_each_dimension_once(self, scanned_study, tmp_path,
                                            monkeypatch):
        # dims 2 and scan_dims 2: d = 1 and d = 2 for each of the 2 measures;
        # the scan takes its d = 2 row from the embedding's own fit
        study = tmp_path / "study"
        shutil.copytree(scanned_study.parent, study)
        fitted = []
        embed = nmds.embed

        def counted(matrix, d, **kwargs):
            fitted.append(d)
            return embed(matrix, d, **kwargs)

        monkeypatch.setattr(nmds, "embed", counted)
        assert main(["--config", str(study / "study.json"), "--stage", "embed"]) == 0
        assert sorted(fitted) == [1, 1, 2, 2]
        assert (tree_digest(study / "out" / "embeddings")
                == tree_digest(scanned_study / "embeddings"))

    @pytest.mark.parametrize("change,flags,message", [
        ({"options": {"seed": -1, "permutations": 20}}, [], "need seed >= 0, got -1"),
        ({}, ["--threads", "0"], "need --threads >= 1, got 0"),
        ({}, ["--threads", "-2"], "need --threads >= 1, got -2"),
        ({"options": {"tolerance": math.nan}}, [], "need a finite tolerance >= 0, got nan"),
        ({"options": {"tolerance": math.inf}}, [], "need a finite tolerance >= 0, got inf"),
        ({"options": {"tolerance": -1e-6}}, [],
         "need a finite tolerance >= 0, got -1e-06"),
        ({"options": {"max_iterations": -1}}, [], "need max_iterations >= 0, got -1"),
        ({"options": {"scan_dims": -2}}, [], "need scan_dims >= 1, got -2"),
        ({"options": {"scan_dims": 0}}, [], "need scan_dims >= 1, got 0"),
        ({"options": {"dims": 0}}, [], "need dims >= 1, got 0"),
        ({"options": {"permutation": 1000}}, [], "unknown options key 'permutation'"),
        ({"option": {"dims": 3}}, [], "unknown top-level key 'option'"),
        ({"bank": {"sigmas": 2.0}}, [], "unknown bank key 'sigmas'"),
        ({"no_fear": "yes"}, [], "'no_fear' must be true or false, got 'yes'"),
        ({"labels": {"img01": 3}}, [], "bad label 3 of 'img01': a label must be a "
         "string without a control character but tab, a lone surrogate, U+FFFE "
         "or U+FFFF"),
    ], ids=["seed", "threads-0", "threads-negative", "tolerance-nan",
            "tolerance-inf", "tolerance-negative", "max-iterations",
            "scan-dims-negative", "scan-dims-0", "dims-0", "unknown-option",
            "top-level", "bank", "no-fear", "label"])
    def test_bad_option_exits_one(self, matrices_study, capsys, change, flags,
                                  message):
        doc = json.loads(matrices_study.read_text())
        for key, value in change.items():
            doc[key] = ({**doc.get(key, {}), **value} if isinstance(value, dict)
                        else value)
        config_path = matrices_study.with_name("bad_options.json")
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path), "--stage", "correlate",
                     *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": {message}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--exclude", "KA"],
                                       ["--no-fear"]],
                             ids=["seed", "exclude", "no-fear"])
    def test_seed_and_exclude_flags_are_refused(self, tmp_path, capsys, flags):
        # the config's options.seed, exclude_from_average and no_fear set
        # these values
        config_path = make_synthetic_study(tmp_path, n_images=4)
        with pytest.raises(SystemExit) as exit_:
            main(["--config", str(config_path), *flags])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,key", [
        ('{"options": {"dims": 2, "seed": 11}, "options": {"dims": 3, "seed": 5}',
         "options"),
        ('{"options": {"dims": 2, "seed": 11, "dims": 3}', "dims"),
    ], ids=["top-level", "options"])
    def test_repeated_config_key_exits_one(self, tmp_path, capsys, text, key):
        # json.loads alone keeps the last value of a repeated key
        config_path = make_synthetic_study(tmp_path, n_images=4)
        doc = json.loads(config_path.read_text())
        del doc["options"]
        config_path.write_text(text + ", " + json.dumps(doc)[1:])
        assert main(["--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: malformed JSON: "
                              f"repeated key {key!r}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_label_of_an_unknown_image_warns(self, tmp_path):
        # a misspelled id does not label the image meant, so no_fear keeps it
        config_path = make_synthetic_study(tmp_path, n_images=5)
        doc = json.loads(config_path.read_text())
        doc["labels"]["img0"] = "FE"
        doc["no_fear"] = True
        config_path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match=r"1 'labels' id\(s\) name no image "
                                             "of 'expressers', first 'img0'"):
            assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        assert len(list((tmp_path / "out" / "jets").glob("*.json"))) == 5

    def test_unknown_labels_warn_once_at_load_and_not_when_unpickled(self, tmp_path):
        # a worker process gets the config by pickle: it must not warn again
        config_path = make_synthetic_study(tmp_path, n_images=4)
        config_path.write_bytes(edit_json(
            lambda doc: doc["labels"].update(img9="FE"))(config_path.read_bytes()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = load_config(config_path)
            copy = pickle.loads(pickle.dumps(config))
        assert [str(w.message) for w in caught] == [
            "1 'labels' id(s) name no image of 'expressers', first 'img9'; "
            "their labels are ignored"]
        assert copy == config

    def test_out_option_warns_of_unknown_labels_once(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=4)
        config_path.write_bytes(edit_json(
            lambda doc: doc["labels"].update(img9="FE"))(config_path.read_bytes()))
        out = tmp_path / "elsewhere"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", str(config_path), "--stage", "encode",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == [
            "1 'labels' id(s) name no image of 'expressers', first 'img9'; "
            "their labels are ignored"]
        assert len(list((out / "jets").glob("*.json"))) == 4
        assert not (tmp_path / "out").exists()

    def test_a_field_assigned_after_construction_is_refused(self, tmp_path):
        # an assignment would skip __post_init__'s rules: the expresser id
        # "../escape" would write files into out/ itself
        config_path = make_synthetic_study(tmp_path, n_images=4)
        config = load_config(config_path)
        for target, name, value in (
                (config, "expressers", dict.fromkeys(config.expressers, "../escape")),
                (config, "out_dir", str(tmp_path / "elsewhere")),
                (config, "exclude_from_average", "SY"),
                (config.options, "permutations", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, value)
        assert config == load_config(config_path)

    def test_a_mapping_changed_in_place_is_refused(self, tmp_path):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        config = load_config(config_path)
        image_id = sorted(config.expressers)[0]
        for mapping in (config.expressers, config.labels):
            with pytest.raises(TypeError, match="read-only"):
                mapping[image_id] = "../escape"
            with pytest.raises(TypeError, match="read-only"):
                mapping.update({image_id: "../escape"})
        assert config == load_config(config_path)

    def test_a_computation_that_cannot_proceed_exits_two(self, tmp_path, capsys):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        assert main(["--config", str(config_path)]) == 0
        out = load_config(config_path).out_dir
        assert (out / "align" / "SY.json").exists()
        path = out / "embeddings" / "SY_gabor.json"
        doc = json.loads(path.read_text())
        doc["coordinates"] = [doc["coordinates"][0]] * len(doc["coordinates"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        with pytest.warns(UserWarning, match="expresser 'SY' failed"):
            assert main(["--config", str(config_path), "--stage", "align"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "failure: need at least 2 distinct points to align"
        assert list((out / "align").iterdir()) == []

    def test_permutation_test_shares_one_stream_per_expresser(self, tmp_path,
                                                              monkeypatch):
        config_path = make_synthetic_study(tmp_path, n_images=6)
        doc = json.loads(config_path.read_text())
        doc["options"]["permutations"] = 300
        config_path.write_text(json.dumps(doc))
        calls = []
        significance = rank_stats.significance

        def counted(*args, **kwargs):
            calls.append(kwargs.get("permutations"))
            return significance(*args, **kwargs)

        monkeypatch.setattr(rank_stats, "significance", counted)
        assert main(["--config", str(config_path), "--stage", "encode"]) == 0
        assert main(["--config", str(config_path), "--stage", "matrices"]) == 0
        assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        assert calls == [300]
        out = tmp_path / "out"
        semantic = gf.PairMatrix.from_document(json.loads(
            (out / "matrices" / "SY_semantic.json").read_text()))
        for measure in ("gabor", "geometry"):
            model = gf.PairMatrix.from_document(json.loads(
                (out / "matrices" / f"SY_{measure}.json").read_text()))
            [alone] = gf.correlate_model_with_ratings(
                [model], semantic, permutations=300, seed=11)
            stored = json.loads(
                (out / "correlations" / f"SY_{measure}.json").read_text())
            assert stored["method"] == "permutation"
            assert (stored["rho"], stored["p_two_sided"]) == (alone.rho,
                                                              alone.p_two_sided)

    def test_default_p_values_are_the_item_label_test(self, matrices_study):
        # with no options.permutations, DEFAULT_PERMUTATIONS relabellings
        config = load_config(matrices_study)
        assert config.options.permutations == rank_stats.DEFAULT_PERMUTATIONS == 999
        assert main(["--config", str(matrices_study), "--stage", "correlate"]) == 0
        semantic, *models = (gf.PairMatrix.from_document(json.loads(
            (config.out_dir / "matrices" / f"SY_{m}.json").read_text()))
            for m in ("semantic", "gabor", "geometry"))
        expected = gf.correlate_model_with_ratings(models, semantic,
                                                   permutations=999, seed=11)
        for measure, result in zip(("gabor", "geometry"), expected):
            stored = json.loads(
                (config.out_dir / "correlations" / f"SY_{measure}.json").read_text())
            assert stored["method"] == "permutation"
            assert (stored["rho"], stored["p_two_sided"]) == (result.rho,
                                                              result.p_two_sided)

    def test_null_permutations_exits_one_naming_the_field(self, tmp_path, capsys):
        # the study has one p-value method, so null is no choice of one
        config_path = make_synthetic_study(tmp_path, n_images=4)
        doc = json.loads(config_path.read_text())
        doc["options"]["permutations"] = None
        config_path.write_text(json.dumps(doc))
        assert main(["--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {config_path}: permutations must be an integer, got None\n")
        assert not (tmp_path / "out").exists()

    def test_default_correlate_holds_alpha_on_null_studies(self, tmp_path):
        # 300 seeded null studies of 21 items, one per expresser, through the
        # correlate stage with default options: semantic, gabor and geometry
        # matrices are the distances of three unrelated random 6-d
        # configurations, the gabor one as the similarity 1 - d / max d,
        # which ranks its pairs as d does.  Pairs that share an item are
        # dependent, so the t-approximation rejected ~23% of them at .05;
        # the item-label test must stay near 5% (binomial sd 1.3%).
        from scipy.spatial.distance import pdist, squareform
        rng = np.random.default_rng(2033)
        expressers = {f"N{e:03d}i{k:02d}": f"N{e:03d}" for e in range(300)
                      for k in range(21)}
        for e in range(300):
            ids = [f"N{e:03d}i{k:02d}" for k in range(21)]
            for measure in ("semantic", "gabor", "geometry"):
                d = squareform(pdist(rng.standard_normal((21, 6))))
                matrix = (gf.PairMatrix(ids, 1 - d / d.max(), "similarity")
                          if measure == "gabor" else
                          gf.PairMatrix(ids, d, "dissimilarity"))
                path = tmp_path / "out" / "matrices" / f"N{e:03d}_{measure}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(matrix_document(matrix)))
        config_path = tmp_path / "study.json"
        config_path.write_text(json.dumps({
            "image_dir": "images", "grid_dir": "grids", "ratings": "ratings.csv",
            "out_dir": "out", "expressers": expressers}))
        assert main(["--config", str(config_path), "--stage", "correlate"]) == 0
        rows = read_summary(tmp_path / "out")
        del rows["Average"]
        assert len(rows) == 300
        for measure in ("gabor", "geometry"):
            rejected = sum(row[f"{measure}_p"] <= 0.05 for row in rows.values())
            assert 0.01 <= rejected / 300 <= 0.09, (measure, rejected)

    def test_import_leaves_out_scipy_stats(self):
        assert "scipy.stats" not in fresh_modules("import gaborface.cli")


# kind of input -> (its file in the study directory, the stage that reads
# it, a change of its bytes that breaks its schema)
INPUT_FILES = {
    "grid": ("grids/img00.json", "encode",
             edit_json(lambda doc: doc.update(nodes=3))),
    "pgm": ("images/img00.pgm", "encode", lambda data: data[:len(data) // 2]),
    "ratings": ("ratings.csv", "matrices",
                lambda data: data.replace(b"image_id", b"id", 1)),
    "study-config": ("study.json", "encode",
                     edit_json(lambda doc: doc["options"].update(dims="2"))),
    "jet": ("out/jets/img00.json", "matrices",
            edit_json(lambda doc: doc["points"][0].update(amplitudes=["big"]))),
    "matrix": ("out/matrices/SY_semantic.json", "embed",
               edit_json(lambda doc: doc["item_ids"].__setitem__(0, 7))),
    "embedding": ("out/embeddings/SY_gabor.json", "plot",
                  edit_json(lambda doc: doc["item_ids"].__setitem__(0, [1]))),
}


def damage_input(path, damage, break_schema):
    if damage in ("missing", "directory"):
        path.unlink()
        if damage == "directory":
            path.mkdir()
    elif damage == "not-utf-8":
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
    elif damage == "malformed-json":
        path.write_bytes(path.read_bytes()[:-9])
    else:
        path.write_bytes(break_schema(path.read_bytes()))


class TestInputFiles:
    """Every file the CLI reads exits 1 with one `error: <path>: ...` line,
    and no traceback, when it is missing, a directory, not UTF-8 text,
    malformed JSON or of the wrong schema."""

    @pytest.mark.filterwarnings("ignore:expresser 'SY' failed")
    @pytest.mark.filterwarnings("ignore:image 'img00' failed")
    @pytest.mark.parametrize("kind,damage", [
        (kind, damage) for kind in INPUT_FILES
        for damage in ("missing", "directory", "not-utf-8", "malformed-json",
                       "wrong-schema")
        if not (kind == "pgm" and damage in ("not-utf-8", "malformed-json"))
        and not (kind == "ratings" and damage == "malformed-json")])
    def test_bad_input_file_exits_one_naming_it(self, scanned_study, tmp_path,
                                                capsys, kind, damage):
        study = tmp_path / "study"
        shutil.copytree(scanned_study.parent, study)
        name, stage, break_schema = INPUT_FILES[kind]
        path = (study / name).resolve()
        damage_input(path, damage, break_schema)
        assert main(["--config", str(study.resolve() / "study.json"),
                     "--stage", stage]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestOutputLayout:
    """Every JSON file under out/ has one layout, and the later stages read
    the indented layout of earlier runs to the same results."""

    def test_json_files_are_one_sorted_line(self, scanned_study):
        files = sorted(scanned_study.rglob("*.json"))
        assert {p.parent.name for p in files} == {
            "jets", "matrices", "correlations", "embeddings", "align"}
        for path in files:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      separators=(",", ":")) + "\n", path

    def test_stage_files_are_the_names_of_the_stage_table(self, scanned_study):
        config = load_config(scanned_study.parent / "study.json")
        usable = [e for e, ids in config.groups().items()
                  if len(ids) >= cli.MIN_GROUP_SIZE]
        assert usable
        keys = {"image": config.image_ids(), "expresser": usable, "study": ["summary"]}
        named = {Path(directory, f"{key}{name}")
                 for steps in cli._STAGES.values()
                 for scope, _, directory, names in steps
                 for key in keys[scope] for name in names}
        files = {p.relative_to(scanned_study) for p in scanned_study.rglob("*")
                 if p.is_file()}
        assert files == named

    def test_stages_read_indented_files(self, scanned_study, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(scanned_study, out)
        for path in out.rglob("*"):
            if path.suffix != ".json" and path.is_file():
                path.unlink()
        config_path = scanned_study.parent / "study.json"
        for stage in ("matrices", "correlate", "embed", "align", "plot"):
            for path in out.rglob("*.json"):
                path.write_text(json.dumps(json.loads(path.read_text()),
                                           indent=2) + "\n")
            assert main(["--config", str(config_path), "--stage", stage,
                         "--out", str(out)]) == 0

        def files(root):
            return {str(p.relative_to(root)): p for p in root.rglob("*")
                    if p.is_file()}

        got, want = files(out), files(scanned_study)
        assert sorted(got) == sorted(want)
        assert any(name.endswith("_scan.csv") for name in want)
        for name, path in got.items():
            if path.suffix == ".json":
                assert (json.loads(path.read_text())
                        == json.loads(want[name].read_text())), name
            else:
                assert path.read_bytes() == want[name].read_bytes(), name


def reference_csv(matrix):
    """The CSV layout, formatted the one way it was before the streaming
    writer: a repr per cell of both triangles."""
    lines = ["," + ",".join(matrix.item_ids)]
    lines += [item_id + "," + ",".join(map(repr, row))
              for item_id, row in zip(matrix.item_ids, matrix.values.tolist())]
    return "\n".join(lines) + "\n"


def awkward_matrix(n, kind):
    """A symmetric n x n matrix of hard-to-format values: subnormal, tiny,
    inexact and large doubles of both signs, a 0.0 below the diagonal
    mirroring a -0.0 above it and, for dissimilarities, a -0.0 on the
    diagonal; its ids are non-ASCII or hold quotes and backslashes."""
    pool = [5e-324, 1e-5, 0.1 + 0.2, 1e16, 2.5, 1 / 3]
    pool += [-v for v in pool]
    values = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    values[upper] = [pool[k % len(pool)] for k in range(len(upper[0]))]
    values += values.T
    np.fill_diagonal(values, 1.0 if kind == "similarity" else 0.0)
    values[0, 1], values[1, 0] = -0.0, 0.0
    if kind == "dissimilarity":
        values[n - 1, n - 1] = -0.0
    ids = tuple(["é\"q", "back\\slash", "'", "日本"] + [f"i{k}" for k in range(n)])[:n]
    return gf.PairMatrix(ids, values, kind)


class TestMatrixWriter:
    """cli._write_matrix writes a pair matrix's JSON file and CSV twin from
    one formatting pass, in the bytes of the one JSON layout and of the
    repr-per-cell CSV, through a temporary file and a rename."""

    @pytest.mark.parametrize("kind", ["similarity", "dissimilarity"])
    @pytest.mark.parametrize("n", [2, 3, 21, 210])
    def test_bytes_match_the_json_layout_and_the_csv_formula(self, tmp_path, n,
                                                             kind):
        matrix = awkward_matrix(n, kind)
        cli._write_matrix(tmp_path / "m.json", tmp_path / "m.csv", matrix)
        assert (tmp_path / "m.json").read_text(encoding="utf-8") == json.dumps(
            matrix_document(matrix), sort_keys=True, separators=(",", ":")) + "\n"
        csv = (tmp_path / "m.csv").read_text(encoding="utf-8")
        assert csv == reference_csv(matrix) == matrix_csv(matrix)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.json"]

    def test_signed_zeros_round_trip_byte_exact(self, tmp_path):
        matrix = gf.PairMatrix.from_document(
            {"kind": "dissimilarity", "item_ids": ["a", "b"],
             "values": [[0, -0.0], [0.0, 0]]})
        cli._write_matrix(tmp_path / "m.json", tmp_path / "m.csv", matrix)
        first = (tmp_path / "m.json").read_bytes(), (tmp_path / "m.csv").read_bytes()
        assert first == (b'{"item_ids":["a","b"],"kind":"dissimilarity",'
                         b'"values":[[0.0,-0.0],[0.0,0.0]]}\n',
                         b",a,b\na,0.0,-0.0\nb,0.0,0.0\n")
        again = gf.PairMatrix.from_document(json.loads(first[0]))
        cli._write_matrix(tmp_path / "m.json", tmp_path / "m.csv", again)
        assert ((tmp_path / "m.json").read_bytes(),
                (tmp_path / "m.csv").read_bytes()) == first

    def test_failed_write_leaves_old_bytes_and_no_tmp(self, tmp_path):
        class Failing:
            """A chunk source that raises after its first chunk."""
            def text_chunks(self):
                yield "{", ",a\n"
                raise OSError("disk full")

        for name in ("m.json", "m.csv"):
            (tmp_path / name).write_text(f"old {name}\n")
        with pytest.raises(OSError, match="disk full"):
            cli._write_matrix(tmp_path / "m.json", tmp_path / "m.csv", Failing())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.json"]
        for name in ("m.json", "m.csv"):
            assert (tmp_path / name).read_text() == f"old {name}\n"

    def test_failed_rename_leaves_no_tmp(self, tmp_path):
        (tmp_path / "summary.csv").mkdir()  # a directory the file cannot replace
        with pytest.raises(OSError):
            cli._write_atomic(tmp_path / "summary.csv", "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


class TestBatchedEncodeDrift:
    """The batched jet kernel against a per-filter re-encode through
    filter_response: jets and gabor matrices differ in the last bits only,
    and the rank-based outputs are byte-identical."""

    def test_study_outputs_match_per_filter_encode(self, tmp_path, monkeypatch):
        config_path = make_synthetic_study(tmp_path / "study")
        batched = dataclasses.replace(load_config(config_path),
                                      out_dir=tmp_path / "batched")
        run_study(batched)

        def per_filter_jets(image, bank, points):
            return np.array([[amplitude(*filter_response(image, spec, p))
                              for spec in bank.specs] for p in points])

        monkeypatch.setattr(gabor, "compute_jets", per_filter_jets)
        reference = dataclasses.replace(load_config(config_path),
                                        out_dir=tmp_path / "reference")
        run_study(reference)

        def read_json(config, name):
            return json.loads((config.out_dir / name).read_text())

        for image_id in batched.image_ids():
            got, want = (np.array([p["amplitudes"] for p in
                                   read_json(c, f"jets/{image_id}.json")["points"]])
                         for c in (batched, reference))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        got, want = (np.array(read_json(c, "matrices/SY_gabor.json")["values"])
                     for c in (batched, reference))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        identical = ["summary.csv", "summary.txt", "plots/SY_gabor.svg",
                     "plots/SY_semantic.svg", "matrices/SY_geometry.json",
                     "matrices/SY_semantic.json", "correlations/SY_gabor.json",
                     "correlations/SY_geometry.json"]
        for name in identical:
            assert ((batched.out_dir / name).read_bytes()
                    == (reference.out_dir / name).read_bytes()), name


class TestModelDissimilarityConversion:
    def test_embed_stage_accepts_similarity_matrix(self, study):
        config = load_config(study)
        run_stage(config, "encode")
        run_stage(config, "matrices")
        run_stage(config, "embed")
        embedding = cli._read(config.out_dir / "embeddings" / "SY_gabor.json",
                              nmds.Configuration.from_document)
        assert embedding.d == 2


class TestUnitsHoldOneMatrixAtATime:
    """A correlate or embed unit releases each matrix it loads, and what it
    made of it, before it loads the next; correlate keeps its semantic
    matrix throughout.  A matrices unit releases the jet stack before it
    writes the Gabor matrix."""

    @staticmethod
    def unit_config(config_path, out_dir, inputs):
        """The study's config writing to `out_dir`, with the study's
        `inputs` directory copied there."""
        config = load_config(config_path)
        shutil.copytree(config.out_dir / inputs, out_dir / inputs)
        return dataclasses.replace(config, out_dir=out_dir)

    @staticmethod
    def live_at_each_load(monkeypatch, exempt=()):
        """measure -> the names of what the unit made before loading it that
        was still alive then; cli._load_matrix is wrapped to record it."""
        made, live = [], {}
        load = cli._load_matrix

        def recorded(config, expresser, ids, measure):
            live[measure] = [name for name, ref in made if ref() is not None]
            matrix = load(config, expresser, ids, measure)
            if measure not in exempt:
                made.append((measure, weakref.ref(matrix)))
            return matrix

        monkeypatch.setattr(cli, "_load_matrix", recorded)
        return made, live

    def test_matrices_writes_the_gabor_matrix_without_the_jet_stack(
            self, matrices_study, tmp_path, monkeypatch):
        config = self.unit_config(matrices_study, tmp_path, "jets")
        stacks, live = [], {}
        pairwise, write = cli.pairwise_matrix, cli._write_matrix

        def built(items, measure):
            if measure == "gabor":  # each item's jets are a view of the stack
                stacks.append(weakref.ref(items[0][1].base))
            return pairwise(items, measure)

        def written(json_path, csv_path, matrix):
            live[json_path.name] = sum(ref() is not None for ref in stacks)
            write(json_path, csv_path, matrix)

        monkeypatch.setattr(cli, "pairwise_matrix", built)
        monkeypatch.setattr(cli, "_write_matrix", written)
        run_stage(config, "matrices")
        assert len(stacks) == 1
        assert live == {"SY_semantic.json": 0, "SY_gabor.json": 0,
                        "SY_geometry.json": 0}

    def test_correlate_holds_one_model_matrix(self, matrices_study, tmp_path,
                                              monkeypatch):
        config = self.unit_config(matrices_study, tmp_path, "matrices")
        _, live = self.live_at_each_load(monkeypatch, exempt=("semantic",))
        run_stage(config, "correlate")
        assert live == {"semantic": [], "gabor": [], "geometry": []}

    def test_embed_holds_one_measure_matrix_and_its_fits(self, matrices_study,
                                                         tmp_path, monkeypatch):
        config = self.unit_config(matrices_study, tmp_path, "matrices")
        made, live = self.live_at_each_load(monkeypatch)
        dissimilarity, embed = cli._model_dissimilarity, nmds.embed

        def converted(matrix):
            result = dissimilarity(matrix)
            made.append(("1 - s", weakref.ref(result)))
            return result

        def fitted(matrix, d, **kwargs):
            result = embed(matrix, d, **kwargs)
            made.append(("fit", weakref.ref(result)))
            return result

        monkeypatch.setattr(cli, "_model_dissimilarity", converted)
        monkeypatch.setattr(nmds, "embed", fitted)
        run_stage(config, "embed")
        assert live == {"gabor": [], "semantic": []}
        assert [name for name, _ in made] == ["gabor", "1 - s", "fit",
                                               "semantic", "1 - s", "fit"]


class TestArrayPathDrift:
    """The whole-array pair matrices against matrices filled pair by pair
    from gabor_image_similarity and np.linalg.norm: the matrices differ in
    the last bits only, and the rank-based outputs are byte-identical."""

    def test_study_outputs_match_per_pair_matrices(self, tmp_path, monkeypatch):
        config_path = make_synthetic_study(tmp_path / "study")
        arrays = dataclasses.replace(load_config(config_path),
                                     out_dir=tmp_path / "arrays")
        run_study(arrays)

        def per_pair(ids, payloads, compare, kind, diagonal):
            n = len(ids)
            values = np.full((n, n), diagonal)
            for i in range(n):
                for j in range(i + 1, n):
                    values[i, j] = values[j, i] = compare(payloads[i], payloads[j])
            return gf.PairMatrix(tuple(ids), values, kind)

        def distance(a, b):
            return float(np.linalg.norm(a - b))

        def pairwise_matrix(items, measure):
            ids, arrays = zip(*items)
            if measure == "gabor":
                return per_pair(ids, arrays, gabor_image_similarity,
                                "similarity", 1.0)
            return per_pair(ids, arrays, distance, "dissimilarity", 0.0)

        def semantic_matrix(table, ids):
            rows = [table.values[table.image_ids.index(i)] for i in ids]
            return per_pair(ids, rows, distance, "dissimilarity", 0.0)

        monkeypatch.setattr(cli, "pairwise_matrix", pairwise_matrix)
        monkeypatch.setattr(ratings, "semantic_matrix", semantic_matrix)
        reference = dataclasses.replace(load_config(config_path),
                                        out_dir=tmp_path / "reference")
        run_study(reference)

        for name in ("gabor", "geometry", "semantic"):
            got, want = (np.array(json.loads(
                (c.out_dir / "matrices" / f"SY_{name}.json").read_text())["values"])
                for c in (arrays, reference))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        names = ["summary.csv", "summary.txt"] + [
            f"{d}/SY_{m}.{ext}" for d, ext, ms in (
                ("correlations", "json", ("gabor", "geometry")),
                ("plots", "svg", ("gabor", "semantic"))) for m in ms]
        for name in names:
            assert ((arrays.out_dir / name).read_bytes()
                    == (reference.out_dir / name).read_bytes()), name
