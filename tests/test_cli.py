import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmor import InvalidInputError, NumericalError, load_scene, save_scene
from hmor.cli import main
from hmor.sceneio import scene_from_dict, scene_to_dict
from conftest import swap_root_depths, two_person_depth_fixture


def read_bytes_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob("*.json"))}


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv, env=None):
    """``python -m hmor.cli`` in a fresh process, so its stderr holds every
    line the CLI prints, logging included."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **(env or {})}
    return subprocess.run([sys.executable, "-m", "hmor.cli", *(str(a) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestSceneIO:
    def test_round_trip(self, tmp_path, camera):
        scene = two_person_depth_fixture(camera)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded.person_count == 2
        for a, b in zip(scene.persons, loaded.persons):
            assert a.root_depth == b.root_depth
            assert np.array_equal(a.rel_pose.joints, b.rel_pose.joints)
            assert (a.box.u_top, a.box.v_top, a.box.w, a.box.h) == \
                (b.box.u_top, b.box.v_top, b.box.w, b.box.h)
        assert loaded.topology.parts == scene.topology.parts

    def test_unknown_field_rejected(self, camera):
        data = scene_to_dict(two_person_depth_fixture(camera))
        data["surprise"] = 1
        with pytest.raises(InvalidInputError, match="unknown fields"):
            scene_from_dict(data)

    def test_unknown_nested_field_rejected(self, camera):
        data = scene_to_dict(two_person_depth_fixture(camera))
        data["persons"][0]["box"]["depth"] = 1.0
        with pytest.raises(InvalidInputError, match="unknown fields"):
            scene_from_dict(data)

    def test_bad_version_rejected(self, camera):
        data = scene_to_dict(two_person_depth_fixture(camera))
        data["schema_version"] = "hmor-scene/999"
        with pytest.raises(InvalidInputError, match="schema_version"):
            scene_from_dict(data)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidInputError):
            load_scene(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, tmp_path, camera, literal):
        path = tmp_path / "scene.json"
        save_scene(two_person_depth_fixture(camera), path)
        text = path.read_text().replace('"root_depth_mm": 4000.0', f'"root_depth_mm": {literal}')
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="non-finite"):
            load_scene(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_oversized_integer_rejected(self, tmp_path, camera, digits):
        path = tmp_path / "scene.json"
        save_scene(two_person_depth_fixture(camera), path)
        path.write_text(path.read_text().replace('"fx": 1000.0', '"fx": ' + "9" * digits))
        with pytest.raises(InvalidInputError):
            load_scene(path)

    def test_non_finite_scene_not_written(self, tmp_path, camera):
        scene = two_person_depth_fixture(camera)
        bad = dataclasses.replace(scene, persons=(
            dataclasses.replace(scene.persons[0], root_depth=float("nan")),
            scene.persons[1]))
        with pytest.raises(NumericalError):
            save_scene(bad, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    def test_camera_normal_round_trips(self, tmp_path, camera):
        scene = two_person_depth_fixture(camera)
        save_scene(scene, tmp_path / "default.json")
        assert "normal" not in (tmp_path / "default.json").read_text()
        normal = np.array([0.0, 0.6, 0.8])
        tilted = dataclasses.replace(scene, camera=dataclasses.replace(camera, normal=normal))
        save_scene(tilted, tmp_path / "tilted.json")
        loaded = load_scene(tmp_path / "tilted.json")
        assert np.array_equal(loaded.camera.normal, normal)
        save_scene(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "tilted.json").read_bytes()

    def test_topology_field_optional(self, camera):
        from hmor import GenSpec, generate_scene
        data = scene_to_dict(generate_scene(GenSpec(seed=50, n_persons=1)))
        del data["topology"]
        scene = scene_from_dict(data)
        assert scene.topology.joint_count == 17
        assert scene.topology.part_count == 14


class TestGen:
    def test_deterministic_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert run("gen", "--seed", 7, "--persons", 3, "--count", 2,
                       "--out", tmp_path / d) == 0
        assert read_bytes_tree(tmp_path / "a") == read_bytes_tree(tmp_path / "b")

    def test_zero_persons_rejected(self, tmp_path, capsys):
        assert run("gen", "--persons", 0, "--out", tmp_path) == 2
        assert "persons" in capsys.readouterr().err

    def test_generated_file_round_trips(self, tmp_path):
        assert run("gen", "--seed", 3, "--persons", 2, "--out", tmp_path) == 0
        scene = load_scene(tmp_path / "scene_000.json")
        assert scene.person_count == 2

    def test_perturbed_pred_files(self, tmp_path):
        assert run("gen", "--seed", 5, "--persons", 2, "--out", tmp_path,
                   "--perturb", "depth_swap", "--swap", "0,1") == 0
        gt = load_scene(tmp_path / "scene_000.json")
        pred = load_scene(tmp_path / "pred_000.json")
        assert pred.persons[0].root_depth == gt.persons[1].root_depth


class TestLoss:
    @pytest.fixture
    def fixture_files(self, tmp_path, camera):
        gt = two_person_depth_fixture(camera, z1=4000.0, z2=4600.0)
        swapped = swap_root_depths(gt)
        gt_path = tmp_path / "gt.json"
        pred_path = tmp_path / "pred.json"
        save_scene(gt, gt_path)
        save_scene(swapped, pred_path)
        return pred_path, gt_path

    def test_identical_scenes_score_zero(self, tmp_path, camera, capsys):
        gt = two_person_depth_fixture(camera)
        path = tmp_path / "s.json"
        save_scene(gt, path)
        assert run("loss", path, path) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["total"] == 0.0
        assert record["hmor"]["total"] == 0.0
        assert record["pose"] == 0.0 and record["abs"] == 0.0

    def test_depth_swap_instance_term_hand_value(self, fixture_files, capsys):
        pred, gt = fixture_files
        assert run("loss", pred, gt) == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["hmor"]["instance"] - np.log1p(0.6)) < 1e-12

    def test_missing_file_is_io_error(self, tmp_path, fixture_files, capsys):
        pred, gt = fixture_files
        assert run("loss", tmp_path / "nope.json", gt) == 3

    def test_topology_mismatch_names_fields(self, tmp_path, camera, capsys):
        from hmor import GenSpec, generate_scene
        a = two_person_depth_fixture(camera)  # 4-joint topology
        b = generate_scene(GenSpec(seed=0, n_persons=2))  # 17 joints
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(a, pa)
        save_scene(b, pb)
        assert run("loss", pa, pb) == 2
        err = capsys.readouterr().err
        assert "joint_count" in err

    def test_nan_scene_file_is_validation_error(self, fixture_files, capsys):
        pred, gt = fixture_files
        text = pred.read_text().replace('"root_depth_mm": 4600.0', '"root_depth_mm": NaN')
        assert "NaN" in text
        pred.write_text(text)
        assert run("loss", pred, gt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "non-finite number NaN" in captured.err

    @pytest.mark.parametrize("where, value, named", [
        ("joint", "abc", "persons[0].joints[1].u"),
        ("joint", [1, 2], "persons[0].joints[1].u"),
        ("joint", None, "persons[0].joints[1].u"),
        ("part", [1], "topology.parts[0]"),
        ("fx", True, "camera.fx"),
        ("normal", [0.0, 0.0, 2.0], "normal"),
        ("normal", [0.0, 1.0], "camera.normal"),
    ])
    def test_malformed_value_is_validation_error(self, fixture_files, capsys,
                                                 where, value, named):
        pred, gt = fixture_files
        data = json.loads(pred.read_text())
        if where == "joint":
            data["persons"][0]["joints"][1]["u"] = value
        elif where == "part":
            data["topology"]["parts"][0] = value
        else:
            data["camera"][where] = value
        pred.write_text(json.dumps(data))
        assert run("loss", pred, gt) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err

    @pytest.mark.parametrize("config", [
        {},
        {"solver": {"w_pose": 2, "w_abs": 1, "w_hmor": 0.5}},
        {"solver": {"w_init": 0, "w_refine": 3, "w_abs": 0.25, "anchor": "input"}},
        {"solver": {"free_variables": "full_pose", "w_abs": 2},
         "hmor": {"part_mode": "particle", "w_joint": 0.5}},
    ], ids=["default", "weights", "input_anchor", "full_pose_particle"])
    def test_total_is_refine_objective(self, tmp_path, capsys, config):
        assert run("gen", "--seed", 7, "--persons", 3, "--perturb", "gauss",
                   "--sigma-z", 300, "--out", tmp_path / "s") == 0
        pred, gt = tmp_path / "s" / "pred_000.json", tmp_path / "s" / "scene_000.json"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("loss", pred, gt, "--config", config_path) == 0
        total = json.loads(capsys.readouterr().out)["total"]
        trace = tmp_path / "trace.csv"
        assert run("refine", pred, gt, "--config", config_path, "--steps", 1,
                   "--out", tmp_path / "r.json", "--trace", trace) == 0
        with open(trace, newline="") as fh:
            row0 = float(next(csv.DictReader(fh))["value"])
        # row 0 is evaluated at unpack(pack(x)), 1 ulp off in full_pose
        assert total == pytest.approx(row0, rel=1e-12, abs=0.0)

    def test_csv_format(self, fixture_files, capsys):
        pred, gt = fixture_files
        assert run("loss", pred, gt, "--format", "csv") == 0
        rows = dict(line.split(",", 1) for line in
                    capsys.readouterr().out.strip().splitlines())
        assert "hmor.instance" in rows and "total" in rows


class TestRefine:
    @pytest.fixture
    def swapped_pair(self, tmp_path):
        assert run("gen", "--seed", 21, "--persons", 2, "--out", tmp_path / "scenes",
                   "--depth-min", 4000, "--depth-max", 4800,
                   "--perturb", "depth_swap", "--swap", "0,1") == 0
        return (tmp_path / "scenes" / "pred_000.json",
                tmp_path / "scenes" / "scene_000.json")

    def test_swapped_fixture_reaches_zero_violations(self, tmp_path, swapped_pair):
        pred, gt = swapped_pair
        out = tmp_path / "refined.json"
        trace = tmp_path / "trace.csv"
        assert run("refine", pred, gt, "--out", out, "--trace", trace,
                   "--steps", 300, "--step-size", 0.05) == 0
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["violations"] != "0"
        assert rows[-1]["violations"] == "0"
        values = [float(r["value"]) for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        load_scene(out)  # refined scene is a valid scene file

    def test_zero_steps_rejected(self, tmp_path, swapped_pair):
        pred, gt = swapped_pair
        assert run("refine", pred, gt, "--out", tmp_path / "r.json", "--steps", 0) == 2

    def test_byte_identical_across_runs(self, tmp_path, swapped_pair):
        pred, gt = swapped_pair
        outputs = []
        for d in ("r1", "r2"):
            out = tmp_path / d / "refined.json"
            trace = tmp_path / d / "trace.csv"
            assert run("refine", pred, gt, "--out", out, "--trace", trace,
                       "--steps", 50, "--views-per-step", 2, "--seed", 5) == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]


class TestEval:
    def test_exact_prediction_perfect_scores(self, tmp_path, capsys):
        assert run("gen", "--seed", 30, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        capsys.readouterr()
        assert run("eval", scene, scene) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mpjpe"] < 1e-9
        assert record["pck_rel"] == 100.0
        assert record["auc_rel"] == 100.0

    def test_formats_agree_field_for_field(self, tmp_path, capsys):
        assert run("gen", "--seed", 31, "--persons", 2, "--out", tmp_path,
                   "--perturb", "gauss", "--sigma-z", 300) == 0
        pred = tmp_path / "pred_000.json"
        gt = tmp_path / "scene_000.json"
        capsys.readouterr()

        assert run("eval", pred, gt, "--format", "json") == 0
        as_json = json.loads(capsys.readouterr().out)
        assert run("eval", pred, gt, "--format", "csv") == 0
        rows = dict(line.split(",", 1) for line in
                    capsys.readouterr().out.strip().splitlines())

        for key in ("mpjpe", "pa_mpjpe", "abs_mpjpe", "pck_rel", "pck_abs", "auc_rel"):
            assert float(rows[key]) == as_json[key]
        for level in ("instance", "part", "joint"):
            assert int(rows[f"violations.{level}"]) == as_json["violations"][level]

    def test_out_prefix_writes_both_files(self, tmp_path, capsys):
        assert run("gen", "--seed", 32, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        assert run("eval", scene, scene, "--out", tmp_path / "report") == 0
        capsys.readouterr()
        as_json = json.loads((tmp_path / "report.json").read_text())
        assert (tmp_path / "report.csv").exists()
        assert as_json["pck_rel"] == 100.0

    def test_directory_mode_with_jobs(self, tmp_path, capsys):
        assert run("gen", "--seed", 33, "--persons", 2, "--count", 3,
                   "--out", tmp_path / "gt") == 0
        # predictions: same scenes (perfect), arranged in a parallel tree
        (tmp_path / "pred").mkdir()
        for p in (tmp_path / "gt").glob("scene_*.json"):
            (tmp_path / "pred" / p.name).write_bytes(p.read_bytes())
        capsys.readouterr()

        assert run("eval", tmp_path / "pred", tmp_path / "gt", "--jobs", 1) == 0
        serial = json.loads(capsys.readouterr().out)
        assert run("eval", tmp_path / "pred", tmp_path / "gt", "--jobs", 2) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel
        assert serial["aggregate"]["pck_rel"] == 100.0
        assert len(serial["scenes"]) == 3

    def test_non_positive_auc_threshold_in_config_rejected(self, tmp_path, capsys):
        assert run("gen", "--seed", 34, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"metrics": {"auc_min_mm": 0}}))
        capsys.readouterr()
        assert run("eval", scene, scene, "--config", cfg_path) == 2
        assert "threshold must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("metrics, message", [
        ({"auc_step_mm": 0}, "auc_step_mm: step must be positive"),
        ({"auc_max_mm": 0.5}, "the AUC grid is empty"),
        ({"pck_threshold_mm": True}, "pck_threshold_mm must be a finite number"),
        ({"pck_threshold_mm": -5}, "pck_threshold_mm: threshold must be positive"),
        ({"auc_step_mm": 1e-9}, "more than 100000 thresholds"),
    ], ids=["zero_step", "empty_grid", "boolean", "negative_threshold", "huge_grid"])
    def test_bad_metrics_config_rejected(self, tmp_path, capsys, metrics, message):
        assert run("gen", "--seed", 34, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"metrics": metrics}))
        capsys.readouterr()
        assert run("eval", scene, scene, "--config", cfg_path) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "NaN" not in captured.out and "Traceback" not in captured.err

    def test_empty_scene_file_is_validation_error(self, tmp_path, capsys):
        bad = {"schema_version": "hmor-scene/1",
               "camera": {"fx": 1000.0, "fy": 1000.0, "cx": 500.0, "cy": 500.0},
               "persons": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(bad))
        assert run("eval", path, path) == 2


class TestOneErrorLine:
    """Each failing exit code comes with exactly one stderr line, no
    traceback, warning or NaN on stdout."""

    @pytest.fixture
    def files(self, tmp_path):
        assert run("gen", "--seed", 36, "--persons", 2, "--out", tmp_path,
                   "--perturb", "gauss", "--sigma-z", 100) == 0
        far = json.loads((tmp_path / "pred_000.json").read_text())
        far["persons"][0]["root_depth_mm"] = 1e306  # finite, but overflows the losses
        (tmp_path / "far.json").write_text(json.dumps(far))
        (tmp_path / "bad.json").write_text(json.dumps({"metrics": {"auc_step_mm": 0}}))
        return tmp_path

    @pytest.mark.parametrize("argv, env, code, message", [
        (("eval", "--config", "bad.json", "pred_000.json", "scene_000.json"), {}, 2,
         "metrics.auc_step_mm: step must be positive"),
        (("eval", "pred_000.json", "scene_000.json"), {"HMOR_LOG": "bogus"}, 2,
         "HMOR_LOG must be one of"),
        (("eval", "missing.json", "scene_000.json"), {}, 3, "No such file"),
        (("loss", "far.json", "scene_000.json"), {}, 4, "is non-finite"),
        (("eval", "far.json", "scene_000.json"), {}, 4,
         "matching cost matrix has non-finite entries"),
    ], ids=["bad_config", "bad_log_level", "missing_file", "loss_non_finite",
            "eval_non_finite"])
    def test_exit_code_with_one_line(self, files, argv, env, code, message):
        done = run_process(*(files / a if a.endswith(".json") else a for a in argv), env=env)
        assert done.returncode == code
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("i/o error: " if code == 3 else "error: ")
        assert message in done.stderr


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert run("gradcheck", "--points", 25) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "err_instance" in out and "objective[hmor]" in out

    def test_seed_reproduces_output(self, capsys):
        assert run("gradcheck", "--points", 10, "--seed", 3) == 0
        first = capsys.readouterr().out
        assert run("gradcheck", "--points", 10, "--seed", 3) == 0
        assert capsys.readouterr().out == first


class TestEnvironment:
    def test_invalid_log_level_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HMOR_LOG", "shouting")
        assert run("gen", "--out", tmp_path) == 2

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = {"hmor": {"w_part": 0.5}, "solver": {"steps": 10},
               "metrics": {"pck_threshold_mm": 100.0}, "seed": 4}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("gen", "--seed", 40, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        assert run("loss", scene, scene, "--config", cfg_path) == 0
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"hmor": {"w_banana": 1.0}}))
        assert run("gen", "--seed", 41, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        assert run("loss", scene, scene, "--config", cfg_path) == 2
