import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmor import (Camera, GaussNoise, GenSpec, InvalidInputError, NumericalError,
                  evaluate, generate_scene, load_scene, perturb, save_scene)
import hmor.ordinal
import hmor.solver
from hmor.cli import load_run_config, main
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
        bad = two_person_depth_fixture(camera)
        # the constructors reject NaN, but a pose array can still be written in place
        bad.persons[0].rel_pose.joints[1, 2] = float("nan")
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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**31), n_persons=st.integers(1, 4), noisy=st.booleans(),
           intrinsics=st.tuples(*[st.floats(800.0, 1500.0)] * 2, *[st.floats(400.0, 600.0)] * 2),
           normal=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1))
    def test_generated_scene_round_trips_bit_for_bit(self, tmp_path_factory, seed, n_persons,
                                                     noisy, intrinsics, normal):
        camera = Camera(*intrinsics, normal=np.array(normal) / np.linalg.norm(normal))
        spec = GenSpec(seed=seed, n_persons=n_persons, camera=camera,
                       perturbation=GaussNoise(30.0, 300.0) if noisy else None)
        scene = generate_scene(spec)
        if noisy:
            scene = perturb(scene, spec)
        path = tmp_path_factory.getbasetemp() / "round_trip.json"
        save_scene(scene, path)
        loaded = load_scene(path)

        def floats(s):
            cam = s.camera
            rows = [[cam.fx, cam.fy, cam.cx, cam.cy, *cam.normal]]
            for p in s.persons:
                rows.append([p.box.u_top, p.box.v_top, p.box.w, p.box.h, p.roi_area,
                             p.root_depth, *p.rel_pose.joints.ravel()])
            return np.concatenate(rows).astype(float).tobytes()

        assert floats(loaded) == floats(scene)
        assert loaded.topology == scene.topology
        assert loaded.person_count == scene.person_count

    def test_topology_field_optional(self, camera):
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

    def test_config_seed_is_the_base_seed(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"seed": 12}))
        for name, args in (("flag", ("--seed", 12)), ("config", ("--config", cfg_path)),
                           ("flag_wins", ("--seed", 12, "--config", tmp_path / "other.json"))):
            (tmp_path / "other.json").write_text(json.dumps({"seed": 99}))
            assert run("gen", *args, "--count", 2, "--out", tmp_path / name) == 0
        assert (read_bytes_tree(tmp_path / "flag") == read_bytes_tree(tmp_path / "config")
                == read_bytes_tree(tmp_path / "flag_wins"))
        assert run("gen", "--seed", 13, "--out", tmp_path / "other") == 0
        assert read_bytes_tree(tmp_path / "other") != read_bytes_tree(tmp_path / "flag")

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
        ("roi_area", 0, "persons[0].roi_area must be positive"),
        ("roi_area", -0.0, "persons[0].roi_area must be positive"),
        # values the scene's value objects reject, named by their field path
        ("root_depth_mm", -1, "persons[1].root_depth_mm: root depth must be positive"),
        ("box_w", 0, "persons[1].box: box size must be positive"),
        ("fx", 0, "camera: focal lengths must be positive"),
    ])
    def test_malformed_value_is_validation_error(self, fixture_files, capsys,
                                                 where, value, named):
        pred, gt = fixture_files
        data = json.loads(pred.read_text())
        if where == "joint":
            data["persons"][0]["joints"][1]["u"] = value
        elif where == "part":
            data["topology"]["parts"][0] = value
        elif where == "roi_area":
            data["persons"][0]["roi_area"] = value
        elif where == "root_depth_mm":
            data["persons"][1]["root_depth_mm"] = value
        elif where == "box_w":
            data["persons"][1]["box"]["w"] = value
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
        record = json.loads(capsys.readouterr().out)
        total = record["total"]
        weights = load_run_config(config_path).solver
        fields = {**record, "hmor": record["hmor"]["total"]}
        weighted = sum(getattr(weights, f"w_{t}") * fields[t]
                       for t in ("pose", "init", "refine", "abs", "hmor"))
        assert weighted == pytest.approx(total, rel=1e-12, abs=0.0)
        trace = tmp_path / "trace.csv"
        assert run("refine", pred, gt, "--config", config_path, "--steps", 1,
                   "--out", tmp_path / "r.json", "--trace", trace) == 0
        with open(trace, newline="") as fh:
            row0 = float(next(csv.DictReader(fh))["value"])
        # row 0 is evaluated at the input itself, as `hmor loss` is
        assert total == row0

    @pytest.mark.parametrize("free_variables", ["root_depths_only", "full_pose"])
    def test_one_kernel(self, fixture_files, tmp_path, monkeypatch, capsys, free_variables):
        # one pass of the kernel refine runs under the config's free variables
        calls = []
        for name in ("ordinal_pass", "root_pass"):
            def spy(*args, kernel=getattr(hmor.ordinal, name), name=name, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            for module in (hmor.ordinal, hmor.solver):
                monkeypatch.setattr(module, name, spy)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"solver": {"free_variables": free_variables}}))
        pred, gt = fixture_files
        assert run("loss", pred, gt, "--config", config) == 0
        assert calls == ["root_pass" if free_variables == "root_depths_only" else "ordinal_pass"]

    def test_fields_follow_the_anchor(self, tmp_path, capsys):
        assert run("gen", "--seed", 8, "--persons", 3, "--perturb", "gauss",
                   "--sigma-xy", 30, "--sigma-z", 300, "--out", tmp_path) == 0
        pred, gt = tmp_path / "pred_000.json", tmp_path / "scene_000.json"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"solver": {"anchor": "input", "w_abs": 1.0}}))
        capsys.readouterr()
        assert run("loss", pred, gt, "--config", config_path) == 0
        record = json.loads(capsys.readouterr().out)
        # the data terms score the prediction against itself; hmor against gt
        assert [record[t] for t in ("pose", "init", "refine", "abs")] == [0.0] * 4
        assert record["hmor"]["total"] > 0.0
        assert record["total"] == record["hmor"]["total"]

    def test_depth_terms_normalise_by_the_pred_camera(self, tmp_path, capsys, camera):
        gt = two_person_depth_fixture(camera, z1=4000.0, z2=4600.0)
        wide = dataclasses.replace(camera, fx=2000.0, fy=2000.0)
        pred = dataclasses.replace(gt, camera=wide, persons=tuple(
            dataclasses.replace(p, root_depth=p.root_depth + 100.0) for p in gt.persons))
        save_scene(pred, tmp_path / "pred.json")
        save_scene(gt, tmp_path / "gt.json")
        assert run("loss", tmp_path / "pred.json", tmp_path / "gt.json") == 0
        record = json.loads(capsys.readouterr().out)
        # box and RoI areas are equal, so the refine residual is the init one
        assert record["init"] == pytest.approx(100.0 / 2000.0, rel=1e-12)
        assert record["refine"] == pytest.approx(100.0 / 2000.0, rel=1e-12)

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

    @pytest.mark.parametrize("free_vars", ["root_depths_only", "full_pose"])
    def test_step_behind_the_camera_is_refused(self, tmp_path, free_vars):
        # a long step at a heavy ordinal weight would put joints behind the
        # camera, where the back-projected objective still reads lower
        assert run("gen", "--seed", 4, "--persons", 3, "--perturb", "depth_swap",
                   "--out", tmp_path / "s") == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {"step_size": 1.0, "w_hmor": 1000.0, "steps": 5}}))
        out, trace = tmp_path / "r.json", tmp_path / "trace.csv"
        assert run("refine", tmp_path / "s" / "pred_000.json", tmp_path / "s" / "scene_000.json",
                   "--config", cfg, "--free-vars", free_vars, "--out", out,
                   "--trace", trace) == 0
        for person in load_scene(out).persons:
            assert (person.rel_pose.joints[:, 2] + person.root_depth > 0).all()
        with open(trace, newline="") as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        assert len(values) == 6 and all(b <= a for a, b in zip(values, values[1:]))

    def test_trace_into_a_missing_directory(self, tmp_path, swapped_pair):
        # the trace's directory is made as the refined scene's is
        out, trace = tmp_path / "r" / "refined.json", tmp_path / "t" / "x" / "trace.csv"
        assert run("refine", *swapped_pair, "--out", out, "--trace", trace, "--steps", 2) == 0
        assert out.exists() and trace.read_text().startswith("step,value,violations")

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


class TestObjectiveScale:
    """A refine objective has no bound but overflow: a large finite one
    runs, one that overflows exits 4."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("scale")
        assert run("gen", "--seed", 3, "--persons", 3, "--perturb", "gauss",
                   "--sigma-xy", 30, "--sigma-z", 300, "--out", root) == 0
        return root / "pred_000.json", root / "scene_000.json"

    def test_large_objective_runs(self, files, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"solver": {"w_init": 1e13}}))
        assert run("loss", *files, "--config", config) == 0
        total = json.loads(capsys.readouterr().out)["total"]
        trace = tmp_path / "trace.csv"
        assert run("refine", *files, "--config", config, "--out", tmp_path / "r.json",
                   "--trace", trace) == 0
        with open(trace, newline="") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        assert values[0] == total > 1e12
        assert all(np.isfinite(values)) and all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("weight", ["w_init", "w_refine", "w_pose"])
    def test_overflow_exits_4_with_one_line(self, files, tmp_path, weight):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"solver": {weight: 1.7e308}}))
        out = tmp_path / "r.json"
        done = run_process("refine", *files, "--config", config, "--out", out)
        assert done.returncode == 4 and done.stdout == "" and not out.exists()
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")


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

    def test_dotted_out_prefix_keeps_its_suffix(self, tmp_path, capsys):
        assert run("gen", "--seed", 32, "--persons", 2, "--out", tmp_path) == 0
        scene = tmp_path / "scene_000.json"
        assert run("eval", scene, scene, "--out", tmp_path / "out" / "run.v2") == 0
        capsys.readouterr()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["run.v2.csv",
                                                                        "run.v2.json"]

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

    # (--jobs, os.cpu_count(), the max_workers of each pool started)
    @pytest.mark.parametrize("jobs, cpus, pools", [
        (64, 64, [2]), (2, 64, [2]), (10_000, 4, [2]), (64, 1, []), (64, None, []), (1, 64, []),
    ], ids=["scenes", "jobs", "huge_jobs", "one_cpu", "unknown_cpus", "one_job"])
    def test_jobs_capped_by_scenes_and_cpus(self, tmp_path, capsys, monkeypatch, jobs, cpus,
                                            pools):
        # a fork pool starts every worker at once: it never gets more workers
        # than scenes or CPUs, and one worker is the serial path
        import concurrent.futures
        assert run("gen", "--seed", 34, "--persons", 2, "--count", 2,
                   "--out", tmp_path / "gt") == 0
        (tmp_path / "pred").mkdir()
        for p in (tmp_path / "gt").glob("scene_*.json"):
            (tmp_path / "pred" / p.name).write_bytes(p.read_bytes())
        started = []

        class Pool:  # records the pool and runs its tasks in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capsys.readouterr()
        assert run("eval", tmp_path / "pred", tmp_path / "gt", "--jobs", jobs) == 0
        assert started == pools
        assert len(json.loads(capsys.readouterr().out)["scenes"]) == 2

    def test_auc_without_config_equals_evaluate(self, tmp_path, capsys):
        assert run("gen", "--seed", 35, "--persons", 3, "--out", tmp_path,
                   "--perturb", "gauss", "--sigma-xy", 30, "--sigma-z", 300) == 0
        pred, gt = tmp_path / "pred_000.json", tmp_path / "scene_000.json"
        capsys.readouterr()
        assert run("eval", pred, gt) == 0
        auc_rel = json.loads(capsys.readouterr().out)["auc_rel"]
        assert auc_rel == evaluate(load_scene(pred), load_scene(gt)).auc_rel
        assert 0.0 < auc_rel < 100.0

    def test_one_auc_key_takes_the_others_from_metrics(self, tmp_path, capsys):
        from hmor.metrics import DEFAULT_AUC_GRID_MM
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"metrics": {"auc_max_mm": 100}}))
        cfg = load_run_config(cfg_path)
        first, _, step = DEFAULT_AUC_GRID_MM
        assert (cfg.auc_min_mm, cfg.auc_max_mm, cfg.auc_step_mm) == (first, 100.0, step)
        assert np.array_equal(cfg.auc_thresholds, np.arange(1.0, 101.0))
        cfg_path.write_text(json.dumps({"metrics": {"pck_threshold_mm": 100}}))
        assert load_run_config(cfg_path).auc_thresholds is None  # evaluate's own default

        assert run("gen", "--seed", 35, "--persons", 3, "--out", tmp_path,
                   "--perturb", "gauss", "--sigma-xy", 30, "--sigma-z", 300) == 0
        pred, gt = tmp_path / "pred_000.json", tmp_path / "scene_000.json"
        cfg_path.write_text(json.dumps({"metrics": {"auc_max_mm": 100}}))
        capsys.readouterr()
        assert run("eval", pred, gt, "--config", cfg_path) == 0
        want = evaluate(load_scene(pred), load_scene(gt), auc_thresholds_mm=np.arange(1.0, 101.0))
        assert json.loads(capsys.readouterr().out)["auc_rel"] == want.auc_rel

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

    def test_config_hmor_section_reaches_the_audit(self, tmp_path, capsys):
        assert run("gen", "--seed", 3, "--persons", 3, "--out", tmp_path,
                   "--perturb", "gauss", "--sigma-xy", 30, "--sigma-z", 300) == 0
        pred, gt = tmp_path / "pred_000.json", tmp_path / "scene_000.json"
        for side, source in (("p", pred), ("g", gt)):  # directory mode's file pair
            (tmp_path / side).mkdir()
            (tmp_path / side / "s.json").write_bytes(source.read_bytes())
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"hmor": {"equality_tolerance": 1000.0}}))
        capsys.readouterr()
        assert run("eval", pred, gt) == 0
        assert sum(json.loads(capsys.readouterr().out)["violations"].values()) > 0
        # a tolerance wider than the scene labels every pair 0, which no pair violates
        zero = {"instance": 0, "part": 0, "joint": 0}
        assert run("eval", pred, gt, "--config", cfg_path) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == zero
        assert run("eval", tmp_path / "p", tmp_path / "g", "--config", cfg_path) == 0
        assert json.loads(capsys.readouterr().out)["aggregate"]["violations"] == zero

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


    @pytest.mark.parametrize("args, message", [
        (("--perturb", "depth_swap", "--swap", "x,1"), "--swap takes two person indices"),
        (("--perturb", "depth_swap", "--swap", "0"), "--swap takes two person indices"),
        (("--count", "3", "--perturb", "depth_swap", "--swap", "0,5"),
         "--swap pair 0,5 is out of range for 2 persons"),
        (("--depth-min", "nan"), "depth_range must be finite"),
        (("--depth-max", "nan"), "depth_range must be finite"),
        (("--lateral", "-5"), "lateral_range must be >= 0"),
        (("--jitter", "nan"), "joint_jitter must be finite"),
        (("--perturb", "gauss", "--sigma-z", "nan"), "noise sigmas must be finite"),
        (("--perturb", "gauss"), "--perturb gauss needs --sigma-xy or --sigma-z"),
        (("--seed", "-1"), "--seed must be >= 0"),
    ], ids=["swap_not_int", "swap_one_index", "swap_out_of_range", "depth_min_nan", "depth_max_nan",
            "negative_lateral", "jitter_nan", "sigma_nan", "sigma_unset", "negative_seed"])
    def test_gen_bad_argument(self, tmp_path, args, message):
        out = tmp_path / "out"
        done = run_process("gen", "--out", out, *args)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
        assert message in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("config, code, message", [
        (None, 3, "No such file"),
        ('{"hmor": {"w_banana": 1.0}}', 2, "hmor has unknown keys ['w_banana']"),
    ], ids=["missing_config", "bad_config_key"])
    def test_gen_bad_config(self, tmp_path, config, code, message):
        cfg_path = tmp_path / "run.json"
        if config is not None:
            cfg_path.write_text(config)
        out = tmp_path / "out"
        done = run_process("gen", "--config", cfg_path, "--out", out)
        assert done.returncode == code
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert done.stderr.startswith("i/o error: " if code == 3 else "error: ")
        assert message in done.stderr
        assert not out.exists()


# what a mutated leaf of a scene file, or a whole random file, may hold; most
# scene leaves are numbers, so numbers get a strategy of their own
NUMBERS = (st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)
           | st.sampled_from([0, -0.0, 1e-300, 1e308, -1.0]))
JSON_SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=4)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=8)


def leaf_paths(node, path=()):
    """The key path of every scalar, empty list and empty dict in a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(child, (*path, key))
    else:
        yield path


class TestSceneFileFuzz:
    """Whatever a scene file holds, ``loss``, ``eval`` and ``refine`` exit
    0, 2, 3 or 4, and a failure prints one stderr line, no traceback."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_exit_codes_and_one_error_line(self, tmp_path_factory, data):
        spec = GenSpec(seed=data.draw(st.integers(0, 2**31)),
                       n_persons=data.draw(st.integers(1, 2)),
                       perturbation=GaussNoise(30.0, 300.0))
        gt = generate_scene(spec)
        docs = {"pred": scene_to_dict(perturb(gt, spec)), "gt": scene_to_dict(gt)}
        name = data.draw(st.sampled_from(sorted(docs)))
        if data.draw(st.integers(0, 3)) == 3:  # a random JSON document
            docs[name] = data.draw(JSON_VALUES)
        else:  # 1-3 leaves replaced (mostly by numbers) or removed
            for _ in range(data.draw(st.integers(1, 3))):
                path = data.draw(st.sampled_from(list(leaf_paths(docs[name]))))
                if not path:  # every key is gone
                    break
                *parents, key = path
                parent = docs[name]
                for k in parents:
                    parent = parent[k]
                action = data.draw(st.sampled_from(["number", "remove", "number", "value"]))
                if action == "remove":
                    del parent[key]
                else:
                    parent[key] = data.draw(NUMBERS if action == "number" else JSON_VALUES)
        root = tmp_path_factory.getbasetemp() / "fuzz"
        root.mkdir(exist_ok=True)
        for kind, doc in docs.items():
            (root / f"{kind}.json").write_text(json.dumps(doc))
        pred, gt_path = root / "pred.json", root / "gt.json"
        for argv in (("loss", pred, gt_path), ("eval", pred, gt_path),
                     ("refine", pred, gt_path, "--out", root / "out.json", "--steps", 2)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(*argv)
            assert code in (0, 2, 3, 4), (argv[0], code)
            if code:
                assert err.getvalue().count("\n") == 1, (argv[0], err.getvalue())
                assert "Traceback" not in err.getvalue()


GRADCHECK_ROWS = [f"objective[{term}]" for term in ("pose", "init", "refine", "abs", "hmor")]


def gradcheck_statuses(out):
    """The status of each row of a gradcheck table, by row name."""
    header, *rows = out.splitlines()
    assert header.split() == ["term", "max_rel_err", "status"]
    return {name: status for name, _, status in map(str.split, rows)}


def negate_ordinal_gradient(monkeypatch):
    real = hmor.solver.ordinal_pass

    def wrapped(*args, **kwargs):
        totals, levels, counts, dK = real(*args, **kwargs)
        return totals, levels, counts, None if dK is None else -dK

    monkeypatch.setattr(hmor.solver, "ordinal_pass", wrapped)


def double_joint_pullback(monkeypatch):
    real = hmor.solver._SceneVars.grad_to_x
    monkeypatch.setattr(hmor.solver._SceneVars, "grad_to_x",
                        lambda self, *args: 2.0 * real(self, *args))


def negate_init_only_gradient(monkeypatch):
    real = hmor.solver._Objective.evaluate

    def wrapped(obj, *args, config=None, **kwargs):
        record = real(obj, *args, config=config, **kwargs)
        weights = {term: getattr(config or obj.config, f"w_{term}") for term in hmor.solver._TERMS}
        if record.grad is not None and weights == {**dict.fromkeys(weights, 0.0), "init": 1.0}:
            record = dataclasses.replace(record, grad=-record.grad)
        return record

    monkeypatch.setattr(hmor.solver._Objective, "evaluate", wrapped)


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert run("gradcheck", "--points", 25) == 0
        statuses = gradcheck_statuses(capsys.readouterr().out)
        assert list(statuses) == GRADCHECK_ROWS
        assert set(statuses.values()) == {"PASS"}

    @pytest.mark.parametrize("config", [
        {}, {"hmor": {"part_mode": "particle"}}, {"hmor": {"equality_tolerance": 0.05}},
        {"solver": {"views_per_step": 4}},
    ], ids=["default", "particle_parts", "equality_tolerance", "four_views"])
    def test_passes_where_gradients_are_right(self, tmp_path, capsys, config):
        # three points cover 1, 2 and 3 persons and both free-variable modes
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        for seed in range(10):
            code = run("gradcheck", "--config", path, "--seed", seed, "--points", 3)
            assert code == 0, f"seed {seed}:\n{capsys.readouterr().out}"

    @pytest.mark.parametrize("mutate, failing", [
        (negate_ordinal_gradient, {"objective[hmor]"}),
        (double_joint_pullback, {"objective[abs]", "objective[hmor]"}),
        (negate_init_only_gradient, {"objective[init]"}),
    ], ids=["ordinal_pass_dK_negated", "grad_to_x_doubled", "init_gradient_negated"])
    def test_wrong_gradient_fails(self, monkeypatch, capsys, mutate, failing):
        mutate(monkeypatch)
        assert run("gradcheck", "--points", 3) == 4
        captured = capsys.readouterr()
        statuses = gradcheck_statuses(captured.out)
        assert list(statuses) == GRADCHECK_ROWS
        assert {row for row, status in statuses.items() if status == "FAIL"} == failing
        assert captured.err == "error: gradient check exceeded 1e-05\n"

    @pytest.mark.parametrize("points", [0, -3])
    def test_no_points_rejected(self, capsys, points):
        assert run("gradcheck", "--points", points) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --points must be >= 1, got {points}\n"

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

    @pytest.mark.parametrize("config, message", [
        ('{"solver": {"steps": "10"}}', "solver.steps must be int, got '10'"),
        ('{"hmor": {"w_part": "a"}}', "hmor.w_part must be float, got 'a'"),
        ('{"solver": {"steps": 2.5}}', "solver.steps must be int, got 2.5"),
        ('{"solver": {"steps": true}}', "solver.steps must be int, got True"),
        ('{"seed": "x"}', "seed must be an integer >= 0, got 'x'"),
        ('{"solver": {"w_pose": NaN}}', "solver: w_pose must be finite, got nan"),
        ('{"hmor": {"depth_unit_scale": Infinity}}',
         "hmor: depth_unit_scale must be finite, got inf"),
        ('{"solver": [1]}', "solver must be an object"),
        ('{"solver": {"hmor": {"w_part": 0.5}}}', "solver.hmor must be HmorConfig"),
    ], ids=["string_int", "string_float", "float_int", "bool_int", "string_seed",
            "nan_weight", "infinite_scale", "list_section", "nested_hmor"])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, camera, config, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config)
        scene = tmp_path / "scene.json"
        save_scene(two_person_depth_fixture(camera), scene)
        assert run("loss", scene, scene, "--config", cfg_path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    def test_removed_solver_key_rejected(self, tmp_path, capsys, camera):
        # step halving is the one step rule, and the objective has no bound
        # but overflow: neither the switch nor the limit is a key
        scene = tmp_path / "scene.json"
        save_scene(two_person_depth_fixture(camera), scene)
        out = tmp_path / "refined.json"
        for key, value in (("step_halving", False), ("divergence_limit", 1e12)):
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"solver": {key: value}}))
            assert run("refine", scene, scene, "--out", out, "--config", cfg_path) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.count("\n") == 1
            assert captured.err.endswith(f": solver has unknown keys ['{key}']\n")

    # the last three name HmorConfig fields that were removed
    @pytest.mark.parametrize("key, value", [("w_banana", 1.0), ("pair_cap", 100),
                                            ("cross_person_parts", False),
                                            ("cross_person_joints", False)],
                             ids=["w_banana", "pair_cap", "cross_person_parts",
                                  "cross_person_joints"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"hmor": {key: value}}))
        assert run("gen", "--seed", 41, "--persons", 2, "--out", tmp_path) == 0
        capsys.readouterr()
        scene = tmp_path / "scene_000.json"
        assert run("loss", scene, scene, "--config", cfg_path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"hmor has unknown keys ['{key}']" in captured.err
