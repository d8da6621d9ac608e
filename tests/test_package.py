"""The lazy ``hmor`` package: its public names, and the modules each
subcommand loads in a fresh interpreter."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hmor
from hmor.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# public names that left the package; they must not come back through __getattr__
REMOVED = ("count_violations", "err_instance", "err_joint", "err_part", "err_part_particle",
           "instance_position", "part_vectors", "project_to_plane", "relation_instance",
           "relation_joint", "relation_part", "SolverError")
# RelationPairs members that left it: stacking, and row views read from its layout
REMOVED_PAIR_ATTRIBUTES = ("stack", "index", "labels", "instance_pairs", "part_pairs",
                           "joint_pairs", "per_person", "person_count", "rows")
# hmor.ordinal functions that left it: the counts-only kernel and its helper
REMOVED_ORDINAL_NAMES = ("violation_counts", "_count_disagreements", "_depth_margins",
                         "_part_margins")
# hmor.solver names that left it: each run's objective is one _Objective
REMOVED_SOLVER_NAMES = ("_Anchors", "_evaluate", "_targets", "_labelled_views")


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done


class TestPublicNames:
    def test_each_name_is_its_submodules_object(self):
        for name in hmor.__all__:
            obj = getattr(hmor, name)
            assert obj.__module__.startswith("hmor."), name
            assert obj is getattr(importlib.import_module(obj.__module__), name)

    def test_dir_lists_every_public_name(self):
        assert set(hmor.__all__) <= set(dir(hmor))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            hmor.no_such_name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from hmor import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(hmor.__all__)
        assert all(namespace[name] is getattr(hmor, name) for name in namespace)

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_name_stays_absent(self, name):
        assert name not in hmor.__all__ and name not in dir(hmor)
        assert not hasattr(hmor, name)

    @pytest.mark.parametrize("name", REMOVED_PAIR_ATTRIBUTES)
    def test_removed_pair_attribute_stays_absent(self, name):
        from hmor.ordinal import RelationPairs
        assert not hasattr(RelationPairs, name)

    @pytest.mark.parametrize("name", REMOVED_ORDINAL_NAMES)
    def test_removed_ordinal_name_stays_absent(self, name):
        import hmor.ordinal
        assert not hasattr(hmor.ordinal, name)

    @pytest.mark.parametrize("name", REMOVED_SOLVER_NAMES)
    def test_removed_solver_name_stays_absent(self, name):
        import hmor.solver
        assert not hasattr(hmor.solver, name)

    def test_scene_variables_build_no_reduced_form(self):
        from hmor.solver import _SceneVars
        assert not hasattr(_SceneVars, "root_form")

    def test_layout_compares_by_identity(self):
        from hmor.ordinal import _Layout
        assert "__eq__" not in vars(_Layout)

    def test_fresh_import_loads_no_submodule(self):
        done = run_python("-c", "import hmor, sys\n"
                                "print(sorted(m for m in sys.modules if m.startswith('hmor')))\n"
                                "assert hmor.solver.refine is hmor.refine\n"
                                "from hmor import evaluate\n"
                                "assert evaluate is sys.modules['hmor.metrics'].evaluate\n")
        assert done.stdout.split("\n")[0] == "['hmor']"


# hmor.ordinal's internals: the pair layout, the margins and the scoring of both kernels
ORDINAL_INTERNALS = {"_score", "_Layout", "_full_layout", "_LABEL_SETTINGS", "_entity_map",
                     "_project", "_cross_views", "_margins", "_signs", "_edges", "_column_scale",
                     "_weighted", "_root_columns", "segments"}


class TestModuleBoundary:
    """The labelled pair stack lives in hmor.ordinal alone."""

    def test_no_other_module_reads_ordinal_internals(self):
        for path in sorted((SRC / "hmor").glob("*.py")):
            if path.name == "ordinal.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                else:
                    continue
                assert not names & ORDINAL_INTERNALS, f"{path.name}:{node.lineno}"

    def test_reduced_form_has_no_module_of_its_own(self):
        assert importlib.util.find_spec("hmor.rootform") is None


# a Sphinx cross-reference in a docstring or comment: its target, without a leading ~
CROSS_REFERENCE = re.compile(r":(?:func|meth|class|attr):`~?([\w.]+)`")


def _resolves(target: str, scopes) -> bool:
    for obj in scopes:
        for part in target.split("."):
            obj = getattr(obj, part, CROSS_REFERENCE)  # the pattern stands for "missing"
            if obj is CROSS_REFERENCE:
                break
        else:
            return True
    return False


class TestCrossReferences:
    """Every cross-reference in ``src/hmor`` names something that exists:
    in its module, in an enclosing class or as ``hmor.<module>.<name>``."""

    def test_every_reference_resolves(self):
        paths = sorted((SRC / "hmor").glob("*.py"))
        modules = [importlib.import_module(f"hmor.{path.stem}") for path in paths]
        seen, stale = 0, []
        for path, module in zip(paths, modules):
            source = path.read_text()
            classes = [node for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.ClassDef)]
            for lineno, line in enumerate(source.splitlines(), 1):
                owners = [getattr(module, node.name) for node in classes
                          if node.lineno <= lineno <= node.end_lineno]
                for target in CROSS_REFERENCE.findall(line):
                    seen += 1
                    if not _resolves(target, [module, *owners, SimpleNamespace(hmor=hmor)]):
                        stale.append(f"{path.name}:{lineno}: {target}")
        assert seen >= 60 and not stale, stale


_LOADED = """
import json, sys
import hmor.cli
out, *argv = sys.argv[1:]
code = hmor.cli.main(argv)
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


class TestSubcommandModules:
    """What a cold ``hmor`` process imports, per subcommand."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("modules")
        for k, seed in enumerate((61, 62)):
            assert main(["gen", "--seed", str(seed), "--persons", "2", "--out", str(root / "gen"),
                         "--perturb", "gauss", "--sigma-z", "300"]) == 0
            for kind, name in (("pred", "pred_000.json"), ("gt", "scene_000.json")):
                (root / kind).mkdir(exist_ok=True)
                (root / kind / f"s{k}.json").write_bytes((root / "gen" / name).read_bytes())
        return root

    def loaded(self, files, *argv):
        out = files / "modules.json"
        run_python("-c", _LOADED, out, *argv)
        record = json.loads(out.read_text())
        assert record["code"] == 0
        return set(record["modules"])

    @pytest.mark.parametrize("argv, absent", [
        (("gen", "--out", "{root}/out"), {"hmor.solver", "hmor.ordinal", "hmor.metrics",
                                          "hmor.depth"}),
        (("loss", "{root}/pred/s0.json", "{root}/gt/s0.json"), {"hmor.metrics", "hmor.synth"}),
        (("refine", "{root}/pred/s0.json", "{root}/gt/s0.json", "--out", "{root}/r.json",
          "--steps", "2"), {"hmor.metrics", "hmor.synth"}),
        (("eval", "{root}/pred/s0.json", "{root}/gt/s0.json"), {"hmor.synth"}),
        (("eval", "{root}/pred", "{root}/gt", "--jobs", "1"), {"hmor.synth"}),
    ], ids=["gen", "loss", "refine", "eval_file", "eval_dir"])
    def test_subcommand_skips_what_it_does_not_run(self, files, argv, absent):
        modules = self.loaded(files, *(a.format(root=files) for a in argv))
        assert not absent & modules
        assert "concurrent.futures" not in modules

    def test_process_pool_only_for_parallel_eval(self, files):
        modules = self.loaded(files, "eval", files / "pred", files / "gt", "--jobs", "2")
        assert "concurrent.futures" in modules and "hmor.synth" not in modules
