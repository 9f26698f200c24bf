import ast
import glob
import os
import re
import subprocess
import sys

import pytest

import xsit
from xsit import files


def loaded_modules(module: str) -> list:
    """The program's modules that a fresh interpreter holds after
    importing `module`."""
    src = os.path.dirname(os.path.dirname(xsit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(' '.join(sorted(m for m in "
         f"sys.modules if m.split('.')[0] == 'xsit')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    return out.stdout.split()


def program_nodes(kind):
    """(file name, line, node) of every `kind` node in src/xsit/*.py."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(xsit.__file__),
                                              "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        yield from ((os.path.basename(path), node.lineno, node)
                    for node in ast.walk(tree) if isinstance(node, kind))


class TestOneInputError:
    """Which exception a refusal raises is decided in xsit.files: the
    program defines InputError and TensorError only, and raises nothing
    else but the OSError of atomic_write."""

    def test_two_exception_classes(self):
        defined = {(name, node.name) for name, _, node in
                   program_nodes(ast.ClassDef)
                   if any(re.search(r"(Error|Exception|Warning)$",
                                    ast.unparse(base))
                          for base in node.bases)}
        assert defined == {("files.py", "InputError"),
                           ("tensor.py", "TensorError")}

    def test_every_raise_names_one_of_them(self):
        raised = {f"{name}:{line}": node.exc and ast.unparse(
                      getattr(node.exc, "func", node.exc))
                  for name, line, node in program_nodes(ast.Raise)}
        assert {at: exc for at, exc in raised.items() if exc not in (
            "InputError", "TensorError", "OSError")} == {}


class TestImportGraph:
    def test_files_imports_nothing_of_the_program(self):
        assert loaded_modules("xsit.files") == ["xsit", "xsit.files"]

    def test_autodiff_imports_only_the_boundary(self):
        assert loaded_modules("xsit.tensor") == ["xsit", "xsit.files",
                                                 "xsit.tensor"]

    @pytest.mark.parametrize("module", ["xsit.encoder", "xsit.config"])
    def test_model_settings_load_no_mesh_code(self, module):
        assert "xsit.surface" not in loaded_modules(module)


class TestAtomicWrite:
    def test_failed_replace_names_the_path_and_leaves_nothing(self,
                                                              tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError) as info:
            files.atomic_write(str(target), b"data")
        assert str(info.value).endswith(f": '{target}'")
        assert ".tmp-" not in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
