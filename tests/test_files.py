import os
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
