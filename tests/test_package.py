"""The package root loads the layer modules; every other name lives in its module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["attack", "autodiff", "checkpoint", "config", "data", "evaluation", "experiment",
           "models", "reporting", "seeds"]


def test_bare_import_binds_the_modules_and_encode(tmp_path):
    code = ("import latentpoison\n"
            "print(latentpoison.__file__)\n"
            "print(sorted(name for name in vars(latentpoison) if not name.startswith('__')))\n"
            "print(latentpoison.encode is latentpoison.models.encode)\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    file, names, same = result.stdout.splitlines()
    assert Path(file).resolve() == SRC / "latentpoison" / "__init__.py"
    assert names == str(sorted([*MODULES, "encode"]))
    assert same == "True"
