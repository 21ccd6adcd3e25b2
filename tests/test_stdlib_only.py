"""`condstop` needs nothing beyond the standard library."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in an isolated interpreter without site-packages, writing no bytecode
# into the source tree: import every module of the package and list the
# modules that importing it loaded.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import condstop
for info in pkgutil.iter_modules(condstop.__path__):
    importlib.import_module(f"condstop.{info.name}")
loaded = sorted(set(sys.modules) - before)
print(json.dumps({name: getattr(sys.modules[name], "__file__", None) for name in loaded}))
"""


def test_every_module_imports_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    package = {name: path for name, path in loaded.items() if name.split(".")[0] == "condstop"}
    modules = {path.stem for path in (SRC / "condstop").glob("*.py")} - {"__init__"}
    assert set(package) == {"condstop"} | {f"condstop.{name}" for name in modules}
    assert all(Path(path).parent == SRC / "condstop" for path in package.values())
    outside = sorted(name for name in loaded if name not in package)
    assert outside, "the probe saw no standard-library import"
    assert [name for name in outside if name.split(".")[0] not in sys.stdlib_module_names] == []
