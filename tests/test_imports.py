"""Every hypersum submodule imports on its own in a fresh interpreter.

partial_sums reaches the R_I engine of ri_pencils only inside a function,
while ri_pencils imports partial_sums at module load; a module-level
import back would be a cycle. Each import runs in a fresh interpreter, so
no module is loaded already and a cycle cannot hide behind one that is.
"""

import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

# Located without importing it, so a broken package fails the tests below
# rather than their collection.
SPEC = importlib.util.find_spec("hypersum")
PACKAGE_PARENT = os.path.dirname(os.path.dirname(SPEC.origin))
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(SPEC.submodule_search_locations)
)


def test_submodules_are_found():
    assert {"partial_sums", "ri_pencils", "cli"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_alone(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import hypersum.{name}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_star_import_resolves_every_exported_name():
    # A name left in __all__ after its function is gone breaks
    # `from hypersum import *` with an AttributeError.
    import hypersum

    namespace = {}
    exec("from hypersum import *", namespace)
    assert len(set(hypersum.__all__)) == len(hypersum.__all__)
    for name in hypersum.__all__:
        assert namespace[name] is getattr(hypersum, name)
