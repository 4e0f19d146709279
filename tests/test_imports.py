"""Every hypersum submodule imports on its own in a fresh interpreter, and
a process loads only the submodules it uses.

partial_sums reaches the R_I engine of ri_pencils only inside a function,
while ri_pencils imports partial_sums at module load; a module-level
import back would be a cycle. Each import runs in a fresh interpreter, so
no module is loaded already and a cycle cannot hide behind one that is.

Which modules an import loads stands in for start-up time, which no test
measures: the package resolves its names on first use, and each CLI
command imports its own engines.
"""

import importlib.util
import json
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


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_alone(name):
    out = run_fresh(f"import hypersum.{name}")
    assert out.returncode == 0, out.stderr


# What each process holds of hypersum: the package alone loads no submodule
# and no numpy, and a command loads only its own engine.
@pytest.mark.parametrize("code, loaded", [
    ("import hypersum", set()),
    ("import hypersum.cli", {"cli", "errors", "partial_sums", "polycore"}),
    ("import contextlib, io, hypersum.cli\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert hypersum.cli.main(['roots', '--n', '5']) == 0",
     {"cli", "errors", "partial_sums", "polycore", "roots"}),
    ("import hypersum\nassert hypersum.roots.find_roots is hypersum.find_roots",
     {"errors", "partial_sums", "polycore", "roots"}),
], ids=["package", "cli", "cli-roots", "package-submodule"])
def test_a_process_loads_only_the_modules_it_uses(code, loaded):
    out = run_fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps(['numpy' in sys.modules, sorted(m for m in sys.modules "
        "if m.startswith('hypersum.'))]))"
    )
    assert out.returncode == 0, out.stderr
    numpy_loaded, modules = json.loads(out.stdout)
    assert {m.removeprefix("hypersum.") for m in modules} == loaded
    assert numpy_loaded == bool(loaded)


def test_no_table_is_built_at_import():
    # The verify checks build their family-blind tables on first use.
    out = run_fresh(
        "from hypersum import checks, pfq\n"
        "caches = (checks._exactness_defect, checks._pencil_ranges,\n"
        "          pfq._unit_circle_nodes, pfq._unit_gauss_legendre)\n"
        "print([c.cache_info().currsize for c in caches])"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[0, 0, 0, 0]\n"


def test_star_import_resolves_every_exported_name():
    # A name left in __all__ after its function is gone breaks
    # `from hypersum import *` with an AttributeError. The package keeps
    # no name it resolves, so a name patched in its module reads patched.
    import hypersum

    namespace = {}
    exec("from hypersum import *", namespace)
    assert len(set(hypersum.__all__)) == len(hypersum.__all__)
    for name in hypersum.__all__:
        assert namespace[name] is getattr(hypersum, name)
        assert name in dir(hypersum)
    assert "gn_direct" not in vars(hypersum)
    assert not hasattr(hypersum, "no_such_name")
