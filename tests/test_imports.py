"""Every module under ``repro`` imports, and every name it exports resolves.

A deletion that leaves a stale ``__all__`` entry or a dangling import fails
here, in tier-1, instead of at the first caller that happens to reach it.
"""

import importlib
import pkgutil

import pytest

import repro

#: ``walk_packages`` skips the submodules of a package that fails to import,
#: but still lists the package itself, so its test fails.
MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def test_walk_finds_the_subpackages():
    assert {"repro.core", "repro.nn", "repro.serving.net"} <= set(MODULES)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_module_imports_and_its_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ()) if not hasattr(module, export)
    ]
    assert missing == []
