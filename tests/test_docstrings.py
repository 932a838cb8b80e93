"""Documentation quality gate: every public item carries a docstring.

The deliverable promises doc comments on every public function, class and
module; this meta-test enforces it mechanically so regressions cannot slip
in silently.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # executes on import by design
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_have_docstrings(module):
    missing = []
    public = getattr(module, "__all__", None)
    names = public if public is not None else [
        name for name in dir(module) if not name.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported; documented at its home
        if not (inspect.getdoc(obj) or "").strip():
            missing.append(name)
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if callable(attr) and not (inspect.getdoc(attr) or "").strip():
                    missing.append(f"{name}.{attr_name}")
    assert not missing, f"{module.__name__}: undocumented public items {missing}"
