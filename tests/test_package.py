import importlib
import pkgutil
import types

import qthermo


def test_exports_resolve():
    # every name in a module's __all__ exists, once; every package export
    # is one of them
    exported = set()
    for info in pkgutil.iter_modules(qthermo.__path__):
        module = importlib.import_module(f"qthermo.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        exported.update(names)
    package = {name for name, value in vars(qthermo).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert package and package <= exported, sorted(package - exported)
