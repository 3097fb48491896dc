"""PEP 562 lazy exports for the package ``__init__`` modules.

Importing a ``repro`` package loads none of its submodules: each public
name resolves on first access from one table in the package's
``__init__``. A run that only serves stored reports therefore never
pays for the numpy-backed model layers.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for one package ``__init__``.

    Args:
        package: the package's ``__name__``.
        exports: defining submodule (relative to ``package``) -> the
            public names it provides. A name equal to its submodule's
            name exports the submodule itself.
    """
    owners = {name: module for module, names in exports.items()
              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module_name = owners.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{module_name}")
        value = module if name == module_name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
