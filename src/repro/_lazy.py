"""Package re-exports loaded on first use (PEP 562).

A package ``__init__`` maps each name it re-exports to the module that
defines it, and installs the lookup this module builds as its module
``__getattr__``::

    __getattr__ = lazy_exports(__name__, {"Simulator": "repro.sim.engine"})

Importing the package then imports none of those modules. The first
``package.Simulator`` or ``from package import Simulator`` imports
``repro.sim.engine`` and binds the value in the package, so later
lookups never reach ``__getattr__``. A name mapped to its own submodule
(``"fig2": "repro.eval.fig2"``) is that submodule.

A name that shadows a submodule of the same name but is not that
submodule (``repro.models.mlp``) must stay an eager import: importing
the submodule sets the package attribute to the module, and
``__getattr__`` would never be asked again.
"""

import importlib
import sys
from typing import Any, Callable, Dict


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` that loads ``package``'s ``exports``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    return __getattr__
