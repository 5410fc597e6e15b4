"""Kernel-pair registry and backend selection.

A kernel pair is one numerical primitive implemented twice: a
``reference`` implementation — the readable, obviously-correct code
that defines the semantics — and a ``fast`` implementation that must be
**bit-identical** to it (values, shared exponents, RNG stream position;
``tests/kernels/parity.py`` is the enforced contract). This module
holds the pairs and decides which side runs.

The ambient backend is ``"fast"``; :func:`use_backend` switches it for
a scope. That is safe because the parity suite enforces bit-exactness,
so backends differ only in speed.

Dispatches are counted per ``(kernel, backend)``; the end-to-end
benchmark reads the counts to attribute work to kernels.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

__all__ = [
    "BACKENDS",
    "KernelPair",
    "dispatch",
    "dispatch_counts",
    "get_backend",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "reset_dispatch_counts",
    "use_backend",
]

#: Recognized backend names, in contract order (reference is the oracle).
BACKENDS: Tuple[str, ...] = ("reference", "fast")


@dataclass(frozen=True)
class KernelPair:
    """One primitive's two implementations (identical signatures)."""

    name: str
    reference: Callable
    fast: Callable
    doc: str = ""

    def implementation(self, backend: str) -> Callable:
        if backend == "reference":
            return self.reference
        if backend == "fast":
            return self.fast
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )


_PAIRS: Dict[str, KernelPair] = {}
_DISPATCHES: Dict[Tuple[str, str], int] = {}
_backend = "fast"


def register_kernel(
    name: str, reference: Callable, fast: Callable, doc: str = ""
) -> KernelPair:
    """Register a kernel pair; re-registering a name is an error."""
    if name in _PAIRS:
        raise ValueError(f"kernel {name!r} is already registered")
    pair = KernelPair(name=name, reference=reference, fast=fast, doc=doc)
    _PAIRS[name] = pair
    return pair


def kernel_names() -> Tuple[str, ...]:
    """Registered kernel names, sorted."""
    return tuple(sorted(_PAIRS))


def get_kernel(name: str) -> KernelPair:
    try:
        return _PAIRS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_PAIRS)}"
        ) from None


def get_backend() -> str:
    """The ambient backend name."""
    return _backend


@contextmanager
def use_backend(backend: str) -> Iterator[str]:
    """Run the enclosed block under ``backend``, then restore the
    previous one (also on error)."""
    global _backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    previous, _backend = _backend, backend
    try:
        yield backend
    finally:
        _backend = previous


def dispatch(name: str) -> Callable:
    """Resolve ``name`` to the ambient backend's implementation and
    count it."""
    pair = get_kernel(name)
    key = (name, _backend)
    _DISPATCHES[key] = _DISPATCHES.get(key, 0) + 1
    return pair.implementation(_backend)


def dispatch_counts() -> Dict[str, Dict[str, int]]:
    """``{kernel: {backend: dispatches}}`` with sorted keys."""
    out: Dict[str, Dict[str, int]] = {}
    for (name, backend), count in sorted(_DISPATCHES.items()):
        out.setdefault(name, {})[backend] = count
    return out


def reset_dispatch_counts() -> None:
    _DISPATCHES.clear()
