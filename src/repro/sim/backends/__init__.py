"""Kernel-backend registry: pluggable event-core implementations.

The simulator's inner loop — the two-tier event queue, same-cycle
dispatch ring, delivery-phase ordering, and resume trampoline — is a
stable contract (see :mod:`repro.sim.kernel`) with golden parity
coverage at 32/512 CPUs.  This package lets that contract be served by
interchangeable *backends*:

``reference``
    Today's pure-Python :class:`repro.sim.kernel.Simulator`, unchanged.
    The goldens are captured against it and it is the baseline every
    ``perfbench`` accel/reference ratio is taken against.

``accel``
    An optimized core.  When the compiled extension
    (``repro.sim.backends._accel_core``, a C event core built by
    ``pip install -e .[accel]`` or ``python setup.py build_ext
    --inplace``) is importable it is used; otherwise the registry falls
    back — with a logged warning — to the ``reference``
    :class:`~repro.sim.kernel.Simulator` itself.  Either way the results
    are byte-identical to ``reference``.

Selection order (first match wins):

1. an explicit backend name (``SystemConfig.kernel_backend``,
   ``RunSpec(backend=...)``, CLI ``--backend``);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default, ``reference``.

Because every backend must reproduce the reference results
byte-identically, the backend name is **never** part of a result cache
key (see :meth:`repro.runner.spec.RunSpec.canonical`).

Environment knobs
-----------------
``REPRO_KERNEL_BACKEND``
    Default backend name when none is given explicitly.
``REPRO_ACCEL_REQUIRE_COMPILED=1``
    Refuse to fall back: raise if the compiled core cannot be imported.
    Used by the ``kernel-backend`` CI job so a broken build fails loudly
    instead of silently running the fallback.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Dict, Optional

from repro.sim.kernel import SimulationError, Simulator

__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "accel_implementation",
    "available_backends",
    "create_simulator",
    "register_backend",
    "resolve_backend_name",
]

logger = logging.getLogger(__name__)

DEFAULT_BACKEND = "reference"

#: environment variable consulted when no explicit backend is given
ENV_BACKEND = "REPRO_KERNEL_BACKEND"
ENV_REQUIRE_COMPILED = "REPRO_ACCEL_REQUIRE_COMPILED"


class BackendError(SimulationError):
    """Raised for unknown backend names or unusable backend builds."""


_REGISTRY: Dict[str, Callable[..., Simulator]] = {}


def register_backend(name: str, factory: Callable[..., Simulator]) -> None:
    """Register ``factory() -> Simulator`` under ``name``."""
    _REGISTRY[name] = factory


def available_backends() -> tuple:
    """Registered backend names, sorted (``reference`` always present)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend name: explicit arg > $REPRO_KERNEL_BACKEND > default.

    Raises :class:`BackendError` for names that are not registered, so a
    typo'd ``--backend`` or environment variable fails loudly instead of
    silently simulating on the wrong core.
    """
    if name is None:
        name = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise BackendError(
            f"unknown kernel backend {name!r}; "
            f"available: {', '.join(available_backends())}")
    return name


def create_simulator(name: Optional[str] = None) -> Simulator:
    """Instantiate the selected backend's simulator.

    ``name=None`` applies the selection order documented in the module
    docstring.  Every backend returns an object satisfying the full
    kernel contract of :class:`repro.sim.kernel.Simulator`.
    """
    return _REGISTRY[resolve_backend_name(name)]()


# ----------------------------------------------------------------------
# accel: compiled core with logged fallback to reference
# ----------------------------------------------------------------------

#: ``None`` until first use, then "compiled" or "python"
_ACCEL_IMPL: Optional[str] = None
_ACCEL_FACTORY: Optional[Callable[..., Simulator]] = None


def _load_accel() -> Callable[..., Simulator]:
    """Import the compiled core, or fall back to reference (once, logged)."""
    global _ACCEL_IMPL, _ACCEL_FACTORY
    if _ACCEL_FACTORY is not None:
        return _ACCEL_FACTORY
    try:
        from repro.sim.backends import _accel_core
        _ACCEL_IMPL = "compiled"
        _ACCEL_FACTORY = _accel_core.AccelSimulator
        return _ACCEL_FACTORY
    except ImportError as err:
        compiled_error = err
    if os.environ.get(ENV_REQUIRE_COMPILED) not in (None, "", "0"):
        raise BackendError(
            "compiled accel core required by "
            f"${ENV_REQUIRE_COMPILED} but unavailable: {compiled_error}")
    logger.warning(
        "accel backend: compiled core unavailable (%s); "
        "falling back to the reference kernel "
        "(build it with: pip install -e .[accel] or "
        "python setup.py build_ext --inplace)", compiled_error)
    _ACCEL_IMPL = "python"
    _ACCEL_FACTORY = Simulator
    return _ACCEL_FACTORY


def _accel_factory() -> Simulator:
    return _load_accel()()


def accel_implementation() -> str:
    """Which ``accel`` implementation is active: "compiled" or "python".

    "python" means the fallback to the ``reference`` kernel.  Forces
    resolution (importing the compiled core if present).
    """
    _load_accel()
    assert _ACCEL_IMPL is not None
    return _ACCEL_IMPL


register_backend("reference", Simulator)
register_backend("accel", _accel_factory)
