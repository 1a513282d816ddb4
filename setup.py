"""Build script: everything lives in pyproject.toml except the optional
compiled ``accel`` event core.

The extension is best-effort by design: ``optional=True`` means a missing
or broken C toolchain degrades the install to pure Python (the ``accel``
backend then falls back to the ``reference`` kernel with a logged
warning — see repro/sim/backends/__init__.py).  Set
``REPRO_BUILD_ACCEL=0`` to skip the compile entirely.

Developer in-place build (drops the .so next to the sources so the
``PYTHONPATH=src`` workflow picks it up)::

    python setup.py build_ext --inplace
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("REPRO_BUILD_ACCEL", "1") != "0":
    ext_modules.append(
        Extension(
            "repro.sim.backends._accel_core",
            sources=["src/repro/sim/backends/_accel_core.c"],
            optional=True,
            extra_compile_args=["-O2"],
        )
    )

setup(ext_modules=ext_modules)
