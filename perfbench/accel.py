"""Out-of-tree build and load of the compiled ``accel`` core.

The extension is compiled from ``src/repro/sim/backends/_accel_core.c``
into ``.bench_build/perfbench/accel-<key>/``, where ``<key>`` hashes the
C source together with the interpreter, so a changed source or another
Python rebuilds and nothing is ever written under ``src/``.  The worker
loads the built module under its package name before the simulator
first asks for it, so ``accel_implementation()`` resolves to it.

Run as a script to build: ``python3 perfbench/accel.py <checkout root>``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

MODULE = "repro.sim.backends._accel_core"
SOURCE = Path("src/repro/sim/backends/_accel_core.c")


def source_hash(root: Path) -> str:
    return hashlib.sha256((root / SOURCE).read_bytes()).hexdigest()


def build_dir(root: Path) -> Path:
    key = hashlib.sha256("|".join((
        source_hash(root), sys.version, sys.executable,
        sysconfig.get_config_var("EXT_SUFFIX") or "",
    )).encode()).hexdigest()[:16]
    return root / ".bench_build" / "perfbench" / f"accel-{key}"


def library(root: Path) -> Path:
    return build_dir(root) / ("_accel_core"
                              + sysconfig.get_config_var("EXT_SUFFIX"))


def ensure_built(root: Path) -> Path:
    """Build the extension unless this source/interpreter already has it.

    Compiles in a child interpreter (setuptools prints to stdout) into a
    temporary directory that is renamed into place, so an interrupted
    build never leaves a half-written library behind.
    """
    lib = library(root)
    if lib.exists():
        return lib
    out = build_dir(root)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="accel-build-", dir=out.parent))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             str(root.resolve()), str(tmp)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0 or not (tmp / lib.name).exists():
            raise RuntimeError("accel build failed:\n" + proc.stdout[-2000:])
        tmp.rename(out)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
    return lib


def load(lib: Path):
    """Import the built library as ``repro.sim.backends._accel_core``."""
    import repro.sim.backends as backends

    spec = importlib.util.spec_from_file_location(MODULE, lib)
    module = importlib.util.module_from_spec(spec)
    sys.modules[MODULE] = module
    spec.loader.exec_module(module)
    backends._accel_core = module
    return module


def _compile(root: Path, dest: Path) -> None:
    """Build with the same flags as the repository's setup.py."""
    from setuptools import Distribution, Extension

    ext = Extension(MODULE, sources=[str(root / SOURCE)],
                    extra_compile_args=["-O2"])
    dist = Distribution({"name": "perfbench-accel", "ext_modules": [ext]})
    cmd = dist.get_command_obj("build_ext")
    cmd.build_lib = str(dest / "lib")
    cmd.build_temp = str(dest / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    built = next((dest / "lib").rglob("_accel_core*"))
    built.rename(dest / library(root).name)
    shutil.rmtree(dest / "lib")
    shutil.rmtree(dest / "tmp")


if __name__ == "__main__":
    _compile(Path(sys.argv[1]), Path(sys.argv[2]))
