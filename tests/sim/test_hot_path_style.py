"""Style guard for the hot model modules: no enum class-attribute loads
inside function bodies.

On CPython 3.11 a load such as ``MessageKind.GET_S`` goes through the
enum metaclass's ``__getattr__``, which keeps ``LOAD_ATTR`` from
specializing: ~160 ns per load against ~25 ns for a module global.
Each enum's module binds its members as module constants
(``repro.network.message.GET_S``, ``repro.cache.state.LINE_INVALID``,
``repro.coherence.directory.DIR_EXCLUSIVE``, ...), the modules below
import those, and this test keeps a later edit from bringing the slow
loads back into a function body.  Loads at module or class level run once and stay
allowed; so do argument defaults, which are evaluated at ``def`` time.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

#: enum classes whose members the hot path compares against
ENUMS = frozenset({"MessageKind", "LineState", "DirState"})

#: modules on the per-event path of every coherence transaction
HOT_MODULES = (
    "repro.activemsg.endpoint",
    "repro.amu.unit",
    "repro.cache.cache",
    "repro.coherence.client",
    "repro.coherence.protocol",
    "repro.core.machine",
    "repro.cpu.processor",
    "repro.mao.unit",
)


def enum_loads_in_functions(source: str) -> list[str]:
    """``line: Enum.MEMBER`` for each enum attribute load inside a
    function or lambda body of ``source``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.Lambda):
            bodies = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies = fn.body
        else:
            continue
        for stmt in bodies:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ENUMS):
                    found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    # a load in a nested function is seen from every enclosing one
    return sorted(set(found), key=lambda s: int(s.split(":")[0]))


def test_guard_sees_a_load_in_a_function_body():
    src = (
        "KIND = MessageKind.GET_S\n"
        "def f(msg, state=LineState.INVALID):\n"
        "    if msg.kind is MessageKind.GET_X:\n"
        "        return DirState.EXCLUSIVE\n"
        "    return (lambda: LineState.SHARED)\n"
    )
    assert enum_loads_in_functions(src) == [
        "3: MessageKind.GET_X", "4: DirState.EXCLUSIVE",
        "5: LineState.SHARED"]


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_module_binds_enum_members_once(module):
    path = Path(importlib.import_module(module).__file__)
    loads = enum_loads_in_functions(path.read_text())
    assert not loads, (
        f"{path.name} loads enum members inside function bodies; import "
        f"the module constants bound next to the enum instead: {loads}")
