"""The engine waits on events and conditions, not on sleeps: the only
``time.sleep`` in the engine modules is the DDL pacer's. A commit
finalizes in its own thread: the transaction module starts no thread
that could poll."""

import ast
from pathlib import Path

import evodb

SRC = Path(evodb.__file__).parent
MODULES = ("txn", "ddl", "redo_log", "catalog", "core_store")


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), f"{module}.py")


def _calls(node: ast.AST, scope: str):
    """Yield ``(call, enclosing class or function name)`` under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        # a method's scope is its class; a module-level function's its name
        if isinstance(child, ast.ClassDef) or (
                isinstance(child, ast.FunctionDef) and not scope):
            inner = child.name
        if isinstance(child, ast.Call):
            yield child, inner
        yield from _calls(child, inner)


def _is_sleep(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr == "sleep" and isinstance(f.value, ast.Name) \
            and f.value.id == "time"
    return isinstance(f, ast.Name) and f.id == "sleep"


def test_only_the_pacer_sleeps():
    found = []
    for module in MODULES:
        for call, scope in _calls(_tree(module), ""):
            if _is_sleep(call):
                found.append((module, scope, call.lineno))
    assert [(m, s) for m, s, _ in found] == [("ddl", "_Pacer")], found


def test_txn_starts_no_thread():
    threads = [call.lineno for call, _scope in _calls(_tree("txn"), "")
               if getattr(call.func, "attr", getattr(call.func, "id", None))
               == "Thread"]
    assert not threads, f"threading.Thread built in txn.py at lines {threads}"
