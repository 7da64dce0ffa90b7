"""Nothing in the engine is dead: every function, method and class
defined under ``src/evodb`` is referenced by name in ``src/evodb`` or
``perfbench/``, outside its own definition. Only the names below, which
tests call, are exempt."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "evodb"
READERS = (SRC, ROOT / "perfbench")

# qualified name -> why it stays with only tests to call it
ALLOWED = {
    "check_chain": "test oracle: chain invariants",
    "walk_committed": "test oracle: a record's committed history",
    "dump_trace": "test oracle: the inverse of parse_trace",
    "SerialOracleState.latest": "test oracle: the serial replay's state",
    "ThroughputSeries.reconciles": "outcome check the tests call",
    "ThroughputSeries.ddl_window_commits": "outcome check the tests call",
    "index_matches_full_scan": "outcome check the tests call",
    "join_back_matches": "outcome check the tests call",
    "preaggregate_matches": "outcome check the tests call",
    "Engine.oldest_active_begin": "the watermark version reclamation needs",
}


def _definitions(node: ast.AST, prefix: str = ""):
    """Yield ``(qualified name, node)`` for every def and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")


def _names(node: ast.AST):
    """Every name ``node`` mentions: identifiers, attributes and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def test_every_definition_has_a_reader():
    mentions = Counter(name for root in READERS
                       for path in root.rglob("*.py")
                       for name in _names(ast.parse(path.read_text())))
    dead, defined = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for qual, node in _definitions(ast.parse(path.read_text())):
            defined.add(qual)
            name = node.name
            if qual in ALLOWED or (name.startswith("__")
                                   and name.endswith("__")):
                continue
            if mentions[name] == Counter(_names(node))[name]:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {qual}")
    assert not dead, "defined but never referenced: " + ", ".join(dead)
    assert set(ALLOWED) <= defined, set(ALLOWED) - defined
