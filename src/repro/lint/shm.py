"""RPL2xx — shared-memory segment lifecycle.

The package shares no memory across processes today (the executor
shards over threads), so these rules fire on nothing in ``src``; they
hold any future shared-memory code to one ownership discipline: the
creator of a segment is its *sole unlink authority* and must actually
reach an ``unlink()`` through a teardown path; attachers only ever
``close()`` their mappings; and nothing outside one name-deriving module
(``repro/parallel/plane.py``) may spell a segment name, so owner and
attachers can never drift on the naming scheme.

* **RPL201** — a scope (class, or bare function) calling
  ``SharedMemory(create=True)`` must contain an ``.unlink()`` call, and a
  class owner must additionally expose a teardown path: a ``close``
  method, ``__del__``, or a ``weakref.finalize`` registration.
* **RPL202** — a scope attaching (``SharedMemory(name=...)`` without
  ``create=True``) must contain a paired ``.close()`` call.
* **RPL203** — string literals that look like segment-name fragments
  (``-hdr``, ``-ip``/``-ix``/``-ex``/``-lg`` data suffixes, or ``-g``/``-w``
  generation/weights stems feeding an f-string hole) outside
  ``repro/parallel/plane.py``.

Scope granularity is the enclosing class when there is one (create in
``__init__``, unlink in ``close`` is the canonical owner shape), else
the enclosing function (probe helpers that create, measure and unlink
inline).
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Tuple

from repro.lint.config import SEGMENT_NAME_OWNER, is_under
from repro.lint.findings import Finding

_SEGMENT_FRAGMENT = re.compile(r"-(hdr|ip|ix|ex|lg)($|[^A-Za-z0-9])")
_SEGMENT_STEM = re.compile(r"-[gw]$")


def check(tree: ast.Module, path: str) -> List[Finding]:
    findings = _check_lifecycle(tree, path)
    if not is_under(path, SEGMENT_NAME_OWNER):
        findings.extend(_check_name_literals(tree, path))
    return findings


# ----------------------------------------------------------------------
# Create/attach lifecycle
# ----------------------------------------------------------------------
def _is_shared_memory_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "SharedMemory"
    if isinstance(func, ast.Attribute):
        return func.attr == "SharedMemory"
    return False


def _is_create(node: ast.Call) -> bool:
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _scopes(tree: ast.Module):
    """Yield (scope node, owning class or None) for classes and bare
    functions; methods are folded into their class scope."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, None


def _calls_method(scope: ast.AST, method: str) -> bool:
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            return True
    return False


def _has_teardown_path(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ("close", "__del__", "detach"):
                return True
    # weakref.finalize(...) registration anywhere in the class counts.
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "finalize"
        ):
            return True
    return False


def _shm_calls(scope: ast.AST) -> List[Tuple[ast.Call, bool]]:
    """(call node, is_create) for every SharedMemory(...) in ``scope``."""
    calls = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and _is_shared_memory_call(node):
            calls.append((node, _is_create(node)))
    return calls


def _check_lifecycle(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for scope, cls in _scopes(tree):
        calls = _shm_calls(scope)
        if not calls:
            continue
        creates = [node for node, is_create in calls if is_create]
        attaches = [node for node, is_create in calls if not is_create]
        scope_name = scope.name
        if creates:
            has_unlink = _calls_method(scope, "unlink")
            has_teardown = _has_teardown_path(cls) if cls is not None else has_unlink
            if not (has_unlink and has_teardown):
                missing = "unlink()" if not has_unlink else (
                    "a teardown path (close()/__del__/weakref.finalize)"
                )
                for node in creates:
                    findings.append(
                        Finding(
                            path,
                            node.lineno,
                            "RPL201",
                            f"{scope_name} creates a SharedMemory segment "
                            f"but has no {missing}; the creator is the "
                            "sole unlink authority and must reach one",
                        )
                    )
        if attaches and not _calls_method(scope, "close"):
            for node in attaches:
                findings.append(
                    Finding(
                        path,
                        node.lineno,
                        "RPL202",
                        f"{scope_name} attaches a SharedMemory segment "
                        "but never close()s the mapping",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# Segment-name literals
# ----------------------------------------------------------------------
def _docstring_nodes(tree: ast.Module) -> set:
    ids = set()
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        body = scope.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            ids.add(id(body[0].value))
    return ids


def _fragment_hit(text: str, feeds_hole: bool) -> Optional[str]:
    match = _SEGMENT_FRAGMENT.search(text)
    if match is not None:
        return f"-{match.group(1)}"
    if feeds_hole:
        stem = _SEGMENT_STEM.search(text)
        if stem is not None:
            return stem.group(0)
    return None


def _check_name_literals(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    skip = _docstring_nodes(tree)

    def flag(node: ast.AST, fragment: str) -> None:
        findings.append(
            Finding(
                path,
                node.lineno,
                "RPL203",
                f"segment-name fragment {fragment!r} spelled outside "
                f"{SEGMENT_NAME_OWNER}; derive names through its helpers",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            values = node.values
            for position, value in enumerate(values):
                if not (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    continue
                feeds_hole = position + 1 < len(values) and isinstance(
                    values[position + 1], ast.FormattedValue
                )
                fragment = _fragment_hit(value.value, feeds_hole)
                if fragment is not None:
                    flag(node, fragment)
                    break
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            fragment = _fragment_hit(node.value, False)
            if fragment is not None:
                flag(node, fragment)
    return findings
