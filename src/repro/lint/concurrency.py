"""RPL3xx — concurrency hazards.

* **RPL301** — blocking calls inside ``async def`` bodies.  The ingest
  service promises the event loop never stalls on writer progress, so
  ``time.sleep``, synchronous file IO (bare ``open``), ``subprocess``
  calls, ``.acquire()`` without a timeout, and ``.shutdown()`` /
  ``.join()`` without ``wait=False``/timeout are all flagged when they
  appear lexically inside a coroutine (nested ``def``s are excluded —
  they run wherever they are called from).
* **RPL304** — broad exception swallowing inside ``repro/parallel/``.
  A bare ``except:`` or ``except Exception/BaseException:`` whose body
  neither re-raises, records the fault through a ``note_incident``-named
  call, nor *uses* the bound exception value hides exactly the shard and
  ingest faults the executor's health report and the service's recorded
  failure exist to surface.  Narrow exception types are never flagged;
  deliberate best-effort teardown swallows carry a pragma.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.config import is_under
from repro.lint.findings import Finding

_BLOCKING_MODULES = {"subprocess"}
_SLEEP_MODULES = {"time"}


def check(tree: ast.Module, path: str) -> List[Finding]:
    findings = _check_async_blocking(tree, path)
    findings.extend(_check_swallowed_exceptions(tree, path))
    return findings


# ----------------------------------------------------------------------
# RPL301: blocking calls in coroutines
# ----------------------------------------------------------------------
def _own_body(func: ast.AST):
    """Walk a function body without descending into nested defs."""
    stack = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "synchronous file IO (open)"
        if func.id == "sleep":
            return "time.sleep"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    base_name = base.id if isinstance(base, ast.Name) else None
    if func.attr == "sleep" and base_name in _SLEEP_MODULES:
        return "time.sleep"
    if base_name in _BLOCKING_MODULES:
        return f"subprocess.{func.attr}"
    if func.attr == "acquire":
        if _keyword(call, "timeout") is None and not call.args:
            return "lock acquire without timeout"
        return None
    if func.attr in ("shutdown", "join"):
        wait = _keyword(call, "wait")
        if isinstance(wait, ast.Constant) and wait.value is False:
            return None
        if func.attr == "join" and (call.args or _keyword(call, "timeout")):
            return None
        return f"blocking .{func.attr}()"
    return None


def _check_async_blocking(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        body = list(_own_body(node))
        # An awaited call is a coroutine (asyncio.Queue.join,
        # asyncio.Lock.acquire, ...) — by definition not a synchronous
        # block, whatever its method name looks like.
        awaited = {id(sub.value) for sub in body if isinstance(sub, ast.Await)}
        for sub in body:
            if not isinstance(sub, ast.Call) or id(sub) in awaited:
                continue
            reason = _blocking_reason(sub)
            if reason is not None:
                findings.append(
                    Finding(
                        path,
                        sub.lineno,
                        "RPL301",
                        f"{reason} inside async def {node.name}: "
                        "blocks the event loop; use "
                        "loop.run_in_executor or an async equivalent",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# RPL304: swallowed broad excepts in the parallel stack
# ----------------------------------------------------------------------
#: Path fragment the rule covers — the parallel stack, where a silent
#: swallow hides exactly the faults the health report exists to surface.
_SWALLOW_SCOPE = "repro/parallel/"
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
#: Call-name substring that counts as recording the fault.
_RECORDING_CALL = "note_incident"


def _exception_names(expr: Optional[ast.expr]) -> List[Optional[str]]:
    """Flat exception-type names a handler catches (``None`` = bare)."""
    if expr is None:
        return [None]
    if isinstance(expr, ast.Tuple):
        names: List[Optional[str]] = []
        for element in expr.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, ast.Attribute):
        return [expr.attr]
    return ["<unknown>"]


def _broad_name(handler: ast.ExceptHandler) -> Optional[str]:
    """The broad clause a handler catches, rendered, or ``None`` if narrow."""
    for name in _exception_names(handler.type):
        if name is None:
            return "bare except:"
        if name in _BROAD_EXCEPTIONS:
            return f"except {name}:"
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _handler_recovers(handler: ast.ExceptHandler) -> bool:
    """Whether the handler's own body re-raises or records the fault.

    Counts: any ``raise``, any call whose name mentions
    ``note_incident``, or a read of the bound exception variable (``as
    exc`` that is then *used* — e.g. stashed on ``self._failure`` or
    logged — is surfacing, not swallowing).  Nested ``def``s are excluded: code in them runs later,
    from somewhere else, and does not handle *this* exception.
    """
    bound = handler.name
    stack: List[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Name)
            and bound is not None
            and node.id == bound
            and isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and _RECORDING_CALL in name:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _check_swallowed_exceptions(tree: ast.Module, path: str) -> List[Finding]:
    if not is_under(path, _SWALLOW_SCOPE):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_name(node)
        if broad is None or _handler_recovers(node):
            continue
        findings.append(
            Finding(
                path,
                node.lineno,
                "RPL304",
                f"{broad} swallows the exception in the parallel stack; "
                "re-raise, record it (note_incident()), use the bound "
                "exception, or carry a pragma explaining the deliberate "
                "swallow",
            )
        )
    return findings
