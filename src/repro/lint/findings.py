"""Finding records and the error-code registry.

Every pass emits :class:`Finding` instances.  The code table below is the
single source of truth — ARCHITECTURE.md's "Error codes" table mirrors it
(a test pins the two equal), the fixture test suite asserts every code
both fires and suppresses, and ``python -m repro.lint --list-codes``
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: code -> one-line description shown by ``--list-codes`` and the docs.
CODES = {
    # -- RPL1xx: layer contracts ---------------------------------------
    "RPL101": (
        "module-level import violates the layer DAG "
        "(upward or cross-layer dependency)"
    ),
    "RPL102": (
        "function-scoped import violates the layer DAG (a deliberate "
        "injection seam must carry a pragma explaining itself)"
    ),
    "RPL103": (
        "traversal-loop shape (loop indexing an indptr/indices/expiries "
        "triple) outside repro/kernels/traversal.py"
    ),
    "RPL104": "import of a repro module not assigned to any declared layer",
    "RPL105": (
        "import of an internal repro layer from facade-only code "
        "(examples/, tests/integration/); import repro, repro.api or "
        "repro.errors instead"
    ),
    "RPL106": (
        "native kernel contract breach: a function in "
        "repro/kernels/native.py without @njit, a Python-object "
        "operation (dict/set/str/f-string/closure) inside it, or an "
        "import of repro.kernels.native outside the "
        "repro/kernels/backend.py dispatch layer"
    ),
    # -- RPL3xx: concurrency hazards -----------------------------------
    "RPL301": "blocking call inside an async def body",
    "RPL304": (
        "broad except swallows the exception in repro/parallel/ "
        "(handler must re-raise, record the fault via note_incident(), "
        "use the bound exception, or carry a pragma — silent swallows "
        "hide shard and ingest faults)"
    ),
    # -- RPL4xx: determinism -------------------------------------------
    "RPL401": (
        "iteration over a set/dict feeding order-sensitive accumulation "
        "without an enclosing sorted(...)"
    ),
    "RPL402": "direct random / numpy.random use outside repro/utils/rng.py",
    # -- RPL5xx: observability -------------------------------------------
    "RPL501": (
        "non-constant metric name at a registry call, runtime .register(), "
        "or a direct instrument call inside a traversal-kernel loop "
        "(kernel loops feed the sampled SweepSampler.record hook only)"
    ),
    # -- internal -------------------------------------------------------
    "RPL001": "file does not parse",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One coded finding at ``path:line``."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline file.

        Keyed on (code, path, message) so ordinary line churn above a
        grandfathered finding does not invalidate its baseline entry,
        while a second identical finding in the same file is still a new
        finding.
        """
        return f"{self.code}|{self.path}|{self.message}"
