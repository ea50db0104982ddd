"""The declared architecture contract the passes check against.

This module is *data*: the layer DAG of ``src/repro``, the ownership
files for traversal loops and randomness, and the scopes
the determinism pass covers.  ARCHITECTURE.md documents the same DAG in
prose; changing the architecture means changing both, deliberately, in
one review.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: The layer DAG, as "module prefix -> rank".  A module may import only
#: modules of *strictly lower* rank (plus its own package).  Equal-rank
#: prefixes are independent siblings — importing across them is exactly
#: the cross-layer drift the pass exists to stop.  Longest prefix wins,
#: so the bare ``repro`` entry only catches the root package itself.
LAYERS: Tuple[Tuple[str, int], ...] = (
    ("repro.errors", 0),
    ("repro.utils", 0),
    ("repro.obs", 0),
    ("repro.kernels", 1),
    ("repro.tdn", 2),
    ("repro.influence", 3),
    ("repro.submodular", 3),
    ("repro.core", 4),
    ("repro.baselines", 5),
    ("repro.datasets", 5),
    ("repro.analysis", 5),
    ("repro.parallel", 6),
    ("repro.lint", 6),
    ("repro.persistence", 7),
    ("repro.experiments", 7),
    ("repro.track", 8),
    ("repro.api", 9),
    ("repro", 10),
)

#: Modules user-facing code (examples, integration tests) may import —
#: the compatibility surface.  Everything else is an internal layer and
#: RPL105 territory.  Exact module names, not prefixes: ``repro.api``
#: does not bless ``repro.api.something_private``.
FACADE_MODULES = frozenset({"repro", "repro.api", "repro.errors"})

#: Path fragments whose files must import through the facade only.
FACADE_ONLY_SCOPE = ("examples/", "tests/integration/")

#: The one file allowed to contain array-level traversal loops.
TRAVERSAL_OWNER = "repro/kernels/traversal.py"

#: The jitted twin of the traversal owner: the only *other* file allowed
#: to contain traversal-loop shapes, and the subject of RPL106 (every
#: function ``@njit``-decorated, no Python-object operations).
NATIVE_KERNEL_OWNER = "repro/kernels/native.py"

#: The one file allowed to import :mod:`repro.kernels.native` — the
#: dispatch layer that owns buffer allocation, probing and fallback.
NATIVE_DISPATCH_OWNER = "repro/kernels/backend.py"

#: Every file allowed to hold traversal loops (reference + jitted twin).
TRAVERSAL_OWNERS = (TRAVERSAL_OWNER, NATIVE_KERNEL_OWNER)

#: Names whose subscripted use inside one loop marks a traversal loop.
TRAVERSAL_TRIPLE = ("indptr", "indices", "expiries")

#: The one file allowed to touch ``random`` / ``numpy.random`` directly.
RNG_OWNER = "repro/utils/rng.py"

#: Package prefixes (as path fragments) the determinism pass covers:
#: everything on the bit-identical-results path.
DETERMINISM_SCOPE = (
    "repro/kernels/",
    "repro/influence/",
    "repro/parallel/",
    "repro/core/",
    "repro/baselines/",
)

#: Repo functions known to return sets — iteration over their result is
#: set iteration even though the AST only shows a call.
SET_RETURNING_CALLS = frozenset(
    {
        "reachable_set",
        "ancestors",
        "reachable_ids",
        "ancestor_ids",
        "touched_cone_ids",
        "reachable_ids_many",
        "node_set",
        "reach_scalar",
        "reach_vector",
    }
)

#: Type-annotation names treated as set-like for parameters/variables.
SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def module_of(path: str) -> Optional[str]:
    """Dotted module name of a source path, or ``None`` outside ``repro``.

    Works from the *last* ``repro`` path component so fixture trees laid
    out as ``<tmp>/src/repro/...`` resolve exactly like the real tree.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[start:]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def _claims(prefix: str, module: str) -> bool:
    """Whether a declared prefix claims ``module``.

    The bare ``repro`` entry matches only the root package itself — were
    it a prefix match, every unplaced ``repro.*`` module would silently
    inherit its rank and RPL104 could never fire.
    """
    if module == prefix:
        return True
    return prefix != "repro" and module.startswith(prefix + ".")


def layer_rank(module: str) -> Optional[int]:
    """Rank of ``module`` under the declared DAG (longest prefix wins)."""
    best: Optional[int] = None
    best_len = -1
    for prefix, rank in LAYERS:
        if _claims(prefix, module) and len(prefix) > best_len:
            best, best_len = rank, len(prefix)
    return best


def layer_prefix(module: str) -> Optional[str]:
    """The declared prefix that claims ``module`` (longest match)."""
    best: Optional[str] = None
    for prefix, _ in LAYERS:
        if _claims(prefix, module):
            if best is None or len(prefix) > len(best):
                best = prefix
    return best


def is_under(path: str, fragment: str) -> bool:
    """Whether ``path`` (any OS separators) contains ``fragment``."""
    return fragment in path.replace("\\", "/")
