"""``repro.lint``: the repo-specific architecture & concurrency checker.

A custom static analyzer (``python -m repro.lint [paths]``) built on
:mod:`ast` that machine-checks the contracts ARCHITECTURE.md only *states*:
the layer DAG, single-kernel traversal ownership, concurrency hazards in
the parallel stack, the determinism rules behind the
bit-identical-to-serial guarantee, and metric naming.

Pass families, each emitting coded findings:

* ``RPL1xx`` — layer contracts (:mod:`repro.lint.layers`,
  :mod:`repro.lint.nativejit`)
* ``RPL3xx`` — concurrency hazards (:mod:`repro.lint.concurrency`)
* ``RPL4xx`` — determinism (:mod:`repro.lint.determinism`)
* ``RPL5xx`` — observability (:mod:`repro.lint.obs`)

Findings carry ``file:line``, are suppressible inline with
``# repro-lint: disable=RPLxxx`` (or ``disable-next=`` on the preceding
line) and can be grandfathered in a baseline file that is only ever
allowed to shrink (:mod:`repro.lint.baseline`).  See
``ARCHITECTURE.md`` ("Enforced invariants") for the full error-code
table and the declared layer DAG.
"""

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.findings import CODES, Finding
from repro.lint.runner import lint_paths, lint_source, main

__all__ = [
    "CODES",
    "Finding",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "write_baseline",
]
