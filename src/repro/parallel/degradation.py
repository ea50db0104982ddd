"""Degradation state machine for the parallel serving stack.

:class:`DegradationLadder` records where requests are served and why, as
an explicit state machine:

* **SHARDED** — requests are partitioned across the executor's threads
  (or, for the ingest service, the writer is healthy).
* **DEGRADED** — the owner failed for a non-terminal
  :class:`DegradationReason` (the ingest service's writer exhausted its
  restart budget).  There is no way back to SHARDED.
* **HALTED** — serial forever, for a *terminal* reason (explicit close,
  single-worker configuration).

Faults absorbed without leaving SHARDED — a thread shard that raised and
was recomputed serially, a writer thread that was restarted — are
recorded as incidents.  Every transition and incident is recorded
(bounded history), surfaced through :meth:`DegradationLadder.report`,
and announced with at most one warning per reason per ``warn_interval``
— repeated flapping on the same reason never floods the log, and each
warning carries an operator hint.  The ladder never touches results:
degradation changes *where* a value is computed, never what it is.
"""

from __future__ import annotations

import enum
import time
import warnings
from typing import Callable, Dict, List, Optional

from repro.obs import names as metric_names
from repro.obs.registry import metrics_registry

__all__ = [
    "DegradationLadder",
    "DegradationReason",
    "DegradationState",
    "TERMINAL_REASONS",
]

# Bound once at import; every ladder in the process feeds the same two
# series.  The counters are bumped at the exact sites that mutate the
# ladder's own history/incident bookkeeping, so health_report() and the
# registry can never drift apart.
_TRANSITIONS = metrics_registry().counter(
    metric_names.DEGRADATION_TRANSITIONS_TOTAL
)
_INCIDENTS = metrics_registry().counter(metric_names.DEGRADATION_INCIDENTS_TOTAL)


class DegradationReason(enum.Enum):
    """Why the stack is (or once was) serving serially."""

    #: Configured with ``workers <= 1`` — serial by construction.
    SINGLE_WORKER = "single worker configuration"
    #: The ingest service's writer thread died.
    WRITER_DEATH = "ingest writer thread died"
    #: A thread shard raised or timed out; it was recomputed serially.
    THREAD_ERROR = "thread worker raised"
    #: Explicitly closed by the owner.
    CLOSED = "closed"


#: Terminal reasons: once entered, the ladder is HALTED for good.
TERMINAL_REASONS = frozenset(
    {DegradationReason.SINGLE_WORKER, DegradationReason.CLOSED}
)

#: Reasons that describe configuration, not failure — no warning emitted.
_SILENT_REASONS = frozenset(
    {DegradationReason.SINGLE_WORKER, DegradationReason.CLOSED}
)

#: Operator-facing hint appended to each reason's (single) warning.
RECOVERY_HINTS: Dict[DegradationReason, str] = {
    DegradationReason.WRITER_DEATH: (
        "the writer is restarted and unapplied batches are replayed from "
        "the journal"
    ),
    DegradationReason.THREAD_ERROR: (
        "the failing shard was recomputed serially; thread dispatch "
        "continues for later requests"
    ),
}


class DegradationState(enum.Enum):
    """Where requests are currently served."""

    SHARDED = "sharded"
    DEGRADED = "degraded"
    HALTED = "halted"


class DegradationLadder:
    """Tracks degradation state, transitions and warnings.

    One instance backs each :class:`~repro.parallel.executor.
    ShardedOracleExecutor` and each :class:`~repro.parallel.service.
    IngestService` (whose writer is its only subject).  The ladder is
    bookkeeping only — owners decide *when* to degrade; the ladder
    records it and rate-limits the operator warnings.

    Args:
        warn_interval: minimum seconds between two warnings for the
            *same* reason.  The first transition to each reason always
            warns; flapping within the interval is silent (but still
            recorded in the transition history and incident counters).
        clock: monotonic clock injection point (tests).
        history_limit: bound on the retained transition history.
    """

    def __init__(
        self,
        *,
        warn_interval: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        history_limit: int = 32,
    ) -> None:
        self._clock = clock
        self._warn_interval = warn_interval
        self._history_limit = max(1, history_limit)
        self.state = DegradationState.SHARDED
        self.reason: Optional[DegradationReason] = None
        self.detail: str = ""
        self.transitions: List[Dict[str, object]] = []
        self.incidents: Dict[str, int] = {}
        self._warned_at: Dict[DegradationReason, float] = {}

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Whether requests may be dispatched to the pool right now."""
        return self.state is DegradationState.SHARDED

    @property
    def halted(self) -> bool:
        """Whether the ladder stopped for a terminal reason."""
        return self.state is DegradationState.HALTED

    # ------------------------------------------------------------------
    def note_incident(self, reason: DegradationReason, detail: str = "") -> None:
        """Record a fault that did *not* change the serving state.

        Used for faults absorbed without leaving SHARDED — e.g. a thread
        shard that raised and was recomputed serially, or a writer thread
        restarted within its budget.  Counted
        (and warned, rate-limited) but the state machine does not move.
        """
        self.incidents[reason.name] = self.incidents.get(reason.name, 0) + 1
        _INCIDENTS.inc()
        self._record("incident", reason, detail)
        self._warn(reason, detail)

    def degrade(self, reason: DegradationReason, detail: str = "") -> None:
        """Enter DEGRADED (or HALTED for terminal reasons).

        Degrading an already HALTED ladder is a no-op — terminal states
        are sticky.
        """
        if self.halted:
            return
        self.incidents[reason.name] = self.incidents.get(reason.name, 0) + 1
        _INCIDENTS.inc()
        terminal = reason in TERMINAL_REASONS
        self.state = (
            DegradationState.HALTED if terminal else DegradationState.DEGRADED
        )
        self.reason = reason
        self.detail = detail
        self._record(self.state.value, reason, detail)
        self._warn(reason, detail)

    # ------------------------------------------------------------------
    def _record(self, event: str, reason: DegradationReason, detail: str) -> None:
        # Transition-record schema (stable; consumers rely on these keys,
        # see the health_report docs in ARCHITECTURE.md):
        #   event  -- "incident" | "degraded" | "halted"
        #   reason -- DegradationReason.name
        #   detail -- free-text context
        #   at     -- the ladder's (injectable, monotonic) clock reading
        self.transitions.append(
            {
                "event": event,
                "reason": reason.name,
                "detail": detail,
                "at": self._clock(),
            }
        )
        _TRANSITIONS.inc()
        if len(self.transitions) > self._history_limit:
            del self.transitions[: -self._history_limit]

    def _warn(self, reason: DegradationReason, detail: str) -> None:
        """One warning per reason per ``warn_interval`` — never a flood."""
        if reason in _SILENT_REASONS:
            return
        now = self._clock()
        last = self._warned_at.get(reason)
        if last is not None and now - last < self._warn_interval:
            return
        self._warned_at[reason] = now
        hint = RECOVERY_HINTS.get(reason, "serving serially")
        suffix = f" ({detail})" if detail else ""
        warnings.warn(
            f"parallel stack degraded [{reason.name}]: "
            f"{reason.value}{suffix}; {hint}",
            RuntimeWarning,
            stacklevel=4,
        )

    def report(self) -> Dict[str, object]:
        """Inspectable snapshot (the executor's ``health_report`` core).

        ``transitions`` is the bounded history as a list of dicts with the
        stable keys ``event`` / ``reason`` / ``detail`` / ``at`` (the
        ladder clock's reading when the record was made — monotonic
        seconds by default).  Each dict is copied, so callers may keep or
        mutate the snapshot freely.
        """
        return {
            "state": self.state.value,
            "reason": self.reason.name if self.reason else None,
            "detail": self.detail,
            "incidents": dict(sorted(self.incidents.items())),
            "transitions": [dict(record) for record in self.transitions],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        reason = f", reason={self.reason.name}" if self.reason else ""
        return f"DegradationLadder(state={self.state.value}{reason})"
