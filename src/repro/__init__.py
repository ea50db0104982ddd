"""repro: tracking influential nodes in time-decaying interaction networks.

A from-scratch reproduction of Zhao, Shang, Wang, Lui and Zhang,
"Tracking Influential Nodes in Time-Decaying Dynamic Interaction Networks"
(ICDE 2019 / arXiv:1810.07917).

The supported entry surface is the facade (:mod:`repro.api`, re-exported
here): :func:`open_tracker`, the :class:`Semantics` enum, and the
:mod:`repro.errors` hierarchy.  Quickstart::

    from repro import GeometricLifetime, Semantics, open_tracker

    tracker = open_tracker(
        "hist-approx", k=10, epsilon=0.2,
        lifetime_policy=GeometricLifetime(p=0.01, max_lifetime=1000, seed=42),
    )
    for t, batch in my_interaction_stream:          # batches of (u, v) pairs
        solution = tracker.step(t, batch)
    print(solution.nodes, solution.value)

    trending = open_tracker("trend", k=5)           # time-decay semantics

See ARCHITECTURE.md for the layer stack and the public API vs internal
layers table.
"""

from repro.analysis import SolutionHistory
from repro.api import (
    Semantics,
    disable_kernel_metrics,
    enable_kernel_metrics,
    metric_names,
    metrics_registry,
    open_tracker,
)
from repro.datasets import (
    lbsn_stream,
    make_stream,
    one_mode_projection,
    qa_stream,
    retweet_stream,
)
from repro.core import (
    BasicReduction,
    DecayedCentralityTracker,
    HistApprox,
    InfluenceTracker,
    SieveADN,
    SieveStreaming,
    Solution,
    TrendTracker,
)
from repro.errors import (
    ConfigError,
    ConfigTypeError,
    DegradedExecutionError,
    PersistenceError,
    ReproError,
    SemanticsError,
    UnsupportedCheckpointError,
)
from repro.influence import InfluenceOracle, top_spreaders
from repro.persistence import load_checkpoint, save_checkpoint
from repro.tdn import (
    ConstantLifetime,
    GeometricLifetime,
    InfiniteLifetime,
    Interaction,
    MemoryStream,
    PowerLawLifetime,
    TDNGraph,
    UniformLifetime,
)

__version__ = "1.1.0"

__all__ = [
    "open_tracker",
    "Semantics",
    "InfluenceTracker",
    "Solution",
    "SieveADN",
    "BasicReduction",
    "HistApprox",
    "SieveStreaming",
    "DecayedCentralityTracker",
    "TrendTracker",
    "InfluenceOracle",
    "top_spreaders",
    "SolutionHistory",
    "save_checkpoint",
    "load_checkpoint",
    "ReproError",
    "ConfigError",
    "ConfigTypeError",
    "SemanticsError",
    "DegradedExecutionError",
    "PersistenceError",
    "UnsupportedCheckpointError",
    "TDNGraph",
    "Interaction",
    "MemoryStream",
    "ConstantLifetime",
    "InfiniteLifetime",
    "GeometricLifetime",
    "UniformLifetime",
    "PowerLawLifetime",
    "lbsn_stream",
    "make_stream",
    "one_mode_projection",
    "qa_stream",
    "retweet_stream",
    "metrics_registry",
    "metric_names",
    "enable_kernel_metrics",
    "disable_kernel_metrics",
    "__version__",
]

