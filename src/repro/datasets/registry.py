"""Dataset registry: the paper's six datasets as calibrated generators.

Table I of the paper summarizes the evaluation datasets.  The registry
pairs each with (a) the paper's reported node/interaction counts — used by
the Table I reproduction — and (b) a scaled-down synthetic generator
configuration whose stream exercises the same behaviour (the
substitution argument is in :mod:`repro.datasets`' docstring).  Scale is
controlled at call time through ``num_events``; generator shape
parameters live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.datasets.synthetic import lbsn_stream, qa_stream, retweet_stream
from repro.tdn.interaction import Interaction
from repro.tdn.stream import MemoryStream
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class DatasetSpec:
    """One paper dataset and its synthetic stand-in.

    Attributes:
        name: registry key (paper's dataset name, lower-cased).
        kind: generator family (``lbsn`` / ``retweet`` / ``qa``).
        paper_nodes: node count reported in Table I (a string, since the
            LBSN rows report "users/places" pairs).
        paper_interactions: interaction count reported in Table I.
        description: one-line provenance note.
        generator: callable ``(num_events, seed, events_per_step) ->
            List[Interaction]`` producing the synthetic stand-in stream.
    """

    name: str
    kind: str
    paper_nodes: str
    paper_interactions: int
    description: str
    generator: Callable[..., List[Interaction]]


def _brightkite(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    return lbsn_stream(
        num_places=1200,
        num_users=900,
        num_events=num_events,
        zipf_exponent=1.1,
        drift_interval=400,
        drift_fraction=0.2,
        events_per_step=events_per_step,
        seed=seed,
    )


def _gowalla(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    return lbsn_stream(
        num_places=1600,
        num_users=1100,
        num_events=num_events,
        zipf_exponent=1.05,
        drift_interval=300,
        drift_fraction=0.25,
        events_per_step=events_per_step,
        seed=seed,
    )


def _twitter_higgs(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    # Higgs: one giant announcement burst dominating the trace.
    return retweet_stream(
        num_users=2000,
        num_events=num_events,
        zipf_exponent=1.3,
        burst_interval=800,
        burst_length=250,
        burst_boost=40.0,
        cascade_probability=0.35,
        events_per_step=events_per_step,
        seed=seed,
    )


def _twitter_hk(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    # HK: smaller user base, many repeated interactions, rolling bursts.
    return retweet_stream(
        num_users=700,
        num_events=num_events,
        zipf_exponent=1.15,
        burst_interval=400,
        burst_length=150,
        burst_boost=15.0,
        cascade_probability=0.3,
        events_per_step=events_per_step,
        seed=seed,
    )


def _stackoverflow_c2q(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    return qa_stream(
        num_users=2500,
        num_events=num_events,
        zipf_exponent=1.0,
        epoch_length=250,
        hot_fraction=0.04,
        events_per_step=events_per_step,
        seed=seed,
    )


def _stackoverflow_c2a(
    num_events: int, seed: SeedLike, events_per_step: int
) -> List[Interaction]:
    return qa_stream(
        num_users=2500,
        num_events=num_events,
        zipf_exponent=1.0,
        epoch_length=180,
        hot_fraction=0.06,
        events_per_step=events_per_step,
        seed=seed,
    )


DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="brightkite",
            kind="lbsn",
            paper_nodes="51,406 users / 772,966 places",
            paper_interactions=4_747_281,
            description="LBSN check-ins; influence = place attracting users",
            generator=_brightkite,
        ),
        DatasetSpec(
            name="gowalla",
            kind="lbsn",
            paper_nodes="107,092 users / 1,280,969 places",
            paper_interactions=6_442_892,
            description="LBSN check-ins; influence = place attracting users",
            generator=_gowalla,
        ),
        DatasetSpec(
            name="twitter-higgs",
            kind="retweet",
            paper_nodes="304,198",
            paper_interactions=555_481,
            description="Retweets around the Higgs boson announcement",
            generator=_twitter_higgs,
        ),
        DatasetSpec(
            name="twitter-hk",
            kind="retweet",
            paper_nodes="49,808",
            paper_interactions=2_930_439,
            description="Retweets/mentions during the Umbrella Movement",
            generator=_twitter_hk,
        ),
        DatasetSpec(
            name="stackoverflow-c2q",
            kind="qa",
            paper_nodes="1,627,635",
            paper_interactions=13_664_641,
            description="Comments on questions",
            generator=_stackoverflow_c2q,
        ),
        DatasetSpec(
            name="stackoverflow-c2a",
            kind="qa",
            paper_nodes="1,639,761",
            paper_interactions=17_535_031,
            description="Comments on answers",
            generator=_stackoverflow_c2a,
        ),
    ]
}


def dataset_names() -> List[str]:
    """The six registry keys in the paper's Table I order."""
    return list(DATASETS)


def make_interactions(
    name: str,
    num_events: int,
    *,
    seed: SeedLike = None,
    events_per_step: int = 1,
) -> List[Interaction]:
    """Generate the synthetic stand-in interactions for a named dataset."""
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        ) from None
    return spec.generator(num_events, seed, events_per_step)


def make_stream(
    name: str,
    num_events: int,
    *,
    seed: SeedLike = None,
    events_per_step: int = 1,
) -> MemoryStream:
    """Generate a replayable :class:`MemoryStream` for a named dataset."""
    return MemoryStream(
        make_interactions(name, num_events, seed=seed, events_per_step=events_per_step)
    )


def table1_rows(
    num_events: Optional[int] = None, seed: SeedLike = 0
) -> List[Dict[str, object]]:
    """Rows reproducing Table I: paper counts next to generated counts.

    With ``num_events`` set, each generator is actually run and the
    realized node/interaction counts of the stand-in are reported next to
    the paper's numbers; without it only the paper metadata is returned.
    """
    rows: List[Dict[str, object]] = []
    for name, spec in DATASETS.items():
        row: Dict[str, object] = {
            "dataset": name,
            "kind": spec.kind,
            "paper_nodes": spec.paper_nodes,
            "paper_interactions": spec.paper_interactions,
        }
        if num_events is not None:
            interactions = make_interactions(name, num_events, seed=seed)
            nodes = {i.source for i in interactions} | {i.target for i in interactions}
            row["generated_nodes"] = len(nodes)
            row["generated_interactions"] = len(interactions)
        rows.append(row)
    return rows
