"""Synthetic interaction-stream generators.

Each generator emits a chronological list of bare interactions (no
lifetimes; those are assigned downstream by a
:class:`~repro.tdn.lifetimes.LifetimePolicy`, matching the paper's protocol
of sampling lifetimes at ingestion time).  One interaction is emitted per
time step by default — "we assume one interaction arrives at a time"
(Section V-B) — with ``events_per_step`` available for batched replay.

The three families mirror the paper's three dataset sources:

* :func:`lbsn_stream` — place -> user check-ins with Zipf place popularity
  and slow popularity drift (Brightkite/Gowalla style).  Influential nodes
  are places; their churn is driven by drift.
* :func:`retweet_stream` — user -> user retweets with Zipf influencer
  popularity and exogenous burst events (Twitter-Higgs/HK style).  Bursts
  reproduce the regime where the influential set turns over abruptly.
* :func:`qa_stream` — answer/question author -> commenter interactions with
  fast *topic epochs* (Stack Overflow style): author popularity is redrawn
  every epoch, the highest-churn regime (visible in the paper's Fig. 8(e,f)
  as the largest greedy/streaming gap).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from repro.errors import check_fraction, check_positive, check_positive_int
from repro.tdn.interaction import Interaction
from repro.utils.rng import SeedLike, make_rng


def _zipf_weights(count: int, exponent: float) -> List[float]:
    """Unnormalized Zipf weights ``rank^-exponent`` for ranks 1..count."""
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def _weighted_index(rng, cumulative: Sequence[float]) -> int:
    """Sample an index from a cumulative weight table by bisection."""
    total = cumulative[-1]
    u = rng.random() * total
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _cumulative(weights: Sequence[float]) -> List[float]:
    return list(itertools.accumulate(weights))


# ----------------------------------------------------------------------
# LBSN check-ins (Brightkite / Gowalla style)
# ----------------------------------------------------------------------
def lbsn_stream(
    num_places: int,
    num_users: int,
    num_events: int,
    *,
    zipf_exponent: float = 1.1,
    drift_interval: int = 400,
    drift_fraction: float = 0.2,
    events_per_step: int = 1,
    seed: SeedLike = None,
) -> List[Interaction]:
    """Check-in interactions ``<place, user, t>``.

    A check-in means the place attracted (influenced) the user, so the
    *place* is the source.  Place popularity is Zipf-distributed; every
    ``drift_interval`` steps a random ``drift_fraction`` of places have
    their popularity ranks reshuffled, so the set of popular places churns
    slowly — the dynamic the paper's tracking problem is about.

    Args:
        num_places: number of distinct places (influencer side).
        num_users: number of distinct users (influenced side).
        num_events: total interactions to generate.
        zipf_exponent: skew of place popularity.
        drift_interval: steps between popularity reshuffles.
        drift_fraction: fraction of places reshuffled per drift.
        events_per_step: interactions per time step.
        seed: RNG seed.
    """
    check_positive_int(num_places, "num_places")
    check_positive_int(num_users, "num_users")
    check_positive_int(num_events, "num_events")
    check_positive(zipf_exponent, "zipf_exponent")
    check_positive_int(drift_interval, "drift_interval")
    check_fraction(drift_fraction, "drift_fraction", inclusive=True)
    check_positive_int(events_per_step, "events_per_step")
    rng = make_rng(seed)
    weights = _zipf_weights(num_places, zipf_exponent)
    # rank -> place id; reshuffling permutes which place holds which rank.
    rank_to_place = list(range(num_places))
    rng.shuffle(rank_to_place)
    cumulative = _cumulative(weights)
    interactions: List[Interaction] = []
    for event_index in range(num_events):
        step = event_index // events_per_step
        if event_index % (drift_interval * events_per_step) == 0 and event_index > 0:
            _drift_ranks(rng, rank_to_place, drift_fraction)
        rank = _weighted_index(rng, cumulative)
        place = rank_to_place[rank]
        user = rng.randrange(num_users)
        interactions.append(Interaction(f"p{place}", f"u{user}", step))
    return interactions


def _drift_ranks(rng, rank_to_place: List[int], fraction: float) -> None:
    """Reshuffle a random fraction of the rank -> entity assignment."""
    count = max(2, int(len(rank_to_place) * fraction))
    chosen = rng.sample(range(len(rank_to_place)), min(count, len(rank_to_place)))
    values = [rank_to_place[i] for i in chosen]
    rng.shuffle(values)
    for index, value in zip(chosen, values):
        rank_to_place[index] = value


# ----------------------------------------------------------------------
# Twitter retweets (Higgs / HK style)
# ----------------------------------------------------------------------
def retweet_stream(
    num_users: int,
    num_events: int,
    *,
    zipf_exponent: float = 1.2,
    burst_interval: int = 600,
    burst_length: int = 120,
    burst_boost: float = 25.0,
    cascade_probability: float = 0.3,
    events_per_step: int = 1,
    seed: SeedLike = None,
) -> List[Interaction]:
    """Retweet/mention interactions ``<author, retweeter, t>``.

    Baseline author popularity is Zipf; periodically an exogenous *burst*
    (a Higgs-discovery-style announcement) boosts a small random set of
    authors for ``burst_length`` steps, abruptly shifting who is influential
    — the regime where static IM methods go stale (paper Section I).  With
    probability ``cascade_probability`` a retweet's author is itself a
    recent retweeter (second-order spread), creating multi-hop reachability
    rather than a pure star pattern.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(num_events, "num_events")
    check_positive_int(events_per_step, "events_per_step")
    check_fraction(cascade_probability, "cascade_probability", inclusive=True)
    rng = make_rng(seed)
    weights = _zipf_weights(num_users, zipf_exponent)
    cumulative = _cumulative(weights)
    rank_to_user = list(range(num_users))
    rng.shuffle(rank_to_user)
    burst_authors: List[int] = []
    burst_until = -1
    recent_retweeters: List[int] = []
    interactions: List[Interaction] = []
    for event_index in range(num_events):
        step = event_index // events_per_step
        if step % burst_interval == 0 and step > burst_until and num_users >= 4:
            burst_authors = rng.sample(range(num_users), max(2, num_users // 100))
            burst_until = step + burst_length
        in_burst = step <= burst_until and burst_authors
        if in_burst and rng.random() < burst_boost / (burst_boost + 1.0):
            author = burst_authors[rng.randrange(len(burst_authors))]
        elif recent_retweeters and rng.random() < cascade_probability:
            author = recent_retweeters[rng.randrange(len(recent_retweeters))]
        else:
            author = rank_to_user[_weighted_index(rng, cumulative)]
        retweeter = rng.randrange(num_users)
        while retweeter == author:
            retweeter = rng.randrange(num_users)
        interactions.append(Interaction(f"u{author}", f"u{retweeter}", step))
        recent_retweeters.append(retweeter)
        if len(recent_retweeters) > 50:
            recent_retweeters.pop(0)
    return interactions


# ----------------------------------------------------------------------
# Stack Overflow comments (c2q / c2a style)
# ----------------------------------------------------------------------
def qa_stream(
    num_users: int,
    num_events: int,
    *,
    zipf_exponent: float = 1.0,
    epoch_length: int = 250,
    hot_fraction: float = 0.05,
    events_per_step: int = 1,
    seed: SeedLike = None,
) -> List[Interaction]:
    """Q&A comment interactions ``<post author, commenter, t>``.

    Commenting on a question/answer reflects the post author's influence on
    the commenter.  Attention on Stack Overflow turns over quickly: every
    ``epoch_length`` steps a fresh *hot set* of authors (a random
    ``hot_fraction`` of users) receives most comments, modelling topical
    turnover.  This is the highest-churn family, which is why the paper's
    greedy/streaming quality gap is widest on the Stack Overflow datasets.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(num_events, "num_events")
    check_positive_int(epoch_length, "epoch_length")
    check_fraction(hot_fraction, "hot_fraction")
    check_positive_int(events_per_step, "events_per_step")
    rng = make_rng(seed)
    weights = _zipf_weights(num_users, zipf_exponent)
    cumulative = _cumulative(weights)
    hot_authors: List[int] = []
    interactions: List[Interaction] = []
    for event_index in range(num_events):
        step = event_index // events_per_step
        if event_index % (epoch_length * events_per_step) == 0:
            hot_size = max(2, int(num_users * hot_fraction))
            hot_authors = rng.sample(range(num_users), min(hot_size, num_users))
        if hot_authors and rng.random() < 0.7:
            author = hot_authors[rng.randrange(len(hot_authors))]
        else:
            author = _weighted_index(rng, cumulative)
        commenter = rng.randrange(num_users)
        while commenter == author:
            commenter = rng.randrange(num_users)
        interactions.append(Interaction(f"u{author}", f"u{commenter}", step))
    return interactions
