"""One-mode projection of co-adoption events (paper Example 2).

Influence is not always directly observable: when user ``u`` buys a T-shirt
and their friend ``v`` buys the same T-shirt two days later, the pair is
evidence that ``u`` influenced ``v`` even though no explicit interaction was
logged.  The projection turns a stream of adoption events ``(user, item,
time)`` into interactions ``<earlier adopter, later adopter, time>`` for
adoptions of the same item within a time window.

To keep the output stream linear in the input (a popular item would
otherwise produce quadratically many pairs), each new adopter is linked to
at most ``max_links`` of the *most recent* previous adopters — the
recency-biased choice also best matches the influence interpretation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import check_positive_int
from repro.tdn.interaction import Interaction

Node = Hashable
AdoptionEvent = Tuple[Node, Hashable, int]  # (user, item, time)


def one_mode_projection(
    events: Iterable[AdoptionEvent],
    *,
    window: int = 7,
    max_links: int = 3,
) -> List[Interaction]:
    """Project adoption events onto user-to-user interactions.

    Args:
        events: chronological ``(user, item, time)`` adoption events.
        window: maximum age (in time steps) of a previous adoption for it to
            count as an influence; older adopters are not linked.
        max_links: cap on interactions created per new adoption.

    Returns:
        Interactions ``<earlier adopter, later adopter, later time>`` in
        chronological order.  Re-adoption by the same user refreshes their
        recency without self-interaction.
    """
    check_positive_int(window, "window")
    check_positive_int(max_links, "max_links")
    # Per item: recent adopters as (time, user), newest at the right.
    recent: Dict[Hashable, deque] = {}
    interactions: List[Interaction] = []
    last_time: Optional[int] = None
    for user, item, time in events:
        if last_time is not None and time < last_time:
            raise ValueError(
                f"events must be chronological; got time {time} after {last_time}"
            )
        last_time = time
        adopters = recent.setdefault(item, deque())
        while adopters and adopters[0][0] < time - window:
            adopters.popleft()
        links = 0
        for prev_time, prev_user in reversed(adopters):
            if links >= max_links:
                break
            if prev_user == user:
                continue
            interactions.append(Interaction(prev_user, user, time))
            links += 1
        adopters.append((time, user))
    return interactions
