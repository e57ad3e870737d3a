"""Collapsed Gibbs sampling kernels for COLD (paper Eqs. 1–3, Appendix A).

Each kernel removes one instance from the counters, evaluates its full
conditional as an unnormalised weight vector, draws the new assignment, and
adds the instance back — the textbook collapsed-Gibbs pattern.  All three
kernels are O(latent-dimension x instance-size), which gives the linear
per-sweep complexity analysed in §4.2.

Numerical notes
---------------
* Constant-in-the-sampled-variable factors (e.g. the ``n_i^(.) + C rho``
  denominator of Eq. 1) are dropped: they cancel under normalisation.
* The Eq. (3) word term is evaluated in log space because posts with
  repeated words multiply ascending-factorial ratios that underflow for
  large vocabularies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..telemetry import tracing as trace
from .params import Hyperparameters
from .state import CountState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fastgibbs uses us)
    from .fastgibbs import SweepCache

#: Floor applied to weight vectors before normalisation, guarding against
#: fully-zero rows from numerical underflow.
_WEIGHT_FLOOR = 1e-300


def categorical_checked(
    weights: np.ndarray, rng: np.random.Generator
) -> tuple[int, bool]:
    """Draw an index proportionally to non-negative ``weights``.

    Returns ``(index, degenerate)`` where ``degenerate`` flags an all-zero
    or non-finite weight vector that forced a uniform fallback.  The Gibbs
    kernels tally these on ``CountState.degenerate_draws`` so numerical
    collapse surfaces in the fit log instead of being silently masked.
    """
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        # All-zero (or degenerate) weights: fall back to uniform.  This can
        # only happen through extreme underflow; uniform keeps the chain
        # irreducible instead of crashing mid-run.
        return int(rng.integers(len(weights))), True
    index = int(
        np.searchsorted(np.cumsum(weights), rng.random() * total, side="right")
    )
    # With denormal totals, rng.random() * total can round up to exactly
    # total, pushing searchsorted one past the last cell; clamp back in.
    return min(index, len(weights) - 1), False


def categorical(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index proportionally to non-negative ``weights``."""
    return categorical_checked(weights, rng)[0]


def post_community_weights(
    state: CountState, hp: Hyperparameters, post: int, topic: int
) -> np.ndarray:
    """Unnormalised Eq. (1) over communities, with the post removed.

    ``P(c_ij = c | z_ij = k, ...) ∝ (n_i^c + rho)
    * (n_c^k + alpha) / (n_c^. + K alpha)
    * (n_ck^t + eps) / (n_ck^. + T eps)``.
    """
    author = state.posts.authors[post]
    t = state.posts.times[post]
    K = state.num_topics
    T = state.n_comm_topic_time.shape[2]
    membership = state.n_user_comm[author] + hp.rho  # (C,)
    topic_totals = state.n_comm_topic.sum(axis=1)
    interest = (state.n_comm_topic[:, topic] + hp.alpha) / (topic_totals + K * hp.alpha)
    time_totals = state.n_comm_topic_time[:, topic, :].sum(axis=1)
    temporal = (state.n_comm_topic_time[:, topic, t] + hp.epsilon) / (
        time_totals + T * hp.epsilon
    )
    return membership * interest * temporal


def post_topic_log_weights(
    state: CountState, hp: Hyperparameters, post: int, community: int
) -> np.ndarray:
    """Log of the unnormalised Eq. (3) over topics, with the post removed.

    The word factor is the ascending-factorial (Polya) ratio

        prod_v prod_{q=0}^{m_v - 1} (n_k^v + q + beta)
        / prod_{q=0}^{L - 1} (n_k^. + q + V beta)

    where ``m_v`` are the post's word multiplicities and ``L`` its length.
    """
    c = community
    t = state.posts.times[post]
    V = state.n_topic_word.shape[1]
    T = state.n_comm_topic_time.shape[2]
    K = state.num_topics

    interest = np.log(state.n_comm_topic[c] + hp.alpha)  # (K,); denom const in k
    time_totals = state.n_comm_topic_time[c].sum(axis=1)  # (K,)
    temporal = np.log(state.n_comm_topic_time[c, :, t] + hp.epsilon) - np.log(
        time_totals + T * hp.epsilon
    )

    words, counts = state.posts.words_of(post)
    word_counts = state.n_topic_word[:, words]  # (K, n_unique)
    if (counts == 1).all():
        numerator = np.log(word_counts + hp.beta).sum(axis=1)
    else:
        numerator = np.zeros(K)
        for j, m in enumerate(counts):
            column = word_counts[:, j].astype(np.float64)
            for q in range(int(m)):
                numerator += np.log(column + q + hp.beta)
    length = int(state.posts.lengths[post])
    denominator = np.log(
        state.n_topic_total[:, None] + np.arange(length)[None, :] + V * hp.beta
    ).sum(axis=1)
    return interest + temporal + numerator - denominator


def link_weights(
    state: CountState, hp: Hyperparameters, link: int
) -> np.ndarray:
    """Unnormalised Eq. (2) over (c, c') pairs, with the link removed.

    Returns a ``(C, C)`` matrix: ``(n_i^c + rho)(n_i'^c' + rho)
    * (n_cc' + lambda1) / (n_cc' + lambda0 + lambda1)``.
    """
    src, dst = state.links[link]
    src_membership = state.n_user_comm[src] + hp.rho  # (C,)
    dst_membership = state.n_user_comm[dst] + hp.rho  # (C,)
    link_factor = (state.n_link_comm + hp.lambda1) / (
        state.n_link_comm + hp.lambda0 + hp.lambda1
    )
    return np.outer(src_membership, dst_membership) * link_factor


def resample_post(
    state: CountState, hp: Hyperparameters, post: int, rng: np.random.Generator
) -> tuple[int, int]:
    """One Gibbs update of (c_ij, z_ij) for ``post``; returns the new pair.

    Matches Algorithm 2's scatter phase: community first (Eq. 1 given the
    current topic), then topic (Eq. 3 given the new community).
    """
    _old_c, old_k = state.remove_post(post)

    community_weights = post_community_weights(state, hp, post, old_k)
    new_c, degenerate_c = categorical_checked(
        np.maximum(community_weights, _WEIGHT_FLOOR), rng
    )

    log_weights = post_topic_log_weights(state, hp, post, new_c)
    log_weights -= log_weights.max()
    new_k, degenerate_k = categorical_checked(
        np.maximum(np.exp(log_weights), _WEIGHT_FLOOR), rng
    )
    state.degenerate_draws += int(degenerate_c) + int(degenerate_k)

    state.add_post(post, new_c, new_k)
    return new_c, new_k


def resample_link(
    state: CountState, hp: Hyperparameters, link: int, rng: np.random.Generator
) -> tuple[int, int]:
    """One joint Gibbs update of (s_ii', s'_ii') for ``link`` (Eq. 2)."""
    state.remove_link(link)
    weights = link_weights(state, hp, link)
    flat_index, degenerate = categorical_checked(
        np.maximum(weights.ravel(), _WEIGHT_FLOOR), rng
    )
    state.degenerate_draws += int(degenerate)
    C = state.num_communities
    new_c, new_c_prime = divmod(flat_index, C)
    state.add_link(link, int(new_c), int(new_c_prime))
    return int(new_c), int(new_c_prime)


def sweep(
    state: CountState,
    hp: Hyperparameters,
    rng: np.random.Generator,
    post_order: np.ndarray | None = None,
    link_order: np.ndarray | None = None,
    cache: SweepCache | None = None,
) -> None:
    """One full Gibbs sweep: every post, then every link.

    Optional orders let callers (the parallel engine, tests) control the
    visitation schedule; defaults are a fresh random permutation each call,
    which improves mixing over fixed scans.

    ``cache`` selects the fast path: a
    :class:`~repro.core.fastgibbs.SweepCache` bound to ``state``/``hp``
    routes every draw through the cached vectorised kernels, which are
    bit-identical to the reference kernels (same weights, same RNG
    consumption) but several times faster.  Without a cache the reference
    kernels run — they remain the correctness oracle.
    """
    if post_order is None:
        post_order = rng.permutation(state.num_posts)
    if cache is not None:
        from .fastgibbs import fast_sweep

        # fast_sweep draws the link permutation itself (after the post
        # loop, where this function draws it) so the RNG stream matches.
        with trace.span("fast_sweep", posts=len(post_order)):
            fast_sweep(state, hp, rng, post_order, link_order, cache)
        return
    posts = post_order.tolist() if isinstance(post_order, np.ndarray) else post_order
    for post in posts:
        resample_post(state, hp, int(post), rng)
    if state.num_links:
        if link_order is None:
            link_order = rng.permutation(state.num_links)
        links = link_order.tolist() if isinstance(link_order, np.ndarray) else link_order
        for link in links:
            resample_link(state, hp, int(link), rng)
