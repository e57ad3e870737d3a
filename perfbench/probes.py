"""Checks and probes shared by the benchmark and its system process.

:func:`kernel_probe` is both an output check and the per-kernel timing of
the traced run: on a fitted state it builds a fresh ``SweepCache``, scores
the joint likelihood, resamples every post and link once through the
fast kernels, then demands that the count state is valid and that the
cache, updated move by move, still equals a rebuild from scratch.  It
mutates the state, so callers run it after reading everything else off
the model.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro package under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def nll_per_token(state, hp) -> float:
    """Negative joint log-likelihood per token (nats); finite or raises."""
    from repro.core.likelihood import joint_log_likelihood

    value = -joint_log_likelihood(state, hp) / int(state.posts.lengths.sum())
    if not math.isfinite(value):
        raise ValueError(f"non-finite log-likelihood per token: {value}")
    return value


def kernel_probe(state, hp, seed: int) -> dict:
    """Time the fast kernels over every post and link; check the caches."""
    import numpy as np

    from repro.core.fastgibbs import (
        SweepCache,
        fast_resample_link,
        fast_resample_post,
    )
    from repro.core.likelihood import joint_log_likelihood

    state.check_invariants()
    start = time.perf_counter()
    cache = SweepCache(state, hp)
    cache_build_s = time.perf_counter() - start
    start = time.perf_counter()
    joint_log_likelihood(state, hp)
    loglik_s = time.perf_counter() - start

    rng = np.random.default_rng(seed)
    before = (state.post_comm.copy(), state.post_topic.copy())
    start = time.perf_counter()
    for post in range(state.num_posts):
        fast_resample_post(state, hp, post, rng, cache)
    post_s = time.perf_counter() - start
    moved = (state.post_comm != before[0]) | (state.post_topic != before[1])
    start = time.perf_counter()
    for link in range(state.num_links):
        fast_resample_link(state, hp, link, rng, cache)
    link_s = time.perf_counter() - start
    cache.check_consistency(state)
    state.check_invariants()
    return {
        "core.cache_build_s": cache_build_s,
        "core.loglik_s": loglik_s,
        "core.post_resample_us": 1e6 * post_s / max(state.num_posts, 1),
        "core.link_resample_us": 1e6 * link_s / max(state.num_links, 1),
        "core.moved_frac": float(moved.mean()) if state.num_posts else 0.0,
    }


def encode_events(events) -> list:
    """Stream events as JSON-ready lists (``p``: post, ``l``: link)."""
    from repro.datasets.stream import PostEvent

    out = []
    for event in events:
        if isinstance(event, PostEvent):
            out.append(["p", event.author_key, list(event.tokens), event.time])
        else:
            out.append(["l", event.source_key, event.target_key, event.time])
    return out


def decode_events(items) -> list:
    from repro.datasets.stream import LinkEvent, PostEvent

    events = []
    for kind, a, b, t in items:
        if kind == "p":
            events.append(PostEvent(a, tuple(b), float(t)))
        elif kind == "l":
            events.append(LinkEvent(a, b, float(t)))
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    return events
