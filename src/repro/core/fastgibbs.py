"""Cached, vectorised collapsed-Gibbs sweep — the fast path.

The reference kernels in :mod:`repro.core.gibbs` re-derive every factor of
Eqs. (1)–(3) from the raw counters on each draw: per post that is ``O(C K)``
/ ``O(K T)`` integer reduction work plus ``O(K (W + L))`` fresh ``log``
evaluations, wrapped in dozens of small NumPy calls whose dispatch overhead
dominates sweep time well before the corpus is large.  This module keeps a
:class:`SweepCache` of exactly those factors and patches it incrementally
as assignments move:

* **fused per-sweep weight caches** — the Eq. (3) community/time factor is
  one ``(C, K, T)`` array (``log interest + log time numerator - log time
  denominator``, so a post's topic weights start from a single gather); the
  Eq. (1) denominators and the Eq. (2) link factor are cached the same way
  and refreshed only when a counter they read changes;
* **batched word evaluation** — a post's word term is one matrix gather +
  row reduction over its unique words, never a per-word Python loop;
* **reusable draw buffer** — each categorical draw accumulates into a
  preallocated buffer (``np.add.accumulate``) and does one
  ``searchsorted``, calling raw ufuncs to skip wrapper dispatch;
* **sparse cell iteration** — cache construction fills cold (community,
  topic) cells with the shared zero-count value and computes real rows
  only for :meth:`CountState.active_comm_topic_cells`;
* **virtual removal** — removing a post before evaluating its conditional
  only perturbs the weight entries indexed by its *current* assignment, so
  the post kernel evaluates against the live counters and patches that
  single entry with a scalar correction.  State and caches are then
  mutated only when the draw actually moves the post (a minority of draws
  once the chain has mixed), via the net-delta
  :meth:`CountState.move_post`.  Links change label on nearly every draw
  (their C x C conditional is much flatter), so the link kernel removes
  for real and wins through the cached Eq. (2) factor instead.

Exactness contract
------------------
The fast kernels are *bit-identical* to the reference kernels: every
cached value is produced by the same sequence of IEEE-754 operations the
reference applies to the same integer counters (integer totals replace
integer reductions; additions are fused only where IEEE addition order is
preserved), reductions keep the reference's pairwise-summation order
(``np.add.reduce`` is exactly what ``ndarray.sum`` calls), and the RNG is
consumed identically — one uniform per draw, the same uniform fallback on
degenerate weights.  A fixed seed therefore yields the same chain, draw
for draw; ``tests/test_fastgibbs.py`` enforces this and the perf harness
re-checks it on every run.  The reference kernels remain the oracle;
``fast=False`` selects them anywhere a model is built.
"""

from __future__ import annotations

import math

import numpy as np

from ..telemetry import tracing as trace
from .gibbs import _WEIGHT_FLOOR
from .params import Hyperparameters
from .state import CountState

#: Clamp applied to never-read negative-argument entries of the extended
#: Polya denominator rows before the log (keeps them finite, warning-free).
_LOG_CLAMP = 1e-300


class SweepCache:
    """Incrementally-maintained per-sweep factor caches for one chain.

    A cache is bound to one :class:`CountState` *and* one
    :class:`Hyperparameters`; it must observe every assignment move via
    :meth:`post_moved` / :meth:`link_moved` (the fast kernels do this).
    :meth:`check_consistency` verifies the cache against a from-scratch
    rebuild, mirroring :meth:`CountState.check_invariants`.
    """

    def __init__(self, state: CountState, hp: Hyperparameters) -> None:
        with trace.span("sweepcache.build"):
            self._build(state, hp)

    def _build(self, state: CountState, hp: Hyperparameters) -> None:
        self.hp = hp
        C = state.num_communities
        K = state.num_topics
        self.C = C
        self.K = K
        self.T = state.n_comm_topic_time.shape[2]
        self.V = state.n_topic_word.shape[1]
        lengths = state.posts.lengths
        self.max_len = int(lengths.max()) if len(lengths) else 1
        self._arange_ext = np.arange(
            -self.max_len, self.max_len, dtype=np.int64
        )
        self._bind_counters(state)

        # -- per-post metadata and scratch buffers -----------------------------
        # Posts whose words are all distinct take the batched word path; the
        # rest get precomputed (word-column, ascending-q) expansions so the
        # Polya loop runs as one sequential np.add.accumulate (the same
        # left-to-right accumulation order as the reference loop).
        self._all_distinct = self._distinct_word_flags(state).tolist()
        self._expanded = self._expand_repeated_posts(state)
        # Per-post/link metadata as plain Python lists (and the current
        # assignments mirrored alongside them): list indexing is several
        # times cheaper than NumPy scalar reads on the per-draw hot path.
        # The mirrors are maintained by post_moved / the link kernel, which
        # every fast kernel already routes through.
        posts = state.posts
        self._times = posts.times.tolist()
        self._authors = posts.authors.tolist()
        self._lengths = posts.lengths.tolist()
        self._post_words = [posts.words_of(p) for p in range(len(posts))]
        self._link_users = state.links.tolist()
        self._bind_assignments(state)
        self._cum_comm = np.empty(C, dtype=np.float64)
        self._cum_topic = np.empty(K, dtype=np.float64)
        self._topic_buf = np.empty(K, dtype=np.float64)
        self._cum_pair = np.empty(C * C, dtype=np.float64)
        self._denom_int = np.empty(2 * self.max_len, dtype=np.int64)
        self._log3 = np.empty(3, dtype=np.float64)
        self._kw_bufs: dict[int, np.ndarray] = {}
        self._int_bufs: dict[int, np.ndarray] = {}
        self._flt_bufs: dict[int, np.ndarray] = {}
        self._comm_buf = np.empty(C, dtype=np.float64)
        self._factor_buf = np.empty(C, dtype=np.float64)
        self._pair_buf = np.empty((C, C), dtype=np.float64)
        self._K_alpha = K * hp.alpha
        self._T_eps = self.T * hp.epsilon
        self._V_beta = self.V * hp.beta

    def refresh(self, state: CountState) -> None:
        """Rebind to ``state``'s current counters and assignments.

        ``state`` must hold the same corpus (post table and links) the
        cache was built from; only its counters and assignment arrays may
        differ.  Every corpus-static structure — the repeated-word
        expansions, per-post metadata lists, scratch buffers — is reused,
        and the counter-derived factor caches are recomputed with the
        exact operation sequence of a fresh build, so the refreshed cache
        is bit-identical to ``SweepCache(state, hp)`` at roughly a tenth
        of the cost.  The parallel workers call this once per superstep
        after resetting their private counters to the merged snapshot,
        which is what makes per-shard dispatch overhead scale with the
        shard instead of the corpus.
        """
        with trace.span("sweepcache.refresh"):
            self._bind_counters(state)
            self._bind_assignments(state)

    def _bind_counters(self, state: CountState) -> None:
        """(Re)compute every counter-derived factor cache from ``state``."""
        hp = self.hp
        C = self.C
        K = self.K

        # -- Eq. (1) factors ---------------------------------------------------
        # n_c^(.) totals as exact integers, plus the interest denominator
        # (n_c^(.) + K alpha) and temporal denominator (n_c^(k) + T eps)
        # as ready-to-divide floats.
        self.n_comm_total = state.n_comm_topic.sum(axis=1)
        self.comm_denom = self.n_comm_total + K * hp.alpha
        self.time_denom = state.n_comm_topic + self.T * hp.epsilon

        # -- Eq. (3) fused community/time factor -------------------------------
        # base[c, t, k] = log(n_c^k + alpha)
        #               + (log(n_ck^t + eps) - log(n_ck^(.) + T eps)),
        # evaluated in the reference's association order.  The (C, T, K)
        # layout makes the per-post gather ``base[c, t]`` one contiguous
        # row.  Cold (c, k) cells share the zero-count value; only active
        # cells get real rows (CountState.active_comm_topic_cells).
        self.log_temporal = np.full(
            (C, self.T, K), np.log(hp.epsilon), dtype=np.float64
        )
        log_eps = np.log(hp.epsilon)
        cold_base = np.log(hp.alpha) + (log_eps - np.log(self.T * hp.epsilon))
        self.base = np.full((C, self.T, K), cold_base, dtype=np.float64)
        cs, ks = state.active_comm_topic_cells()
        if len(cs):
            rows = np.log(state.n_comm_topic_time[cs, ks, :] + hp.epsilon)
            self.log_temporal[cs, :, ks] = rows
            interest = np.log(state.n_comm_topic[cs, ks] + hp.alpha)
            denom = np.log(state.n_comm_topic[cs, ks] + self.T * hp.epsilon)
            self.base[cs, :, ks] = interest[:, None] + (rows - denom[:, None])

        # -- Eq. (3) Polya length denominator ----------------------------------
        # Row k holds log(n_k^(.) + o + V beta) for offsets o in
        # [-max_len, max_len): a post of length L reduces the slice at
        # offset 0 for its live denominator and the slice at offset -L for
        # its removed-state denominator (a post of length L in topic k
        # guarantees n_k^(.) >= L, so every read entry has a non-negative
        # integer argument; unread negative-argument entries are clamped
        # to a tiny positive before the log purely to keep it finite and
        # warning-free).  The integer-first addition order is preserved.
        terms = (
            state.n_topic_total[:, None]
            + self._arange_ext[None, :]
            + self.V * hp.beta
        )
        np.maximum(terms, _LOG_CLAMP, out=terms)
        self.log_denom_terms = np.log(terms)

        # -- Eq. (3) word-count mirror -----------------------------------------
        # Transposed copy of ``n_topic_word``: a post's gather becomes one
        # contiguous (K,)-row read per unique word instead of K scattered
        # element reads, which is most of the eval's memory traffic.
        self.word_topic = np.ascontiguousarray(state.n_topic_word.T)

        # -- Eq. (2) link factor ----------------------------------------------
        self.link_factor = (state.n_link_comm + hp.lambda1) / (
            state.n_link_comm + hp.lambda0 + hp.lambda1
        )

    def _bind_assignments(self, state: CountState) -> None:
        """Remirror the current assignments into the hot-path lists."""
        self._post_c = state.post_comm.tolist()
        self._post_k = state.post_topic.tolist()
        self._link_c = state.link_src_comm.tolist()
        self._link_cp = state.link_dst_comm.tolist()

    @staticmethod
    def _distinct_word_flags(state: CountState) -> np.ndarray:
        """``flags[p]`` is true iff post ``p`` has no repeated word."""
        posts = state.posts
        flags = np.ones(len(posts), dtype=bool)
        if len(posts.unique_counts):
            spans = np.diff(posts.offsets)
            owners = np.repeat(np.arange(len(posts)), spans)
            flags[owners[posts.unique_counts > 1]] = False
        return flags

    def _expand_repeated_posts(
        self, state: CountState
    ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``post -> (words, q column, multiplicities)`` for repeated-word posts.

        Each post with a repeated word expands its multiset into ``L``
        (vocab word, ascending ``q``, multiplicity) triples in the
        reference loop's (word, q) order, so its Polya numerator becomes
        one batched gather + sequential accumulate at eval time (``q`` is
        stored as an ``(L, 1)`` column, ready to broadcast across topics;
        the multiplicities are what virtual removal subtracts from the
        gathered ``old_k`` column).
        """
        expansions: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for post, distinct in enumerate(self._all_distinct):
            if distinct:
                continue
            words, counts = state.posts.words_of(post)
            rows = np.repeat(np.arange(len(counts)), counts)
            qs = np.concatenate([np.arange(int(m)) for m in counts])
            expansions[post] = (words[rows], qs[:, None], counts[rows])
        return expansions

    # -- weight evaluation (bit-identical to repro.core.gibbs) ----------------

    def community_weights(
        self, state: CountState, post: int, topic: int
    ) -> np.ndarray:
        """Eq. (1) over communities; cf. ``gibbs.post_community_weights``.

        The reference's two integer reductions (topic totals, time-slice
        totals) are replaced by the maintained ``n_comm_total`` and by
        ``n_comm_topic[:, topic]`` (equal by the counter invariant); both
        are integer-exact, so every float factor matches bit for bit.
        """
        hp = self.hp
        author = self._authors[post]
        t = self._times[post]
        weights = np.add(state.n_user_comm[author], hp.rho, self._comm_buf)
        factor = np.add(state.n_comm_topic[:, topic], hp.alpha, self._factor_buf)
        np.divide(factor, self.comm_denom, factor)
        np.multiply(weights, factor, weights)
        np.add(state.n_comm_topic_time[:, topic, t], hp.epsilon, factor)
        np.divide(factor, self.time_denom[:, topic], factor)
        np.multiply(weights, factor, weights)
        return weights

    def topic_log_weights(
        self, state: CountState, post: int, community: int, old_c: int, old_k: int
    ) -> np.ndarray:
        """Eq. (3) over topics with ``post`` virtually removed from
        (old_c, old_k); cf. ``gibbs.post_topic_log_weights``.

        The community/time factor is a single gather from the fused
        ``base`` cache; the word term is one matrix gather + row
        reduction; the length denominator is a cached-row reduction.
        Virtual removal costs three patches: the post's own counts come
        off row ``old_k`` of the gathered word-count matrix (making the
        batched numerator exact for every topic at once), and the
        ``old_k`` entries of the Polya denominator and — when ``community
        == old_c`` — the base cell are rebuilt from the decremented
        integers.
        """
        hp = self.hp
        t = self._times[post]
        base = self.base[community, t]
        if self._all_distinct[post]:
            # The reference reduces a C-contiguous (K, W) matrix row-wise
            # (pairwise order); writing the transposed gather into a
            # C-contiguous (K, W) buffer reproduces that exact reduction.
            words, counts = self._post_words[post]
            gathered = self.word_topic.take(words, axis=0)  # (W, K) rows
            gathered[:, old_k] -= counts
            W = len(words)
            buf = self._kw_bufs.get(W)
            if buf is None:
                buf = self._kw_bufs[W] = np.empty((self.K, W))
            terms = np.add(gathered.T, hp.beta, buf)
            np.log(terms, terms)
            numerator = np.add.reduce(terms, 1)
        else:
            # Reference loop order is (word column j, then q ascending);
            # the precomputed expansion lays the terms out in exactly that
            # order, and np.add.accumulate reduces them strictly left to
            # right — the same float accumulation the loop performs
            # (sequential accumulation commutes with the transpose).
            # Virtual removal subtracts the multiplicities from the old_k
            # column: (live + q) - m == (live - m) + q, integer-exact.
            full_words, qs_col, mults = self._expanded[post]
            ints = self.word_topic.take(full_words, axis=0)  # (L, K)
            np.add(ints, qs_col, ints)
            ints[:, old_k] -= mults
            terms = ints + hp.beta
            np.log(terms, terms)
            np.add.accumulate(terms, 0, None, terms)
            numerator = terms[-1]
        length = self._lengths[post]
        M = self.max_len
        denominator = np.add.reduce(self.log_denom_terms[:, M : M + length], 1)
        weights = np.add(base, numerator)
        np.subtract(weights, denominator, weights)

        # Patch entry old_k from the removed-state integers (scalar IEEE
        # arithmetic is the elementwise arithmetic of the vector ops).
        # The removed-state Polya denominator is the cached row's window at
        # offset -length (same terms, same pairwise reduction order).
        den = np.add.reduce(self.log_denom_terms[old_k, M - length : M])
        if community == old_c:
            # The (old_c, old_k) base cell is the one perturbed by removal;
            # rebuild it from the decremented counters (same 3 logs as
            # _touch_comm_cell).
            n_ck = int(state.n_comm_topic[old_c, old_k]) - 1
            logs = self._log3
            logs[0] = n_ck + hp.alpha
            logs[1] = n_ck + self._T_eps
            logs[2] = (int(state.n_comm_topic_time[old_c, old_k, t]) - 1) + hp.epsilon
            np.log(logs, logs)
            base_val = logs[0] + (logs[2] - logs[1])
        else:
            base_val = base[old_k]
        weights[old_k] = (base_val + numerator[old_k]) - den
        return weights

    def link_weights(self, state: CountState, link: int) -> np.ndarray:
        """Eq. (2) over (c, c') pairs; cf. ``gibbs.link_weights``."""
        hp = self.hp
        src, dst = state.links[link]
        src_membership = np.add(state.n_user_comm[src], hp.rho, self._comm_buf)
        dst_membership = np.add(state.n_user_comm[dst], hp.rho, self._factor_buf)
        weights = self._pair_buf
        np.multiply(src_membership[:, None], dst_membership[None, :], weights)
        np.multiply(weights, self.link_factor, weights)
        return weights

    # -- virtual-removal corrections ------------------------------------------
    # Removing a post decrements only counters indexed by its current
    # (old_c, old_k): evaluating Eq. (1)/(3) on the live counters therefore
    # yields the reference's removed-state weight vector everywhere except
    # that one entry, which these helpers recompute from the decremented
    # integers with the reference's exact operation order (scalar IEEE-754
    # arithmetic is the elementwise arithmetic of the vector ops).

    def corrected_community_entry(
        self, state: CountState, post: int, old_c: int, old_k: int
    ) -> float:
        """``community_weights(...)[old_c]`` as if the post were removed."""
        hp = self.hp
        t = self._times[post]
        n_ck = int(state.n_comm_topic[old_c, old_k]) - 1
        membership = (
            int(state.n_user_comm[self._authors[post], old_c]) - 1
        ) + hp.rho
        interest = (n_ck + hp.alpha) / (
            (int(self.n_comm_total[old_c]) - 1) + self._K_alpha
        )
        temporal = (
            (int(state.n_comm_topic_time[old_c, old_k, t]) - 1) + hp.epsilon
        ) / (n_ck + self._T_eps)
        return (membership * interest) * temporal

    # -- categorical draw with a reusable buffer ------------------------------

    def draw(
        self, weights: np.ndarray, rng: np.random.Generator, buffer: np.ndarray
    ) -> tuple[int, bool]:
        """Identical to ``gibbs.categorical_checked`` minus the overhead.

        ``np.add.reduce`` / ``np.add.accumulate`` are the inner loops of
        ``sum`` / ``cumsum``; calling them directly into the preallocated
        same-length ``buffer`` skips wrapper dispatch and allocation
        without changing a bit of the result.
        """
        total = np.add.reduce(weights)
        if not math.isfinite(total) or total <= 0:
            return int(rng.integers(len(weights))), True
        np.add.accumulate(weights, 0, None, buffer)
        index = int(buffer.searchsorted(rng.random() * total, side="right"))
        last = len(buffer) - 1
        return (index if index < last else last), False

    # -- incremental maintenance ----------------------------------------------

    def _touch_comm_cell(self, state: CountState, t: int, c: int, k: int) -> None:
        """Refresh the Eq. (1)/(3) factors that read cell (c, k) at slice t."""
        hp = self.hp
        n_ck = int(state.n_comm_topic[c, k])
        denom_arg = n_ck + self._T_eps
        logs = self._log3
        logs[0] = n_ck + hp.alpha
        logs[1] = denom_arg
        logs[2] = int(state.n_comm_topic_time[c, k, t]) + hp.epsilon
        np.log(logs, logs)
        self.comm_denom[c] = int(self.n_comm_total[c]) + self._K_alpha
        self.time_denom[c, k] = denom_arg
        self.log_temporal[c, t, k] = logs[2]
        row = self.base[c, :, k]
        np.subtract(self.log_temporal[c, :, k], logs[1], row)
        np.add(row, logs[0], row)

    def _touch_topic_row(self, state: CountState, k: int) -> None:
        """Refresh the Polya denominator row of topic k (n_k^(.) changed)."""
        ints = np.add(self._arange_ext, state.n_topic_total[k], self._denom_int)
        terms = self.log_denom_terms[k]
        np.add(ints, self._V_beta, terms)
        np.maximum(terms, _LOG_CLAMP, out=terms)
        np.log(terms, terms)

    def post_moved(
        self,
        state: CountState,
        post: int,
        old_c: int,
        old_k: int,
        new_c: int,
        new_k: int,
    ) -> None:
        """Observe ``state.move_post(post, new_c, new_k)`` from (old_c, old_k).

        Only the two touched (community, topic) cells — and, if the topic
        changed, the two Polya denominator rows — need refreshing; a post
        that does not move never reaches this method at all (the virtual
        removal leaves every counter and cache entry as-is).
        """
        t = self._times[post]
        self._post_c[post] = new_c
        self._post_k[post] = new_k
        if new_c != old_c:
            self.n_comm_total[old_c] -= 1
            self.n_comm_total[new_c] += 1
        self._touch_comm_cell(state, t, old_c, old_k)
        self._touch_comm_cell(state, t, new_c, new_k)
        if new_k != old_k:
            words, counts = self._post_words[post]
            self.word_topic[words, old_k] -= counts
            self.word_topic[words, new_k] += counts
            self._touch_topic_row(state, old_k)
            self._touch_topic_row(state, new_k)

    def link_moved(self, state: CountState, c: int, c_prime: int) -> None:
        """Observe one link leaving or entering the (c, c') cell."""
        hp = self.hp
        n = int(state.n_link_comm[c, c_prime])
        self.link_factor[c, c_prime] = (n + hp.lambda1) / (
            n + hp.lambda0 + hp.lambda1
        )

    # -- verification ----------------------------------------------------------

    def check_consistency(self, state: CountState) -> None:
        """Verify every cache against a from-scratch rebuild (tests/debug)."""
        fresh = SweepCache(state, self.hp)
        for name in (
            "n_comm_total",
            "comm_denom",
            "time_denom",
            "log_temporal",
            "base",
            "log_denom_terms",
            "link_factor",
            "word_topic",
        ):
            if not np.array_equal(getattr(self, name), getattr(fresh, name)):
                raise ValueError(f"SweepCache.{name} inconsistent with state")


# -- fast kernels (mirror resample_post / resample_link / sweep) --------------


def fast_resample_post(
    state: CountState,
    hp: Hyperparameters,
    post: int,
    rng: np.random.Generator,
    cache: SweepCache,
) -> tuple[int, int]:
    """Cached-equivalent of :func:`repro.core.gibbs.resample_post`.

    The post is removed *virtually*: weights are evaluated against the
    live counters and the single entry its current assignment perturbs is
    patched with the removed-state scalar.  Counters and caches mutate
    only when the draw lands somewhere new.
    """
    old_c = cache._post_c[post]
    old_k = cache._post_k[post]

    community_weights = cache.community_weights(state, post, old_k)
    community_weights[old_c] = cache.corrected_community_entry(
        state, post, old_c, old_k
    )
    np.maximum(community_weights, _WEIGHT_FLOOR, out=community_weights)
    new_c, degenerate_c = cache.draw(community_weights, rng, cache._cum_comm)

    log_weights = cache.topic_log_weights(state, post, new_c, old_c, old_k)
    np.subtract(log_weights, np.maximum.reduce(log_weights), log_weights)
    np.exp(log_weights, log_weights)
    np.maximum(log_weights, _WEIGHT_FLOOR, out=log_weights)
    new_k, degenerate_k = cache.draw(log_weights, rng, cache._cum_topic)
    state.degenerate_draws += int(degenerate_c) + int(degenerate_k)

    if new_c != old_c or new_k != old_k:
        state.move_post(post, new_c, new_k)
        cache.post_moved(state, post, old_c, old_k, new_c, new_k)
    return new_c, new_k


def fast_resample_link(
    state: CountState,
    hp: Hyperparameters,
    link: int,
    rng: np.random.Generator,
    cache: SweepCache,
) -> tuple[int, int]:
    """Cached-equivalent of :func:`repro.core.gibbs.resample_link`.

    Links, unlike posts, change their (c, c') label on nearly every draw
    once the chain has mixed (the C x C conditional is much flatter than
    the post conditionals), so virtual removal would patch three slices
    per draw only to mutate everything anyway.  The link kernel therefore
    removes for real and wins by caching: the Eq. (2) occupation factor —
    a full ``C x C`` recompute per draw in the reference — is maintained
    per cell, and the weight matrix is built in preallocated buffers.
    """
    old_c, old_c_prime = state.remove_link(link)
    cache.link_moved(state, old_c, old_c_prime)
    weights = cache.link_weights(state, link).ravel()
    np.maximum(weights, _WEIGHT_FLOOR, out=weights)
    flat_index, degenerate = cache.draw(weights, rng, cache._cum_pair)
    state.degenerate_draws += int(degenerate)
    new_c, new_c_prime = divmod(flat_index, state.num_communities)
    state.add_link(link, new_c, new_c_prime)
    cache.link_moved(state, new_c, new_c_prime)
    cache._link_c[link] = new_c
    cache._link_cp[link] = new_c_prime
    return new_c, new_c_prime


def fast_sweep(
    state: CountState,
    hp: Hyperparameters,
    rng: np.random.Generator,
    post_order: list[int] | np.ndarray,
    link_order: list[int] | np.ndarray | None,
    cache: SweepCache,
) -> None:
    """One full Gibbs sweep through the fast kernels, with hoisted glue.

    The per-draw numerical work is already a handful of vector ops, so
    attribute chains, method dispatch and RNG/ufunc lookups are a
    measurable slice of sweep time; this loop binds every loop-invariant
    object to a local once per sweep instead of once per draw.  The body
    is the same operation sequence as :func:`fast_resample_post` /
    :func:`fast_resample_link` — which remain the single-draw entry
    points and the readable form of the algorithm — so draws stay
    bit-identical and the RNG is consumed in the same order (the link
    visitation permutation, when not supplied, is drawn *after* the post
    loop exactly as the reference sweep draws it).

    The post loop and the link loop each run inside one trace span
    (``posts`` / ``links``, carrying the item count as ``count``), which
    is all ``cold profile`` needs to attribute sweep wall per post and
    per link; with tracing off a sweep pays two no-op ``span()`` reads.
    """
    if isinstance(post_order, np.ndarray):
        post_order = post_order.tolist()

    # Loop-invariant bindings (all mutated in place, never rebound).
    n_user_comm = state.n_user_comm
    n_comm_topic = state.n_comm_topic
    n_ctt = state.n_comm_topic_time
    n_comm_total = cache.n_comm_total
    comm_denom = cache.comm_denom
    time_denom = cache.time_denom
    base_all = cache.base
    ldt = cache.log_denom_terms
    word_topic = cache.word_topic
    times = cache._times
    authors = cache._authors
    lengths = cache._lengths
    post_words = cache._post_words
    all_distinct = cache._all_distinct
    expanded = cache._expanded
    kw_bufs = cache._kw_bufs
    int_bufs = cache._int_bufs
    flt_bufs = cache._flt_bufs
    post_c = cache._post_c
    post_k = cache._post_k
    comm_buf = cache._comm_buf
    factor_buf = cache._factor_buf
    topic_buf = cache._topic_buf
    cum_comm = cache._cum_comm
    cum_topic = cache._cum_topic
    log3 = cache._log3
    rho = hp.rho
    alpha = hp.alpha
    eps = hp.epsilon
    beta = hp.beta
    K_alpha = cache._K_alpha
    T_eps = cache._T_eps
    M = cache.max_len
    K = cache.K
    C = state.num_communities
    C1 = C - 1
    K1 = K - 1
    floor = _WEIGHT_FLOOR
    random = rng.random
    integers = rng.integers
    isfinite = math.isfinite
    add = np.add
    sub = np.subtract
    mul = np.multiply
    div = np.divide
    log = np.log
    exp = np.exp
    maximum = np.maximum
    max_reduce = np.maximum.reduce
    reduce_ = np.add.reduce
    accumulate = np.add.accumulate
    empty = np.empty
    move_post = state.move_post
    post_moved = cache.post_moved
    degenerate = 0

    with trace.span("posts", count=len(post_order)):
        for post in post_order:
            old_c = post_c[post]
            old_k = post_k[post]
            t = times[post]
            author = authors[post]

            # Eq. (1) against the live counters (community_weights).
            weights = add(n_user_comm[author], rho, comm_buf)
            factor = add(n_comm_topic[:, old_k], alpha, factor_buf)
            div(factor, comm_denom, factor)
            mul(weights, factor, weights)
            add(n_ctt[:, old_k, t], eps, factor)
            div(factor, time_denom[:, old_k], factor)
            mul(weights, factor, weights)
            # Virtual removal: patch entry old_c (corrected_community_entry).
            n_ck = int(n_comm_topic[old_c, old_k]) - 1
            n_ckt = int(n_ctt[old_c, old_k, t]) - 1
            weights[old_c] = (
                ((int(n_user_comm[author, old_c]) - 1) + rho)
                * ((n_ck + alpha) / ((int(n_comm_total[old_c]) - 1) + K_alpha))
            ) * ((n_ckt + eps) / (n_ck + T_eps))
            maximum(weights, floor, out=weights)
            total = reduce_(weights)
            if isfinite(total) and total > 0.0:
                accumulate(weights, 0, None, cum_comm)
                index = cum_comm.searchsorted(random() * total, side="right")
                new_c = int(index) if index < C1 else C1
            else:
                new_c = int(integers(C))
                degenerate += 1

            # Eq. (3) with the virtual-removal patches (topic_log_weights).
            base = base_all[new_c, t]
            if all_distinct[post]:
                words, counts = post_words[post]
                W = len(words)
                gathered = int_bufs.get(W)
                if gathered is None:
                    gathered = int_bufs[W] = empty((W, K), np.int64)
                word_topic.take(words, 0, gathered)
                gathered[:, old_k] -= counts
                buf = kw_bufs.get(W)
                if buf is None:
                    buf = kw_bufs[W] = empty((K, W))
                terms = add(gathered.T, beta, buf)
                log(terms, terms)
                numerator = reduce_(terms, 1)
            else:
                full_words, qs_col, mults = expanded[post]
                L = len(full_words)
                ints = int_bufs.get(L)
                if ints is None:
                    ints = int_bufs[L] = empty((L, K), np.int64)
                word_topic.take(full_words, 0, ints)
                add(ints, qs_col, ints)
                ints[:, old_k] -= mults
                terms = flt_bufs.get(L)
                if terms is None:
                    terms = flt_bufs[L] = empty((L, K))
                add(ints, beta, terms)
                log(terms, terms)
                accumulate(terms, 0, None, terms)
                numerator = terms[-1]
            length = lengths[post]
            denominator = reduce_(ldt[:, M : M + length], 1)
            lw = add(base, numerator, topic_buf)
            sub(lw, denominator, lw)
            den = reduce_(ldt[old_k, M - length : M])
            if new_c == old_c:
                log3[0] = n_ck + alpha
                log3[1] = n_ck + T_eps
                log3[2] = n_ckt + eps
                log(log3, log3)
                base_val = log3[0] + (log3[2] - log3[1])
            else:
                base_val = base[old_k]
            lw[old_k] = (base_val + numerator[old_k]) - den
            sub(lw, max_reduce(lw), lw)
            exp(lw, lw)
            maximum(lw, floor, out=lw)
            total = reduce_(lw)
            if isfinite(total) and total > 0.0:
                accumulate(lw, 0, None, cum_topic)
                index = cum_topic.searchsorted(random() * total, side="right")
                new_k = int(index) if index < K1 else K1
            else:
                new_k = int(integers(K))
                degenerate += 1

            if new_c != old_c or new_k != old_k:
                move_post(post, new_c, new_k)
                post_moved(state, post, old_c, old_k, new_c, new_k)

    state.degenerate_draws += degenerate
    degenerate = 0
    if not state.num_links:
        return

    # Draw the link permutation here, after the post loop, so the RNG
    # stream matches the reference sweep exactly.
    if link_order is None:
        link_order = rng.permutation(state.num_links).tolist()
    elif isinstance(link_order, np.ndarray):
        link_order = link_order.tolist()

    link_users = cache._link_users
    link_c = cache._link_c
    link_cp = cache._link_cp
    link_src_comm = state.link_src_comm
    link_dst_comm = state.link_dst_comm
    link_factor = cache.link_factor
    n_link_comm = state.n_link_comm
    pair_buf = cache._pair_buf
    pair_flat = pair_buf.ravel()
    comm_col = comm_buf[:, None]
    factor_row = factor_buf[None, :]
    cum_pair = cache._cum_pair
    lambda0 = hp.lambda0
    lambda1 = hp.lambda1
    CC = C * C
    CC1 = CC - 1

    # Links change label on nearly every draw (the C x C conditional is
    # much flatter than the post conditionals), so virtual removal would
    # patch three slices per draw only to mutate everything anyway; the
    # link kernel removes for real and wins by caching the Eq. (2)
    # occupation factor (a full C x C recompute per draw in the
    # reference) per cell.  Same body as fast_resample_link, inlined.
    with trace.span("links", count=len(link_order)):
        for link in link_order:
            src, dst = link_users[link]
            old_c = link_c[link]
            old_cp = link_cp[link]
            n_user_comm[src, old_c] -= 1
            n_user_comm[dst, old_cp] -= 1
            n_link_comm[old_c, old_cp] -= 1
            n = int(n_link_comm[old_c, old_cp])
            link_factor[old_c, old_cp] = (n + lambda1) / (n + lambda0 + lambda1)
            # Eq. (2) over the removed counters (link_weights).
            add(n_user_comm[src], rho, comm_buf)
            add(n_user_comm[dst], rho, factor_buf)
            mul(comm_col, factor_row, pair_buf)
            mul(pair_buf, link_factor, pair_buf)
            maximum(pair_flat, floor, out=pair_flat)
            total = reduce_(pair_flat)
            if isfinite(total) and total > 0.0:
                accumulate(pair_flat, 0, None, cum_pair)
                index = cum_pair.searchsorted(random() * total, side="right")
                flat_index = int(index) if index < CC1 else CC1
            else:
                flat_index = int(integers(CC))
                degenerate += 1
            new_c, new_cp = divmod(flat_index, C)
            n_user_comm[src, new_c] += 1
            n_user_comm[dst, new_cp] += 1
            n_link_comm[new_c, new_cp] += 1
            n = int(n_link_comm[new_c, new_cp])
            link_factor[new_c, new_cp] = (n + lambda1) / (n + lambda0 + lambda1)
            link_src_comm[link] = new_c
            link_dst_comm[link] = new_cp
            link_c[link] = new_c
            link_cp[link] = new_cp

    state.degenerate_draws += degenerate

