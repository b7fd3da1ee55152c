"""Paged prefix/KV reuse across the turns of a multi-turn session.

Multi-turn chat resends the whole growing history every turn, yet a cold
endpoint re-prefills it from scratch — the single biggest TTFT/capacity
lever on ultrachat-shaped traffic.  This module models the vLLM-style
answer (Apt-Serve's hybrid cache makes the same bet): when a turn
finishes, its KV blocks — accumulated history plus the fresh answer —
stay *resident* in the paged pool, filed under the session.  When the
session's next turn arrives, the scheduler re-prefills only the fresh
question; the cached prefix is already in memory.

The cache is layered on :class:`~repro.serving.kv_allocator
.PagedKvAllocator` and obeys two invariants:

* **cached blocks are reclaimable, active allocations are not** — pool
  pressure evicts whole cached prefixes (policy-chosen, LRU by
  default) but never touches a running request's blocks; when even
  reclaiming everything cannot fit a prompt, admission stalls, and when
  a *running* request cannot grow, the scheduler preempts
  (vLLM's recompute path);
* **a reclaimable-fraction cap** bounds how much of the pool cached
  prefixes may occupy, so the cache can never starve admission.

Reuse is *exact* at block granularity: a hit covers the longest
block-aligned prefix of the turn's resident history, never more than
``input_tokens - 1`` (at least one token is always recomputed, exactly
like vLLM's prefix caching).  What is *modeled* rather than
byte-accurate is the growth/preemption timing: decode-block exhaustion
is applied at iteration (or fast-forward burst) boundaries, not
mid-step.

Eviction policies follow the repo's registry idiom, exactly like
routers and autoscalers::

    from repro.serving.prefix_cache import register_eviction_policy

    @register_eviction_policy("my-policy")
    class MyPolicy:
        def select(self, entries):  # -> CachedPrefix to evict
            ...

Built-ins: ``lru`` (least recent session activity), ``fifo`` (oldest
session first), ``largest`` (most blocks freed per eviction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from repro.models.config import ModelConfig
from repro.registry import Registry
from repro.serving.kv_allocator import KvBlockConfig, PagedKvAllocator
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits
from repro.spec_codec import SpecCodec


# --------------------------------------------------------------------- #
# Spec (serialized inside DeploymentSpec)                                #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class PrefixCacheSpec(SpecCodec):
    """How a deployment reuses KV prefixes across session turns.

    ``reclaimable_fraction`` caps the share of the paged pool that
    cached (reclaimable) prefixes may hold; ``eviction`` names a
    registered eviction policy; ``block_tokens`` is the paged-pool
    block size.  The pool itself is sized by the deployment's
    ``kv_budget_bytes`` (``None``/unlimited budget means an unbounded
    pool: everything is cached and nothing is ever evicted).  The cache
    is on when a deployment carries this spec; without one the
    subsystem is entirely bypassed.  JSON carrying the retired
    ``"enabled": true`` still loads; ``"enabled": false`` fails, since
    dropping it would turn the cache on.
    """

    reclaimable_fraction: float = 0.5
    eviction: str = "lru"
    block_tokens: int = 16

    _RETIRED_KEYS = {"enabled": True}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.reclaimable_fraction <= 1.0:
            raise ValueError(
                "reclaimable_fraction must be in (0, 1]")
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        # unknown policy names fail here, at spec construction, not
        # deep inside the first engine iteration
        get_eviction_policy(self.eviction)


# --------------------------------------------------------------------- #
# Eviction policy registry                                               #
# --------------------------------------------------------------------- #

@dataclass
class CachedPrefix:
    """One session's resident prefix: the blocks of its last finished
    turn (history + answer), reclaimable until the next turn claims or
    pressure evicts them.

    ``stored_at`` is the logical time the *session* first entered the
    cache (preserved across re-stashes, so FIFO ages sessions, not
    turns); ``last_used`` is bumped on every re-stash (so LRU tracks
    session activity).  Both are event counters, not wall clock — the
    cache is deterministic by construction.
    """

    session_id: int
    tokens: int
    blocks: int
    alloc_key: int
    stored_at: int
    last_used: int


class EvictionPolicy(Protocol):
    """Chooses which cached prefix to reclaim under pool pressure."""

    def select(self, entries: Iterable[CachedPrefix]) -> CachedPrefix:
        """Return the entry to evict (``entries`` is never empty)."""
        ...


EVICTION_REGISTRY = Registry("eviction policy")


def register_eviction_policy(name: str) -> Callable:
    """Decorator: register a zero-arg :class:`EvictionPolicy` factory."""

    def _decorate(factory: Callable[[], EvictionPolicy]):
        EVICTION_REGISTRY.register(name, factory)
        return factory

    return _decorate


def get_eviction_policy(name: str) -> Callable[[], EvictionPolicy]:
    """Look up an eviction-policy factory by name."""
    return EVICTION_REGISTRY.get(name)


def list_eviction_policies() -> list[str]:
    """Registered eviction-policy names, sorted."""
    return EVICTION_REGISTRY.names()


@register_eviction_policy("lru")
class LruEviction:
    """Evict the session with the least recent activity (ties by id)."""

    def select(self, entries: Iterable[CachedPrefix]) -> CachedPrefix:
        return min(entries, key=lambda e: (e.last_used, e.session_id))


@register_eviction_policy("fifo")
class FifoEviction:
    """Evict the session that entered the cache first (ties by id)."""

    def select(self, entries: Iterable[CachedPrefix]) -> CachedPrefix:
        return min(entries, key=lambda e: (e.stored_at, e.session_id))


@register_eviction_policy("largest")
class LargestEviction:
    """Evict the biggest prefix: most blocks freed per eviction."""

    def select(self, entries: Iterable[CachedPrefix]) -> CachedPrefix:
        return min(entries,
                   key=lambda e: (-e.blocks, e.last_used, e.session_id))


# --------------------------------------------------------------------- #
# Stats (attached to SimulationResult / merged by ClusterReport)         #
# --------------------------------------------------------------------- #

@dataclass
class PrefixCacheStats:
    """What the cache did over one run.

    ``lookups`` counts every admission; ``eligible`` the subset that
    carried a reusable history (a session turn beyond the first);
    ``hits`` the eligible lookups whose prefix was still resident.
    ``saved_prefill_tokens`` is the headline win: prompt tokens that
    were *not* re-prefilled because their blocks were cached.
    ``reclaimed_blocks`` counts blocks taken back from cached prefixes
    under pool pressure, and ``preemptions`` the running requests
    requeued for recompute when even reclaiming was not enough.
    """

    lookups: int = 0
    eligible: int = 0
    hits: int = 0
    saved_prefill_tokens: int = 0
    stashed: int = 0
    rejected_stashes: int = 0
    evictions: int = 0
    reclaimed_blocks: int = 0
    preemptions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over prefix-bearing lookups (0.0 when none occurred)."""
        if self.eligible == 0:
            return 0.0
        return self.hits / self.eligible

    @classmethod
    def merged(cls, parts: Iterable["PrefixCacheStats"]
               ) -> "PrefixCacheStats":
        """Fleet view: counter-wise sum of per-replica stats."""
        total = cls()
        for part in parts:
            total.lookups += part.lookups
            total.eligible += part.eligible
            total.hits += part.hits
            total.saved_prefill_tokens += part.saved_prefill_tokens
            total.stashed += part.stashed
            total.rejected_stashes += part.rejected_stashes
            total.evictions += part.evictions
            total.reclaimed_blocks += part.reclaimed_blocks
            total.preemptions += part.preemptions
        return total


# --------------------------------------------------------------------- #
# The cache                                                              #
# --------------------------------------------------------------------- #

class PrefixCache:
    """Block-granular prefix store for one endpoint's paged KV pool.

    Owns the endpoint's :class:`PagedKvAllocator`: every active request
    allocates through :meth:`acquire`, claims growth blocks through
    :meth:`extend` and releases through :meth:`stash` (finish) or
    :meth:`forfeit` (preemption), so active and cached blocks share one
    pool and one accounting.  Growth that fits in a request's last
    block takes no block, so the scheduler advances it on the allocator
    directly (:meth:`PagedKvAllocator.extend_within_blocks`).  A
    stashed prefix keeps its finished request's allocation alive — the
    blocks stay "used" in the allocator but become reclaimable here.
    """

    def __init__(self, allocator: PagedKvAllocator,
                 reclaimable_fraction: float = 0.5,
                 eviction: str = "lru") -> None:
        if not 0.0 < reclaimable_fraction <= 1.0:
            raise ValueError("reclaimable_fraction must be in (0, 1]")
        self.allocator = allocator
        self.block_tokens = allocator.config.block_tokens
        self.reclaimable_block_cap = int(
            reclaimable_fraction * allocator.total_blocks)
        self._policy: EvictionPolicy = get_eviction_policy(eviction)()
        self._entries: dict[int, CachedPrefix] = {}
        self.cached_blocks = 0
        self._clock = 0
        self.stats = PrefixCacheStats()

    @classmethod
    def for_deployment(cls, model: ModelConfig, limits: SchedulerLimits,
                       spec: PrefixCacheSpec) -> "PrefixCache":
        """Build the pool an endpoint's limits imply and cache on it."""
        allocator = PagedKvAllocator(model, KvBlockConfig(
            block_tokens=spec.block_tokens,
            pool_bytes=limits.kv_budget_bytes))
        return cls(allocator,
                   reclaimable_fraction=spec.reclaimable_fraction,
                   eviction=spec.eviction)

    # ------------------------------------------------------------------ #
    # Active-request lifecycle (called by the scheduler)                  #
    # ------------------------------------------------------------------ #

    def _match(self, entry: CachedPrefix, request: Request) -> int:
        """Block-aligned reusable prefix length for ``request``.

        Capped by the resident prefix, by the tokens the turn actually
        shares (``history_tokens``) and — like vLLM — by
        ``input_tokens - 1``: at least one prompt token is always
        recomputed, so a fully-cached prompt still prefills.
        """
        upper = min(entry.tokens, request.history_tokens,
                    request.input_tokens - 1)
        if upper <= 0:
            return 0
        return (upper // self.block_tokens) * self.block_tokens

    def acquire(self, request: Request) -> int | None:
        """Allocate an admission candidate's prompt blocks.

        Returns the cached-prefix hit in tokens (0 on a miss), or
        ``None`` — with *no* state touched — when the prompt cannot fit
        even after reclaiming every cached prefix; the scheduler then
        stalls admission until running work completes.

        A preempted request re-enters here with ``generated_tokens``
        already emitted; its whole context (prompt + generated) must be
        re-resident for the recompute, and it never scores a hit (its
        session entry, if any, predates the turn).
        """
        self._clock += 1
        prompt = request.input_tokens + request.generated_tokens
        needed = self.allocator.blocks_for_tokens(prompt)
        if needed > self.allocator.free_blocks + self.cached_blocks:
            return None
        self.stats.lookups += 1
        session = request.session_id
        eligible = (session is not None and request.history_tokens > 0
                    and request.generated_tokens == 0)
        if eligible:
            self.stats.eligible += 1
        hit = 0
        entry = self._entries.pop(session, None) \
            if session is not None else None
        if entry is not None:
            if eligible:
                hit = self._match(entry, request)
            # the turn supersedes the stored prefix either way: its own
            # finish will stash the longer (history + answer) context
            self.cached_blocks -= entry.blocks
            self.allocator.release(entry.alloc_key)
        if needed > self.allocator.free_blocks:
            self._reclaim(needed)
        self.allocator.admit(request.request_id, prompt)
        if hit > 0:
            self.stats.hits += 1
            self.stats.saved_prefill_tokens += hit
        return hit

    def extend(self, request: Request, tokens: int) -> bool:
        """Grow a running request by ``tokens`` generated tokens.

        Reclaims cached prefixes under pressure; returns ``False`` only
        when even a fully-drained cache cannot supply the blocks — the
        scheduler's preemption trigger.
        """
        growth = self.allocator.growth_blocks(request.request_id, tokens)
        if growth > self.allocator.free_blocks + self.cached_blocks:
            return False
        if growth > self.allocator.free_blocks:
            self._reclaim(growth)
        return self.allocator.extend(request.request_id, tokens)

    def stash(self, request: Request) -> None:
        """Release a finished request *into* the cache.

        Sessionless requests free their blocks outright.  A session
        turn's allocation (history + answer, the next turn's prefix)
        becomes a reclaimable :class:`CachedPrefix` — unless it alone
        would bust the reclaimable cap, in which case caching it is
        pointless (it would evict itself) and the blocks are freed.
        """
        request_id = request.request_id
        session = request.session_id
        if session is None:
            self.allocator.release(request_id)
            return
        blocks = self.allocator.allocation_blocks(request_id)
        if blocks > self.reclaimable_block_cap:
            self.allocator.release(request_id)
            self.stats.rejected_stashes += 1
            return
        self._clock += 1
        stored_at = self._clock
        previous = self._entries.pop(session, None)
        if previous is not None:
            # superseded by this turn's longer prefix; keep the
            # session's original insertion time so FIFO ages sessions
            stored_at = previous.stored_at
            self.cached_blocks -= previous.blocks
            self.allocator.release(previous.alloc_key)
        while self.cached_blocks + blocks > self.reclaimable_block_cap:
            if not self._evict_one():
                break
        tokens = self.allocator.allocation_tokens(request_id)
        self._entries[session] = CachedPrefix(
            session_id=session, tokens=tokens, blocks=blocks,
            alloc_key=request_id, stored_at=stored_at,
            last_used=self._clock)
        self.cached_blocks += blocks
        self.stats.stashed += 1

    def forfeit(self, request: Request) -> None:
        """Drop a preempted request's blocks (vLLM's recompute path)."""
        self.allocator.release(request.request_id)
        self.stats.preemptions += 1

    # ------------------------------------------------------------------ #
    # Eviction (cached prefixes only — never active allocations)          #
    # ------------------------------------------------------------------ #

    def _reclaim(self, needed_blocks: int) -> None:
        """Evict cached prefixes until at least ``needed_blocks`` of the
        pool are free (the target free count, not a delta)."""
        while self.allocator.free_blocks < needed_blocks:
            if not self._evict_one():
                break

    def _evict_one(self) -> bool:
        if not self._entries:
            return False
        victim = self._policy.select(self._entries.values())
        del self._entries[victim.session_id]
        self.cached_blocks -= victim.blocks
        freed = self.allocator.release(victim.alloc_key)
        self.stats.evictions += 1
        self.stats.reclaimed_blocks += freed
        return True
