"""Paged KV-cache block allocator (PagedAttention-style).

The paper's serving background leans on vLLM's memory management [20]:
KV cache is allocated in fixed-size blocks so that requests with unknown
output lengths never need contiguous reservations.  This allocator
provides that substrate for the serving simulator: block-granular
allocation per request, growth by any number of tokens (a new block is
taken only when a request crosses a block boundary), explicit
fragmentation accounting, and admission checks that replace the
whole-request reservation of :class:`SchedulerLimits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.config import ModelConfig
from repro.models.kv_cache import kv_bytes_per_token


#: Block count standing in for an unbounded pool (``pool_bytes=inf``):
#: large enough that no simulated workload can exhaust it, while every
#: counter stays exact integer arithmetic.
UNBOUNDED_BLOCKS = 1 << 62


@dataclass(frozen=True)
class KvBlockConfig:
    """Geometry of the paged KV pool.

    ``pool_bytes`` of ``inf`` means an unbounded pool (admission never
    blocks) — the paged analogue of the scheduler's unlimited
    ``kv_budget_bytes``.
    """

    block_tokens: int = 16
    pool_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if not self.pool_bytes >= 0:
            raise ValueError("pool_bytes must be non-negative")


@dataclass
class _Allocation:
    blocks: int = 0
    tokens: int = 0


class PagedKvAllocator:
    """Block-granular KV accounting for one model on one device group."""

    def __init__(self, model: ModelConfig, config: KvBlockConfig) -> None:
        self.model = model
        self.config = config
        self.bytes_per_token = kv_bytes_per_token(model)
        self.block_bytes = self.bytes_per_token * config.block_tokens
        if self.block_bytes <= 0:
            raise ValueError("model yields zero-sized KV blocks")
        self.total_blocks = UNBOUNDED_BLOCKS \
            if math.isinf(config.pool_bytes) \
            else int(config.pool_bytes // self.block_bytes)
        # per-request blocks and tokens, and their block total: the only
        # state the hot path keeps (fragmentation is summed on demand)
        self._allocations: dict[int, _Allocation] = {}
        self._used_blocks = 0

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._used_blocks

    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def active_requests(self) -> int:
        return len(self._allocations)

    def internal_fragmentation(self) -> float:
        """Bytes allocated but not holding tokens (last-block slack).

        Summed over the live allocations at each call, O(active
        requests): a report-time figure, which no simulation step reads.
        """
        block_tokens = self.config.block_tokens
        slack = sum(allocation.blocks * block_tokens - allocation.tokens
                    for allocation in self._allocations.values())
        return slack * self.bytes_per_token

    def blocks_for_tokens(self, tokens: int) -> int:
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        return math.ceil(tokens / self.config.block_tokens)

    # ------------------------------------------------------------------ #
    # Allocation lifecycle                                                #
    # ------------------------------------------------------------------ #

    def can_admit(self, prompt_tokens: int) -> bool:
        """Whether a fresh prompt's blocks fit right now.

        Paged admission only needs the *prompt* resident immediately —
        decode growth allocates lazily — which is exactly how paging
        beats whole-request reservation on admission batch size.
        """
        return self.blocks_for_tokens(prompt_tokens) <= self.free_blocks

    def admit(self, request_id: int, prompt_tokens: int) -> None:
        """Allocate the prompt's blocks for a new request."""
        if request_id in self._allocations:
            raise ValueError(f"request {request_id} already allocated")
        needed = self.blocks_for_tokens(prompt_tokens)
        if needed > self.free_blocks:
            raise MemoryError(
                f"request {request_id}: needs {needed} blocks, "
                f"{self.free_blocks} free")
        self._allocations[request_id] = _Allocation(blocks=needed,
                                                    tokens=prompt_tokens)
        self._used_blocks += needed

    def growth_blocks(self, request_id: int, new_tokens: int) -> int:
        """Blocks a :meth:`extend` by ``new_tokens`` would allocate."""
        allocation = self._allocations.get(request_id)
        if allocation is None:
            raise KeyError(f"request {request_id} has no allocation")
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        return self.blocks_for_tokens(allocation.tokens + new_tokens) \
            - allocation.blocks

    def extend(self, request_id: int, new_tokens: int) -> bool:
        """Grow a request by ``new_tokens`` at once (all-or-nothing).

        One call per decode burst (or per step, with ``new_tokens=1``).
        Returns ``True`` when the growth fit (possibly by taking new
        blocks) and ``False`` — leaving the allocation untouched — when
        the pool cannot supply the growth blocks; the caller must then
        preempt or stall (vLLM's recompute/swap decision point).
        """
        allocation = self._allocations.get(request_id)
        if allocation is None:
            raise KeyError(f"request {request_id} has no allocation")
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        if new_tokens == 0:
            return True
        grown = self.blocks_for_tokens(allocation.tokens + new_tokens)
        growth = grown - allocation.blocks
        if growth > self.free_blocks:
            return False
        allocation.tokens += new_tokens
        allocation.blocks = grown
        self._used_blocks += growth
        return True

    def extend_within_blocks(self, request_ids: list,
                             new_tokens: int) -> list[int]:
        """:meth:`extend` every listed request whose last block holds
        ``new_tokens`` more tokens; return the positions of the rest.

        Growth that fits in a request's last block takes no block, so
        it always succeeds and is plain integer arithmetic: one loop
        for the whole batch instead of a call per request.  A request
        that would cross a block boundary is left untouched, and its
        position in ``request_ids`` is returned (in order) for the
        caller to claim with :meth:`extend`.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        allocations = self._allocations
        block_tokens = self.config.block_tokens
        crossing = []
        for position, request_id in enumerate(request_ids):
            allocation = allocations[request_id]
            tokens = allocation.tokens + new_tokens
            if tokens <= allocation.blocks * block_tokens:
                allocation.tokens = tokens
            else:
                crossing.append(position)
        return crossing

    def release(self, request_id: int) -> int:
        """Free a finished request's blocks; returns the block count."""
        allocation = self._allocations.pop(request_id, None)
        if allocation is None:
            raise KeyError(f"request {request_id} has no allocation")
        self._used_blocks -= allocation.blocks
        return allocation.blocks

    def allocation_blocks(self, request_id: int) -> int:
        """Blocks currently held by one live allocation."""
        allocation = self._allocations.get(request_id)
        if allocation is None:
            raise KeyError(f"request {request_id} has no allocation")
        return allocation.blocks

    def allocation_tokens(self, request_id: int) -> int:
        """Tokens currently resident in one live allocation."""
        allocation = self._allocations.get(request_id)
        if allocation is None:
            raise KeyError(f"request {request_id} has no allocation")
        return allocation.tokens

    # ------------------------------------------------------------------ #
    # Comparison helper                                                   #
    # ------------------------------------------------------------------ #

    def max_admissible_prompts(self, prompt_tokens: int,
                               output_tokens: int) -> tuple[int, int]:
        """(paged, reserved) request capacities for identical requests.

        ``reserved`` models the whole-request reservation policy
        (prompt + full output up front); ``paged`` only needs the prompt
        resident at admission.  The gap is paging's admission win.
        """
        if prompt_tokens < 1 or output_tokens < 0:
            raise ValueError("invalid request shape")
        paged = self.total_blocks // self.blocks_for_tokens(prompt_tokens)
        reserved_blocks = self.blocks_for_tokens(
            prompt_tokens + output_tokens)
        reserved = self.total_blocks // reserved_blocks
        return paged, reserved
