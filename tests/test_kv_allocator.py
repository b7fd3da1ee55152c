"""Unit + property tests for the paged KV allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.zoo import get_model
from repro.serving.kv_allocator import KvBlockConfig, PagedKvAllocator

GIB = 1024 ** 3


def make_allocator(pool_gib=4.0, block_tokens=16):
    model = get_model("llama3-8b")  # 128 KiB KV per token
    return PagedKvAllocator(model, KvBlockConfig(
        block_tokens=block_tokens, pool_bytes=pool_gib * GIB))


class TestLifecycle:
    def test_admit_and_release_roundtrip(self):
        allocator = make_allocator()
        free = allocator.free_blocks
        allocator.admit(1, prompt_tokens=100)
        assert allocator.used_blocks == allocator.blocks_for_tokens(100)
        assert allocator.release(1) == allocator.blocks_for_tokens(100)
        assert allocator.free_blocks == free

    def test_append_uses_block_slack_first(self):
        allocator = make_allocator(block_tokens=16)
        allocator.admit(1, prompt_tokens=17)  # 2 blocks, 15 slack tokens
        used = allocator.used_blocks
        for _ in range(15):
            assert allocator.extend(1, 1)
        assert allocator.used_blocks == used
        assert allocator.extend(1, 1)  # 33rd token takes a new block
        assert allocator.used_blocks == used + 1

    def test_append_fails_when_pool_full(self):
        allocator = make_allocator(pool_gib=0.01)  # ~5 blocks
        allocator.admit(1, prompt_tokens=allocator.total_blocks * 16)
        assert not allocator.extend(1, 1)

    def test_double_admit_rejected(self):
        allocator = make_allocator()
        allocator.admit(1, 10)
        with pytest.raises(ValueError):
            allocator.admit(1, 10)

    def test_admit_over_capacity_raises(self):
        allocator = make_allocator(pool_gib=0.01)
        with pytest.raises(MemoryError):
            allocator.admit(1, prompt_tokens=10**6)

    def test_unknown_request_operations_raise(self):
        allocator = make_allocator()
        with pytest.raises(KeyError):
            allocator.extend(9, 1)
        with pytest.raises(KeyError):
            allocator.release(9)


class TestBulkExtend:
    def test_extend_is_all_or_nothing(self):
        allocator = make_allocator(pool_gib=0.01)  # 5 blocks, 80 tokens
        allocator.admit(1, prompt_tokens=48)  # 3 blocks
        assert allocator.growth_blocks(1, 40) == 3  # would need 88 total
        assert not allocator.extend(1, 40)
        # failed extend leaves the allocation untouched
        assert allocator.allocation_tokens(1) == 48
        assert allocator.allocation_blocks(1) == 3
        assert allocator.extend(1, 30)  # 78 tokens, 5 blocks: fits
        assert allocator.allocation_tokens(1) == 78

    def test_extend_matches_one_token_steps(self):
        bulk, steps = make_allocator(), make_allocator()
        bulk.admit(1, 100)
        steps.admit(1, 100)
        assert bulk.extend(1, 37)
        for _ in range(37):
            assert steps.extend(1, 1)
        assert bulk.allocation_blocks(1) == steps.allocation_blocks(1)
        assert bulk.internal_fragmentation() \
            == steps.internal_fragmentation()

    def test_growth_blocks_validation(self):
        allocator = make_allocator()
        allocator.admit(1, 10)
        with pytest.raises(KeyError):
            allocator.growth_blocks(9, 5)
        with pytest.raises(ValueError):
            allocator.growth_blocks(1, -1)


def allocator_state(allocator):
    return (allocator.used_blocks,
            {rid: (a.blocks, a.tokens)
             for rid, a in allocator._allocations.items()})


class TestExtendWithinBlocks:
    def test_advances_in_block_members_and_reports_crossings(self):
        allocator = make_allocator(block_tokens=16)
        allocator.admit(1, 10)  # 6 tokens of slack
        allocator.admit(2, 16)  # full block: any growth crosses
        allocator.admit(3, 20)  # 12 tokens of slack
        used = allocator.used_blocks
        assert allocator.extend_within_blocks([3, 2, 1], 6) == [1]
        assert allocator.used_blocks == used
        assert allocator.allocation_tokens(1) == 16
        assert allocator.allocation_tokens(2) == 16  # untouched
        assert allocator.allocation_tokens(3) == 26
        # slack left: request 3's 6 tokens (1 filled its block, 2 is full)
        assert allocator.internal_fragmentation() \
            == 6 * allocator.bytes_per_token

    def test_zero_tokens_and_empty_batch(self):
        allocator = make_allocator()
        allocator.admit(1, 16)
        before = allocator_state(allocator)
        assert allocator.extend_within_blocks([1], 0) == []
        assert allocator.extend_within_blocks([], 5) == []
        assert allocator_state(allocator) == before

    def test_validation_keeps_counters_exact(self):
        allocator = make_allocator(block_tokens=16)
        allocator.admit(1, 10)
        allocator.admit(2, 10)
        with pytest.raises(ValueError):
            allocator.extend_within_blocks([1], -1)
        with pytest.raises(KeyError):
            allocator.extend_within_blocks([1, 9, 2], 3)
        # the loop stopped at the unknown id: request 1 advanced, 2 not,
        # and the slack matches what was advanced
        assert allocator.allocation_tokens(1) == 13
        assert allocator.allocation_tokens(2) == 10
        assert allocator.internal_fragmentation() \
            == (3 + 6) * allocator.bytes_per_token


class TestAccounting:
    def test_fragmentation_bounded_by_one_block_per_request(self):
        allocator = make_allocator(block_tokens=16)
        for rid in range(10):
            allocator.admit(rid, prompt_tokens=17)
        frag = allocator.internal_fragmentation()
        bound = 10 * 16 * allocator.bytes_per_token
        assert 0 < frag < bound

    def test_paged_admits_more_than_reservation(self):
        """The PagedAttention headline: admission scales with prompt
        bytes, not prompt+output reservations."""
        allocator = make_allocator()
        paged, reserved = allocator.max_admissible_prompts(
            prompt_tokens=256, output_tokens=768)
        assert paged >= 3 * reserved

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            KvBlockConfig(block_tokens=0)
        for pool_bytes in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="pool_bytes"):
                KvBlockConfig(pool_bytes=pool_bytes)


@settings(max_examples=40, deadline=None)
@given(
    prompts=st.lists(st.integers(1, 500), min_size=1, max_size=20),
    block_tokens=st.sampled_from([8, 16, 32]),
)
def test_property_block_conservation(prompts, block_tokens):
    """Blocks used always equal the sum over live allocations, and all
    blocks return on release."""
    allocator = make_allocator(pool_gib=16.0, block_tokens=block_tokens)
    admitted = []
    for rid, prompt in enumerate(prompts):
        if allocator.can_admit(prompt):
            allocator.admit(rid, prompt)
            admitted.append((rid, prompt))
    expected = sum(allocator.blocks_for_tokens(p) for _, p in admitted)
    assert allocator.used_blocks == expected
    for rid, _ in admitted:
        allocator.release(rid)
    assert allocator.used_blocks == 0
    assert allocator.internal_fragmentation() == 0.0


@settings(max_examples=25, deadline=None)
@given(appends=st.integers(0, 200))
def test_property_one_token_extend_accounting(appends):
    allocator = make_allocator(pool_gib=8.0, block_tokens=16)
    allocator.admit(0, prompt_tokens=10)
    grown = 0
    for _ in range(appends):
        if allocator.extend(0, 1):
            grown += 1
    # tokens tracked exactly; blocks cover tokens with < 1 block slack
    allocation = allocator._allocations[0]
    assert allocation.tokens == 10 + grown
    assert allocation.blocks == allocator.blocks_for_tokens(allocation.tokens)


@settings(max_examples=30, deadline=None)
@given(
    prompts=st.lists(st.integers(1, 300), min_size=1, max_size=12),
    growths=st.lists(st.integers(0, 80), min_size=1, max_size=12),
)
def test_property_incremental_fragmentation_is_exact(prompts, growths):
    """Fragmentation is the per-allocation last-block slack, and zero
    once every allocation is released."""
    allocator = make_allocator(pool_gib=16.0, block_tokens=16)
    for rid, prompt in enumerate(prompts):
        allocator.admit(rid, prompt)
    for rid, growth in enumerate(growths[:len(prompts)]):
        allocator.extend(rid, growth)
    recomputed = sum(
        a.blocks * allocator.config.block_tokens - a.tokens
        for a in allocator._allocations.values()
    ) * allocator.bytes_per_token
    assert allocator.internal_fragmentation() == recomputed
    for rid in range(len(prompts)):
        allocator.release(rid)
    assert allocator.internal_fragmentation() == 0.0


@settings(max_examples=60, deadline=None)
@given(
    prompts=st.lists(st.integers(1, 80), min_size=1, max_size=12),
    block_tokens=st.sampled_from([1, 4, 16]),
    new_tokens=st.integers(0, 40),
    order=st.randoms(use_true_random=False),
)
def test_property_extend_within_blocks_matches_per_id_extend(
        prompts, block_tokens, new_tokens, order):
    """The bulk loop advances exactly the ids a per-id :meth:`extend`
    would grow without a new block, in place, and reports the others
    by position, untouched."""
    bulk = make_allocator(pool_gib=1.0, block_tokens=block_tokens)
    per_id = make_allocator(pool_gib=1.0, block_tokens=block_tokens)
    for rid, prompt in enumerate(prompts):
        bulk.admit(rid, prompt)
        per_id.admit(rid, prompt)
    ids = list(range(len(prompts)))
    order.shuffle(ids)
    ids = ids[:order.randint(0, len(ids))]
    crossing = []
    for position, rid in enumerate(ids):
        if per_id.growth_blocks(rid, new_tokens) == 0:
            assert per_id.extend(rid, new_tokens)
        else:
            crossing.append(position)
    assert bulk.extend_within_blocks(ids, new_tokens) == crossing
    assert allocator_state(bulk) == allocator_state(per_id)
    # the crossing ids were left for extend: claiming them now lands
    # both allocators in the same state again
    for position in crossing:
        assert bulk.extend(ids[position], new_tokens)
        assert per_id.extend(ids[position], new_tokens)
    assert allocator_state(bulk) == allocator_state(per_id)
