"""On-chip buffers: capacity space-sharing at install."""

import math

import pytest

from repro.hw.buffers import BufferCapacityError, OnChipBuffer


@pytest.fixture
def buffer():
    return OnChipBuffer("weight", capacity_bytes=1000)


class TestSpaceSharing:
    def test_allocate(self, buffer):
        buffer.allocate("inference", 600)
        assert buffer.allocated_bytes == 600
        assert buffer.free_bytes == 400

    def test_oversubscription_rejected(self, buffer):
        buffer.allocate("inference", 900)
        with pytest.raises(BufferCapacityError):
            buffer.allocate("training", 200)

    def test_duplicate_context_rejected(self, buffer):
        buffer.allocate("inference", 100)
        with pytest.raises(ValueError):
            buffer.allocate("inference", 100)

    def test_exclusive_slices(self, buffer):
        buffer.allocate("inference", 600)
        buffer.allocate("training", 20)  # the <2% staging slice
        assert buffer.allocated_bytes == 620
        assert buffer.free_bytes == 380

    def test_rejects_negative_allocation(self, buffer):
        with pytest.raises(ValueError):
            buffer.allocate("x", -1)

    def test_rejects_nan_allocation_without_side_effects(self, buffer):
        buffer.allocate("inference", 600)
        with pytest.raises(ValueError):
            buffer.allocate("training", math.nan)
        assert buffer.free_bytes == 400
        assert buffer.allocated_bytes == 600
        # The refused context holds nothing, so it may still install,
        # and the capacity check still bites.
        with pytest.raises(BufferCapacityError):
            buffer.allocate("training", 500)
        buffer.allocate("training", 400)
        assert buffer.free_bytes == 0

    def test_zero_byte_slice_still_holds_the_context(self, buffer):
        buffer.allocate("training", 0)
        assert buffer.free_bytes == 1000
        with pytest.raises(ValueError):
            buffer.allocate("training", 10)

    def test_refusal_names_buffer_context_holders_and_shortfall(self, buffer):
        buffer.allocate("inference", 900)
        with pytest.raises(BufferCapacityError) as refused:
            buffer.allocate("training", 250)
        assert str(refused.value) == (
            "weight buffer cannot install context 'training': requested "
            "250 B but only 100 B of 1000 B remain (existing allocations: "
            "inference=900 B); short by 150 B"
        )

    def test_refused_allocation_leaves_state_unchanged(self, buffer):
        buffer.allocate("inference", 900)
        with pytest.raises(BufferCapacityError):
            buffer.allocate("training", 200)
        assert buffer.allocated_bytes == 900
        # The refused context holds nothing, so a slice that fits installs.
        buffer.allocate("training", 100)
        assert buffer.free_bytes == 0

    def test_rejects_infinite_sizes(self, buffer):
        with pytest.raises(BufferCapacityError):
            buffer.allocate("inference", math.inf)
        with pytest.raises(ValueError):
            buffer.allocate("inference", -math.inf)
        assert buffer.free_bytes == 1000

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            OnChipBuffer("b", capacity_bytes=0)

    def test_rejects_nan_capacity(self):
        # A NaN capacity would make every later capacity check pass.
        with pytest.raises(ValueError):
            OnChipBuffer("b", capacity_bytes=math.nan)
