"""Static instruction images and the decoder."""

import pytest

from repro.hw.config import AcceleratorConfig
from repro.hw.instructions import (
    INSTRUCTION_BYTES,
    Instruction,
    Opcode,
    assemble_inference,
    assemble_training,
)
from repro.models.lstm import deepbench_lstm
from repro.models.resnet import resnet50


@pytest.fixture
def config():
    return AcceleratorConfig(name="isa", n=16, m=8, w=8, frequency_hz=1e9)


def _count(image, opcode):
    """How many of ``image``'s instructions carry ``opcode``."""
    return sum(1 for instruction in image.instructions if instruction.opcode is opcode)


class TestDecoder:
    def test_matmul_raises_datapath_signals(self):
        signals = Instruction(Opcode.MATMUL_TILE, (0, 0, 0)).decode()
        assert "mmu_issue" in signals
        assert "weight_buffer_read" in signals

    def test_data_movement_raises_interface_signals(self):
        assert "dram_read" in Instruction(Opcode.LOAD_WEIGHTS).decode()
        assert "dram_write" in Instruction(Opcode.STORE_OUTPUT).decode()

    def test_every_opcode_decodes(self):
        for opcode in Opcode:
            assert Instruction(opcode).decode()


class TestInferenceImage:
    def test_matmul_count_is_k_tile_chain(self, config, tiny_model):
        """Row passes and column groups compress into hardware loops;
        only the K-tile accumulation chain is materialized."""
        import math

        image = assemble_inference(tiny_model, config)
        layer = tiny_model.layers[0]
        expected = math.ceil(layer.k / config.tile_k)
        assert _count(image, Opcode.MATMUL_TILE) == expected

    def test_recurrence_uses_hardware_loop(self, config, tiny_model):
        image = assemble_inference(tiny_model, config)
        assert _count(image, Opcode.LOOP) >= 1

    def test_lstm_image_fits_instruction_buffer(self, config):
        """The paper's 32 KB instruction buffer holds the LSTM service:
        recurrent steps share their tile instructions via the repeat
        counter."""
        image = assemble_inference(deepbench_lstm(), config)
        assert image.bytes <= 0.5 * config.sram.instruction_bytes

    def test_bytes_accounting(self, config, tiny_model):
        image = assemble_inference(tiny_model, config)
        assert image.bytes == image.count * INSTRUCTION_BYTES

    def test_resnet_image_much_larger_than_lstm(self, config):
        lstm = assemble_inference(deepbench_lstm(), config)
        cnn = assemble_inference(resnet50(image_size=64, conv_batch=2), config)
        assert cnn.count > 5 * lstm.count


class TestTrainingImage:
    def test_streams_weights_every_layer_pass(self, config, tiny_model):
        image = assemble_training(tiny_model, config, batch=16)
        # One load per fwd/dgrad layer block plus the fresh-model
        # download (the per-step restream is the LOOP's repetition).
        assert _count(image, Opcode.LOAD_WEIGHTS) == 2 * len(tiny_model.layers) + 1

    def test_has_gradient_stores(self, config, tiny_model):
        image = assemble_training(tiny_model, config, batch=16)
        assert _count(image, Opcode.STORE_OUTPUT) >= len(tiny_model.layers)

    def test_both_services_space_share_the_buffer(self, config):
        inference = assemble_inference(deepbench_lstm(), config)
        training = assemble_training(deepbench_lstm(), config)
        total = inference.bytes + training.bytes
        assert total <= config.sram.instruction_bytes
