"""Tests for the processor presets."""

import pytest

from repro.power.presets import cmos_processor, ideal_processor, normalized_processor


def test_ideal_processor_defaults():
    processor = ideal_processor()
    assert processor.law == "linear"
    assert processor.vmax == 5.0
    assert processor.frequency(processor.vmax) == pytest.approx(processor.fmax)


def test_cmos_processor_defaults():
    processor = cmos_processor()
    assert processor.law == "cmos"
    assert processor.frequency(processor.vmax) == pytest.approx(processor.fmax)
    assert processor.vth < processor.vmin


def test_normalized_processor_unit_scale():
    processor = normalized_processor()
    assert processor.vmax == 1.0
    assert processor.fmax == 1.0
    assert processor.frequency(1.0) == pytest.approx(1.0)
