"""Device context: accounting, stage tags, default-device management."""

import numpy as np
import pytest

from repro.cuda.device import (
    Device,
    default_device,
    get_default_device,
    set_default_device,
)
from repro.hw.spec import K20C


class TestDeviceAccounting:
    def test_charge_kernel_advances_clock(self, device):
        t0 = device.elapsed
        dt = device.charge_kernel("k", flops=1e9, bytes_moved=1e9)
        assert dt > 0
        assert device.elapsed == pytest.approx(t0 + dt)
        assert device.kernel_launches == 1

    def test_charge_cpu_records_cpu_category(self, device):
        device.charge_cpu("host work", 0.5)
        assert device.timeline.total("cpu") == pytest.approx(0.5)

    def test_charge_cpu_at_records_only_the_part_past_the_clock(self, device):
        t0 = device.elapsed
        dt = device.charge_kernel("k", flops=1e9, bytes_moved=1e9)
        # fully hidden under the kernel: nothing recorded, clock unmoved
        assert device.charge_cpu_at("hidden", dt / 2, t0) == 0.0
        assert device.timeline.count("cpu") == 0
        assert device.elapsed == pytest.approx(t0 + dt)
        # outlasts the kernel by dt: only that part is recorded
        assert device.charge_cpu_at("tail", 2 * dt, t0) == pytest.approx(dt)
        assert device.elapsed == pytest.approx(t0 + 2 * dt)
        assert device.timeline.total() == pytest.approx(device.elapsed - t0)

    def test_stage_tags_nest_and_restore(self, device):
        with device.stage("outer"):
            device.charge_kernel("a", 0, 0)
            with device.stage("inner"):
                device.charge_kernel("b", 0, 0)
            device.charge_kernel("c", 0, 0)
        by_tag = device.timeline.by_tag()
        assert by_tag.keys() == {"outer", "inner"}

    def test_memory_info(self, device, rng):
        free0, total = device.memory_info()
        assert total == K20C.memory_bytes
        device.to_device(rng.random(1000))
        free1, _ = device.memory_info()
        # cudaMemGetInfo reports the allocator's rounded footprint: 8000
        # requested bytes occupy one 512 B-granular block (8192)
        assert free1 == free0 - 8192

    def test_reset_clears_state(self, device, rng):
        device.to_device(rng.random(10))
        device.charge_kernel("k", 1, 1)
        device.reset()
        assert device.elapsed == 0.0
        assert device.allocator.used_bytes == 0
        assert device.kernel_launches == 0

    def test_repr(self, device):
        assert "K20c" in repr(device)


class TestDefaultDevice:
    def test_lazy_creation(self):
        set_default_device(None)
        d = get_default_device()
        assert isinstance(d, Device)
        assert get_default_device() is d

    def test_set_and_restore(self):
        mine = Device()
        set_default_device(mine)
        assert get_default_device() is mine
        set_default_device(None)

    def test_scoped_default(self):
        set_default_device(None)
        outer = get_default_device()
        mine = Device()
        with default_device(mine) as d:
            assert d is mine
            assert get_default_device() is mine
        assert get_default_device() is outer
