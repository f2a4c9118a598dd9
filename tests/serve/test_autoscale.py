"""Autoscaler decision logic: scale up under pressure, down after
cooldown, and never flap.

The :class:`~repro.serve.batcher.Autoscaler` is a pure tick machine
over injected callables, so every scenario here is driven
deterministically — a fake clock, fake gauges, zero threads — and the
no-flap invariant is checked as a hard bound on scaling events per
simulated second, not as a timing-dependent observation.
"""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.serve.batcher import Autoscaler, MicroBatcher


class _Sim:
    """A fake world: mutable depth/p95 gauges, worker count, clock."""

    def __init__(self, workers=1, depth=0, p95=0.0):
        self.workers = workers
        self.depth = depth
        self.p95 = p95
        self.now = 0.0
        self.events = []  # (time, new_workers)

    def scale(self, n):
        self.events.append((self.now, n))
        self.workers = n

    def scaler(self, **kwargs):
        kwargs.setdefault("min_workers", 1)
        kwargs.setdefault("max_workers", 4)
        kwargs.setdefault("up_queue_depth", 8)
        kwargs.setdefault("up_ticks", 2)
        kwargs.setdefault("down_ticks", 3)
        kwargs.setdefault("cooldown_s", 5.0)
        return Autoscaler(
            depth_fn=lambda: self.depth,
            workers_fn=lambda: self.workers,
            scale_fn=self.scale,
            p95_fn=lambda: self.p95,
            now_fn=lambda: self.now,
            **kwargs,
        )


class TestScaleUp:
    def test_scales_up_under_sustained_queue_pressure(self):
        sim = _Sim(depth=20)
        scaler = sim.scaler()
        assert scaler.tick() == 0  # one pressured tick is not enough
        assert scaler.tick() == 1
        assert sim.workers == 2

    def test_scales_up_on_p95_latency(self):
        sim = _Sim(depth=0, p95=900.0)
        scaler = sim.scaler(up_p95_ms=500.0)
        scaler.tick()
        assert scaler.tick() == 1
        assert sim.workers == 2

    def test_caps_at_max_workers(self):
        sim = _Sim(workers=4, depth=50)
        scaler = sim.scaler()
        for _ in range(10):
            sim.now += 10.0
            scaler.tick()
        assert sim.workers == 4 and sim.events == []

    def test_single_spike_does_not_scale(self):
        sim = _Sim(depth=20)
        scaler = sim.scaler(up_ticks=3)
        scaler.tick()
        sim.depth = 0  # spike over; streak must reset
        scaler.tick()
        sim.depth = 20
        scaler.tick()
        scaler.tick()
        assert sim.workers == 1 and sim.events == []


class TestScaleDown:
    def test_scales_down_after_idle_streak(self):
        sim = _Sim(workers=3, depth=0)
        scaler = sim.scaler(down_ticks=3)
        deltas = [scaler.tick() for _ in range(3)]
        assert deltas == [0, 0, -1]
        assert sim.workers == 2

    def test_respects_min_workers(self):
        sim = _Sim(workers=1, depth=0)
        scaler = sim.scaler()
        for _ in range(20):
            sim.now += 10.0
            scaler.tick()
        assert sim.workers == 1 and sim.events == []

    def test_cooldown_blocks_consecutive_downs(self):
        sim = _Sim(workers=4, depth=0)
        scaler = sim.scaler(down_ticks=2, cooldown_s=5.0)
        scaler.tick()
        assert scaler.tick() == -1
        # Still idle, but inside the cooldown window: no second step.
        assert scaler.tick() == 0
        assert scaler.tick() == 0
        assert sim.workers == 3
        sim.now = 10.0  # cooldown expired; streak kept counting
        assert scaler.tick() == -1
        assert sim.workers == 2


class TestNoFlap:
    def test_oscillating_load_never_flaps(self):
        """Load flips pressured/idle every tick: worker count must not move.

        Oscillation resets both streaks before either reaches its
        threshold, so the count stays put no matter how long it runs.
        """
        sim = _Sim(workers=2, depth=0)
        scaler = sim.scaler(up_ticks=2, down_ticks=2, cooldown_s=1.0)
        for i in range(200):
            sim.now += 0.5
            sim.depth = 20 if i % 2 == 0 else 0
            scaler.tick()
        assert sim.events == []

    def test_scaling_rate_bounded_by_cooldown(self):
        """Even adversarial load can't produce steps faster than cooldown."""
        rng = np.random.default_rng(0)
        sim = _Sim(workers=2)
        scaler = sim.scaler(up_ticks=1, down_ticks=1, cooldown_s=5.0)
        for _ in range(1000):
            sim.now += 0.1
            sim.depth = int(rng.integers(0, 30))
            scaler.tick()
        for (t1, _), (t2, _) in zip(sim.events, sim.events[1:]):
            assert t2 - t1 >= 5.0, f"flap: steps at {t1} and {t2}"

    def test_mid_range_load_holds_steady(self):
        sim = _Sim(workers=2, depth=4)  # above down (0), below up (8)
        scaler = sim.scaler()
        for _ in range(50):
            sim.now += 1.0
            scaler.tick()
        assert sim.events == []


class TestValidation:
    def test_rejects_bad_bounds(self):
        sim = _Sim()
        with pytest.raises(ValueError):
            sim.scaler(min_workers=0)
        with pytest.raises(ValueError):
            sim.scaler(min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            sim.scaler(up_ticks=0)


class TestBackgroundLoop:
    def test_failing_tick_is_counted_and_loop_keeps_ticking(self):
        """A tick that raises is a counted, logged degradation, not a
        silent swallow — and the loop survives it."""
        was_enabled = obs.enabled()
        obs.enable()
        errors = obs.counter("serve_autoscale_errors_total")
        before = errors.value

        def broken_depth():
            raise RuntimeError("depth gauge unavailable")

        scaler = Autoscaler(
            depth_fn=broken_depth, workers_fn=lambda: 1, scale_fn=lambda n: None
        ).start(interval_s=0.01)
        try:
            deadline = time.monotonic() + 5.0
            while errors.value < before + 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            scaler.stop()
            if not was_enabled:
                obs.disable()
        assert errors.value >= before + 2, "failing ticks were not counted"
        failures = obs.get_event_log().records(
            kind="event", name="autoscale_tick_failed"
        )
        assert failures
        assert "depth gauge unavailable" in failures[-1]["attrs"]["error"]


class TestAgainstRealBatcher:
    """End-to-end: the autoscaler resizes a live MicroBatcher."""

    def test_scale_up_under_real_queue_pressure_and_down_when_idle(self):
        release = threading.Event()

        def slow_infer(graphs):
            release.wait(2.0)
            return np.zeros((len(graphs), 2)), {}

        batcher = MicroBatcher(
            slow_infer, max_batch=1, max_wait_ms=0.0, max_queue=64, workers=1
        ).start()
        scaler = Autoscaler(
            min_workers=1,
            max_workers=3,
            depth_fn=batcher.depth,
            workers_fn=lambda: batcher.workers,
            scale_fn=batcher.resize,
            up_queue_depth=4,
            up_ticks=2,
            down_ticks=2,
            cooldown_s=0.0,
        )
        threads = [
            threading.Thread(target=lambda: batcher.submit([object()]), daemon=True)
            for _ in range(8)
        ]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 2.0
            while batcher.depth() < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            scaler.tick()
            scaler.tick()
            deadline = time.monotonic() + 2.0
            while batcher.workers < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert batcher.workers >= 2, "did not scale up under pressure"
        finally:
            release.set()
            for t in threads:
                t.join(timeout=5.0)
        # Queue empty now: two idle ticks scale back down.
        scaler.tick()
        scaler.tick()
        deadline = time.monotonic() + 2.0
        while batcher.workers > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert batcher.workers == 1, "did not scale down when idle"
        batcher.stop()
