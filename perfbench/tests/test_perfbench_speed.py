"""Scaling of timed spans to the speed sampler's reference speed."""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import speed  # noqa: E402

C = speed.REFERENCE_S["compute"]
H = speed.REFERENCE_S["hash"]
W = speed.WINDOW_S


def test_span_is_net_of_sampler_time_and_scaled_by_samples_near_it():
    # Two samples inside the span, one just after it, one far away.
    samples = [(10.2, C, H), (10.6, 3 * C, 3 * H), (11.0 + W / 2, 2 * C, 5 * H),
               (20.0, 100 * C, 100 * H)]
    net = 1.0 - 4 * C - 4 * H
    assert speed.net_seconds(10.0, 11.0, samples) == pytest.approx(net)
    assert speed.at_reference_speed(10.0, 11.0, samples) == pytest.approx(net / 2)
    assert speed.at_reference_speed(10.0, 11.0, samples, "hash") == pytest.approx(net / 3)


def test_span_without_a_sample_near_it_uses_the_nearest():
    samples = [(0.0, C, H), (30.0, 4 * C, 2 * H)]
    assert speed.at_reference_speed(20.0, 20.5, samples) == pytest.approx(0.5 / 4)
    assert speed.at_reference_speed(20.0, 20.5, samples, "hash") == pytest.approx(0.5 / 2)


def test_sampler_samples_during_work_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    deadline = time.perf_counter() + 3.5 * speed.INTERVAL_S
    while time.perf_counter() < deadline:
        sum(range(1000))
    samples = sampler.stop()
    # One at start, one per interval, one at stop.
    assert len(samples) >= 4
    assert all(0 < compute < 1 and 0 < hashed < 1 for _, compute, hashed in samples)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(samples) == len(sampler.samples)
