import os
import time

import cpuclock


def _speed(samples):
    speed = cpuclock.HostSpeed()
    speed.samples = list(samples)
    return speed


def test_slowdown_averages_the_probes_in_and_around_an_interval():
    speed = _speed([(t, 1.0) for t in range(10)] + [(t, 2.0) for t in range(10, 20)])
    # Inside a steady phase: that phase's slowdown.
    assert speed.slowdown(3.5, 4.5) == 1.0
    assert speed.slowdown(14.5, 15.5) == 2.0
    # Across the step: the mean of the probes it spans and their neighbours.
    assert 1.0 < speed.slowdown(8.5, 11.5) < 2.0
    # Short of the window, a probe counts once it is the nearest beyond.
    assert speed.slowdown(4.2, 4.3) == 1.0


def test_one_outlying_probe_is_smoothed_away():
    speed = _speed([(t, 5.0 if t == 6 else 1.0) for t in range(12)])
    assert speed.slowdown(5.5, 6.5) == 1.0


def test_slowdown_of_an_interval_before_any_later_probe():
    speed = _speed([(0.0, 1.5), (1.0, 1.5)])
    assert speed.slowdown(2.0, 3.0) == 1.5


def test_tick_probes_once_per_interval_and_counts_its_cost():
    speed = cpuclock.HostSpeed()
    speed.tick()
    speed.tick()  # not due yet
    assert len(speed.samples) == 1
    speed.tick(force=True)
    assert len(speed.samples) == 2
    assert speed.spent_cpu > 0 and speed.spent_wall > 0
    assert all(value > 0 for _, value in speed.samples)


def test_process_cpu_reads_another_clock_for_the_same_work():
    reader = cpuclock.ProcessCPU(os.getpid())
    before, own = reader.seconds(), time.process_time()
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    used, used_own = reader.seconds() - before, time.process_time() - own
    assert abs(used - used_own) < 0.05


def test_the_workload_weighs_the_two_reference_halves(monkeypatch):
    monkeypatch.setattr(cpuclock, "probe", lambda: (2.0, 1.0))
    speed = cpuclock.HostSpeed(object_share=0.5)
    speed.tick(force=True)
    assert speed.samples[0][1] == 1.5
