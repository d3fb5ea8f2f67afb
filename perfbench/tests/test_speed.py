import pytest

import speed


def _probe(took_ms):
    probe = speed.SpeedProbe()
    probe.at = [float(i) for i in range(len(took_ms))]
    probe.took = [t / 1000 for t in took_ms]
    return probe


def test_scale_is_reference_over_median_probe_time():
    probe = _probe([5, 10, 10, 10, 20])
    assert probe.scale() == pytest.approx(speed.REFERENCE_S / 0.010)


def test_scale_at_uses_only_the_probes_nearest_the_moment():
    slow, fast = [10.0] * 20, [2.5] * 20
    probe = _probe(slow + fast)
    assert probe.scale_at(3.5) == pytest.approx(speed.REFERENCE_S / 0.010)
    assert probe.scale_at(35.5) == pytest.approx(speed.REFERENCE_S / 0.0025)
    assert probe.scale_at(-1.0) == pytest.approx(speed.REFERENCE_S / 0.010)
    assert probe.scale_at(99.0) == pytest.approx(speed.REFERENCE_S / 0.0025)


def test_probing_records_time_and_respects_the_interval():
    probe = speed.SpeedProbe()
    probe.due()
    probe.due()   # well within PROBE_INTERVAL_S of the first
    assert len(probe.took) == 1 and probe.took[0] > 0
    probe.probe()
    assert len(probe.took) == 2 and probe.at[0] < probe.at[1]


def test_scale_needs_a_probe():
    with pytest.raises(ValueError):
        speed.SpeedProbe().scale()


def test_run_scales_latency_but_not_the_fixed_wait():
    from types import SimpleNamespace

    import run

    tally = run.Tally()
    served = SimpleNamespace(error=None, replay_s=0.010,
                             **dict.fromkeys(run.Tally.SUMMED, 0))
    tally.add(0.012, served, wait_s=0.002)
    probe = _probe([10.0])
    probe.at = [tally.ends[0]]
    latencies, replay_s = tally.scaled(probe)
    assert latencies == [pytest.approx(0.010 * 0.5 + 0.002)]
    assert replay_s == pytest.approx(0.005)
