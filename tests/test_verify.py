from duke.verify import (PropertyStat, VerifySummary, bounds_suite,
                         early_stop_suite, parallel_suite, run_full)


def test_theorem_suite_small():
    summary = bounds_suite(trials=15, seed=0)
    assert summary.passed
    names = {s.name for s in summary.stats}
    assert "objective_within_3x_at_opt_radius" in names
    assert "radius_bracket_holds" in names
    assert all(s.checks > 0 for s in summary.stats)


def test_parallel_suite_small():
    summary = parallel_suite(trials=6, seed=2)
    assert summary.passed


def test_early_stop_suite_small():
    summary = early_stop_suite(instances=30, seed=3)
    assert summary.passed
    stat = summary.stats[0]
    assert stat.name == "early_stop_matches_full_grid"
    assert stat.checks == 30
    assert stat.worst == 1.0


def test_zero_trials_is_vacuous_pass():
    summary = run_full(trials=0, parallel_trials=0)
    assert summary.passed
    assert summary.all_violations() == []


def test_violations_carry_replay_detail():
    summary = VerifySummary()
    stat = summary.stat("demo")
    stat.record(True, 0.5, "fine")
    stat.record(False, 2.0, "instance-repr-here")
    assert not summary.passed
    assert stat.checks == 2
    assert stat.worst == 2.0
    assert summary.all_violations() == ["instance-repr-here"]
    assert isinstance(stat, PropertyStat)


def test_merge_combines_sections():
    a = VerifySummary()
    a.stat("one").record(True, 1.0, "")
    b = VerifySummary()
    b.stat("two").record(True, 1.0, "")
    merged = a.merge(b)
    assert {s.name for s in merged.stats} == {"one", "two"}
    assert [s.checks for s in merged.stats] == [1, 1]
