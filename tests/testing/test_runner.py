"""Differential runner: a tier-1 smoke slice plus fuzz-marked sweeps."""
import pytest

from repro.testing import __main__ as cli
from repro.testing.runner import (
    crash_drill,
    nest_drill,
    run_case,
    run_suite,
    salvage_drill,
    stencil_drill,
    sample_fault_plan,
)


class TestRunCase:
    @pytest.mark.parametrize("case", range(8))
    def test_first_cases_pass(self, case):
        r = run_case(0, case)
        assert r.ok, (r.desc, r.failures)

    def test_edge_domain_cases_pass(self):
        # case 5 is forced-empty, case 6 forced-single (gen contract).
        for case in (5, 6):
            r = run_case(1, case)
            assert r.ok, (r.desc, r.failures)

    def test_result_carries_replay_line(self):
        r = run_case(0, 3)
        assert "--seed 0" in r.repro_line()
        assert "--only 3" in r.repro_line()


class TestCrashDrill:
    def test_drill_exercises_recovery_under_checker(self):
        r = crash_drill(0)
        assert r.ok, r.failures
        assert r.crash_exercised
        assert r.sections >= 2


class TestStencilDrill:
    def test_the_loss_meets_resident_shards_in_the_second_sweep(self):
        r = stencil_drill(0)
        assert r.ok, r.failures
        assert r.crash_exercised
        assert r.sections == 3  # three calls, one section each


class TestNestDrill:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_two_level_nest_gets_faster_with_cores_per_node(self, seed):
        r = nest_drill(seed)
        assert r.ok, r.failures
        assert r.sections == 7


class TestSalvageDrill:
    def test_drill_finishes_from_kept_partials_under_checker(self):
        r = salvage_drill(0)
        assert r.ok, r.failures
        assert r.crash_exercised
        assert r.sections == 2

    def test_fault_times_are_drawn_from_the_section_makespan(self):
        import random

        from repro.cluster.faults import RankCrash, RankLoss

        rng = random.Random(5)
        ats = [f.at for _ in range(200)
               for f in sample_fault_plan(rng, 4, makespan=2.0).faults
               if isinstance(f, (RankCrash, RankLoss))]
        late = [at for at in ats if at != 1e-7]
        assert late and len(late) < len(ats)  # both kinds of death
        assert all(0.0 <= at < 2.0 for at in late)
        assert min(late) < 0.5 and max(late) > 1.5


class TestSuite:
    def test_small_suite_reports_sections_and_crash(self):
        suite = run_suite(0, 4)
        assert suite.ok
        assert suite.crash_exercised  # via the appended drill
        assert sum(r.sections for r in suite.results) > 0
        assert "cases passed" in suite.summary()

    def test_only_skips_the_drill(self):
        suite = run_suite(0, 10, only=2)
        assert len(suite.results) == 1
        assert suite.results[0].case == 2


class TestCli:
    def test_cli_passes_on_a_small_run(self, capsys):
        assert cli.main(["--seed", "0", "--cases", "3", "--quiet"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_replays_a_single_case(self, capsys):
        assert cli.main(["--seed", "0", "--cases", "3", "--only", "1"]) == 0


@pytest.mark.fuzz
class TestFuzzSweeps:
    @pytest.mark.parametrize("seed", [5, 17, 31])
    def test_thirty_case_sweep(self, seed):
        suite = run_suite(seed, 30)
        assert suite.ok, [
            (r.desc, r.failures) for r in suite.failures
        ]
