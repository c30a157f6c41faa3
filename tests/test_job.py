"""Unit tests for the job and memory-profile models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.job import (
    Job,
    JobAccounting,
    JobState,
    MemoryProfile,
    Phase,
    total_accounting,
)


class TestMemoryProfile:
    def test_constant_profile(self):
        profile = MemoryProfile.constant(100.0)
        assert profile.demand_at(0.0) == 100.0
        assert profile.demand_at(1e9) == 100.0
        assert profile.peak_demand_mb == 100.0
        assert profile.next_boundary(0.0) is None

    def test_phased_profile(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0),
                                            (20.0, 30.0)])
        assert profile.demand_at(0.0) == 10.0
        assert profile.demand_at(4.9) == 10.0
        assert profile.demand_at(5.0) == 50.0
        assert profile.demand_at(19.0) == 50.0
        assert profile.demand_at(25.0) == 30.0
        assert profile.peak_demand_mb == 50.0

    def test_next_boundary_progression(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0),
                                            (20.0, 30.0)])
        assert profile.next_boundary(0.0) == 5.0
        assert profile.next_boundary(5.0) == 20.0
        assert profile.next_boundary(20.0) is None

    def test_boundary_tolerates_float_error(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (5.0, 50.0)])
        # progress epsilon below the boundary counts as having crossed it
        assert profile.demand_at(5.0 - 1e-12) == 50.0
        assert profile.next_boundary(5.0 - 1e-12) is None

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile([])

    def test_unsorted_phases_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile([Phase(0.0, 1.0), Phase(5.0, 2.0), Phase(3.0, 1.0)])

    def test_duplicate_starts_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfile([Phase(0.0, 1.0), Phase(0.0, 2.0)])

    def test_profile_must_start_at_zero(self):
        with pytest.raises(ValueError):
            MemoryProfile([Phase(1.0, 1.0)])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bisect_lookups_equal_linear_scan(self, data):
        """The bisection lookups answer exactly what the original
        front-to-back phase scan answered, including progress within
        ``_TOL`` either side of a phase start."""
        gaps = data.draw(st.lists(
            st.floats(min_value=1e-6, max_value=100.0), max_size=6))
        starts = [0.0]
        for gap in gaps:
            start = starts[-1] + gap
            if start > starts[-1]:
                starts.append(start)
        demands = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e4),
            min_size=len(starts), max_size=len(starts)))
        profile = MemoryProfile.from_pairs(list(zip(starts, demands)))
        tol = MemoryProfile._TOL
        anchor = data.draw(st.sampled_from(starts))
        offset = data.draw(st.sampled_from(
            [0.0, tol, -tol, 2 * tol, -2 * tol, tol / 2, -tol / 2,
             1e-3, -1e-3]))
        progress = anchor + offset

        demand = profile.phases[0].demand_mb
        boundary = None
        for phase in profile.phases:
            if phase.start_progress > progress + tol:
                boundary = phase.start_progress
                break
            demand = phase.demand_mb
        assert profile.demand_at(progress) == demand
        assert profile.next_boundary(progress) == boundary

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Phase(-1.0, 5.0)
        with pytest.raises(ValueError):
            Phase(0.0, -5.0)


class TestJob:
    def make_job(self, **kwargs):
        defaults = dict(program="gzip", cpu_work_s=100.0,
                        memory=MemoryProfile.constant(50.0))
        defaults.update(kwargs)
        return Job(**defaults)

    def test_initial_state(self):
        job = self.make_job()
        assert job.state is JobState.PENDING
        assert job.remaining_work_s == 100.0
        assert not job.finished
        assert job.current_demand_mb == 50.0
        assert job.peak_demand_mb == 50.0

    def test_job_ids_are_unique(self):
        a, b = self.make_job(), self.make_job()
        assert a.job_id != b.job_id

    def test_progress_tracks_demand(self):
        profile = MemoryProfile.from_pairs([(0.0, 10.0), (50.0, 90.0)])
        job = self.make_job(memory=profile)
        assert job.current_demand_mb == 10.0
        job.progress_s = 60.0
        assert job.current_demand_mb == 90.0
        assert job.remaining_work_s == 40.0

    def test_slowdown(self):
        job = self.make_job(submit_time=10.0)
        job.finish_time = 310.0
        assert job.slowdown() == 3.0

    def test_slowdown_before_finish_raises(self):
        job = self.make_job()
        with pytest.raises(ValueError):
            job.slowdown()

    def test_invalid_work_rejected(self):
        with pytest.raises(ValueError):
            self.make_job(cpu_work_s=0.0)

    def test_negative_io_stall_rejected(self):
        with pytest.raises(ValueError):
            self.make_job(io_stall_per_cpu_s=-0.1)


class TestAccounting:
    def test_wall_sums_components(self):
        acct = JobAccounting(cpu_s=10.0, page_s=2.0, io_s=1.0,
                             queue_s=5.0, migration_s=0.5)
        assert acct.wall_s == pytest.approx(18.5)

    def test_total_accounting_aggregates(self):
        jobs = []
        for i in range(3):
            job = Job(program="p", cpu_work_s=10.0,
                      memory=MemoryProfile.constant(1.0))
            job.acct.cpu_s = 10.0
            job.acct.queue_s = float(i)
            jobs.append(job)
        total = total_accounting(jobs)
        assert total.cpu_s == pytest.approx(30.0)
        assert total.queue_s == pytest.approx(3.0)
