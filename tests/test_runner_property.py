"""Property: campaign results are scheduling-invariant.

Whatever the worker count and however the task list is shuffled, every
experiment's rows must be bit-identical to the serial baseline, and
the report must come back in submission order.  Hypothesis drives the
permutation and the job count; the experiments used are the cheapest
registered ones so each example stays subsecond.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner import RunnerConfig, TaskSpec, run_tasks

from tests._golden import GOLDEN_CONFIG

#: Cheapest registered experiments — wall time matters: every
#: hypothesis example runs all of them.
IDS = ["var", "pit-fqrate", "abl-burst", "fw-combo"]


@pytest.fixture(scope="module")
def baseline_digests():
    report = run_tasks(
        [TaskSpec(exp_id, GOLDEN_CONFIG) for exp_id in IDS],
        RunnerConfig(jobs=1, use_cache=False),
    )
    return {t.spec.exp_id: t.result.digest() for t in report.tasks}


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(order=st.permutations(IDS), jobs=st.sampled_from([1, 2, 4]))
def test_results_invariant_to_jobs_and_submission_order(
    baseline_digests, order, jobs
):
    report = run_tasks(
        [TaskSpec(exp_id, GOLDEN_CONFIG) for exp_id in order],
        RunnerConfig(jobs=jobs, use_cache=False),
    )
    # submission order is preserved in the report...
    assert [t.spec.exp_id for t in report.tasks] == list(order)
    # ...and no scheduling choice changes a single number
    for task in report.tasks:
        assert task.result.digest() == baseline_digests[task.spec.exp_id], (
            f"{task.spec.exp_id} drifted at jobs={jobs}, order={order}"
        )
