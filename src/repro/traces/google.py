"""Google-cluster-style synthetic trace generator (paper Table 1 schema).

The real Google 2011 trace has 8425 production jobs of 100–9999 tasks with 15
monitored features per task after the paper's filtering. This generator
produces jobs with the same schema and the per-job latency heterogeneity the
paper's Figure 1 documents. Defaults are laptop-scale; raise ``n_jobs`` /
``task_range`` for server-scale runs.
"""

from __future__ import annotations

from repro.traces.generator import TraceGenerator, sample_job_profile
from repro.traces.schema import GOOGLE_FEATURES, Job
from repro.utils.validation import check_random_state


class GoogleTraceGenerator(TraceGenerator):
    """Generate a Google-style trace of multi-task jobs (15 features).

    Parameters are those of :class:`~repro.traces.generator.TraceGenerator`.
    """

    schema = "google"
    _features = GOOGLE_FEATURES

    def generate_job_with_family(self, job_id: str, family: str, n_tasks: int) -> Job:
        """Generate a job with a forced latency family (used by Fig. 1).

        Profiles are rejection-sampled so all family-dependent parameters
        (coupling, affliction mix, severity) stay mutually consistent.
        """
        rng = check_random_state(self.random_state)
        profile = sample_job_profile(rng)
        for _ in range(200):
            if profile["family"] == family:
                break
            profile = sample_job_profile(rng)
        if profile["family"] != family:
            raise ValueError(f"unknown latency family {family!r}.")
        return self.generate_job(job_id, n_tasks=n_tasks, profile=profile)
