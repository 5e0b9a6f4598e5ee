import os

import pytest
from hypothesis import settings

from qacm.cli import ScanConfig, run_classify

# CI selects "ci" with HYPOTHESIS_PROFILE=ci, so that a failure seen only there
# prints the blob that reproduces it (@reproduce_failure); local runs keep the default.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def classify_report():
    """The desk-scale classification scan, computed once per session."""
    return run_classify(ScanConfig(c_max=6, point_seed=0))
