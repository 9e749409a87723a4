"""Settings shared by the test modules: the hypothesis profiles.

"tier1", loaded by default, runs a bounded, derandomized set of examples
and keeps no example database, so runs are reproducible. "ci" runs more
examples of the same kind:
`python -m pytest tests/test_properties.py --hypothesis-profile=ci`.
Hypothesis still caches what it learns about the code under test in its
storage directory, by default `.hypothesis/` in the working directory;
each pytest run moves it to a temporary directory, removed when the run
ends, so the checkout is left as it was.
"""

import shutil
import tempfile

try:
    from hypothesis import configuration, settings
except ImportError:  # the property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile(
        "tier1", derandomize=True, max_examples=40, database=None, deadline=None)
    settings.register_profile("ci", settings.get_profile("tier1"), max_examples=400)
    settings.load_profile("tier1")


def pytest_configure(config):
    if settings is not None:
        home = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        configuration.set_hypothesis_home_dir(home)
