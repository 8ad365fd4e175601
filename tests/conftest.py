import pathlib
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    """hypothesis caches the constants of the source it scans, and its
    character tables, in its home directory; put that in pytest's cache
    directory (or the system temporary directory when the cache plugin is
    off), so a test run writes no `.hypothesis/` into the checkout.  The
    tests that use hypothesis also run derandomized, with no example
    database."""
    cache = getattr(config, "cache", None)
    set_hypothesis_home_dir(
        cache.mkdir("hypothesis") if cache is not None
        else pathlib.Path(tempfile.gettempdir(), "twirl-hypothesis"))
