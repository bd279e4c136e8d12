"""A time limit for every test: a reduction that stops terminating fails
its own test after TEST_LIMIT_S seconds instead of hanging the run."""

import signal

import pytest

TEST_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past TEST_LIMIT_S.  Not an Exception, so
    neither the test nor Hypothesis (which would replay the example, and
    hang again) catches it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):  # Windows: no limit
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
