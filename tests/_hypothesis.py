"""hypothesis's `assume`, `given`, `settings` and `strategies`, or stand-ins.

hypothesis is only in the `test` extra.  Without it, the stand-in `given`
turns each property test into one that skips, so the example tests that
share its module still collect and run.  The stand-in `st` accepts any
strategy expression (`st.lists(...).map(...)`, `@st.composite`) and is
never drawn from.
"""

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st
except ImportError:
    import pytest

    class _Strategy:
        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Strategy()

    def assume(condition):
        return True

    def settings(*args, **kwargs):
        return lambda test: test

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")
