"""Every name a module exports in ``__all__`` exists.

``from phasedec.<module> import *`` and the perfbench tracer, which wraps
each ``__all__`` entry by ``getattr``, both fail on a stale entry.
"""

import importlib
import pkgutil

import pytest

import phasedec

MODULES = ["phasedec"] + [f"phasedec.{m.name}" for m in pkgutil.iter_modules(phasedec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
