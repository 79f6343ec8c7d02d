"""Age of the ecclesiastical moon in the Gregorian calendar.

Epacts by closed form and by recurrence, raw / pronounced / corrected moon
ages, year and new-year transition tables, Martyrology letters, and the
date of Easter.  Each public name is in the ``__all__`` of its own module.
"""

from . import core, recurrence, tables
from .core import *
from .recurrence import *
from .tables import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: __all__, verify and its names import verify on first use, so a
    # process running no sweep never loads it ("from . import" would recurse).
    from importlib import import_module
    verify = import_module(".verify", __name__)
    if name == "__all__":
        globals()[name] = core.__all__ + recurrence.__all__ + tables.__all__ + verify.__all__
    elif name in verify.__all__:
        globals()[name] = getattr(verify, name)
    elif name != "verify":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
