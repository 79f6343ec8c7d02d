"""Age of the ecclesiastical moon in the Gregorian calendar.

Epacts by closed form and by recurrence, raw / pronounced / corrected moon
ages, year and new-year transition tables, Martyrology letters, and the
date of Easter.  Each public name is in the ``__all__`` of its own module.
"""

from . import core, recurrence, tables, verify
from .core import *
from .recurrence import *
from .tables import *
from .verify import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += core.__all__
__all__ += recurrence.__all__
__all__ += tables.__all__
__all__ += verify.__all__
