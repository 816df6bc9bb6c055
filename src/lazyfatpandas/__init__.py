"""Top-level alias so the paper's verbatim imports work.

``import lazyfatpandas.pandas as pd`` resolves to
:mod:`repro.lazyfatpandas.pandas` -- the same module object, not a copy,
so a module global such as ``pd.BACKEND_ENGINE`` has one home.
"""

import sys

from repro.lazyfatpandas import func, pandas

sys.modules[__name__ + ".func"] = func
sys.modules[__name__ + ".pandas"] = pandas

__all__ = ["func", "pandas"]
