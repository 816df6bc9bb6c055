"""User-facing Lazy Fat Pandas facade (Figure 2).

The paper-verbatim usage is unchanged -- two added lines run a pandas
program under LaFP on the default root session::

    import repro.lazyfatpandas.pandas as pd
    pd.analyze()                      # JIT static analysis + rewrite
    df = pd.read_csv("data.csv")
    ...

and for programs run without the rewriter, the lazy runtime alone::

    import repro.lazyfatpandas.pandas as pd
    from repro.lazyfatpandas.func import print   # lazy print
    ...
    pd.flush()

Beyond the paper's API, execution state is explicit and thread-safe.
Sessions are context managers resolved through a per-thread stack, each
with its own backend engines and options, so independent programs --
including programs on *different threads with different backends* -- no
longer share mutable globals::

    with pd.Session(backend="pandas") as s:
        df = pd.read_csv("data.csv")          # bound to s
        hot = df[df.fare > 0].persist()       # compute + pin (section 3.5)
        print(hot.explain())                  # raw vs optimized task graph
        result = hot.groupby(["hour"])["fare"].sum().collect()

Configuration is pandas-style, per session, dotted-key, and nestable::

    pd.options.optimizer.predicate_pushdown   # attribute-style read/write
    pd.set_option("executor.cache", False)
    with pd.option_context("optimizer.metadata", False):
        ...

See ``examples/sessions_and_options.py`` for a guided tour.  The
module-level ``pd.BACKEND_ENGINE`` assignment writes straight through to
the current session.

A top-level ``lazyfatpandas`` alias package is installed as well, so the
paper's verbatim ``import lazyfatpandas.pandas as pd`` also works.
"""

from repro.lazyfatpandas import func, pandas

__all__ = ["func", "pandas"]
