"""Lazy wrapper objects (the paper's ``LaFPDataFrame`` / ``FatDataFrame``).

Every method mirrors the pandas API but, instead of executing, appends an
operator node to the task graph and returns a new lazy wrapper (section
2.5).  Materialization happens through :meth:`collect` (or its
paper-era spelling :meth:`compute`), lazy print / ``pd.flush()``, or
implicitly for APIs that need real data (``len``, ``shape``, iteration).

Each wrapper is bound at construction to the session that was current on
the calling thread (:func:`repro.core.session.current_session`), so
frames built inside ``with Session(...)`` blocks execute on that
session's engine no matter where they are later collected.

In-place pandas idioms (``df[c] = s``, ``inplace=True``) are modelled by
*rebinding the wrapper's node*: the Python object identity is the mutable
variable, the nodes stay immutable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.graph.node import Node
from repro.core.session import Session, current_session

_MARKER = "\x00LAFP:{}\x00"


class LazyObject:
    """Common plumbing for lazy frame/series/scalar wrappers."""

    def __init__(self, node: Node, session: Optional[Session] = None):
        self._session = session or current_session()
        self._node = self._session.register(node)

    @property
    def node(self) -> Node:
        return self._node

    @property
    def session(self) -> Session:
        """The session this object executes on (bound at construction)."""
        return self._session

    def _new_node(self, op: str, inputs=(), args=None, label=None) -> Node:
        node = Node(op, inputs=inputs, args=args, label=label)
        return self._session.register(node)

    def compute(self, live_df: Optional[Sequence] = None):
        """Force evaluation (optimizing first); returns an eager value."""
        return self._session.compute(self._node, live_df=live_df)

    # -- explicit execution API --------------------------------------------

    def collect(self, live: Optional[Sequence] = None):
        """Execute the task graph under this object; returns the eager
        result (the Dask-style spelling of :meth:`compute`).

        ``live`` names lazy objects whose shared subexpressions should
        stay persisted across this execution (section 3.5).
        """
        return self._session.compute(self._node, live_df=live)

    def persist(self) -> "LazyObject":
        """Compute this object's graph and pin its result for reuse.

        Subsumes ``compute(live_df=[self])``: the value stays on this
        object's node, and later collections plan over it as a ``held``
        leaf instead of recomputing -- whatever they build on top runs
        against the kept value, nothing is planned beneath it.  Returns
        ``self`` so pipelines can chain:
        ``hot = df[df.x > 0].persist()``.

        The pin follows the paper's section 3.5 release rule: it
        survives until the first collection whose ``live`` list does not
        include this object (that collection still reuses the pin, then
        frees it).  To keep it across several collections, pass
        ``collect(live=[hot])`` on all but the last.
        """
        self._session.compute(self._node, live_df=[self])
        return self

    def validate(self):
        """Statically analyze this object's plan without executing it.

        Returns the diagnostic list (possibly empty, possibly warnings
        and hints); raises
        :class:`~repro.analysis.plan.PlanValidationError` when any
        finding has error severity -- *before* any partition is read.
        """
        return self._session.validate(self._node)

    def explain(self, optimized: bool = True, stats: bool = False,
                diagnostics: bool = False) -> str:
        """Text rendering of this object's task graph: the raw plan and
        (unless ``optimized=False``) the plan after the session's
        optimizer rules ran.  ``stats=True`` appends the session's most
        recent per-node execution statistics (populate them with a
        ``collect()`` first); ``diagnostics=True`` appends the static
        analyzer's findings on the raw plan.  Never executes or mutates
        the graph."""
        return self._session.explain(
            self._node, optimized=optimized, stats=stats,
            diagnostics=diagnostics,
        )

    # -- deferred formatting (section 3.3) ---------------------------------

    def __format__(self, spec: str) -> str:
        return _MARKER.format(self._node.id)

    def __str__(self) -> str:
        return _MARKER.format(self._node.id)


class LazyFrame(LazyObject):
    """Lazy dataframe mirroring the pandas DataFrame API."""

    def __init__(self, node: Node, session: Optional[Session] = None,
                 columns: Optional[List[str]] = None):
        super().__init__(node, session)
        self._columns = columns

    def _frame(self, op, inputs=(), args=None, columns=None, label=None) -> "LazyFrame":
        node = self._new_node(op, inputs, args, label)
        return LazyFrame(node, self._session, columns=columns)

    def _series(self, op, inputs=(), args=None, name=None, label=None) -> "LazySeries":
        node = self._new_node(op, inputs, args, label)
        return LazySeries(node, self._session, name=name)

    # -- schema ------------------------------------------------------------

    @property
    def columns(self) -> Optional[List[str]]:
        """Statically tracked column names (None when unknown)."""
        return self._columns

    def _derive_columns(self, add=None, remove=None, only=None, rename=None):
        if self._columns is None:
            return None
        cols = list(self._columns)
        if only is not None:
            return [c for c in cols if c in set(only)]
        if rename:
            cols = [rename.get(c, c) for c in cols]
        if remove:
            cols = [c for c in cols if c not in set(remove)]
        for name in add or ():
            if name not in cols:
                cols.append(name)
        return cols

    # -- selection ----------------------------------------------------------

    def __getitem__(self, key):
        if isinstance(key, str):
            return self._series(
                "getitem_column", [self._node], {"column": key},
                name=key, label=f"get_item {key}",
            )
        if isinstance(key, list):
            return self._frame(
                "getitem_columns", [self._node], {"columns": list(key)},
                columns=self._derive_columns(only=key),
                label=f"get_item {key}",
            )
        if isinstance(key, LazySeries):
            return self._frame(
                "filter", [self._node, key.node],
                columns=self._columns, label="get_item [filter]",
            )
        raise TypeError(f"unsupported LazyFrame key: {key!r}")

    def __setitem__(self, key: str, value) -> None:
        inputs = [self._node]
        args = {"column": key}
        if isinstance(value, LazyObject):
            inputs.append(value.node)
        else:
            args["value"] = value
        node = self._new_node("setitem", inputs, args, label=f"set_item {key}")
        self._node = node
        self._columns = self._derive_columns(add=[key])

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        columns = object.__getattribute__(self, "_columns")
        if columns is None or name in columns:
            return self[name]
        raise AttributeError(f"LazyFrame has no attribute or column {name!r}")

    @property
    def loc(self):
        return _LazyLoc(self)

    # -- transforms --------------------------------------------------------------

    def dropna(self, subset=None, inplace: bool = False):
        frame = self._frame(
            "dropna", [self._node], {"subset": subset}, columns=self._columns
        )
        return self._maybe_inplace(frame, inplace)

    def fillna(self, value, inplace: bool = False):
        frame = self._frame(
            "fillna", [self._node], {"value": value}, columns=self._columns
        )
        return self._maybe_inplace(frame, inplace)

    def astype(self, dtype) -> "LazyFrame":
        return self._frame(
            "astype", [self._node], {"dtype": dtype}, columns=self._columns
        )

    def rename(self, columns: dict, inplace: bool = False):
        frame = self._frame(
            "rename", [self._node], {"columns": columns},
            columns=self._derive_columns(rename=columns),
        )
        return self._maybe_inplace(frame, inplace)

    def drop(self, labels=None, columns=None, axis: int = 0, inplace: bool = False):
        if columns is None and axis == 1:
            columns = labels
        drop_list = [columns] if isinstance(columns, str) else list(columns)
        frame = self._frame(
            "drop", [self._node], {"columns": drop_list},
            columns=self._derive_columns(remove=drop_list),
        )
        return self._maybe_inplace(frame, inplace)

    def round(self, decimals: int = 0) -> "LazyFrame":
        return self._frame(
            "round", [self._node], {"decimals": decimals}, columns=self._columns
        )

    def sort_values(self, by, ascending=True, inplace: bool = False):
        frame = self._frame(
            "sort_values", [self._node],
            {"by": by, "ascending": ascending}, columns=self._columns,
        )
        return self._maybe_inplace(frame, inplace)

    def sort_index(self) -> "LazyFrame":
        return self._frame("sort_index", [self._node], columns=self._columns)

    def drop_duplicates(self, subset=None, inplace: bool = False):
        frame = self._frame(
            "drop_duplicates", [self._node], {"subset": subset},
            columns=self._columns,
        )
        return self._maybe_inplace(frame, inplace)

    def head(self, n: int = 5) -> "LazyFrame":
        return self._frame("head", [self._node], {"n": n}, columns=self._columns)

    def tail(self, n: int = 5) -> "LazyFrame":
        return self._frame("tail", [self._node], {"n": n}, columns=self._columns)

    def nlargest(self, n: int, columns) -> "LazyFrame":
        return self._frame(
            "nlargest", [self._node], {"n": n, "columns": columns},
            columns=self._columns,
        )

    def nsmallest(self, n: int, columns) -> "LazyFrame":
        return self._frame(
            "nsmallest", [self._node], {"n": n, "columns": columns},
            columns=self._columns,
        )

    def describe(self) -> "LazyFrame":
        return self._frame("describe", [self._node])

    def info(self) -> "LazyScalar":
        node = self._new_node("info", [self._node])
        return LazyScalar(node, self._session)

    def sample(self, n: int, seed: int = 0) -> "LazyFrame":
        return self._frame(
            "sample", [self._node], {"n": n, "seed": seed}, columns=self._columns
        )

    def reset_index(self, drop: bool = False, inplace: bool = False):
        frame = self._frame("reset_index", [self._node], {"drop": drop})
        return self._maybe_inplace(frame, inplace)

    def set_index(self, column: str, inplace: bool = False):
        frame = self._frame(
            "set_index", [self._node], {"column": column},
            columns=self._derive_columns(remove=[column]),
        )
        return self._maybe_inplace(frame, inplace)

    def apply(self, func, axis: int = 1) -> "LazySeries":
        return self._series("apply", [self._node], {"func": func, "axis": axis})

    def assign(self, **kwargs) -> "LazyFrame":
        frame = self
        for name, value in kwargs.items():
            if callable(value):
                value = value(frame)
            out = LazyFrame(frame._node, self._session, columns=frame._columns)
            out[name] = value
            frame = out
        return frame

    def copy(self) -> "LazyFrame":
        # Nodes are immutable; a copy just needs an independent binding.
        return LazyFrame(self._node, self._session, columns=self._columns)

    def _maybe_inplace(self, frame: "LazyFrame", inplace: bool):
        if inplace:
            self._node = frame._node
            self._columns = frame._columns
            return None
        return frame

    # -- combination --------------------------------------------------------------

    def merge(self, right, **kwargs) -> "LazyFrame":
        if not isinstance(right, LazyFrame):
            raise TypeError("merge requires a LazyFrame right side")
        return self._frame(
            "merge", [self._node, right.node], dict(kwargs), label="merge"
        )

    def groupby(self, by, as_index: bool = True) -> "LazyGroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return LazyGroupBy(self, keys, as_index=as_index)

    # -- forcing APIs ---------------------------------------------------------------

    def __len__(self) -> int:
        return int(len(self.compute()))

    @property
    def shape(self):
        return self.compute().shape

    def to_csv(self, path: str, index: bool = False) -> None:
        node = self._new_node(
            "to_csv", [self._node], {"path": path, "index": index}
        )
        self._session.compute(node)

    def __repr__(self) -> str:
        return f"<LazyFrame node={self._node.id} op={self._node.op}>"


class LazySeries(LazyObject):
    """Lazy series mirroring the pandas Series API."""

    def __init__(self, node: Node, session: Optional[Session] = None,
                 name: Optional[str] = None):
        super().__init__(node, session)
        self.name = name

    def _series(self, op, inputs=(), args=None, label=None) -> "LazySeries":
        node = self._new_node(op, inputs, args, label)
        return LazySeries(node, self._session, name=self.name)

    def _scalar(self, op, inputs=(), args=None, label=None) -> "LazyScalar":
        node = self._new_node(op, inputs, args, label)
        return LazyScalar(node, self._session)

    # -- binary / comparison operators -------------------------------------------

    def _binop(self, other, symbol: str, reflected: bool = False) -> "LazySeries":
        inputs = [self._node]
        args = {"op": symbol, "reflected": reflected}
        if isinstance(other, LazyObject):
            inputs.append(other.node)
        else:
            args["right"] = other
        return self._series("binop", inputs, args, label=_BINOP_LABELS.get(symbol, symbol))

    def __add__(self, other):
        return self._binop(other, "+")

    def __radd__(self, other):
        return self._binop(other, "+", reflected=True)

    def __sub__(self, other):
        return self._binop(other, "-")

    def __rsub__(self, other):
        return self._binop(other, "-", reflected=True)

    def __mul__(self, other):
        return self._binop(other, "*")

    def __rmul__(self, other):
        return self._binop(other, "*", reflected=True)

    def __truediv__(self, other):
        return self._binop(other, "/")

    def __rtruediv__(self, other):
        return self._binop(other, "/", reflected=True)

    def __floordiv__(self, other):
        return self._binop(other, "//")

    def __mod__(self, other):
        return self._binop(other, "%")

    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, "!=")

    def __lt__(self, other):
        return self._binop(other, "<")

    def __le__(self, other):
        return self._binop(other, "<=")

    def __gt__(self, other):
        return self._binop(other, ">")

    def __ge__(self, other):
        return self._binop(other, ">=")

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binop(other, "&")

    def __or__(self, other):
        return self._binop(other, "|")

    def __invert__(self):
        return self._series("unop", [self._node], {"op": "~"})

    def __neg__(self):
        return self._series("unop", [self._node], {"op": "-"})

    def abs(self) -> "LazySeries":
        return self._series("unop", [self._node], {"op": "abs"})

    def round(self, decimals: int = 0) -> "LazySeries":
        return self._series("round", [self._node], {"decimals": decimals})

    # -- predicates & missing data --------------------------------------------------

    def isin(self, values) -> "LazySeries":
        return self._series("isin", [self._node], {"values": list(values)})

    def between(self, left, right, inclusive: str = "both") -> "LazySeries":
        return self._series(
            "between", [self._node],
            {"left": left, "right": right, "inclusive": inclusive},
        )

    def isna(self) -> "LazySeries":
        return self._series("isna", [self._node])

    isnull = isna

    def notna(self) -> "LazySeries":
        return self._series("notna", [self._node])

    notnull = notna

    def fillna(self, value) -> "LazySeries":
        return self._series("series_fillna", [self._node], {"value": value})

    def dropna(self) -> "LazySeries":
        return self._series("filter", [self._node, self.notna().node])

    def astype(self, dtype) -> "LazySeries":
        return self._series("series_astype", [self._node], {"dtype": dtype})

    def map(self, func) -> "LazySeries":
        return self._series("series_map", [self._node], {"func": func})

    apply = map

    def __getitem__(self, key):
        if isinstance(key, LazySeries):
            return self._series("filter", [self._node, key.node])
        raise TypeError(f"unsupported LazySeries key: {key!r}")

    # -- window / positional ops (never commute with filters) --------------------

    def _call(self, method: str, *args, **kwargs) -> "LazySeries":
        return self._series(
            "series_call", [self._node],
            {"method": method, "args": args, "kwargs": kwargs},
            label=method,
        )

    def shift(self, periods: int = 1) -> "LazySeries":
        return self._call("shift", periods)

    def diff(self, periods: int = 1) -> "LazySeries":
        return self._call("diff", periods)

    def cumsum(self) -> "LazySeries":
        return self._call("cumsum")

    def cummax(self) -> "LazySeries":
        return self._call("cummax")

    def cummin(self) -> "LazySeries":
        return self._call("cummin")

    def rank(self, ascending: bool = True) -> "LazySeries":
        return self._call("rank", ascending=ascending)

    def clip(self, lower=None, upper=None) -> "LazySeries":
        return self._call("clip", lower, upper)

    # -- accessors --------------------------------------------------------------------

    @property
    def str(self) -> "LazyStringAccessor":
        return LazyStringAccessor(self)

    @property
    def dt(self) -> "LazyDatetimeAccessor":
        return LazyDatetimeAccessor(self)

    # -- aggregations -------------------------------------------------------------------

    def sum(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "sum"}, label="sum")

    def mean(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "mean"}, label="mean")

    def min(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "min"}, label="min")

    def max(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "max"}, label="max")

    def count(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "count"}, label="count")

    def std(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "std"}, label="std")

    def median(self) -> "LazyScalar":
        return self._scalar("series_agg", [self._node], {"func": "median"}, label="median")

    def nunique(self) -> "LazyScalar":
        return self._scalar("nunique", [self._node], label="nunique")

    def unique(self):
        """Eager: returns the actual unique values (small result)."""
        node = self._new_node("unique", [self._node])
        return self._session.compute(node)

    def value_counts(self) -> "LazySeries":
        return self._series("value_counts", [self._node], label="value_counts")

    def head(self, n: int = 5) -> "LazySeries":
        return self._series("head", [self._node], {"n": n}, label="head")

    def sort_values(self, ascending: bool = True) -> "LazySeries":
        return self._series(
            "sort_values", [self._node], {"by": None, "ascending": ascending}
        )

    def to_frame(self, name=None) -> "LazyFrame":
        node = self._new_node("to_frame_series", [self._node], {"name": name})
        return LazyFrame(node, self._session)

    def __len__(self) -> int:
        return int(len(self.compute()))

    def __repr__(self) -> str:
        return f"<LazySeries node={self._node.id} op={self._node.op}>"


class LazyScalar(LazyObject):
    """Lazy scalar (aggregation results, lazy ``len``)."""

    def _binop(self, other, symbol: str, reflected: bool = False) -> "LazyScalar":
        inputs = [self._node]
        args = {"op": symbol, "reflected": reflected}
        if isinstance(other, LazyObject):
            inputs.append(other.node)
        else:
            args["right"] = other
        node = self._new_node("binop", inputs, args)
        return LazyScalar(node, self._session)

    def __add__(self, other):
        return self._binop(other, "+")

    def __radd__(self, other):
        return self._binop(other, "+", reflected=True)

    def __sub__(self, other):
        return self._binop(other, "-")

    def __rsub__(self, other):
        return self._binop(other, "-", reflected=True)

    def __mul__(self, other):
        return self._binop(other, "*")

    def __rmul__(self, other):
        return self._binop(other, "*", reflected=True)

    def __truediv__(self, other):
        return self._binop(other, "/")

    def __rtruediv__(self, other):
        return self._binop(other, "/", reflected=True)

    def __float__(self) -> float:
        return float(self.compute())

    def __int__(self) -> int:
        return int(self.compute())

    def __repr__(self) -> str:
        return f"<LazyScalar node={self._node.id} op={self._node.op}>"


_BINOP_LABELS = {">": "greater_than", "<": "less_than", "==": "equals"}


class LazyStringAccessor:
    """Lazy ``.str``: records the method call as a node."""

    def __init__(self, series: LazySeries):
        self._series = series

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)

        def _call(*args, **kwargs):
            lazy_extra = [a.node for a in args if isinstance(a, LazyObject)]
            plain = tuple(a for a in args if not isinstance(a, LazyObject))
            node = self._series._new_node(
                "str_method",
                [self._series.node, *lazy_extra],
                {"method": method, "args": plain, "kwargs": kwargs},
                label=f"str.{method}",
            )
            return LazySeries(node, self._series._session, name=self._series.name)

        return _call


class LazyDatetimeAccessor:
    """Lazy ``.dt``: component access as nodes."""

    _FIELDS = (
        "year", "month", "day", "hour", "minute", "second",
        "dayofweek", "weekday", "date", "dayofyear",
    )

    def __init__(self, series: LazySeries):
        self._series = series

    def __getattr__(self, field: str):
        if field not in self._FIELDS:
            raise AttributeError(field)
        node = self._series._new_node(
            "dt_field", [self._series.node], {"field": field}, label=field
        )
        return LazySeries(node, self._series._session, name=self._series.name)


class LazyGroupBy:
    """``df.groupby(keys)`` -- holds context until an aggregation is named."""

    def __init__(self, frame: LazyFrame, keys: List[str], as_index: bool = True):
        self._frame = frame
        self._keys = keys
        self._as_index = as_index

    def __getitem__(self, column: Union[str, List[str]]):
        if isinstance(column, str):
            return LazySeriesGroupBy(self._frame, self._keys, column)
        return LazyFrameGroupBy(self._frame, self._keys, list(column), self._as_index)

    def size(self) -> LazySeries:
        node = self._frame._new_node(
            "groupby_size", [self._frame.node], {"keys": self._keys},
            label=f"groupby {self._keys} size",
        )
        return LazySeries(node, self._frame._session)

    def agg(self, spec: dict) -> LazyFrame:
        node = self._frame._new_node(
            "groupby_agg_multi",
            [self._frame.node],
            {"keys": self._keys, "spec": spec, "as_index": self._as_index,
             "columns": list(spec)},
            label=f"groupby {self._keys} agg",
        )
        return LazyFrame(node, self._frame._session)


class LazySeriesGroupBy:
    """``df.groupby(keys)[col]`` -- aggregation methods emit one node."""

    def __init__(self, frame: LazyFrame, keys: List[str], column: str):
        self._frame = frame
        self._keys = keys
        self._column = column

    def _agg(self, func: str) -> LazySeries:
        node = self._frame._new_node(
            "groupby_agg",
            [self._frame.node],
            {"keys": self._keys, "column": self._column, "func": func},
            label=f"groupby {self._keys} {func}",
        )
        return LazySeries(node, self._frame._session, name=self._column)

    def sum(self) -> LazySeries:
        return self._agg("sum")

    def mean(self) -> LazySeries:
        return self._agg("mean")

    def count(self) -> LazySeries:
        return self._agg("count")

    def min(self) -> LazySeries:
        return self._agg("min")

    def max(self) -> LazySeries:
        return self._agg("max")

    def agg(self, func: str) -> LazySeries:
        return self._agg(func)


class LazyFrameGroupBy:
    """``df.groupby(keys)[[c1, c2]]``."""

    def __init__(self, frame: LazyFrame, keys: List[str], columns: List[str],
                 as_index: bool = True):
        self._frame = frame
        self._keys = keys
        self._columns = columns
        self._as_index = as_index

    def _agg_all(self, func: str) -> LazyFrame:
        node = self._frame._new_node(
            "groupby_agg_multi",
            [self._frame.node],
            {
                "keys": self._keys,
                "spec": {c: func for c in self._columns},
                "as_index": self._as_index,
                "columns": self._columns,
            },
            label=f"groupby {self._keys} {func}",
        )
        return LazyFrame(node, self._frame._session)

    def sum(self) -> LazyFrame:
        return self._agg_all("sum")

    def mean(self) -> LazyFrame:
        return self._agg_all("mean")

    def count(self) -> LazyFrame:
        return self._agg_all("count")

    def min(self) -> LazyFrame:
        return self._agg_all("min")

    def max(self) -> LazyFrame:
        return self._agg_all("max")

    def agg(self, spec) -> LazyFrame:
        if isinstance(spec, str):
            return self._agg_all(spec)
        return LazyGroupBy(self._frame, self._keys, self._as_index).agg(spec)


class _LazyLoc:
    """Boolean-mask ``loc`` support."""

    def __init__(self, frame: LazyFrame):
        self._frame = frame

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            rows, cols = key
            base = self._frame[rows] if isinstance(rows, LazySeries) else self._frame
            if isinstance(cols, str):
                return base[cols]
            return base[list(cols)]
        if isinstance(key, LazySeries):
            return self._frame[key]
        raise TypeError(f"unsupported loc key: {key!r}")
