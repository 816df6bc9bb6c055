"""Serializable scan predicates: the currency of predicate pushdown
*into* sources.

The runtime optimizer's filters are mask-expression subgraphs; a source
cannot execute those.  A :class:`Predicate` is the fragment both sides
understand: a conjunction of simple per-column comparisons that

- serializes to plain lists/dicts (it travels inside a ``scan`` node's
  ``args``, so it must survive ``repr``-based structural comparison and
  the session's snapshot/restore),
- evaluates against an eager frame (sources filter each partition right
  after reading it),
- evaluates against partition *statistics* (min/max from the metastore,
  exact hive ``key=value`` values), which is what makes partition
  pruning provable rather than heuristic.

:func:`conjuncts_from_mask` is the bridge from the graph world: it
converts a filter's mask subgraph into conjuncts when -- and only when --
the whole mask is expressible, so folding a filter into a scan never
changes its semantics.

Beyond the flat AND, two *nested* term shapes compose (serialized as
plain dicts like everything else)::

    {"op": "or",  "terms": [[conj, ...], [conj, ...]]}   # OR of ANDs
    {"op": "not", "term": [conj, ...]}                   # NOT of an AND

Statistics evaluation over them is **three-valued**: a term proves
``False`` (no row can match), ``True`` (every row matches -- what NOT
needs to prune), or ``None`` (unknown, never prune).  Proofs are
null-aware where it matters: ``!=`` matches NA rows, so its
cannot-match proof consults the partition's ``null_counts`` when the
source recorded them (columnar footers do; sampled text stats keep the
legacy min/max-only behaviour).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Optional, Sequence, Set

#: comparison ops a conjunct may carry (plus "between" and "isin").
_COMPARISONS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: mirror image used when a reflected binop (``5 > col``) is normalized.
_FLIPPED = MappingProxyType(
    {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="})


def _is_literal(value) -> bool:
    """Values a conjunct may compare against (JSON-able scalars)."""
    return isinstance(value, (int, float, str, bool)) or value is None


class Predicate:
    """An AND of simple column conjuncts, applied at the source boundary."""

    def __init__(self, conjuncts: Sequence[dict]):
        self.conjuncts: List[dict] = [dict(c) for c in conjuncts]

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_arg(cls, arg) -> Optional["Predicate"]:
        """Rebuild from a ``scan`` node's ``args['predicate']`` (or None)."""
        if not arg:
            return None
        return cls(arg)

    def to_arg(self) -> List[dict]:
        return [dict(c) for c in self.conjuncts]

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for conj in self.conjuncts:
            out |= _term_columns(conj)
        return out

    # -- frame evaluation -------------------------------------------------

    def mask(self, frame):
        """Boolean eager series: rows of ``frame`` satisfying every
        conjunct."""
        combined = None
        for conj in self.conjuncts:
            part = _term_mask(frame, conj)
            combined = part if combined is None else (combined & part)
        return combined

    # -- statistics evaluation (partition pruning) ------------------------

    def may_match(self, partition) -> bool:
        """False only when the partition *provably* contains no matching
        row: every row fails some conjunct given the partition's exact
        hive key values or exact column min/max (and ``null_counts``
        where the source recorded them).  Missing statistics always
        answer True (never prune on a guess)."""
        for conj in self.conjuncts:
            if _prove(conj, partition) is False:
                return False
        return True

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """Compact text for ``explain()``: ``(fare>0 & state=='CA')``."""
        return "(" + " & ".join(
            _render_term(c) for c in self.conjuncts
        ) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Predicate {self.render()}>"


def _term_columns(term: dict) -> Set[str]:
    op = term.get("op")
    if op == "or":
        out: Set[str] = set()
        for group in term["terms"]:
            for sub in group:
                out |= _term_columns(sub)
        return out
    if op == "not":
        out = set()
        for sub in term["term"]:
            out |= _term_columns(sub)
        return out
    return {term["column"]}


def _render_term(term: dict) -> str:
    op = term.get("op")
    if op == "or":
        groups = [
            " & ".join(_render_term(sub) for sub in group)
            for group in term["terms"]
        ]
        return "(" + " | ".join(f"({g})" for g in groups) + ")"
    if op == "not":
        inner = " & ".join(_render_term(sub) for sub in term["term"])
        return f"~({inner})"
    col = term["column"]
    if op == "between":
        return f"{term['low']!r}<={col}<={term['high']!r}"
    if op == "isin":
        return f"{col} in {list(term['values'])!r}"
    return f"{col}{op}{term['value']!r}"


def _term_mask(frame, term: dict):
    op = term.get("op")
    if op == "or":
        combined = None
        for group in term["terms"]:
            part = _group_mask(frame, group)
            combined = part if combined is None else (combined | part)
        return combined
    if op == "not":
        return ~_group_mask(frame, term["term"])
    return _conjunct_mask(frame[term["column"]], term)


def _group_mask(frame, group: Sequence[dict]):
    combined = None
    for term in group:
        part = _term_mask(frame, term)
        combined = part if combined is None else (combined & part)
    return combined


def _conjunct_mask(series, conj: dict):
    op = conj["op"]
    if op == "between":
        return series.between(
            conj["low"], conj["high"], inclusive=conj.get("inclusive", "both")
        )
    if op == "isin":
        return series.isin(list(conj["values"]))
    value = conj["value"]
    if op == "<":
        return series < value
    if op == "<=":
        return series <= value
    if op == ">":
        return series > value
    if op == ">=":
        return series >= value
    if op == "==":
        return series == value
    if op == "!=":
        return series != value
    raise ValueError(f"unknown predicate op {op!r}")


def _range_may_match(lo, hi, conj: dict) -> bool:
    """Can any value in ``[lo, hi]`` satisfy the conjunct?"""
    op = conj["op"]
    try:
        if op == "between":
            inclusive = conj.get("inclusive", "both")
            low, high = conj["low"], conj["high"]
            if inclusive in ("both", "right"):
                if lo > high:
                    return False
            elif lo >= high:
                return False
            if inclusive in ("both", "left"):
                if hi < low:
                    return False
            elif hi <= low:
                return False
            return True
        if op == "isin":
            values = [v for v in conj["values"] if not isinstance(v, str)]
            if len(values) != len(conj["values"]):
                return True  # string membership: no numeric range proof
            return any(lo <= v <= hi for v in values)
        value = conj["value"]
        return {
            "<": lo < value,
            "<=": lo <= value,
            ">": hi > value,
            ">=": hi >= value,
            "==": lo <= value <= hi,
            "!=": not (lo == hi == value),
        }[op]
    except TypeError:
        return True  # incomparable types: never prune


# ---------------------------------------------------------------------------
# Three-valued statistics proofs (partition pruning and chunk skipping).
# ---------------------------------------------------------------------------


def _prove(term: dict, partition) -> Optional[bool]:
    """Prove a term over one partition's statistics.

    ``False``: no row can match.  ``True``: every row matches.
    ``None``: the statistics cannot decide.  Only ``False`` prunes
    directly; ``True`` exists so NOT can flip it into a prune.
    """
    op = term.get("op")
    if op == "or":
        results = [_prove_group(group, partition) for group in term["terms"]]
        if any(r is True for r in results):
            return True
        if results and all(r is False for r in results):
            return False
        return None
    if op == "not":
        inner = _prove_group(term["term"], partition)
        if inner is None:
            return None
        return not inner
    return _prove_leaf(term, partition)


def _prove_group(group: Sequence[dict], partition) -> Optional[bool]:
    """AND-combine term proofs (empty groups prove nothing)."""
    if not group:
        return None
    results = [_prove(term, partition) for term in group]
    if any(r is False for r in results):
        return False
    if all(r is True for r in results):
        return True
    return None


def _prove_leaf(conj: dict, partition) -> Optional[bool]:
    column = conj["column"]
    if column in partition.key_values:
        # a hive key is one exact non-null constant for every row, so
        # the conjunct's truth value is the proof for the partition.
        return _scalar_proof(partition.key_values[column], conj)
    lo = partition.min_values.get(column)
    hi = partition.max_values.get(column)
    if lo is None or hi is None:
        return None
    nulls = getattr(partition, "null_counts", {}).get(column)
    if not _range_may_match(lo, hi, conj):
        # no non-null value can match.  NA rows still match ``!=`` (NaN
        # != v is True), so that proof additionally needs a recorded
        # null_count of zero; sources without null counts keep the
        # legacy min/max-only prune.
        if conj["op"] != "!=" or nulls is None or nulls == 0:
            return False
        return None
    if _range_all_match(lo, hi, nulls, conj):
        return True
    return None


def _scalar_proof(value, conj: dict) -> Optional[bool]:
    """Three-valued evaluation of a conjunct against one exact value
    (a hive key): ``None`` on incomparable types."""
    op = conj["op"]
    try:
        if op == "between":
            inclusive = conj.get("inclusive", "both")
            low_ok = (value >= conj["low"]) if inclusive in ("both", "left") \
                else (value > conj["low"])
            high_ok = (value <= conj["high"]) if inclusive in ("both", "right") \
                else (value < conj["high"])
            return bool(low_ok and high_ok)
        if op == "isin":
            return value in set(conj["values"])
        other = conj["value"]
        return bool({
            "<": value < other,
            "<=": value <= other,
            ">": value > other,
            ">=": value >= other,
            "==": value == other,
            "!=": value != other,
        }[op])
    except TypeError:
        return None


def _range_all_match(lo, hi, nulls, conj: dict) -> bool:
    """Does *every* row provably satisfy the conjunct?

    Comparisons, ``==``, ``between`` and ``isin`` never match NA rows,
    so their all-match proofs require a recorded null_count of zero;
    ``!=`` matches NA, so proving the value lies outside ``[lo, hi]``
    suffices regardless of nulls.
    """
    op = conj["op"]
    no_nulls = nulls == 0
    try:
        if op == "!=":
            value = conj["value"]
            return bool(value < lo or value > hi)
        if not no_nulls:
            return False
        if op == "between":
            inclusive = conj.get("inclusive", "both")
            low, high = conj["low"], conj["high"]
            low_ok = lo >= low if inclusive in ("both", "left") else lo > low
            high_ok = hi <= high if inclusive in ("both", "right") \
                else hi < high
            return bool(low_ok and high_ok)
        if op == "isin":
            return bool(lo == hi and lo in set(conj["values"]))
        value = conj["value"]
        return bool({
            "<": hi < value,
            "<=": hi <= value,
            ">": lo > value,
            ">=": lo >= value,
            "==": lo == hi == value,
        }[op])
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Mask-subgraph -> conjuncts conversion (used by the optimizer fold pass).
# ---------------------------------------------------------------------------


def conjuncts_from_mask(mask, source) -> Optional[List[dict]]:
    """Convert a filter's mask expression into conjuncts, or ``None``.

    ``mask`` is the filter node's second input; ``source`` the scan node
    the filter would fold into.  The conversion is all-or-nothing: every
    leaf comparison must read a column *directly off the source* and
    compare against a plain literal.  Anything else -- derived columns,
    series-vs-series comparisons, OR, negation -- returns ``None`` and
    the filter stays in the graph.
    """
    def source_column(node) -> Optional[str]:
        if node.op == "getitem_column" and node.inputs \
                and node.inputs[0] is source:
            return node.args["column"]
        return None

    def convert(node) -> Optional[List[dict]]:
        if node.op == "unop" and node.args.get("op") == "~":
            if len(node.inputs) != 1:
                return None
            inner = convert(node.inputs[0])
            if inner is None:
                return None
            return [{"op": "not", "term": inner}]
        if node.op == "binop":
            op = node.args.get("op")
            if op == "&":
                if len(node.inputs) != 2:
                    return None
                left = convert(node.inputs[0])
                right = convert(node.inputs[1])
                if left is None or right is None:
                    return None
                return left + right
            if op == "|":
                if len(node.inputs) != 2:
                    return None
                left = convert(node.inputs[0])
                right = convert(node.inputs[1])
                if left is None or right is None:
                    return None
                return [{"op": "or", "terms": [left, right]}]
            if op in _COMPARISONS:
                if len(node.inputs) != 1 or "right" not in node.args:
                    return None  # series-vs-series: not foldable
                column = source_column(node.inputs[0])
                value = node.args["right"]
                if column is None or not _is_literal(value):
                    return None
                if node.args.get("reflected"):
                    op = _FLIPPED[op]
                return [{"column": column, "op": op, "value": value}]
            return None
        if node.op == "between":
            column = source_column(node.inputs[0])
            low, high = node.args.get("left"), node.args.get("right")
            if column is None or not (_is_literal(low) and _is_literal(high)):
                return None
            return [{
                "column": column, "op": "between", "low": low, "high": high,
                "inclusive": node.args.get("inclusive", "both"),
            }]
        if node.op == "isin":
            column = source_column(node.inputs[0])
            values = node.args.get("values")
            if column is None or values is None \
                    or not all(_is_literal(v) for v in values):
                return None
            return [{"column": column, "op": "isin", "values": list(values)}]
        return None

    return convert(mask)


class Conjuncts(list):
    """A scan's ``predicate`` arg as :func:`merge_conjuncts` builds it:
    the conjunct dicts, and in ``keys`` the dedup key of each, computed
    when the conjunct joined -- so k filters folding into one scan key
    k conjuncts, not k squared."""

    __slots__ = ("keys",)


def _conjunct_key(conjunct: dict) -> str:
    return repr(sorted(conjunct.items()))


def merge_conjuncts(existing, new) -> List[dict]:
    """Append ``new`` conjuncts onto an existing predicate arg,
    dropping exact duplicates (repeated folds of equal filters)."""
    out = Conjuncts(dict(c) for c in (existing or []))
    out.keys = (set(existing.keys) if isinstance(existing, Conjuncts)
                else set(map(_conjunct_key, out)))
    for conj in new:
        key = _conjunct_key(conj)
        if key not in out.keys:
            out.keys.add(key)
            out.append(dict(conj))
    return out


def required_read_columns(
    columns: Optional[Sequence[str]],
    predicate: Optional[Predicate],
    schema: Sequence[str],
) -> Optional[List[str]]:
    """Physical columns a partition read needs: the projection plus any
    predicate columns (filtered out again after the mask is applied).
    ``None`` means the whole schema."""
    if columns is None:
        return None
    needed = set(columns)
    if predicate is not None:
        needed |= predicate.columns()
    return [c for c in schema if c in needed]
