"""Unit tests for the LaFP task graph and refcounting executor."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from repro.backends import PandasBackend
from repro.core.session import Session
from repro.frame import DataFrame
from repro.graph import (
    Node,
    collect_subgraph,
    consumers_by_id,
    to_dot,
    topological_order,
)


def read_node(path):
    return Node("read_csv", args={"path": path})


def serial_scheduler(backend):
    """The serial strategy over ``backend``, built by a session."""
    session = Session(backend="pandas",
                      options={"executor.strategy": "serial"})
    return session.scheduler(backend)


class TestNode:
    def test_unregistered_op_rejected(self):
        with pytest.raises(KeyError):
            Node("not_a_real_op")

    def test_ids_are_unique(self):
        a = Node("identity", inputs=[])
        b = Node("identity", inputs=[])
        assert a.id != b.id

    def test_replace_input(self):
        """Rewiring goes through the consumer index, which drops what
        the rewire cut loose and picks up what it brought in."""
        from repro.graph.taskgraph import ConsumerIndex

        src = Node("from_data", args={"data": {}})
        other = Node("from_data", args={"data": {}})
        child = Node("binop", inputs=[src, src], args={"op": "+"})
        index = ConsumerIndex([child])
        assert list(index.of(src)) == [child, child]
        index.substitute(src, other)
        assert child.inputs == [other, other]
        assert src not in index and not index.of(src)
        assert other in index and list(index.of(other)) == [child, child]

    def test_substitute_keeps_root_slots_and_keys(self):
        """A substituted root is replaced in the caller's list, its key
        moves with it, the replacement's own key goes, and the old node
        -- left as it was -- leaves the index."""
        from repro.graph.taskgraph import ConsumerIndex

        src = Node("from_data", args={"data": {}})
        old = Node("binop", inputs=[src, src], args={"op": "+"})
        new = Node("binop", inputs=[src, src], args={"op": "+"})
        roots = [old, src]
        index = ConsumerIndex(roots)
        index.keys.update({old.id: "old's", new.id: "stale"})
        index.substitute(old, new)
        assert roots == [new, src] and index.root_ids == {new.id, src.id}
        assert index.keys == {new.id: "old's"}
        assert old not in index and old.inputs == [src, src]
        assert list(index.of(src)) == [new, new]

    def test_mod_and_used_attrs(self):
        src = Node("from_data", args={"data": {}})
        col = Node("getitem_column", inputs=[src], args={"column": "x"})
        assert col.used_attrs() == {"x"}
        setit = Node("setitem", inputs=[src], args={"column": "y", "value": 1})
        assert setit.mod_attrs() == {"y"}

    def test_clear_result_respects_persist(self):
        node = Node("identity", inputs=[])
        node.set_result(42)
        node.persist = True
        node.clear_result()
        assert node.result == 42
        node.persist = False
        node.clear_result()
        assert node.result is None


class TestGraphAlgorithms:
    def chain(self, n):
        nodes = [Node("from_data", args={"data": {"x": [1]}})]
        for _ in range(n):
            nodes.append(Node("identity", inputs=[nodes[-1]]))
        return nodes

    def test_collect_subgraph(self):
        nodes = self.chain(3)
        sub = collect_subgraph([nodes[-1]])
        assert {n.id for n in sub} == {n.id for n in nodes}

    def test_topological_order_dependencies_first(self):
        nodes = self.chain(5)
        order = topological_order([nodes[-1]])
        positions = {n.id: i for i, n in enumerate(order)}
        for parent, child in zip(nodes, nodes[1:]):
            assert positions[parent.id] < positions[child.id]

    def test_diamond_topology(self):
        src = Node("from_data", args={"data": {"x": [1]}})
        left = Node("identity", inputs=[src])
        right = Node("identity", inputs=[src])
        join = Node("concat", inputs=[left, right])
        order = topological_order([join])
        assert order[0] is src
        assert order[-1] is join
        assert len(order) == 4

    def test_deep_chain_no_recursion_error(self):
        nodes = self.chain(5000)
        assert len(topological_order([nodes[-1]])) == 5001

    def test_cycle_detected(self):
        a = Node("identity", inputs=[])
        b = Node("identity", inputs=[a])
        a.inputs = [b]
        with pytest.raises(ValueError, match="cycle"):
            topological_order([b])

    def test_consumers_by_id(self):
        src = Node("from_data", args={"data": {}})
        c1 = Node("identity", inputs=[src])
        c2 = Node("identity", inputs=[src])
        consumers = consumers_by_id([src, c1, c2])
        assert [c.id for c in consumers[src.id]] == [c1.id, c2.id]

    def test_order_deps_in_subgraph(self):
        first = Node("print", args={"segments": []})
        second = Node("print", args={"segments": []}, order_deps=[first])
        sub = collect_subgraph([second])
        assert {n.id for n in sub} == {first.id, second.id}

    def test_to_dot_renders_nodes_and_edges(self):
        nodes = self.chain(2)
        dot = to_dot([nodes[-1]])
        assert "digraph" in dot
        assert dot.count("->") == 2


class TestExecutor:
    def test_simple_chain_executes(self):
        data = Node("from_data", args={"data": {"x": [1, 2, 3]}})
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        result = serial_scheduler(PandasBackend()).execute([agg])
        assert result == [6]

    def test_intermediate_results_cleared(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        serial_scheduler(PandasBackend()).execute([agg])
        assert data.result is None  # released after its consumers ran
        assert col.result is None
        assert agg.result == 3

    def test_persisted_results_survive(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        data.persist = True
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        serial_scheduler(PandasBackend()).execute([agg])
        assert isinstance(data.result, DataFrame)

    def test_cached_results_reused(self):
        data = Node("from_data", args={"data": {"x": [5]}})
        data.set_result(DataFrame({"x": [99]}))
        data.persist = True
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        result = serial_scheduler(PandasBackend()).execute([agg])
        assert result == [99]  # came from cache, not args

    def test_shared_input_executes_once(self):
        calls = []

        class CountingBackend(PandasBackend):
            def apply(self, node, inputs):
                calls.append(node.op)
                return super().apply(node, inputs)

        data = Node("from_data", args={"data": {"x": [1]}})
        c1 = Node("getitem_column", inputs=[data], args={"column": "x"})
        c2 = Node("getitem_column", inputs=[data], args={"column": "x"})
        s1 = Node("series_agg", inputs=[c1], args={"func": "sum"})
        s2 = Node("series_agg", inputs=[c2], args={"func": "sum"})
        serial_scheduler(CountingBackend()).execute([s1, s2])
        assert calls.count("from_data") == 1

    def test_multiple_roots_all_returned(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        s = Node("series_agg", inputs=[col], args={"func": "sum"})
        m = Node("series_agg", inputs=[col], args={"func": "max"})
        out = serial_scheduler(PandasBackend()).execute([s, m])
        assert out == [3, 2]


def _invariant_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "check_invariants.py"
    spec = importlib.util.spec_from_file_location("check_invariants", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestRegistryInvariants:
    def test_every_registered_op_has_a_dispatch_branch(self):
        """Rule 19 names each registered op no branch of the dispatch
        runs."""
        tool = _invariant_tool()
        trees = {
            rel: ast.parse((tool.SRC / rel).read_text())
            for rel in ("graph/node.py", "backends/base.py",
                        "backends/shuffle_ops.py")
        }
        assert list(tool.check_every_op_dispatched(trees)) == []
        dead = ("assign", "select_columns_if", "plot_call")
        trees["graph/node.py"] = ast.parse(
            (tool.SRC / "graph/node.py").read_text() + "".join(
                f'register_op(OpSpec("{op}", mod_attrs=_NO_COLS, '
                f'used_attrs=_ALL_COLS))\n' for op in dead))
        failures = list(tool.check_every_op_dispatched(trees))
        assert [re.search(r"op '(\w+)'", f).group(1)
                for f in failures] == list(dead)
        assert tool.run() == []

    def test_module_level_instance_is_a_mutable_global(self):
        """Rule 1: an instance of a class defined under src/repro, or a
        weak container, is mutable at module scope; a NamedTuple or a
        frozen dataclass is not."""
        tool = _invariant_tool()
        tree = ast.parse(
            "class FooRegistry:\n    pass\n"
            "class Point(NamedTuple):\n    x: int\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n    x: int\n"
            "X = FooRegistry()\n"
            "LIVE = weakref.WeakSet()\n"
            "ORIGIN = Point(0)\n"
            "DEFAULT = Spec(1)\n"
            "TABLE = MappingProxyType({'a': FooRegistry()})\n"
        )
        classes = tool.mutable_classes({"io/foo.py": tree})
        failures = list(tool.check_mutable_globals(tree, "io/foo.py",
                                                   classes))
        assert [re.search(r"global '(\w+)'", f).group(1)
                for f in failures] == ["X", "LIVE"]

