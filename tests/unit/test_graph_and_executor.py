"""Unit tests for the LaFP task graph and refcounting executor."""

import pytest

from repro.backends import PandasBackend
from repro.frame import DataFrame
from repro.graph import Node, collect_subgraph, to_dot, topological_order
from repro.graph.scheduler import SerialScheduler
from repro.graph.taskgraph import consumer_counts


def read_node(path):
    return Node("read_csv", args={"path": path})


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

    def test_consumer_counts(self):
        src = Node("from_data", args={"data": {}})
        c1 = Node("identity", inputs=[src])
        c2 = Node("identity", inputs=[src])
        counts = consumer_counts([src, c1, c2])
        assert counts[src.id] == 2

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
        result = SerialScheduler(PandasBackend()).execute([agg])
        assert result == [6]

    def test_intermediate_results_cleared(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        SerialScheduler(PandasBackend()).execute([agg])
        assert data.result is None  # released after its consumers ran
        assert col.result is None
        assert agg.result == 3

    def test_persisted_results_survive(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        data.persist = True
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        SerialScheduler(PandasBackend()).execute([agg])
        assert isinstance(data.result, DataFrame)

    def test_cached_results_reused(self):
        data = Node("from_data", args={"data": {"x": [5]}})
        data.set_result(DataFrame({"x": [99]}))
        data.persist = True
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        agg = Node("series_agg", inputs=[col], args={"func": "sum"})
        result = SerialScheduler(PandasBackend()).execute([agg])
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
        SerialScheduler(CountingBackend()).execute([s1, s2])
        assert calls.count("from_data") == 1

    def test_multiple_roots_all_returned(self):
        data = Node("from_data", args={"data": {"x": [1, 2]}})
        col = Node("getitem_column", inputs=[data], args={"column": "x"})
        s = Node("series_agg", inputs=[col], args={"func": "sum"})
        m = Node("series_agg", inputs=[col], args={"func": "max"})
        out = SerialScheduler(PandasBackend()).execute([s, m])
        assert out == [3, 2]
