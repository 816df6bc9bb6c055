"""Plan fingerprinting and the cross-session result cache (PR 9).

Three layers under test: the deterministic content fingerprint
(``repro.cache.fingerprint``), the process-global two-tier LRU blob
store (``repro.cache.result_cache``), and the ``optimizer.reuse``
substitution pass that rewires fingerprint-hit subplans into
``from_cached`` leaves.  The correctness edges the cache must never
get wrong -- source mutation invalidation, semantic-option keying,
eviction reclaiming every byte and file, concurrent insert/evict on
one key -- each get a direct test.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.lazyfatpandas.pandas as lfp
from repro.cache.fingerprint import (
    Unfingerprintable,
    fingerprint_node,
    source_signature,
)
from repro.cache.result_cache import (
    ResultCache,
    deserialize_value,
    result_cache,
    serialize_value,
)
from repro.core.session import Session
from repro.frame import DataFrame, Series
from repro.graph.scheduler import ExecutionStats

#: reuse enabled with the cost floor disarmed, so even tiny test plans
#: are cache-worthy.
REUSE = {"optimizer.reuse": True, "cache.min_cost": 0.0}


@pytest.fixture(autouse=True)
def _fresh_cache():
    """The result cache is process-global; isolate every test."""
    result_cache().clear()
    yield
    result_cache().clear()


def _golden_plan():
    df = lfp.DataFrame({
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array([0.5, 1.5, -2.0], dtype=np.float64),
    })
    return (df["a"] * 2 + df["b"]).sum()


#: sha256 hex digest of ``_golden_plan()`` -- pinned so an encoding
#: change (which silently orphans every previously cached entry) is a
#: deliberate, reviewed event, not an accident.  If you changed the
#: fingerprint encoding on purpose, bump ``_VERSION`` in
#: ``repro/cache/fingerprint.py`` and re-pin this digest.
GOLDEN_DIGEST = (
    "9aa8c89969959f3fe1fa24d83ab69ad1050932ae27a038d849806381223115dc"
)

_GOLDEN_SNIPPET = """
import numpy as np
import repro.lazyfatpandas.pandas as lfp
from repro.core.session import Session
from repro.cache.fingerprint import fingerprint_node

with Session(backend="pandas"):
    df = lfp.DataFrame({
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array([0.5, 1.5, -2.0], dtype=np.float64),
    })
    print(fingerprint_node((df["a"] * 2 + df["b"]).sum().node))
"""


class TestFingerprint:
    def test_same_plan_same_digest_across_sessions(self):
        with Session(backend="pandas"):
            a = fingerprint_node(_golden_plan().node)
        with Session(backend="pandas"):
            b = fingerprint_node(_golden_plan().node)
        assert a == b

    def test_golden_digest_pinned(self):
        with Session(backend="pandas"):
            assert fingerprint_node(_golden_plan().node) == GOLDEN_DIGEST

    def test_cross_process_equality(self):
        """The digest must be identical in a fresh interpreter -- the
        whole point of a cross-session cache key."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        out = subprocess.run(
            [sys.executable, "-c", _GOLDEN_SNIPPET],
            capture_output=True, text=True, env=env, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
        )
        assert out.stdout.strip() == GOLDEN_DIGEST

    def test_arg_change_changes_digest(self):
        with Session(backend="pandas"):
            df = lfp.DataFrame({"a": np.array([1, 2, 3])})
            assert (
                fingerprint_node((df["a"] * 2).node)
                != fingerprint_node((df["a"] * 3).node)
            )

    def test_payload_change_changes_digest(self):
        with Session(backend="pandas"):
            one = lfp.DataFrame({"a": np.array([1, 2, 3])})
            two = lfp.DataFrame({"a": np.array([1, 2, 4])})
            assert (
                fingerprint_node(one["a"].sum().node)
                != fingerprint_node(two["a"].sum().node)
            )

    def test_source_mtime_changes_digest(self, make_csv):
        path = make_csv({"x": [1, 2, 3]})
        with Session(backend="pandas"):
            before = fingerprint_node(lfp.read_csv(path).x.sum().node)
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        with Session(backend="pandas"):
            after = fingerprint_node(lfp.read_csv(path).x.sum().node)
        assert before != after

    def test_same_size_rewrite_changes_digest(self, make_csv):
        """An in-place rewrite that keeps the byte size identical must
        still flip the fingerprint (mtime_ns is part of the stat sig)."""
        path = make_csv({"x": [1, 2, 3]})
        with Session(backend="pandas"):
            before = fingerprint_node(lfp.read_csv(path).x.sum().node)
        with open(path, "rb") as fh:
            payload = fh.read()
        with open(path, "wb") as fh:
            fh.write(payload.replace(b"3", b"7", 1))
        st = os.stat(path)
        # same byte count; force a distinct mtime in case the rewrite
        # landed within the filesystem's timestamp granularity
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        with Session(backend="pandas"):
            after = fingerprint_node(lfp.read_csv(path).x.sum().node)
        assert before != after

    def test_volatile_args_excluded(self, make_csv):
        """The facade's hints to a scan (``read_only_cols``,
        ``mutated_cols``) say nothing about what it reads; they must
        not shift the digest."""
        path = make_csv({"x": [1, 2, 3]})
        with Session(backend="pandas"):
            base = fingerprint_node(lfp.read_csv(path).x.sum().node)
            hinted = lfp.read_csv(path, read_only_cols=["x"],
                                  mutated_cols=[])
            assert hinted.node.args["read_only_cols"] == ["x"]
            assert hinted.node.args["mutated_cols"] == []
            assert fingerprint_node(hinted.x.sum().node) == base

    def test_pieces_of_one_file_digest_apart(self, make_csv):
        """A baseline-Dask read is one scan per piece of the file, each
        naming the partition it reads: no two pieces share a digest."""
        from repro.core.optimizer.partitions import scan_parts

        path = make_csv({"x": list(range(6000))})
        with Session(backend="pandas") as session:
            pieces = scan_parts({"format": "csv", "path": path},
                                session.metastore,
                                os.path.getsize(path) // 6)
            assert len(pieces) >= 4
            digests = {fingerprint_node(piece) for piece in pieces}
        assert len(digests) == len(pieces)

    def test_udf_plans_are_unfingerprintable(self):
        with Session(backend="pandas"):
            df = lfp.DataFrame({"a": np.array([1, 2, 3])})
            plan = df["a"].map(lambda v: v + 1).sum()
            with pytest.raises(Unfingerprintable):
                fingerprint_node(plan.node)

    def test_missing_source_gets_tombstone(self, tmp_path):
        missing = os.path.join(tmp_path, "nope.csv")
        sig = source_signature(missing)
        assert sig == ((os.path.abspath(missing), -1, -1),)


class TestResultCache:
    def _blob(self, tag: str, size: int = 1000):
        frame = DataFrame({tag: np.arange(size)})
        return serialize_value(frame)

    def _key(self, name: str):
        return (name, "pandas", ())

    def test_roundtrip_bit_identity(self):
        frame = DataFrame({
            "i": np.array([3, 1, 2], dtype=np.int64),
            "f": np.array([0.25, np.nan, -1.5]),
            "s": np.array(["a", None, "c"], dtype=object),
        })
        blob, kind = serialize_value(frame)
        assert kind == "frame"
        back = deserialize_value(blob)
        assert list(back.columns) == list(frame.columns)
        for col in frame.columns:
            a, b = frame.column(col).to_array(), back.column(col).to_array()
            assert a.dtype == b.dtype
            if a.dtype.kind == "f":
                assert (((a == b) | ((a != a) & (b != b)))).all()
            else:
                assert all(x == y or (x is None and y is None)
                           for x, y in zip(a, b))

    def test_serialize_kinds(self):
        assert serialize_value(DataFrame({"a": [1]}))[1] == "frame"
        assert serialize_value(Series([1], name="s"))[1] == "series"
        assert serialize_value(np.float64(1.5))[1] == "scalar"
        assert serialize_value(None)[1] == "scalar"
        with pytest.raises(TypeError):
            serialize_value(object())

    def test_memory_budget_never_overshoots(self):
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) * 2 + 10
        for i in range(8):
            cache.put(self._key(f"k{i}"), blob, kind, budget=budget)
        assert cache.memory.peak <= budget
        assert cache.memory.live <= budget
        info = cache.info()
        assert info["entries"] == 8
        assert info["demotions"] >= 6  # the cold ones went to disk
        cache.clear()

    def test_lru_demotes_coldest_first(self):
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) * 2 + 10
        cache.put(self._key("a"), blob, kind, budget=budget)
        cache.put(self._key("b"), blob, kind, budget=budget)
        cache.get(self._key("a"), budget=budget)  # refresh a
        cache.put(self._key("c"), blob, kind, budget=budget)
        in_memory = {
            e.key[0] for e in cache._entries.values() if e.in_memory
        }
        assert "b" not in in_memory  # b was coldest
        assert "a" in in_memory and "c" in in_memory
        cache.clear()

    def test_disk_promotion_restores_memory_tier(self):
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) + 10
        cache.put(self._key("a"), blob, kind, budget=budget)
        cache.put(self._key("b"), blob, kind, budget=budget)  # demotes a
        entry_a = cache._entries[self._key("a")]
        assert not entry_a.in_memory and entry_a.path is not None
        hit = cache.get(self._key("a"), budget=budget)  # promotes a
        assert hit is not None and hit[0] == blob
        assert entry_a.in_memory and entry_a.path is None
        cache.clear()

    def test_eviction_deletes_files_immediately(self):
        """Satellite (f): a cached-then-evicted result's spill file is
        gone at eviction time, not at interpreter/session close."""
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) + 10
        spill_budget = len(blob) * 2 + 10
        paths = []
        evicted = 0
        for i in range(6):
            evicted += cache.put(
                self._key(f"k{i}"), blob, kind,
                budget=budget, spill_budget=spill_budget,
            )
            paths.extend(
                e.path for e in cache._entries.values() if e.path
            )
        assert evicted > 0
        live_paths = {e.path for e in cache._entries.values() if e.path}
        for path in paths:
            if path not in live_paths:
                assert not os.path.exists(path), (
                    "evicted entry file leaked until close"
                )
        info = cache.info()
        assert info["disk_bytes"] <= spill_budget
        cache.clear()

    def test_eviction_releases_bytes_without_double_release(self):
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) * 2 + 10
        for i in range(10):
            cache.put(self._key(f"k{i}"), blob, kind, budget=budget)
        cache.clear()
        assert cache.memory.live == 0
        assert cache.memory.double_release_count == 0

    def test_oversized_blob_rejected(self):
        cache = ResultCache()
        blob, kind = self._blob("x")
        assert cache.put(
            self._key("big"), blob, kind,
            budget=10, spill_budget=len(blob) - 1,
        ) == 0
        assert len(cache) == 0
        assert cache.info()["rejected"] == 1
        cache.clear()

    def test_concurrent_insert_evict_race_on_one_key(self):
        """Sessions race put/get/clear on a shared key; the cache must
        stay consistent: no exception, no double release, no leaked
        file, no budget overshoot."""
        cache = ResultCache()
        blob, kind = self._blob("x")
        budget = len(blob) * 2 + 10
        spill_budget = len(blob) * 3 + 10
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(60):
                    key = self._key(f"k{i % 4}")
                    cache.put(blob=blob, kind=kind, key=key,
                              budget=budget, spill_budget=spill_budget)
                    hit = cache.get(key, budget=budget)
                    if hit is not None:
                        assert hit[0] == blob
                    if i % 17 == worker:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.memory.peak <= budget
        assert cache.memory.double_release_count == 0
        cache.clear()
        assert cache.memory.live == 0


def _collect_sum(path):
    frame = lfp.read_csv(path)
    return (frame.x * 2 + frame.y).sum().collect()


class TestSubstitution:
    def test_warm_session_serves_from_cache(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE) as s1:
            cold = _collect_sum(path)
            cold_stats = s1.last_execution_stats
            cold_report = s1.last_optimize_report
        assert cold_stats.cache_inserted >= 1
        assert cold_stats.cache_misses >= 1
        assert cold_report["reuse_hits"] == 0
        assert cold_report["reuse_misses"] == cold_stats.cache_misses
        with Session(backend="pandas", options=REUSE) as s2:
            warm = _collect_sum(path)
            warm_stats = s2.last_execution_stats
            warm_report = s2.last_optimize_report
        assert warm == cold
        # the optimize report's view of the reuse pass is the record's
        assert warm_report["reuse_hits"] == warm_stats.cache_hits
        assert warm_report["reuse_bytes"] == warm_stats.cache_bytes_reused
        assert warm_stats.cache_hits >= 1
        assert warm_stats.cache_bytes_reused > 0
        # the whole plan collapsed to one from_cached leaf
        assert warm_stats.nodes_executed == 1

    def test_reuse_off_never_touches_cache(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            _collect_sum(path)
        inserted = result_cache().info()["insertions"]
        with Session(backend="pandas") as s:
            _collect_sum(path)
            stats = s.last_execution_stats
        assert stats.cache_misses == 0
        assert stats.cache_bytes_reused == 0
        assert result_cache().info()["insertions"] == inserted

    def test_counters_in_stats_dict_and_render(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            _collect_sum(path)
        with Session(backend="pandas", options=REUSE) as s:
            _collect_sum(path)
            stats = s.last_execution_stats
        as_dict = stats.to_dict()
        for field in ("cache_hits", "cache_misses", "cache_bytes_reused",
                      "cache_evictions", "cache_inserted"):
            assert field in as_dict
        assert as_dict["cache_hits"] >= 1
        assert "result cache:" in stats.render()

    def test_explain_stats_shows_cache_line(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            _collect_sum(path)
        with Session(backend="pandas", options=REUSE):
            frame = lfp.read_csv(path)
            expr = (frame.x * 2 + frame.y).sum()
            expr.collect()
            text = expr.explain(stats=True)
        assert "result cache:" in text

    def test_explain_elides_blob_bytes(self, make_csv):
        """from_cached args carry the raw pickle; explain() must never
        render it."""
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            _collect_sum(path)
        with Session(backend="pandas", options=REUSE) as session:
            frame = lfp.read_csv(path)
            expr = (frame.x * 2 + frame.y).sum()
            from repro.core.optimizer.cache import (
                substitute_cached_subplans,
            )
            run = ExecutionStats(strategy="serial")
            with run.bound():
                substitute_cached_subplans([expr.node], session)
            assert run.cache_hits >= 1
            # the hit replaces the root in the run's plan, not the node
            # the user holds: the optimized plan shows the leaf
            text = expr.explain()
        assert "from_cached" in text
        assert "blob=" not in text

    def test_cse_tells_cached_leaves_apart_by_fingerprint(self, make_csv):
        """CSE keys a ``from_cached`` leaf by its plan fingerprint, not
        by a repr of the blob: twins of one plan merge, and leaves of
        two plans never do -- not even when their blobs are equal."""
        from repro.core.optimizer import eliminate_common_subexpressions
        from repro.core.optimizer.cache import substitute_cached_subplans
        from repro.graph import collect_subgraph

        paths = [make_csv({"x": [1, 2, 3]}, name) for name in ("a.csv", "b.csv")]
        for path in paths:  # two plans, the same value
            with Session(backend="pandas", options=REUSE):
                lfp.read_csv(path).x.sum().collect()
        with Session(backend="pandas", options=REUSE) as session:
            a, b = (lfp.read_csv(path) for path in paths)
            plan = a.x.sum() + a.x.sum() + b.x.sum()
            run = ExecutionStats(strategy="serial")
            with run.bound():
                substitute_cached_subplans([plan.node], session)
            assert run.cache_hits == 3
            leaves = [n for n in collect_subgraph([plan.node])
                      if n.op == "from_cached"]
            assert len({n.args["key"] for n in leaves}) == 2
            assert len({n.args["blob"] for n in leaves}) == 1

            class Unprintable(bytes):
                def __repr__(self):
                    raise AssertionError("CSE printed a cached result")

            for leaf in leaves:
                leaf.args["blob"] = Unprintable(leaf.args["blob"])
            assert eliminate_common_subexpressions([plan.node]) == 1
            leaves = [n for n in collect_subgraph([plan.node])
                      if n.op == "from_cached"]
            assert len(leaves) == 2
            assert plan.collect() == 18

    @pytest.mark.parametrize("case", [
        "narrowed", "folded", "folded_scalar", "sunk", "sunk_frame",
        "disjunction",
    ])
    @pytest.mark.parametrize("later_session", [False, True])
    def test_a_warm_plan_that_differs_from_the_cold_one(
        self, make_csv, case, later_session
    ):
        """Results are cached under RAW-plan fingerprints, but the value
        an interior node held was the OPTIMIZED plan's: a scan narrowed
        to the cold plan's columns, a scan the cold plan's filter folded
        into, a setitem the filter -- or the disjunction of two filters
        -- sank below.  A warm plan that shares the raw prefix but needs
        the rest of it must not be served that value (``KeyError: 'z'``
        / filtered rows at PR 16)."""
        path = make_csv({"x": list(range(40)), "y": [2 * i for i in range(40)],
                         "z": [i % 7 for i in range(40)]})

        def derived(frame):
            frame["w"] = frame.x + frame.y
            return frame

        def reindexed(frame):
            # a reset_index reads every column and stops a filter: no
            # later rewrite below the setitem hides what pushdown did
            return derived(frame.reset_index(drop=True))

        def fork(d):
            return d[d.x > 30].w.sum() + d[d.x < 5].w.sum()

        cold, warm = {
            "narrowed": (lambda f: f.x.sum(), lambda f: f.z.sum()),
            "folded": (lambda f: f[f.x > 20], lambda f: f),
            "folded_scalar": (lambda f: f[f.x > 20].y.sum(),
                              lambda f: f.y.sum()),
            "sunk": (lambda f: derived(f)[derived(f).x > 20].w.sum(),
                     lambda f: derived(f).w.sum()),
            "sunk_frame": (lambda f: (lambda d: d[d.x > 20])(derived(f)),
                           lambda f: derived(f)),
            "disjunction": (lambda f: fork(reindexed(f)), reindexed),
        }[case]
        with Session(backend="pandas"):
            expected = warm(lfp.read_csv(path)).collect()
        def collect(build):
            return build(lfp.read_csv(path)).collect()

        if later_session:
            with Session(backend="pandas", options=REUSE):
                collect(cold)
            with Session(backend="pandas", options=REUSE):
                got = collect(warm)
        else:
            with Session(backend="pandas", options=REUSE):
                collect(cold)
                got = collect(warm)
        if isinstance(expected, DataFrame):
            assert got.to_dict() == expected.to_dict()
        else:
            assert got == expected

    def test_an_unrewritten_prefix_is_still_reused(self, make_csv):
        """The other side of the rule above: an interior node the
        optimizer left alone keeps its candidacy, so a new suffix on a
        cached prefix hits below the root."""
        left = make_csv({"k": [1, 2, 3, 4], "a": [1, 2, 3, 4]}, "l.csv")
        right = make_csv({"k": [1, 2, 3, 4], "b": [5, 6, 7, 8]}, "r.csv")

        def prefix():
            joined = lfp.read_csv(left).merge(lfp.read_csv(right), on="k")
            joined["t"] = joined.a + joined.b
            return joined

        with Session(backend="pandas", options=REUSE):
            prefix().t.sum().collect()
        with Session(backend="pandas", options=REUSE) as session:
            joined = prefix()
            assert joined[joined.k > 2].b.sum().collect() == 15
            stats = session.last_execution_stats
        assert stats.cache_hits >= 1 and stats.nodes_executed > 1

    def test_a_folded_root_is_cached_under_its_raw_key(self, make_csv):
        """A root filter that folds into its scan is replaced by the
        scan: the value goes into the cache under the root's raw key --
        the scan's own key, of the unfiltered read, is dropped -- and a
        later session is served from it."""
        path = make_csv({"x": list(range(40)), "y": list(range(40))})

        def build():
            frame = lfp.read_csv(path)
            return frame[frame.x > 20]

        with Session(backend="pandas", options=REUSE) as s1:
            cold = build().collect()
            assert s1.last_optimize_report["scan_fold"] == 1
            assert s1.last_execution_stats.cache_inserted == 1
        with Session(backend="pandas", options=REUSE) as s2:
            warm = build().collect()
            stats = s2.last_execution_stats
        assert warm.to_dict() == cold.to_dict()
        assert stats.cache_hits == 1 and stats.nodes_executed == 1
        with Session(backend="pandas", options=REUSE):
            assert len(lfp.read_csv(path).collect()) == 40

    def test_equal_roots_merged_by_cse_run_once(self, make_csv):
        """Two structurally equal roots share one slot after CSE: the
        plan computes the value once, both roots get it, and it is
        cached under their one raw key."""
        from repro.core.optimizer import optimize
        from repro.graph.taskgraph import physical_plan

        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE) as session:
            frame = lfp.read_csv(path)
            first, second = frame.x.sum().node, frame.x.sum().node
            plan = physical_plan([first, second])
            roots = [plan[first.id], plan[second.id]]
            assert optimize(roots, session, live_nodes=[])["cse"] == 2
            assert roots[0] is roots[1]
            scheduler = session.scheduler()
            scheduler.cache_state = session._cache_run
            assert scheduler.execute(roots) == [6, 6]
            # scan, column, sum
            assert scheduler.last_stats.nodes_executed == 3
        with Session(backend="pandas", options=REUSE) as session:
            assert lfp.read_csv(path).x.sum().collect() == 6
            stats = session.last_execution_stats
        assert stats.cache_hits == 1 and stats.nodes_executed == 1

    def test_backend_is_part_of_the_key(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            _collect_sum(path)
        with Session(backend="dask", options=REUSE) as s:
            _collect_sum(path)
            stats = s.last_execution_stats
        assert stats.cache_hits == 0  # pandas entries never serve dask

    def test_cost_floor_filters_cheap_results(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        expensive = {"optimizer.reuse": True, "cache.min_cost": 1e9}
        with Session(backend="pandas", options=expensive) as s:
            _collect_sum(path)
            stats = s.last_execution_stats
        assert stats.cache_inserted == 0
        assert len(result_cache()) == 0


class TestInvalidation:
    def test_source_rewrite_invalidates(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE):
            first = _collect_sum(path)
        DataFrame({"x": [7, 8, 9], "y": [4, 5, 6]}).to_csv(path)
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        with Session(backend="pandas", options=REUSE) as s:
            second = _collect_sum(path)
            stats = s.last_execution_stats
        assert second != first  # fresh data, fresh result
        assert stats.cache_hits == 0

    def test_semantic_option_flip_is_a_miss(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE) as s:
            _collect_sum(path)
            with lfp.option_context("workload.source_format", "jsonl"):
                _collect_sum(path)
                flipped = s.last_execution_stats
        assert flipped.cache_hits == 0
        assert flipped.cache_misses >= 1

    def test_non_semantic_option_flip_still_hits(self, make_csv):
        path = make_csv({"x": [1, 2, 3], "y": [4, 5, 6]})
        with Session(backend="pandas", options=REUSE) as s:
            _collect_sum(path)
            with lfp.option_context("executor.static_order", False):
                _collect_sum(path)
                flipped = s.last_execution_stats
        assert flipped.cache_hits >= 1


class TestAutoWorkers:
    def test_unbudgeted_resolves_to_cpu_cap(self):
        # a budget no longer sizes the pool: one task runs at a time
        for budget in (None, 30_000):
            with Session(backend="pandas", options={
                "executor.strategy": "threaded",
                "executor.max_workers": "auto",
                "memory.budget": budget,
            }) as s:
                resolved = s.scheduler().max_workers
            assert resolved == max(1, min(8, os.cpu_count() or 4))

    def test_auto_option_threads_through_session(self, make_csv):
        path = make_csv({"x": list(range(50)), "y": list(range(50))})
        with Session(backend="pandas", options={
            "executor.strategy": "threaded",
            "executor.max_workers": "auto",
        }) as s:
            _collect_sum(path)
            stats = s.last_execution_stats
        cap = max(1, min(8, os.cpu_count() or 4))
        assert 1 <= stats.max_workers <= cap

    def test_auto_rejected_values(self):
        from repro.core.config import OptionError

        with pytest.raises(OptionError):
            Session(backend="pandas",
                    options={"executor.max_workers": "many"})


@pytest.mark.deadline(60)
class TestProcessStrategyCache:
    """Reuse under the process strategy (the CI spawn leg runs this
    file with LAFP_PROCESS_START_METHOD=spawn, so both start methods
    stay covered)."""

    def test_process_strategy_warm_hit(self, make_csv):
        path = make_csv({"x": list(range(30)), "y": list(range(30))})
        opts = dict(REUSE)
        opts.update({
            "executor.strategy": "process",
            "executor.max_workers": 2,
        })
        with Session(backend="pandas", options=opts) as s1:
            cold = _collect_sum(path)
            assert s1.last_execution_stats.cache_inserted >= 1
            s1.close()
        with Session(backend="pandas", options=opts) as s2:
            warm = _collect_sum(path)
            stats = s2.last_execution_stats
            s2.close()
        assert warm == cold
        assert stats.cache_hits >= 1
