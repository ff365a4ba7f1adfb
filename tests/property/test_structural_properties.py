"""Property-based tests on core structures: topic routing, graphs, clock,
query backends, and the planner's mapping invariants."""
import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bus.topic import topic_matches
from repro.orm import Column, Integer, Query, SqliteDatabase, Table, Text
from repro.pegasus.abstract import AbstractTask, AbstractWorkflow
from repro.pegasus.executable import AUXILIARY_TYPES
from repro.pegasus.planner import Planner, PlannerConfig
from repro.util.graph import DiGraph
from repro.util.simclock import SimClock

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
routing_keys = st.builds(".".join, st.lists(words, min_size=1, max_size=5))


class TestTopicProperties:
    @given(key=routing_keys)
    def test_hash_matches_everything(self, key):
        assert topic_matches("#", key)

    @given(key=routing_keys)
    def test_exact_pattern_matches_itself(self, key):
        assert topic_matches(key, key)

    @given(key=routing_keys)
    def test_star_matches_word_count(self, key):
        n = len(key.split("."))
        assert topic_matches(".".join(["*"] * n), key)
        assert not topic_matches(".".join(["*"] * (n + 1)), key)

    @given(key=routing_keys, prefix_len=st.integers(1, 4))
    def test_prefix_hash_semantics(self, key, prefix_len):
        parts = key.split(".")
        assume(len(parts) >= prefix_len)
        pattern = ".".join(parts[:prefix_len]) + ".#"
        assert topic_matches(pattern, key)


# random DAG edges: (a, b) with a < b guarantees acyclicity
dag_edges = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).map(
        lambda t: (min(t), max(t))
    ).filter(lambda t: t[0] != t[1]),
    max_size=40,
)


class TestGraphProperties:
    @given(edges=dag_edges)
    def test_forward_edges_always_acyclic(self, edges):
        g = DiGraph()
        for a, b in edges:
            g.add_edge(a, b)
        assert g.is_dag()
        order = g.topological_order()
        position = {n: i for i, n in enumerate(order)}
        for a, b in edges:
            assert position[a] < position[b]

    @given(edges=dag_edges)
    def test_any_backedge_creates_cycle(self, edges):
        assume(edges)
        g = DiGraph()
        for a, b in edges:
            g.add_edge(a, b)
        a, b = edges[0]
        g.add_edge(b, a)
        assert not g.is_dag()
        assert len(g.find_cycle()) >= 2

    @given(edges=dag_edges)
    def test_ancestors_descendants_duality(self, edges):
        g = DiGraph()
        for a, b in edges:
            g.add_edge(a, b)
        for node in g.nodes():
            for anc in g.ancestors(node):
                assert node in g.descendants(anc)


class TestClockProperties:
    @given(delays=st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30))
    def test_events_fire_in_nondecreasing_time(self, delays):
        clock = SimClock()
        fired = []
        for d in delays:
            clock.schedule(d, lambda d=d: fired.append(clock.now))
        clock.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert clock.now == max(fired)


rows_strategy = st.lists(
    st.tuples(st.integers(-1000, 1000), st.text(string.ascii_lowercase, max_size=6)),
    max_size=30,
)


class TestBackendEquivalence:
    """The compiled SQL must agree with the plain-Python reading of a query."""

    @given(rows=rows_strategy, threshold=st.integers(-1000, 1000))
    @settings(max_examples=50, deadline=None)
    def test_where_order_equivalence(self, rows, threshold):
        table = Table(
            "t",
            [Column("pk", Integer(), primary_key=True),
             Column("n", Integer()), Column("s", Text())],
        )
        stored = [{"pk": i, "n": n, "s": s} for i, (n, s) in enumerate(rows)]
        db = SqliteDatabase(":memory:")
        db.create_tables([table])
        db.insert_many(table, stored)
        query = Query(table).where("n", ">=", threshold).order_by("n").order_by("pk")
        expected = sorted(
            (r for r in stored if r["n"] >= threshold),
            key=lambda r: (r["n"], r["pk"]),
        )
        assert db.select(query) == expected
        db.close()


transformations = st.sampled_from(["tA", "tB", "tC"])


@st.composite
def abstract_workflows(draw):
    n = draw(st.integers(1, 20))
    aw = AbstractWorkflow("prop")
    for i in range(n):
        aw.add_task(
            AbstractTask(
                f"t{i}",
                transformation=draw(transformations),
                runtime_estimate=draw(st.floats(0.5, 50.0)),
            )
        )
    n_edges = draw(st.integers(0, min(30, n * 2)))
    for _ in range(n_edges):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a < b:
            aw.add_dependency(f"t{a}", f"t{b}")
    return aw


class TestPlannerProperties:
    @given(aw=abstract_workflows(), cluster=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_every_task_mapped_exactly_once(self, aw, cluster):
        ew = Planner(config=PlannerConfig(cluster_size=cluster)).plan(aw)
        mapping = ew.task_to_job_map()
        assert set(mapping) == {t.task_id for t in aw.tasks()}
        # the EW is a DAG and respects every AW dependency
        assert ew.is_dag()
        order = {j: i for i, j in enumerate(ew.topological_order())}
        for parent, child in aw.edges():
            pj, cj = mapping[parent], mapping[child]
            if pj != cj:
                assert order[pj] < order[cj]

    @given(aw=abstract_workflows(), cluster=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_cluster_size_bound(self, aw, cluster):
        ew = Planner(config=PlannerConfig(cluster_size=cluster)).plan(aw)
        for job in ew.compute_jobs():
            assert 1 <= job.task_count <= cluster

    @given(aw=abstract_workflows())
    @settings(max_examples=30, deadline=None)
    def test_auxiliary_jobs_have_no_tasks(self, aw):
        ew = Planner().plan(aw)
        for job in ew.jobs():
            if job.job_type in AUXILIARY_TYPES:
                assert job.task_count == 0
