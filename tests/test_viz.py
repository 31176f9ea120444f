"""Tests for DOT export, and independent validation of our dominator
analysis against networkx through a reference adapter."""

import networkx as nx

from repro.markov.stg import RecoverySTG
from repro.scenarios.figure1 import build_figure1
from repro.workflow.dependency import DependencyAnalyzer
from repro.workflow.dominators import dominators, unavoidable_nodes
from repro.workflow.spec import WorkflowSpec, workflow
from repro.workflow.viz import spec_to_dot, stg_to_dot


def spec_to_networkx(spec: WorkflowSpec) -> nx.DiGraph:
    """Reference adapter: the workflow graph ⟨V, E⟩ as a networkx
    digraph.

    Node attributes: ``reads``, ``writes`` (sorted lists), ``branch``
    (bool).  Graph attribute ``workflow_id``.
    """
    g = nx.DiGraph(workflow_id=spec.workflow_id)
    for task_id in spec.tasks:
        task = spec.task(task_id)
        g.add_node(
            task_id,
            reads=sorted(task.reads),
            writes=sorted(task.writes),
            branch=task_id in spec.branch_nodes,
        )
    g.add_edges_from(sorted(spec.edges))
    return g


class TestSpecExport:
    def test_networkx_roundtrip_structure(self, diamond_spec):
        g = spec_to_networkx(diamond_spec)
        assert set(g.nodes) == set(diamond_spec.tasks)
        assert set(g.edges) == set(diamond_spec.edges)
        assert g.nodes["b"]["branch"] is True
        assert g.nodes["a"]["branch"] is False
        assert g.nodes["a"]["writes"] == ["ya"]
        assert g.graph["workflow_id"] == "diamond"

    def test_dot_contains_nodes_edges_and_shapes(self, diamond_spec):
        dot = spec_to_dot(diamond_spec)
        assert dot.startswith('digraph "diamond" {')
        for t in diamond_spec.tasks:
            assert f'"{t}"' in dot
        assert '"b" -> "c";' in dot
        assert "shape=diamond" in dot  # the branch node
        assert dot.rstrip().endswith("}")

    def test_dominators_match_networkx(self, diamond_spec):
        """Independent validation: our iterative dominator analysis
        agrees with networkx.immediate_dominators on every node."""
        for spec in (diamond_spec, _figure1_wf1(), _nested()):
            g = spec_to_networkx(spec)
            idom = nx.immediate_dominators(g, spec.start)
            ours = dominators(spec)
            for node in spec.tasks:
                nx_doms = set()
                cur = node
                while True:
                    nx_doms.add(cur)
                    # Some networkx versions omit the root from the
                    # idom mapping; either way the chain ends there.
                    parent = idom.get(cur, cur)
                    if parent == cur:
                        break
                    cur = parent
                assert ours[node] == frozenset(nx_doms), node

    def test_unavoidable_nodes_match_networkx_articulation(self):
        """Unavoidable nodes = nodes on every start→end path; validate
        via networkx path enumeration on small acyclic specs."""
        for spec in (_figure1_wf1(), _nested()):
            g = spec_to_networkx(spec)
            paths = []
            for end in spec.ends:
                paths.extend(
                    nx.all_simple_paths(g, spec.start, end)
                )
            on_all = set(spec.tasks)
            for p in paths:
                on_all &= set(p)
            assert unavoidable_nodes(spec) == frozenset(on_all)


class TestDependencyEdges:
    def test_flow_edge_matches_analyzer(self):
        sc = build_figure1(attacked=True)
        dep = DependencyAnalyzer(sc.log, sc.specs_by_instance)
        flow_edges = {
            (edge.src, edge.dst) for edge in dep.flow_dependents("wf1/t1#1")
        }
        assert ("wf1/t1#1", "wf1/t2#1") in flow_edges
        assert ("wf1/t1#1", "wf2/t8#1") in flow_edges


class TestSTGExport:
    def test_states_and_rates_rendered(self):
        stg = RecoverySTG.paper_default(buffer_size=2)
        dot = stg_to_dot(stg)
        assert '"N"' in dot
        assert "doublecircle" in dot    # loss states
        assert '"N" -> "S:1/0"' in dot  # the arrival out of NORMAL
        assert f"label=\"{stg.arrival_rate:g}\"" in dot


def _figure1_wf1():
    return (
        workflow("wf1")
        .task("t1").task("t2", choose=lambda d: "t3")
        .task("t3").task("t4").task("t5").task("t6")
        .edge("t1", "t2").edge("t2", "t3").edge("t3", "t4")
        .edge("t4", "t6").edge("t2", "t5").edge("t5", "t6")
        .build()
    )


def _nested():
    return (
        workflow("nested")
        .task("s", choose=lambda d: "m1")
        .task("m1", choose=lambda d: "x")
        .task("x").task("y").task("m2").task("j")
        .edge("s", "m1").edge("s", "m2")
        .edge("m1", "x").edge("m1", "y")
        .edge("x", "j").edge("y", "j").edge("m2", "j")
        .build()
    )
