"""Tests for the znode data tree."""

import pytest
from hypothesis import given, strategies as st

from repro.zookeeper_sim.datatree import DataTree, NoNodeError, NodeExistsError


class TestCreateGet:
    def test_create_and_get(self):
        tree = DataTree()
        tree.create("/a", data="hello")
        assert tree.get("/a") == "hello"
        assert tree.exists("/a")

    def test_create_nested(self):
        tree = DataTree()
        tree.create("/a")
        tree.create("/a/b", data=1)
        assert tree.get("/a/b") == 1
        assert tree.get_children("/a") == ["b"]

    def test_create_missing_parent_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().create("/a/b")

    def test_duplicate_create_raises(self):
        tree = DataTree()
        tree.create("/a")
        with pytest.raises(NodeExistsError):
            tree.create("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(ValueError):
            DataTree().create("no-slash")

    def test_root_cannot_be_created_or_deleted(self):
        tree = DataTree()
        with pytest.raises(ValueError):
            tree.create("/")
        with pytest.raises(ValueError):
            tree.delete("/")

    def test_get_missing_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().get("/nope")

    def test_set_updates_data_and_version(self):
        tree = DataTree()
        tree.create("/a", data=1)
        tree.set("/a", 2)
        assert tree.get("/a") == 2


class TestSequentialNodes:
    def test_sequence_suffix_and_order(self):
        tree = DataTree()
        tree.create("/q")
        first = tree.create("/q/item-", data="a", sequential=True)
        second = tree.create("/q/item-", data="b", sequential=True)
        assert first == "/q/item-0000000000"
        assert second == "/q/item-0000000001"
        assert tree.get_children("/q") == ["item-0000000000", "item-0000000001"]

    def test_sequence_survives_deletion(self):
        tree = DataTree()
        tree.create("/q")
        first = tree.create("/q/item-", sequential=True)
        tree.delete(first)
        second = tree.create("/q/item-", sequential=True)
        assert second.endswith("0000000001")

    def test_children_sorted_lexicographically(self):
        tree = DataTree()
        tree.create("/q")
        for _ in range(12):
            tree.create("/q/item-", sequential=True)
        children = tree.get_children("/q")
        assert children == sorted(children)
        assert tree.child_count("/q") == 12


class TestDelete:
    def test_delete_removes_node(self):
        tree = DataTree()
        tree.create("/a", data=1)
        tree.delete("/a")
        assert not tree.exists("/a")

    def test_delete_missing_raises(self):
        with pytest.raises(NoNodeError):
            DataTree().delete("/a")

    def test_delete_non_leaf_rejected(self):
        tree = DataTree()
        tree.create("/a")
        tree.create("/a/b")
        with pytest.raises(ValueError):
            tree.delete("/a")


@given(st.integers(min_value=1, max_value=40))
def test_fifo_order_matches_insertion_order(count):
    """Dequeuing by lowest child name yields items in insertion order."""
    tree = DataTree()
    tree.create("/q")
    for i in range(count):
        tree.create("/q/item-", data=i, sequential=True)
    drained = []
    while tree.child_count("/q"):
        head = tree.get_children("/q")[0]
        drained.append(tree.get(f"/q/{head}"))
        tree.delete(f"/q/{head}")
    assert drained == list(range(count))


_PARENTS = ("/", "/a", "/b", "/a/c")
_NAMES = ("0", "a", "b", "c", "item-", "item-0000000000", "item-0000000001",
          "item-0000000002", "~")
_STEPS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(_PARENTS),
              st.sampled_from(_NAMES), st.booleans()),
    st.tuples(st.just("delete"), st.sampled_from(_PARENTS),
              st.sampled_from(_NAMES)),
    st.tuples(st.just("pop"), st.sampled_from(_PARENTS)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
)


def _children_by_path(snapshot, path="/"):
    """``path -> child names`` for every znode, read off a snapshot."""
    yield path, list(snapshot["children"])
    for name, child in snapshot["children"].items():
        yield from _children_by_path(child, path.rstrip("/") + "/" + name)


@given(st.lists(_STEPS, max_size=60))
def test_child_index_stays_sorted_under_random_mutation(steps):
    """The sorted child index always equals ``sorted(children)``.

    Random sequential and plain creates (plain names may sort before
    existing children or collide with sequential ones), deletes of present
    and missing nodes, head pops and snapshot/restore round trips; after
    every step each znode's ``get_children`` is the sorted child set, and
    mutating the returned list leaves the tree untouched.
    """
    tree = DataTree()
    for path in ("/a", "/b", "/a/c"):
        tree.create(path)
    saved = tree.snapshot()
    for step in steps:
        op = step[0]
        try:
            if op == "create":
                _, parent, name, sequential = step
                tree.create(parent.rstrip("/") + "/" + name,
                            sequential=sequential)
            elif op == "delete":
                _, parent, name = step
                tree.delete(parent.rstrip("/") + "/" + name)
            elif op == "pop":
                before = tree.get_children(step[1])
                popped = tree.pop_first_child(step[1])
                if before:
                    assert popped[0] == before[0]
                    assert popped[2] == len(before) - 1
                else:
                    assert popped is None
            elif op == "snapshot":
                saved = tree.snapshot()
            else:
                tree.restore(saved)
        except (NoNodeError, NodeExistsError, ValueError):
            pass
        for path, names in _children_by_path(tree.snapshot()):
            children = tree.get_children(path)
            assert children == sorted(names)
            assert tree.child_count(path) == len(names)
            children.append("zzz")
            children.clear()
            assert tree.get_children(path) == sorted(names)


class TestChildIndexAccessors:
    def test_pop_first_child_removes_head(self):
        tree = DataTree()
        tree.create("/q")
        for item in ("x", "y", "z"):
            tree.create("/q/item-", data=item, sequential=True)
        assert tree.pop_first_child("/q") == ("item-0000000000", "x", 2)
        assert tree.get_children("/q") == ["item-0000000001",
                                           "item-0000000002"]
        tree.pop_first_child("/q")
        tree.pop_first_child("/q")
        assert tree.pop_first_child("/q") is None

    def test_pop_first_child_refuses_inner_head(self):
        tree = DataTree()
        tree.create("/q")
        tree.create("/q/a")
        tree.create("/q/a/leaf")
        with pytest.raises(ValueError):
            tree.pop_first_child("/q")
        assert tree.get_children("/q") == ["a"]

    def test_first_child_except_skips_listed_children_only(self):
        tree = DataTree()
        tree.create("/q")
        for item in range(4):
            tree.create("/q/n", data=item, sequential=True)
        removed = {"/q/n0000000000", "/q/n0000000002", "/q/missing",
                   "/other/n0000000001", "/q/n0000000000/deeper"}
        assert tree.first_child_except("/q", removed) == \
            ("n0000000001", 1, 1)
        removed |= {"/q/n0000000001", "/q/n0000000003"}
        assert tree.first_child_except("/q", removed) is None
        with pytest.raises(NoNodeError):
            tree.first_child_except("/missing", removed)
