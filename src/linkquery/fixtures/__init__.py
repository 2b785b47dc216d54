"""Bundled demo web: manifest, document bodies, query and guidance files."""
from importlib.resources import files
from pathlib import Path

from ..traversal import TraversalTrace

# The four documents that make up Ann's corner of the bundled demo web.
ANN_SUBTREE = frozenset(
    {
        "https://ann.ex/",
        "https://ann.ex/about/",
        "https://ann.ex/blog/",
        "https://photos.ex/ann/",
    }
)


def fixture_path(name: str) -> Path:
    path = Path(str(files(__package__) / name))
    if not path.exists():
        raise FileNotFoundError("no bundled fixture named %r" % name)
    return path


def demo_manifest() -> Path:
    return fixture_path("demo-web.json")


def demo_query() -> Path:
    return fixture_path("friends.rq")


def demo_structures() -> Path:
    return fixture_path("demo-structures.json")


def demo_policy() -> Path:
    return fixture_path("uma-policy.json")


def ann_subtree_request_count(trace: TraversalTrace) -> int:
    """Distinct successfully fetched documents within Ann's demo subtree."""
    if trace.ledger is None:
        return 0
    return len(trace.ledger.ok_documents & ANN_SUBTREE)
