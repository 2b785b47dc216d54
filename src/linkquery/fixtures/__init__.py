"""Bundled demo web: manifest, document bodies, query and guidance files."""
from importlib.resources import files
from pathlib import Path


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
