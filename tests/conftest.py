import os

import pytest

import transient_queue


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_package():
    """CLI tests run the package in child processes; let those import the
    copy these tests import, whether or not it is installed."""
    src = os.path.dirname(os.path.dirname(transient_queue.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield
