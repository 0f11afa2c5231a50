"""The same seed generates byte-identical inputs; another seed does not."""

import pytest

import workloads


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(21, str(tmp_path)).inputs()
    written = files(tmp_path)
    assert cls(21, str(tmp_path)).inputs() == first
    assert files(tmp_path) == written
    assert cls(22, str(tmp_path)).inputs() != first


def test_requests_write_every_referenced_file(tmp_path):
    requests = workloads.Requests(3, str(tmp_path))
    names = {p.name for p in tmp_path.iterdir()}
    for _kind, argv, _want in requests.items:
        for arg in argv:
            if arg.endswith(".json"):
                assert arg.rsplit("/", 1)[-1] in names
