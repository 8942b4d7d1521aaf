import pytest

from repower import load_csv


@pytest.fixture(scope="session")
def records():
    return load_csv()


@pytest.fixture(scope="session")
def by_study(records):
    return {rec.study.split()[0]: rec for rec in records}


def pytest_collection_modifyitems(items):
    # hypothesis imports libcst to print a falsifying example, and libcst
    # emits this deprecation from mypy_extensions; under -W error that
    # ends the run in an INTERNALERROR and the example is lost.  A mark
    # outranks -W, where a filterwarnings line in pyproject.toml does not
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:"
            "DeprecationWarning"))
