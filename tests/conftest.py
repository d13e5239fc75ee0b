import pytest

from icsheaf import demos
from icsheaf.deligne import build_ic, build_tower
from icsheaf.fields import field_by_name
from icsheaf.stratify import validate_stratification


@pytest.fixture(scope="session")
def spaces():
    """All bundled demos: name -> (complex, stratification)."""
    out = {}
    for name in demos.DEMO_NAMES:
        K, doc = demos.demo_space(name)
        out[name] = (K, validate_stratification(K, doc["levels"]))
    return out


@pytest.fixture(scope="session")
def build_of(spaces):
    """build_of(name, field="q", naive=False) -> ICBundle, built once per session."""
    cache = {}

    def get(name, field="q", naive=False):
        key = (name, field, naive)
        if key not in cache:
            cache[key] = build_ic(spaces[name][1], field=field_by_name(field),
                                  naive=naive)
        return cache[key]
    return get


@pytest.fixture(scope="session")
def tower_of(spaces):
    """tower_of(name, field="q", naive=False) -> unverified ICBundle with its stages."""
    cache = {}

    def get(name, field="q", naive=False):
        key = (name, field, naive)
        if key not in cache:
            cache[key] = build_tower(spaces[name][1], field=field_by_name(field),
                                     naive=naive)
        return cache[key]
    return get


@pytest.fixture(scope="session")
def towers(tower_of):
    """name -> the canonical tower (stages in `intermediates`) over QQ."""
    return {name: tower_of(name) for name in demos.DEMO_NAMES}


@pytest.fixture(scope="session")
def built(build_of):
    """name -> ICBundle for the minimal stratification (canonical build)."""
    return {name: build_of(name) for name in demos.DEMO_NAMES}


@pytest.fixture(scope="session")
def wedge(spaces):
    return spaces["wedge"]


@pytest.fixture(scope="session")
def wedge_ic(built):
    return built["wedge"]
