"""astcheck fingerprint-purity rule: spec builders stay deterministic."""

from __future__ import annotations

from repro.staticcheck import check_source


def purity(src):
    return check_source(src, "fixture.py", rules=["fingerprint-purity"])


# -- true positives -----------------------------------------------------

def test_clock_read_in_spec_builder():
    findings = purity(
        "import time\n"
        "def profile(store, iterations):\n"
        "    spec = {'iterations': iterations, 'at': time.time()}\n"
        "    return store.get_or_create('profile', spec)\n"
    )
    assert [f.rule for f in findings] == ["fingerprint-purity"]
    assert "time.time" in findings[0].symbol


def test_datetime_now_in_spec_builder():
    findings = purity(
        "from datetime import datetime\n"
        "def key(store):\n"
        "    return store.key_for('fit', {'day': datetime.now()})\n"
    )
    assert [f.rule for f in findings] == ["fingerprint-purity"]


def test_non_allowlisted_env_read_in_spec_builder():
    findings = purity(
        "import os\n"
        "def key(store, model):\n"
        "    spec = {'model': model, 'host': os.environ['HOSTNAME']}\n"
        "    return store.key_for('fit', spec)\n"
    )
    assert [f.rule for f in findings] == ["fingerprint-purity"]
    assert "$HOSTNAME" in findings[0].message


def test_cpu_count_in_named_spec_helper():
    # the _canonical_profile_spec factoring: no sink call in sight, but
    # the name + returned local dict make it a builder
    findings = purity(
        "import os\n"
        "def _canonical_profile_spec(iterations):\n"
        "    spec = {'iterations': iterations, 'width': os.cpu_count()}\n"
        "    return spec\n"
    )
    assert [f.rule for f in findings] == ["fingerprint-purity"]
    assert "cpu_count" in findings[0].symbol


# -- false-positive controls --------------------------------------------

def test_clock_outside_a_builder_is_fine():
    # latency accounting in a non-builder is not key material
    findings = purity(
        "import time\n"
        "def run_and_time(fn):\n"
        "    start_s = time.time()\n"
        "    fn()\n"
        "    return time.time() - start_s\n"
    )
    assert findings == []


def test_store_receiving_a_spec_is_not_a_builder():
    findings = purity(
        "import time\n"
        "def get_or_create(self, kind, spec):\n"
        "    start_s = time.time()\n"
        "    return self._materialise(kind, spec, start_s)\n"
    )
    assert findings == []


def test_allowlisted_env_read_is_fine():
    findings = purity(
        "import os\n"
        "def key(store, model):\n"
        "    root = os.environ.get('REPRO_WORKSPACE', '.')\n"
        "    return store.key_for('fit', {'model': model, 'root': root})\n"
    )
    assert findings == []


def test_pure_spec_builder_is_clean():
    findings = purity(
        "def _canonical_profile_spec(iterations):\n"
        "    return {'schema': 1, 'iterations': iterations}\n"
    )
    assert findings == []
