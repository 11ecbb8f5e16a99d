"""astcheck obs rules: instrument-name registry and warm-path contracts."""

from __future__ import annotations

from repro.staticcheck import check_source


def obs(src, rules=("obs-name", "obs-warm")):
    return check_source(src, "fixture.py", rules=list(rules))


# -- true positives -----------------------------------------------------

def test_typoed_span_name_is_flagged():
    findings = obs('with span("engine.comple"):\n    pass\n')
    assert [f.rule for f in findings] == ["obs-name"]
    assert "not registered" in findings[0].message


def test_malformed_span_name_is_flagged():
    findings = obs('with span("Engine Compile"):\n    pass\n')
    assert [f.rule for f in findings] == ["obs-name"]
    assert "subsystem.verb" in findings[0].message


def test_unregistered_dynamic_prefix_is_flagged():
    findings = obs(
        "def run(cmd):\n"
        "    with span(f'sweep.{cmd}'):\n"
        "        pass\n"
    )
    assert [f.rule for f in findings] == ["obs-name"]
    assert "dynamic" in findings[0].message


def test_unregistered_counter_name_is_flagged():
    findings = obs('registry.counter("bogus.name").inc()\n')
    assert [f.rule for f in findings] == ["obs-name"]


def test_span_inside_warm_function_is_flagged():
    findings = obs(
        "# obs: warm\n"
        "def evaluate_row(x):\n"
        "    with span('engine.compile'):\n"
        "        return x + 1\n"
    )
    assert [f.rule for f in findings] == ["obs-warm"]
    assert "warm" in findings[0].message


def test_traced_decorator_on_warm_function_is_flagged():
    findings = obs(
        "# obs: warm\n"
        "@traced('engine.compile')\n"
        "def evaluate_row(x):\n"
        "    return x + 1\n"
    )
    assert [f.rule for f in findings] == ["obs-warm"]


# -- false-positive controls --------------------------------------------

def test_registered_span_and_counter_are_clean():
    findings = obs(
        "with span('engine.compile'):\n"
        "    registry.counter('batch.sweeps').inc()\n"
    )
    assert findings == []


def test_registered_dynamic_prefixes_are_clean():
    findings = obs(
        "def run(cmd, field):\n"
        "    with span(f'cli.{cmd}'):\n"
        "        registry.counter(f'store.{field}').inc()\n"
    )
    assert findings == []


def test_variable_names_are_untracked():
    # the name was checked where the literal was written
    findings = obs(
        "def open_span(name):\n"
        "    return span(name)\n"
    )
    assert findings == []


def test_span_in_unmarked_function_is_fine():
    findings = obs(
        "def sweep():\n"
        "    with span('batch.sweep'):\n"
        "        return 1\n"
    )
    assert findings == []


def test_counter_in_warm_function_is_allowed():
    # counters are cheap increments; only spans are barred on warm paths
    findings = obs(
        "# obs: warm\n"
        "def evaluate_row(x):\n"
        "    registry.counter('batch.sweeps').inc()\n"
        "    return x + 1\n"
    )
    assert findings == []


def test_nested_cold_helper_keeps_its_own_span():
    findings = obs(
        "# obs: warm\n"
        "def evaluate_row(x):\n"
        "    def cold_path():\n"
        "        with span('engine.compile'):\n"
        "            return 0\n"
        "    return x\n"
    )
    assert findings == []
