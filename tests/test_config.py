"""The config key table: the docstring's key reference, the defaults a
config leaves to the dataclasses, and which keys take the ratio syntax."""
import re
from dataclasses import MISSING

import pytest

from optomech import config
from optomech.errors import ConfigError
from optomech.fock import FockDims
from optomech.system import SystemParams

REQUIRED_ONLY = {"omega_c": "1e8", "omega_m": "1e7", "t_end": "1e-6", "n_samples": "3",
                 "modes": "undriven"}


def config_text(entries: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def test_docstring_lists_the_key_table():
    """Every key once, in table order, with its kind, default and marker."""
    rows = re.findall(r"^    (\w+) +(\w+) +(\S+)(?: +(\w+))?$", config.__doc__, re.M)
    assert [row[0] for row in rows] == list(config.KEYS)
    for name, kind, default, marker in rows:
        key = config.KEYS[name]
        assert kind == key.kind.__name__, name
        assert marker == ("preset" if key.with_preset else "ratio" if key.ratio else ""), name
        if key.default is MISSING:
            assert default == "required", name
        elif key.default is None:
            assert default in ("none", "auto"), name
        else:
            assert default == str(key.default).lower(), name


def test_required_keys_alone_take_the_dataclass_defaults():
    (job,) = config.build_jobs(config.parse_config_text(config_text(REQUIRED_ONLY)))
    assert job.config.params == SystemParams(omega_c=1e8, omega_m=1e7)
    assert job.config == config.RunConfig(job.config.params, 1e-6, 3, ("undriven",))
    assert [k for k, key in config.KEYS.items() if key.default is MISSING] == list(REQUIRED_ONLY)


@pytest.mark.parametrize("key, ratio, accepted", [
    ("omega_m", "0.1", True),
    ("omega_p", "0.8", True),
    ("drive_amp", "0.01", True),
    ("omega_c", "1", False),
    ("g_ratio", "1e-9", False),
    ("t_end", "1e-14", False),
    ("dt", "1e-16", False),
    ("norm_tolerance", "1e-14", False),
])
def test_only_ratio_keys_take_the_ratio_syntax(key, ratio, accepted):
    kv = config.parse_config_text(config_text({**REQUIRED_ONLY, key: f"{ratio}*omega_c"}))
    assert config.KEYS[key].ratio is accepted
    if accepted:
        (job,) = config.build_jobs(kv)
        assert getattr(job.config.params, key) == float(ratio) * 1e8
    else:
        with pytest.raises(ConfigError) as err:
            config.build_jobs(kv)
        assert str(err.value) == (
            f"line {kv[key][1]}: {key}: only omega_m, omega_p, drive_amp take the x*omega_c syntax")


@pytest.mark.parametrize("entries, filters", [
    ({}, (True, True, False)),
    ({"filter": "false"}, (False, False, False)),
    ({"filter": "true"}, (True, True, True)),
], ids=["own", "false", "true"])
def test_a_setting_next_to_a_preset_replaces_the_jobs_own(entries, filters):
    """fig5_6 filters red and blue but not nonforced; `filter` given beside
    the preset sets every job's, as field_dim and mirror_dim set its dims."""
    kv = config.parse_config_text(config_text({"preset": "fig5_6", **entries}))
    jobs = config.build_jobs(kv)
    assert [job.tag for job in jobs] == ["red", "blue", "nonforced"]
    assert tuple(job.config.filter for job in jobs) == filters
    resized = config.build_jobs({**kv, **config.parse_config_text("field_dim = 20\nmirror_dim = 21\n")})
    assert [job.config.dims for job in jobs] == [FockDims(30, 35)] * 2 + [None]
    assert [job.config.dims for job in resized] == [FockDims(20, 21)] * 3
