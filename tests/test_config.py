"""The config key table: the docstring's key reference, the defaults a
config leaves to the dataclasses, and which keys take the ratio syntax."""
import re
from dataclasses import MISSING

import pytest

from optomech import config
from optomech.errors import ConfigError
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
