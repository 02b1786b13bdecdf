"""Scene configuration: flat `key = value` text grouped into [sections].

A file or value that fails a check raises ConfigError naming its line; the
CLI's docstring lists the checks. A value set from the command line or by
`override` passes the same checks.
"""

import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .fileio import number
from .touchsim import SHAPE_KINDS, AnalyticShape


def _positive(x):
    return x > 0.0


def _nonnegative(x):
    return x >= 0.0


def _fraction(x):
    return 0.0 < x <= 1.0


# key -> (kind, default, validator). A kind is "str" or a tuple of the
# allowed words, with no validator (None), or a number kind of _EXPECTED,
# whose validator checks each number of a value.
SCHEMA = {
    "scene": {
        "dataset": ("str", None, None),
        "out": ("str", None, None),
        "seed": ("int", 0, _nonnegative),
    },
    "sim": {
        "shape": (SHAPE_KINDS, "sphere", None),
        "size": ("floats", (1.0,), _positive),
        "views": ("int", 5, _positive),
        "width": ("int", 64, lambda x: x >= 8),
        "height": ("int", 64, lambda x: x >= 8),
        "focal": ("float", 48.0, _positive),
        "touches": ("int", 200, _positive),
        "points_per_touch": ("int", 64, _positive),
        "patch_radius": ("float", 0.15, _positive),
        "sparse_fraction": ("float", 0.005, lambda x: 0.0 < x <= 0.01),
    },
    "kernel": {
        "output_scale": ("float", 0.4, _positive),
        "noise": ("float", 1e-6, _nonnegative),
        # Each value is a full fit of the conditioning set: none may repeat.
        "rho_grid": ("distinct floats", (0.3,), _positive),
    },
    "conditioning": {
        "voxel": ("float", 0.1, _nonnegative),
        "cap": ("int", 8000, _positive),
    },
    "march": {
        "max_steps": ("int", 200, _positive),
    },
    "loss": {
        "depth_weight": ("float", 1.0, _nonnegative),
        "sharpness": ("float", 3.0, _nonnegative),
        "decay": ("float", 0.99, _fraction),
    },
    "train": {
        "iters": ("int", 150, _nonnegative),
        "step": ("float", 0.005, _positive),
        "max_points": ("int", 2500, _positive),
    },
    "eval": {
        "gt_points": ("int", 2000, _positive),
    },
}

# What the text of each number kind must hold, as its parse error says.
_EXPECTED = {"int": "an integer", "float": "a number", "floats": "numbers",
             "distinct floats": "numbers"}


@dataclass
class SceneConfig:
    """Validated configuration; values indexed by (section, key). `lines`
    holds the file line that set each key; a default has none."""

    values: dict
    lines: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.values[section][key]

    @property
    def dataset(self):
        return self.get("scene", "dataset")

    @property
    def out(self):
        return self.get("scene", "out")

    @property
    def seed(self):
        return self.get("scene", "seed")

    def section(self, name):
        return dict(self.values[name])

    def override(self, section, key, value):
        """Set a key from `str(value)`, as if the file gave that text: it
        passes the same parse, range and size checks, and names no line after."""
        kind, _, validator = SCHEMA[section][key]
        value = _parse_value(kind, str(value), key, validator)
        if section == "sim":
            _check_size({**self.values["sim"], key: value},
                        {k: n for k, n in self.lines.items() if k != (section, key)})
        self.lines.pop((section, key), None)
        self.values[section][key] = value

    def error(self, section, key, message):
        """A ConfigError for a value a stage cannot use, naming its line."""
        return _error(self.lines.get((section, key)), key, message)


def _error(lineno, key, message):
    where = f"line {lineno}: " if lineno else ""
    return ConfigError(f"{where}key '{key}': {message}")


def _check_size(sim, lines):
    """The size must fit the shape; the error names the size's line, else the shape's."""
    try:
        AnalyticShape(sim["shape"], sim["size"])
    except ValueError as exc:
        lineno = lines.get(("sim", "size")) or lines.get(("sim", "shape"))
        raise _error(lineno, "size", exc) from None


def _parse_value(kind, text, key, validator, lineno=None):
    """`text` as a value of `kind`: each of its numbers must be finite and
    pass `validator`."""
    if kind == "str":
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise _error(lineno, key, f"must be one of {list(kind)}")
        return text
    scalar = kind in ("int", "float")
    tokens = [text] if scalar else text.replace(",", " ").split()
    try:
        numbers = tuple(number(token, int if kind == "int" else float) for token in tokens)
    except ValueError:
        numbers = ()
    if not numbers:
        raise _error(lineno, key, f"expected {_EXPECTED[kind]}, got {text!r}")
    if kind != "int" and not all(map(math.isfinite, numbers)):
        raise _error(lineno, key, f"value {text!r} is not finite")
    if kind == "distinct floats" and len(set(numbers)) < len(numbers):
        raise _error(lineno, key, f"repeats a value in {text!r}")
    if not all(map(validator, numbers)):
        raise _error(lineno, key, f"value {text!r} out of range")
    return numbers[0] if scalar else numbers


def parse_config_text(text):
    values = {section: {} for section in SCHEMA}
    lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{section}]")
        if (section, key) in lines:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' in section [{section}] "
                f"(first set on line {lines[(section, key)]})"
            )
        lines[(section, key)] = lineno
        kind, _, validator = SCHEMA[section][key]
        values[section][key] = _parse_value(kind, value, key, validator, lineno)

    for section_name, keys in SCHEMA.items():
        for key, (_, default, _) in keys.items():
            if key not in values[section_name]:
                if default is None:
                    raise ConfigError(f"missing required key '{key}' in section [{section_name}]")
                values[section_name][key] = default
    _check_size(values["sim"], lines)
    return SceneConfig(values, lines)


def validate_config(path, require_dataset=True) -> SceneConfig:
    """Parse, default and range-check a config file from disk.

    require_dataset=False is used when the simulate stage will create the
    dataset directory as part of the run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it.
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
    cfg = parse_config_text(text)
    base = os.path.dirname(os.path.abspath(path))
    scene = cfg.values["scene"]
    for key in ("dataset", "out"):
        scene[key] = os.path.join(base, scene[key])
    if require_dataset and not os.path.isdir(cfg.dataset):
        lineno = cfg.lines[("scene", "dataset")]
        raise ConfigError(f"line {lineno}: dataset directory {cfg.dataset} does not exist")
    return cfg
