"""Scene configuration: flat `key = value` text grouped into [sections].

Unknown keys, duplicate keys, malformed lines, out-of-range values, a
shape size that does not fit the shape, text that is not UTF-8 and a
missing dataset all fail loudly with the offending line number. Several
geometric parameters accept the literal `auto`, which resolves against the
bounding radius of the touch data when the stage that needs them runs.
"""

import os
from dataclasses import dataclass

from .errors import ConfigError
from .touchsim import AnalyticShape

AUTO = "auto"


def _positive(x):
    return x > 0.0


def _nonnegative(x):
    return x >= 0.0


def _fraction(x):
    return 0.0 < x <= 1.0


def _sparse_fraction(x):
    return 0.0 < x <= 0.01


def _opacity(x):
    return 0.0 < x < 1.0


# key -> (type tag, default, validator or None)
SCHEMA = {
    "scene": {
        "dataset": ("str", None, None),
        "out": ("str", None, None),
        "seed": ("int", 0, _nonnegative),
    },
    "sim": {
        "shape": ("choice:sphere,box,torus", "sphere", None),
        "size": ("floats", (1.0,), _positive),
        "dome_radius": ("float", 8.0, _positive),
        "views": ("int", 5, _positive),
        "width": ("int", 64, lambda x: x >= 8),
        "height": ("int", 64, lambda x: x >= 8),
        "focal": ("float", 48.0, _positive),
        "orbit_radius": ("float", 3.0, _positive),
        "orbit_height": ("float", 0.5, None),
        "touches": ("int", 200, _positive),
        "points_per_touch": ("int", 64, _positive),
        "patch_radius": ("float", 0.15, _positive),
        "touch_noise": ("float", 0.001, _nonnegative),
        "normal_noise": ("float", 0.0, _nonnegative),
        "sparse_fraction": ("float", 0.005, _sparse_fraction),
        "sparse_noise": ("float", 0.003, _nonnegative),
        "vision_bias": ("float", 0.4, None),
        "object_color": ("rgb", (0.8, 0.4, 0.2), None),
        "background_color": ("rgb", (0.2, 0.2, 0.2), None),
    },
    "kernel": {
        "length_scale": ("float", 0.3, _positive),
        "output_scale": ("float", 0.4, _positive),
        "noise": ("float", 1e-6, _nonnegative),
        "prior_mean": ("autofloat", AUTO, None),
        "rho_grid": ("floats", (), _positive),
    },
    "conditioning": {
        "surface_offset": ("autofloat", AUTO, _positive),
        "interior_offset": ("autofloat", AUTO, _positive),
        "slices": ("int", 8, _positive),
        "voxel": ("autofloat", AUTO, _nonnegative),
        "cap": ("int", 8000, _positive),
    },
    "march": {
        "step_fraction": ("float", 0.9, _fraction),
        "min_step": ("autofloat", AUTO, _positive),
        "hit_tol": ("autofloat", AUTO, _positive),
        "max_steps": ("int", 200, _positive),
        "margin": ("float", 0.1, _nonnegative),
    },
    "align": {
        "uncertainty_slope": ("float", 0.1, _nonnegative),
        "uncertainty_floor": ("float", 0.25, _positive),
        "max_gap": ("float", 3.0, _positive),
    },
    "loss": {
        "depth_weight": ("float", 1.0, _nonnegative),
        "sharpness": ("float", 3.0, _nonnegative),
        "decay": ("float", 0.99, _fraction),
    },
    "train": {
        "iters": ("int", 150, _nonnegative),
        "step": ("float", 0.005, _positive),
        "splat_radius": ("autofloat", AUTO, _positive),
        "max_points": ("int", 2500, _positive),
        "opacity": ("float", 0.7, _opacity),
    },
    "eval": {
        "gt_points": ("int", 2000, _positive),
        "icp_iters": ("int", 15, _nonnegative),
    },
}


@dataclass
class SceneConfig:
    """Validated configuration; values indexed by (section, key)."""

    values: dict

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
        self.values[section][key] = value


def _parse_value(tag, text, lineno, key):
    def err(msg):
        raise ConfigError(f"line {lineno}: key '{key}': {msg}")

    if tag == "str":
        return text
    if tag.startswith("choice:"):
        options = tag.split(":", 1)[1].split(",")
        if text not in options:
            err(f"must be one of {options}")
        return text
    if tag == "int":
        try:
            return int(text)
        except ValueError:
            err(f"expected an integer, got {text!r}")
    if tag == "float":
        try:
            return float(text)
        except ValueError:
            err(f"expected a number, got {text!r}")
    if tag == "autofloat":
        if text == AUTO:
            return AUTO
        try:
            return float(text)
        except ValueError:
            err(f"expected a number or 'auto', got {text!r}")
    if tag == "floats":
        try:
            return tuple(float(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            err(f"expected numbers, got {text!r}")
    if tag == "rgb":
        try:
            parsed = tuple(float(tok) for tok in text.replace(",", " ").split())
        except ValueError:
            err(f"expected three color components, got {text!r}")
        if len(parsed) != 3 or any(not 0.0 <= c <= 1.0 for c in parsed):
            err("expected three color components in [0, 1]")
        return parsed
    raise AssertionError(f"unhandled schema tag {tag}")


def parse_config_text(text):
    values = {section: {} for section in SCHEMA}
    seen_lines = {}
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
        if (section, key) in seen_lines:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' in section [{section}] "
                f"(first set on line {seen_lines[(section, key)]})"
            )
        seen_lines[(section, key)] = lineno
        tag, _, validator = SCHEMA[section][key]
        parsed = _parse_value(tag, value, lineno, key)
        if validator is not None and parsed != AUTO and not _passes(validator, parsed):
            raise ConfigError(f"line {lineno}: key '{key}': value {value!r} out of range")
        values[section][key] = parsed

    for section_name, keys in SCHEMA.items():
        for key, (tag, default, _) in keys.items():
            if key not in values[section_name]:
                if default is None:
                    raise ConfigError(f"missing required key '{key}' in section [{section_name}]")
                values[section_name][key] = default
    try:
        AnalyticShape(values["sim"]["shape"], values["sim"]["size"])
    except ValueError as exc:
        lineno = seen_lines.get(("sim", "size")) or seen_lines[("sim", "shape")]
        raise ConfigError(f"line {lineno}: key 'size': {exc}") from None
    return SceneConfig(values)


def _passes(validator, parsed):
    if isinstance(parsed, tuple):
        return all(validator(v) for v in parsed)
    return validator(parsed)


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
    for key in ("dataset", "out"):
        value = cfg.get("scene", key)
        if not os.path.isabs(value):
            cfg.override("scene", key, os.path.join(base, value))
    if require_dataset and not os.path.isdir(cfg.dataset):
        lineno = _line_of(text, "dataset")
        raise ConfigError(f"line {lineno}: dataset directory {cfg.dataset} does not exist")
    return cfg


def _line_of(text, key):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith(key):
            return lineno
    return 0
