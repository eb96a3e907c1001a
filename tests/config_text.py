"""A config rendered back to the text that parse_config reads, kept as a
reference implementation.

vlcpos.config_hash digests a config's values as bits and renders no text.
This module writes the same keys, in the same order and under the same
omission rules, as text, with floats in repr so loading it back reproduces
the exact values. The tests hold parse_config to round-trips through it and
config_hash to it: two configs hash equal exactly when their texts are equal.
"""

from operator import attrgetter

from vlcpos import lambertian_order
from vlcpos.reporting import _CONFIG_KEYS


def _point_text(point):
    return f"({point.x!r}, {point.y!r}, {point.z!r})"


# The text that reads back to a field's value, by the shape of its rule.
_TEXT_FORMS = {
    "": repr,
    "point": _point_text,
    "points": lambda points: "[" + ", ".join(map(_point_text, points)) + "]",
    "list": lambda values: "[" + ", ".join(map(repr, values)) + "]",
    "span": lambda span: "(" + ", ".join(map(repr, span)) + ")",
}


def serialize_config(config):
    """Render a config as the text format parse_config accepts.

    Floats are written with repr so loading the result reproduces the exact
    same values. The Lambertian order is written only when it overrides the
    half-power-angle formula, and the distance range only when it is set.
    """

    derived_order = lambertian_order(config.led.half_power_angle)
    lines = []
    for key, (field, _) in _CONFIG_KEYS.items():
        value = attrgetter(field)(config)
        if value is None:
            continue
        if key == "led.lambertian_order" and value == derived_order:
            continue
        record, _, name = field.rpartition(".")
        rule = (getattr(config, record) if record else config)._rules[name]
        lines.append(f"{key} = {_TEXT_FORMS[rule.shape](value)}")
    return "\n".join(lines) + "\n"
