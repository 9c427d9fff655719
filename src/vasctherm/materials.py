"""Temperature-dependent solid properties and the constant-property coolant.

Host-material specific heat and conductivity are polynomial fits of
temperature (kelvin), clamped to the fitted range. A SolidMaterial is
positive over each range by construction, so the clamped curves stay
positive at every temperature (uniform ellipticity). The coolant is
characterized by a single heat capacity rate chi = rho_f * Q * c_f (W/K).
This module also holds the one JSON field checker of the input files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

MODES = ("CMP", "TDMP")
REFERENCE_TEMPERATURE = 296.15  # K, room temperature at which CMP values are sampled

NUMBER, NUMBERS, TEXT_OR_NULL = (int, float), "numbers", (str, type(None))
_KIND_NAMES = {NUMBER: "a finite number", NUMBERS: "a list of finite numbers", int: "an integer",
              str: "a string", bool: "true or false", list: "a list", dict: "an object",
              TEXT_OR_NULL: "a string or null"}

# record kind -> field -> accepted JSON type of a coefficients-file record; a
# missing field other than a curve's unit raises ConfigError where it is read.
RECORD_TYPES = {
    "material": {"name": str, "density": NUMBER, "c_s": dict, "k_s": dict},
    "curve": {"coeffs": NUMBERS, "range": NUMBERS, "unit": str},
}


class ConfigError(ValueError):
    """Invalid scenario or material input, refused where it is read (the CLI exits 2)."""


def is_kind(value, kind) -> bool:
    """value has the JSON type kind; a bool is never a number, and a number is finite."""
    if kind is NUMBERS:
        return isinstance(value, list) and all(is_kind(v, NUMBER) for v in value)
    if kind is bool:
        return isinstance(value, bool)
    if kind is NUMBER and isinstance(value, NUMBER) and not abs(value) <= sys.float_info.max:
        return False  # NaN and Infinity, which json reads, and integers beyond float range
    return isinstance(value, kind) and not isinstance(value, bool)


def check_types(d, spec: dict, where: str):
    """Reject d unless it is an object whose every key spec names, holding a value of its kind."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - set(spec)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; allowed: {sorted(spec)}")
    for key, value in d.items():
        if not is_kind(value, spec[key]):
            raise ConfigError(f"{where}.{key} must be {_KIND_NAMES[spec[key]]}, got {value!r}")


def _required(d: dict, key: str, where: str):
    """d[key]; a missing key is a ConfigError that names the record and the field."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    if key not in d:
        raise ConfigError(f"{where} lacks the required field {key!r}")
    return d[key]


@dataclass(frozen=True)
class PropertyCurve:
    """Clamped polynomial property of temperature.

    coefficients are in ascending degree, evaluated in kelvin. Outside
    valid_range the curve extrapolates as a constant (endpoint value).
    """

    coefficients: tuple[float, ...]
    valid_range: tuple[float, float]
    unit: str = ""

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("PropertyCurve needs at least one coefficient")
        lo, hi = self.valid_range
        if not lo < hi:
            raise ValueError(f"valid_range must satisfy lo < hi, got ({lo}, {hi})")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        object.__setattr__(self, "valid_range", (float(lo), float(hi)))
        if not np.all(np.isfinite(self.coefficients + self.valid_range)):
            raise ValueError(f"coefficients and valid_range must be finite, got "
                             f"{self.coefficients} on {self.valid_range}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def constant_curve(value: float, valid_range=(250.0, 500.0), unit: str = "") -> PropertyCurve:
    return PropertyCurve((float(value),), valid_range, unit)


def _horner(coefficients: tuple[float, ...], t):
    """sum_k c_k t**k by one in-place Horner loop.

    A constant is t * 0 + c_0, which keeps a NaN argument NaN. A higher
    degree starts from t * c_n, then alternates += c_k and *= t in place.
    numpy's polyval starts from (c_n + 0 * t) * t instead, which equals
    t * c_n for a finite or NaN t (it differs at an infinite one). Both
    callers pass a temperature clamped to the fitted range, finite or
    NaN, so the result is bitwise equal to
    np.polynomial.polynomial.polyval(t, coefficients).
    """
    if len(coefficients) == 1:
        out = t * 0
        out += coefficients[0]
        return out
    out = t * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        out += c
        out *= t
    out += coefficients[0]
    return out


def _clamp(curve: PropertyCurve, theta):
    """theta clipped to the fitted range; an array's own clip skips np.clip's dispatch."""
    lo, hi = curve.valid_range
    return theta.clip(lo, hi) if isinstance(theta, np.ndarray) else np.clip(theta, lo, hi)


def eval_curve(curve: PropertyCurve, theta):
    """Evaluate the curve at temperature theta (K); scalar or ndarray.

    Horner evaluation at clamp(theta, lo, hi): exact polynomial inside the
    fitted range, constant extrapolation outside. Total (never raises).
    """
    out = _horner(curve.coefficients, _clamp(curve, theta))
    if isinstance(theta, np.ndarray):  # assembly's case, returned before the scalar test
        return out
    return float(out) if np.isscalar(theta) else out


def curve_derivative(curve: PropertyCurve, theta):
    """d(curve)/d(theta), zero on the clamped plateaus.

    Exactly at the range endpoints the interior one-sided derivative is
    returned, so Newton linearizations stay consistent with eval_curve.
    """
    c = curve.coefficients
    t = _clamp(curve, theta)
    out = _horner(tuple(k * c[k] for k in range(1, len(c))) or (0.0,), t)
    clamped = t != theta  # outside the fitted range, or NaN
    if isinstance(out, np.ndarray) and out.ndim:
        out[clamped] = 0.0
        return out
    return 0.0 if clamped else float(out)


def _extreme_values(curve: PropertyCurve) -> np.ndarray:
    """The curve at its range ends and at the real parts of its derivative's roots.

    Its minimum and maximum over the range are among these values. A root
    outside the range clamps to an end, and the real part of a complex root
    only adds one more point of the range.
    """
    c = curve.coefficients
    critical = np.roots([k * c[k] for k in range(len(c) - 1, 0, -1)]).real
    return eval_curve(curve, np.concatenate([curve.valid_range, critical]))


@dataclass(frozen=True)
class SolidMaterial:
    """Host solid: density plus temperature-dependent c_s and k_s.

    Both curves must be positive and finite over their whole fitted range,
    and so, being clamped, at every temperature.
    """

    name: str
    density: float  # kg/m^3
    specific_heat: PropertyCurve  # J/(kg*K)
    conductivity: PropertyCurve  # W/(m*K), isotropic scalar

    def __post_init__(self):
        if not 0 < self.density < np.inf:
            raise ValueError(f"density must be positive and finite, got {self.density}")
        for label, curve in (("c_s", self.specific_heat), ("k_s", self.conductivity)):
            values = _extreme_values(curve)
            if not (values.min() > 0 and values.max() < np.inf):
                raise ValueError(f"{label} of {self.name} must be positive and finite over "
                                 f"{curve.valid_range}; it reaches {values.min():.6g}")


@dataclass(frozen=True)
class Coolant:
    """Constant-property coolant (water by default in scenarios)."""

    density: float  # kg/m^3
    specific_heat: float  # J/(kg*K)
    flow_rate: float  # m^3/s

    def __post_init__(self):
        if self.density <= 0 or self.specific_heat <= 0:
            raise ValueError("coolant density and specific heat must be positive")
        if self.flow_rate < 0:
            raise ValueError("flow rate must be non-negative")


def heat_capacity_rate(coolant: Coolant) -> float:
    """chi = rho_f * Q * c_f in W/K."""
    return coolant.density * coolant.flow_rate * coolant.specific_heat


def _curve_from_dict(d: dict, where: str, unit_default: str) -> PropertyCurve:
    check_types(d, RECORD_TYPES["curve"], where)
    return PropertyCurve(
        coefficients=tuple(_required(d, "coeffs", where)),
        valid_range=tuple(_required(d, "range", where)),
        unit=d.get("unit", unit_default),
    )


def material_from_dict(d: dict, mode: str = "TDMP") -> SolidMaterial:
    """Build a SolidMaterial from the coefficients-file record format.

    mode="CMP" collapses both curves to constants sampled at room
    temperature (296.15 K), mode="TDMP" keeps the fitted polynomials. An
    unknown key, a missing field or a field of the wrong JSON type
    (RECORD_TYPES) raises ConfigError, a curve not positive over its range
    ValueError.
    """
    mode = mode.upper()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    check_types(d, RECORD_TYPES["material"], "material")
    name = _required(d, "name", "material")
    where = f"material {name!r}"
    density = _required(d, "density", where)
    c_s = _curve_from_dict(_required(d, "c_s", where), f"{where}.c_s", "J/(kg*K)")
    k_s = _curve_from_dict(_required(d, "k_s", where), f"{where}.k_s", "W/(m*K)")
    if mode == "CMP":
        c_s = PropertyCurve((eval_curve(c_s, REFERENCE_TEMPERATURE),), c_s.valid_range, c_s.unit)
        k_s = PropertyCurve((eval_curve(k_s, REFERENCE_TEMPERATURE),), k_s.valid_range, k_s.unit)
    return SolidMaterial(
        name=f"{name}:{mode}",
        density=float(density),
        specific_heat=c_s,
        conductivity=k_s,
    )


def _builtin_records() -> dict[str, dict]:
    text = resources.files("vasctherm.data").joinpath("material_coefficients.json").read_text()
    data = json.loads(text)
    return {rec["name"]: rec for rec in data["materials"]}


def builtin_material(name: str, mode: str = "TDMP") -> SolidMaterial:
    """One of the shipped host materials (cfrp_like, gfrp_like, epoxy_like)."""
    records = _builtin_records()
    if name not in records:
        raise ConfigError(f"unknown material {name!r}; built-ins: {sorted(records)}")
    return material_from_dict(records[name], mode)


def builtin_names() -> list[str]:
    return sorted(_builtin_records())


def load_material_file(path, name: str | None = None, mode: str = "TDMP") -> SolidMaterial:
    """Load a material from a user coefficients file (same schema as the
    shipped material_coefficients.json; a file holding a single record is
    also accepted). A record or field of the wrong JSON type, a missing field
    or an unknown name raises ValueError (ConfigError where the record is read)."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        if "materials" in data:
            records = {_required(rec, "name", f"materials[{i}] of {path}"): rec
                       for i, rec in enumerate(data["materials"])}
            if name is None:
                if len(records) != 1:
                    raise ValueError(f"file holds {sorted(records)}; pass name=")
                name = next(iter(records))
            if name not in records:
                raise ConfigError(f"unknown material {name!r} in {path}; found {sorted(records)}")
            return material_from_dict(records[name], mode)
        return material_from_dict(data, mode)
    except TypeError as exc:
        raise ValueError(f"malformed material file {path}: {exc}") from exc


def water_coolant(
    flow_rate_ml_per_min: float = 1.0, density: float = 1000.0, specific_heat: float = 4183.0
) -> Coolant:
    """Coolant with its flow rate Q given in mL/min; rho and c_f default to water's."""
    return Coolant(
        density=density,
        specific_heat=specific_heat,
        flow_rate=flow_rate_ml_per_min * 1e-6 / 60.0,
    )
