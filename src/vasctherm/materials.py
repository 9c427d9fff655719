"""Temperature-dependent solid properties and the constant-property coolant.

Host-material specific heat and conductivity are polynomial fits of
temperature (kelvin), clamped to the fitted range so that positivity and
uniform ellipticity survive extrapolation. The coolant is characterized by
a single heat capacity rate chi = rho_f * Q * c_f (W/K).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

MODES = ("CMP", "TDMP")
REFERENCE_TEMPERATURE = 296.15  # K, room temperature at which CMP values are sampled
ELLIPTICITY_SAMPLES = 101  # equispaced k_s samples over the fitted range

_NUMBER, _NUMBERS = (int, float), "numbers"
_KIND_NAMES = {_NUMBER: "a number", _NUMBERS: "a list of numbers", str: "a string",
               dict: "an object"}

# record kind -> field -> accepted JSON type of a coefficients-file record. A
# bool is never a number; a missing field raises KeyError where it is read.
RECORD_TYPES = {
    "material": {"name": str, "density": _NUMBER, "c_s": dict, "k_s": dict},
    "curve": {"coeffs": _NUMBERS, "range": _NUMBERS, "unit": str},
}


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

    It takes numpy polyval's operations in polyval's order, so the result
    is bitwise equal to np.polynomial.polynomial.polyval(t, coefficients).
    """
    out = t * 0
    out += coefficients[-1]
    for c in coefficients[-2::-1]:
        out *= t
        out += c
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
    if np.isscalar(theta):
        return float(out)
    return out


def curve_derivative(curve: PropertyCurve, theta):
    """d(curve)/d(theta), zero on the clamped plateaus.

    Exactly at the range endpoints the interior one-sided derivative is
    returned, so Newton linearizations stay consistent with eval_curve.
    """
    c = curve.coefficients
    t = _clamp(curve, theta)
    out = _horner(tuple(k * c[k] for k in range(1, len(c))) or (0.0,), t)
    clamped = t != theta  # outside the fitted range, or NaN
    if np.ndim(out) == 0:
        return 0.0 if clamped else float(out)
    out[clamped] = 0.0
    return out


@dataclass(frozen=True)
class SolidMaterial:
    """Host solid: density plus temperature-dependent c_s and k_s."""

    name: str
    density: float  # kg/m^3
    specific_heat: PropertyCurve  # J/(kg*K)
    conductivity: PropertyCurve  # W/(m*K), isotropic scalar

    def __post_init__(self):
        if not 0 < self.density < np.inf:
            raise ValueError(f"density must be positive and finite, got {self.density}")


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


@dataclass(frozen=True)
class EllipticityReport:
    k1: float  # W/(m*K), sampled lower bound of k_s
    passed: bool


def heat_capacity_rate(coolant: Coolant) -> float:
    """chi = rho_f * Q * c_f in W/K."""
    return coolant.density * coolant.flow_rate * coolant.specific_heat


def check_ellipticity(material: SolidMaterial) -> EllipticityReport:
    """Sample k_s over its fitted range and report the lower bound k1.

    passed is True iff k1 > 0. Non-positive minima produce a failing
    report rather than an exception, so invalid curves can be surfaced.
    """
    lo, hi = material.conductivity.valid_range
    theta = np.linspace(lo, hi, ELLIPTICITY_SAMPLES)
    values = eval_curve(material.conductivity, theta)
    k1 = float(np.min(values))
    return EllipticityReport(k1=k1, passed=k1 > 0.0)


def _is_kind(value, kind) -> bool:
    if kind is _NUMBERS:
        return isinstance(value, list) and all(_is_kind(v, _NUMBER) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_types(d, where: str):
    """Reject a record that is not an object, or a field of the wrong JSON type."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} record must be an object, got {d!r}")
    for key, kind in RECORD_TYPES[where].items():
        if key in d and not _is_kind(d[key], kind):
            raise ValueError(f"{where}.{key} must be {_KIND_NAMES[kind]}, got {d[key]!r}")


def _curve_from_dict(d: dict, unit_default: str = "") -> PropertyCurve:
    _check_types(d, "curve")
    return PropertyCurve(
        coefficients=tuple(d["coeffs"]),
        valid_range=tuple(d["range"]),
        unit=d.get("unit", unit_default),
    )


def material_from_dict(d: dict, mode: str = "TDMP") -> SolidMaterial:
    """Build a SolidMaterial from the coefficients-file record format.

    mode="CMP" collapses both curves to constants sampled at room
    temperature (296.15 K), mode="TDMP" keeps the fitted polynomials. A
    field of the wrong JSON type (RECORD_TYPES) raises ValueError.
    """
    mode = mode.upper()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_types(d, "material")
    c_s = _curve_from_dict(d["c_s"], "J/(kg*K)")
    k_s = _curve_from_dict(d["k_s"], "W/(m*K)")
    if mode == "CMP":
        c_s = PropertyCurve((eval_curve(c_s, REFERENCE_TEMPERATURE),), c_s.valid_range, c_s.unit)
        k_s = PropertyCurve((eval_curve(k_s, REFERENCE_TEMPERATURE),), k_s.valid_range, k_s.unit)
    return SolidMaterial(
        name=f"{d['name']}:{mode}",
        density=float(d["density"]),
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
        raise KeyError(f"unknown material {name!r}; built-ins: {sorted(records)}")
    return material_from_dict(records[name], mode)


def builtin_names() -> list[str]:
    return sorted(_builtin_records())


def load_material_file(path, name: str | None = None, mode: str = "TDMP") -> SolidMaterial:
    """Load a material from a user coefficients file (same schema as the
    shipped material_coefficients.json; a file holding a single record is
    also accepted). A record or field of the wrong JSON type raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        if "materials" in data:
            records = {rec["name"]: rec for rec in data["materials"]}
            if name is None:
                if len(records) != 1:
                    raise ValueError(f"file holds {sorted(records)}; pass name=")
                name = next(iter(records))
            if name not in records:
                raise KeyError(f"material {name!r} not in file; found {sorted(records)}")
            return material_from_dict(records[name], mode)
        return material_from_dict(data, mode)
    except TypeError as exc:
        raise ValueError(f"malformed material file {path}: {exc}") from exc


def water_coolant(flow_rate_ml_per_min: float = 1.0) -> Coolant:
    """Table-defaults coolant: water at rho=1000, c_f=4183, Q in mL/min."""
    return Coolant(
        density=1000.0,
        specific_heat=4183.0,
        flow_rate=flow_rate_ml_per_min * 1e-6 / 60.0,
    )
