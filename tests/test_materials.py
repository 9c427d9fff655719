import json
from importlib import resources

import numpy as np
import pytest

from vasctherm.materials import (
    ConfigError,
    Coolant,
    PropertyCurve,
    SolidMaterial,
    builtin_material,
    builtin_names,
    constant_curve,
    curve_derivative,
    eval_curve,
    heat_capacity_rate,
    load_material_file,
    water_coolant,
)

LINEAR = PropertyCurve((5.0, 0.01), (296.15, 423.15), "W/(m*K)")


def test_eval_constant_curve():
    assert eval_curve(constant_curve(4183.0), 350.0) == 4183.0


def test_eval_linear_curve_inside_range():
    assert eval_curve(LINEAR, 300.0) == pytest.approx(8.0, abs=1e-12)


def test_eval_clamps_above_range():
    # value at the upper endpoint 423.15
    assert eval_curve(LINEAR, 500.0) == pytest.approx(9.2315, abs=1e-12)


def test_eval_clamps_below_range():
    assert eval_curve(LINEAR, 100.0) == pytest.approx(eval_curve(LINEAR, 296.15))


def test_eval_continuous_at_clamp_boundaries():
    lo, hi = LINEAR.valid_range
    for edge in (lo, hi):
        inside = eval_curve(LINEAR, edge)
        for eps in (1e-9, 1e-6):
            assert eval_curve(LINEAR, edge - eps) == pytest.approx(inside, abs=1e-4)
            assert eval_curve(LINEAR, edge + eps) == pytest.approx(inside, abs=1e-4)


def test_eval_vectorized_matches_scalar():
    theta = np.array([250.0, 296.15, 350.0, 423.15, 500.0])
    vec = eval_curve(LINEAR, theta)
    assert vec.shape == theta.shape
    for t, v in zip(theta, vec):
        assert eval_curve(LINEAR, float(t)) == v


@pytest.mark.parametrize("coeffs", [(7.5,), (5.0, 0.01), (560.0, 1.2, -3e-4), (2.0, -0.03, 1e-4, 7e-8)])
def test_horner_bitwise_equals_polyval(coeffs):
    # bit patterns are compared, so a NaN must come out as the same NaN and a zero with its sign
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    curve = PropertyCurve(coeffs, (296.15, 423.15))
    lo, hi = curve.valid_range
    ends = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)]
    theta = np.concatenate([ends, [np.nan, 0.0, -50.0, 1e6, np.inf, -np.inf], np.linspace(250.0, 480.0, 97)])
    t = np.clip(theta, lo, hi)
    dcoeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs))) or (0.0,)
    polyval = np.polynomial.polynomial.polyval
    assert np.array_equal(bits(eval_curve(curve, theta)), bits(polyval(t, coeffs)))
    inside = (theta >= lo) & (theta <= hi)
    assert np.array_equal(bits(curve_derivative(curve, theta)), bits(np.where(inside, polyval(t, dcoeffs), 0.0)))
    for x, tx, ok in zip(theta, t, inside):  # scalars, the range ends and NaN among them
        assert bits(eval_curve(curve, float(x))) == bits(polyval(tx, coeffs))
        assert bits(curve_derivative(curve, float(x))) == bits(polyval(tx, dcoeffs) if ok else 0.0)


def test_curve_derivative_clamp_rule():
    assert curve_derivative(LINEAR, 300.0) == pytest.approx(0.01)
    # interior one-sided value exactly at the kink, zero beyond it
    assert curve_derivative(LINEAR, 296.15) == pytest.approx(0.01)
    assert curve_derivative(LINEAR, 423.15) == pytest.approx(0.01)
    assert curve_derivative(LINEAR, 296.15 - 1e-9) == 0.0
    assert curve_derivative(LINEAR, 500.0) == 0.0


def test_heat_capacity_rate_table_values():
    chi = heat_capacity_rate(Coolant(1000.0, 4183.0, 1e-6 / 60.0))
    assert chi == pytest.approx(0.06971666666666668, rel=1e-12)
    assert chi == pytest.approx(6.972e-2, rel=1e-3)


def test_heat_capacity_rate_zero_flow():
    assert heat_capacity_rate(Coolant(1000.0, 4183.0, 0.0)) == 0.0


def test_heat_capacity_rate_linearity():
    base = Coolant(1000.0, 4183.0, 1e-6 / 60.0)
    doubled = Coolant(1000.0, 4183.0, 2e-6 / 60.0)
    assert heat_capacity_rate(doubled) == pytest.approx(2.0 * heat_capacity_rate(base))
    # bilinear in (rho*c, Q)
    rho2 = Coolant(2000.0, 4183.0, 1e-6 / 60.0)
    assert heat_capacity_rate(rho2) == pytest.approx(2.0 * heat_capacity_rate(base))


def test_water_coolant_ml_per_min():
    assert water_coolant(1.0).flow_rate == pytest.approx(1.6666666666666667e-08)
    assert water_coolant(1.0) == Coolant(1000.0, 4183.0, 1e-6 / 60.0)  # bitwise
    assert water_coolant(2.5, density=998.0, specific_heat=4180.0) == Coolant(998.0, 4180.0, 2.5 * 1e-6 / 60.0)


T0 = 421.245  # K, midway between two of 101 equispaced samples of (296.15, 423.15)


@pytest.mark.parametrize("c_s, k_s", [
    (constant_curve(900.0), PropertyCurve((3.0, -0.01), (296.15, 423.15))),  # zero at 300 K
    (constant_curve(900.0), PropertyCurve((T0 * T0 - 0.01, -2.0 * T0, 1.0), (296.15, 423.15))),
    (constant_curve(0.0), LINEAR),
    (constant_curve(-800.0), LINEAR),
], ids=["k_s-zero-crossing", "k_s-dip-to-minus-0.01-at-T0", "c_s-zero", "c_s-negative"])
def test_material_not_positive_over_its_range_is_refused(c_s, k_s):
    with pytest.raises(ValueError, match="positive"):
        SolidMaterial("m", 1600.0, c_s, k_s)


@pytest.mark.parametrize("curve", [
    constant_curve(0.5),
    LINEAR,  # least at the low end
    PropertyCurve((T0 * T0 + 0.01, -2.0 * T0, 1.0), (296.15, 423.15)),  # least, 0.01, at T0
    PropertyCurve((3.0, -0.01), (200.0, 290.0)),  # zero at 300 K, beyond the range
], ids=["constant", "linear", "interior-minimum", "zero-beyond-the-range"])
def test_material_positive_over_its_range_constructs(curve):
    mat = SolidMaterial("m", 1600.0, curve, curve)
    assert mat.specific_heat == mat.conductivity == curve


def test_builtin_cmp_is_degree_zero():
    mat = builtin_material("cfrp_like", "CMP")
    assert mat.conductivity.degree == 0
    assert mat.specific_heat.degree == 0


def test_builtin_cfrp_tdmp_conductivity_slope():
    mat = builtin_material("cfrp_like", "TDMP")
    assert curve_derivative(mat.conductivity, 350.0) == pytest.approx(0.01)


@pytest.mark.parametrize("name", ["cfrp_like", "gfrp_like", "epoxy_like"])
@pytest.mark.parametrize("mode", ["CMP", "TDMP"])
def test_builtins_pass_ellipticity(name, mode):
    mat = builtin_material(name, mode)  # construction refuses a curve not positive over its range
    lo, hi = mat.conductivity.valid_range
    assert np.all(eval_curve(mat.conductivity, np.linspace(lo, hi, 401)) > 0.0)


@pytest.mark.parametrize("name", ["cfrp_like", "gfrp_like", "epoxy_like"])
def test_builtins_positive_over_extended_range(name):
    mat = builtin_material(name, "TDMP")
    theta = np.linspace(250.0, 500.0, 401)
    assert np.all(eval_curve(mat.specific_heat, theta) > 0.0)
    assert np.all(eval_curve(mat.conductivity, theta) > 0.0)


@pytest.mark.parametrize("name", ["cfrp_like", "gfrp_like", "epoxy_like"])
def test_cmp_tdmp_agree_at_room_temperature(name):
    cmp_mat = builtin_material(name, "CMP")
    tdmp_mat = builtin_material(name, "TDMP")
    for attr in ("specific_heat", "conductivity"):
        assert eval_curve(getattr(cmp_mat, attr), 296.15) == pytest.approx(
            eval_curve(getattr(tdmp_mat, attr), 296.15), abs=0.0
        )


@pytest.mark.parametrize("name", ["cfrp_like", "gfrp_like", "epoxy_like"])
def test_builtin_records_load_as_shipped(name):
    shipped = resources.files("vasctherm.data").joinpath("material_coefficients.json")
    record = {r["name"]: r for r in json.loads(shipped.read_text())["materials"]}[name]
    mat = builtin_material(name, "TDMP")
    assert mat.density == record["density"]
    for curve, key in ((mat.specific_heat, "c_s"), (mat.conductivity, "k_s")):
        assert curve.coefficients == tuple(record[key]["coeffs"])
        assert curve.valid_range == tuple(record[key]["range"])
        assert curve.unit == record[key]["unit"]
    for mode in ("CMP", "TDMP"):
        assert load_material_file(shipped, name, mode) == builtin_material(name, mode)


def test_builtin_unknown_name():
    with pytest.raises(ConfigError, match="unknown material 'unobtanium'"):
        builtin_material("unobtanium")
    assert builtin_names() == ["cfrp_like", "epoxy_like", "gfrp_like"]


def test_property_curve_validation():
    with pytest.raises(ValueError):
        PropertyCurve((), (250.0, 500.0))
    with pytest.raises(ValueError):
        PropertyCurve((1.0,), (400.0, 300.0))
    for coeffs, valid_range in (((np.nan,), (250.0, 500.0)), ((5.0, np.inf), (250.0, 500.0)),
                                ((1.0,), (250.0, np.inf))):
        with pytest.raises(ValueError, match="finite"):
            PropertyCurve(coeffs, valid_range)


def test_solid_material_validation():
    with pytest.raises(ValueError):
        SolidMaterial("bad", -1.0, constant_curve(900.0), constant_curve(1.0))
    for density in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SolidMaterial("bad", density, constant_curve(900.0), constant_curve(1.0))


def test_coolant_validation():
    with pytest.raises(ValueError):
        Coolant(0.0, 4183.0, 1e-8)
    with pytest.raises(ValueError):
        Coolant(1000.0, 4183.0, -1e-8)


def test_load_material_file_roundtrip(tmp_path):
    record = {
        "name": "custom",
        "density": 1500.0,
        "c_s": {"coeffs": [800.0, 0.5], "range": [280.0, 450.0]},
        "k_s": {"coeffs": [1.25], "range": [280.0, 450.0]},
    }
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"materials": [record]}))
    mat = load_material_file(path, mode="TDMP")
    assert mat.density == 1500.0
    assert eval_curve(mat.conductivity, 300.0) == 1.25
    cmp_mat = load_material_file(path, name="custom", mode="CMP")
    assert cmp_mat.specific_heat.degree == 0
    assert eval_curve(cmp_mat.specific_heat, 400.0) == pytest.approx(800.0 + 0.5 * 296.15)
