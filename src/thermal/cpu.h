/**
 * @file
 * Steady-state CPU thermal model calibrated to the paper's prototype
 * (Intel Xeon E5-2650 V3, maximum operating temperature 78.9 C).
 *
 * The model reproduces the three empirical relations of Sec. IV:
 *
 *  - Fig. 10/11: T_CPU = k(f) * T_coolant + b(u, f), linear in coolant
 *    temperature with slope k in [1, 1.3] that grows as the flow rate
 *    shrinks, and offset b = P_dyn(u) * R_th(f).
 *  - Fig. 9: dT_out-in = P_removed / (mdot * c), landing in the
 *    1-3.5 C band at 20 L/H and driven mainly by utilization.
 *
 * The slope above 1 is modelled as temperature-dependent leakage seen
 * through the plate resistance (k = 1 + gamma_slope * R_th(f)); the
 * heat actually deposited in the coolant uses a separate, physically
 * bounded leakage term so the outlet delta stays in the measured band.
 * The paper's own measurements carry the same tension (k up to 1.3
 * with dT_out-in <= 3.5 C); we reproduce both reported relations and
 * document the decomposition.
 */

#ifndef H2P_THERMAL_CPU_H_
#define H2P_THERMAL_CPU_H_

#include "thermal/cold_plate.h"

namespace h2p {
namespace thermal {

/** Calibration constants of the CPU thermal model. */
struct CpuThermalParams
{
    /** Cold plate pressing the CPU (4x4 cm). */
    ColdPlateParams plate;
    /**
     * Slope sensitivity: k(f) = 1 + gamma_slope * R_th(f). The default
     * puts k(20 L/H) ~ 1.3 and k(250 L/H) ~ 1.07 (Fig. 11).
     */
    double gamma_slope = 1.145;
    /** Leakage conductance feeding heat into the coolant, W/K. */
    double leak_gamma = 0.10;
    /** Leakage reference temperature, C. */
    double leak_ref_c = 25.0;
    /** Parasitic board heat picked up by the loop, W. */
    double parasitic_w = 6.0;
    /** Vendor maximum operating temperature, C (E5-2650 V3). */
    double max_operating_c = 78.9;

    /**
     * Names every field once, the CPU cold plate's flattened in:
     * INI keys ([thermal]) and digests.
     */
    template <typename V>
    void visit(V &v)
    {
        plate.visit(v);
        v("gamma_slope", gamma_slope);
        v("leak_gamma", leak_gamma);
        v("leak_ref_c", leak_ref_c);
        v("parasitic_w", parasitic_w);
        v("max_operating_c", max_operating_c);
    }
};

/**
 * Flow-dependent coefficients of the CPU thermal model, hoisted once
 * per (cooling setting, step) instead of re-derived per server. The
 * values are exactly what the per-call accessors compute for the same
 * flow and a pristine plate, so a kernel that consumes them produces
 * bit-identical results to the per-server path (the fouling term is
 * added per server on top of plate_r_kpw, mirroring
 * plateResistance(flow, fouling)).
 */
struct CpuStepCoefficients
{
    /** plateResistance(flow, 0): die-to-coolant resistance, K/W. */
    double plate_r_kpw = 0.0;
    /** coolantSlope(flow, 0): k(f) of the linear die model. */
    double slope_k = 1.0;
    /** units::streamCapacitanceRate(flow): stream mdot*c, W/K. */
    double cap_rate_w_per_k = 0.0;
};

/**
 * Maps (dynamic CPU power, flow rate, inlet coolant temperature) to the
 * steady-state die temperature and the heat deposited into the coolant.
 */
class CpuThermalModel
{
  public:
    CpuThermalModel() : CpuThermalModel(CpuThermalParams{}) {}

    explicit CpuThermalModel(const CpuThermalParams &params);

    /**
     * Steady-state die temperature, C.
     *
     * @param p_dyn_w Dynamic CPU power at the operating point, W.
     * @param flow_lph Coolant flow rate, L/H.
     * @param t_in_c Inlet coolant temperature, C.
     * @param fouling_kpw Extra die-to-coolant thermal resistance from
     *        scale/corrosion deposits on the cold plate, K/W (fault
     *        model; 0 = pristine plate).
     */
    double dieTemperature(double p_dyn_w, double flow_lph,
                          double t_in_c, double fouling_kpw = 0.0) const;

    /**
     * Total heat deposited into the coolant stream, W: dynamic power
     * plus bounded leakage plus parasitic pickup.
     */
    double heatToCoolant(double p_dyn_w, double flow_lph, double t_in_c,
                         double fouling_kpw = 0.0) const;

    /**
     * Coolant temperature rise across the server, C (Fig. 9):
     * dT_out-in = heatToCoolant / (mdot * c).
     */
    double outletDelta(double p_dyn_w, double flow_lph, double t_in_c,
                       double fouling_kpw = 0.0) const;

    /** Outlet coolant temperature, C (paper Eq. 8). */
    double outletTemperature(double p_dyn_w, double flow_lph,
                             double t_in_c,
                             double fouling_kpw = 0.0) const;

    /** Slope k(f) of T_CPU vs coolant temperature (Fig. 11). */
    double coolantSlope(double flow_lph, double fouling_kpw = 0.0) const;

    /**
     * Hoist the flow-dependent coefficients for one cooling setting so
     * a block kernel can evaluate many servers without re-deriving
     * them (see cluster::ServerBlock).
     */
    CpuStepCoefficients stepCoefficients(double flow_lph) const;

    /** Die-to-coolant thermal resistance at @p flow_lph, K/W. */
    double plateResistance(double flow_lph,
                           double fouling_kpw = 0.0) const;

    const CpuThermalParams &params() const { return params_; }

  private:
    CpuThermalParams params_;
    ColdPlate plate_;
};

} // namespace thermal
} // namespace h2p

#endif // H2P_THERMAL_CPU_H_
