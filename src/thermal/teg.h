/**
 * @file
 * Thermoelectric generator (TEG) device and module models.
 *
 * Models the SP 1848-27145 Bi2Te3 TEG characterized in the paper:
 *
 *  - Seebeck open-circuit voltage, Eq. 1: V_oc = n * alpha * dT_TEG.
 *  - Empirical fits vs *coolant* temperature difference (plate and
 *    contact resistances folded in), Eq. 3/4: v = 0.0448 dT - 0.0051,
 *    and Eq. 6/7: P_max,1 = 0.0003 dT^2 - 0.0003 dT + 0.0011.
 *  - Maximum power transfer at matched load, Eq. 5: P = V_oc^2 / (4 R).
 *  - The flow-rate coupling of Fig. 7 (higher flow -> slightly larger
 *    effective dT across the junctions -> slightly higher V_oc).
 *
 * The ideal matched-load prediction v^2/(4R) with R = 2 ohm is ~19 %
 * below the paper's direct quadratic power fit; both are provided and
 * the discrepancy is pinned down by tests (see EXPERIMENTS.md).
 */

#ifndef H2P_THERMAL_TEG_H_
#define H2P_THERMAL_TEG_H_

#include <cstddef>

#include "thermal/cold_plate.h"

namespace h2p {
namespace thermal {

/** Physical/empirical characteristics of one TEG device. */
struct TegParams
{
    /** Empirical V_oc slope per device, V per K of coolant dT (Eq. 3). */
    double voc_slope = 0.0448;
    /** Empirical V_oc offset per device, V (Eq. 3). */
    double voc_offset = -0.0051;
    /** Quadratic coefficient of the per-device power fit (Eq. 6). */
    double pfit_a = 0.0003;
    /** Linear coefficient of the per-device power fit (Eq. 6). */
    double pfit_b = -0.0003;
    /** Constant coefficient of the per-device power fit (Eq. 6). */
    double pfit_c = 0.0011;
    /** Internal electrical resistance, ohm (measured 2-2.5). */
    double resistance_ohm = 2.0;
    /**
     * Junction-to-junction thermal resistance, K/W. Bi2Te3 is a poor
     * conductor ("TEG is almost adiabatic", Sec. III-B); this drives
     * the Fig. 3 experiment.
     */
    double thermal_resistance_kpw = 1.70;
    /**
     * Flow rate (L/H) at which the empirical fits were taken (the
     * paper fixes 200 L/H for Fig. 8).
     */
    double reference_flow_lph = 200.0;

    /** Names every field once: INI keys ([teg]) and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("voc_slope", voc_slope);
        v("voc_offset", voc_offset);
        v("pfit_a", pfit_a);
        v("pfit_b", pfit_b);
        v("pfit_c", pfit_c);
        v("resistance_ohm", resistance_ohm);
        v("thermal_resistance_kpw", thermal_resistance_kpw);
        v("reference_flow_lph", reference_flow_lph);
    }
};

/**
 * One TEG device. Electrical outputs are expressed against the
 * *coolant* temperature difference between the warm and cold loops,
 * matching how the paper characterizes the prototype.
 */
class TegDevice
{
  public:
    TegDevice() : TegDevice(TegParams{}) {}

    explicit TegDevice(const TegParams &params);

    /** Open-circuit voltage at coolant dT (clamped at 0 V), Eq. 3. */
    double openCircuitVoltage(double coolant_dt) const;

    /** Paper's direct quadratic power fit at coolant dT, Eq. 6. */
    double maxPowerEmpirical(double coolant_dt) const;

    /** Ideal matched-load power V_oc^2/(4R), Eq. 5. */
    double maxPowerPhysical(double coolant_dt) const;

    /** Internal electrical resistance, ohm. */
    double resistance() const { return params_.resistance_ohm; }

    /** Junction-to-junction thermal resistance, K/W. */
    double thermalResistance() const
    {
        return params_.thermal_resistance_kpw;
    }

    const TegParams &params() const { return params_; }

  private:
    TegParams params_;
};

/**
 * Flow-dependent coefficients of the TEG module's Eq. 3-7 fits,
 * hoisted once per (cooling setting, step). powerFromTemps for a
 * coolant dT > 0 is exactly
 * `devices * max(0, (pfit_a * dt_eff + pfit_b) * dt_eff + pfit_c)`
 * with `dt_eff = dt * coupling` (and 0 when dt_eff <= 0), so a kernel
 * consuming these reproduces the per-call path bit for bit.
 */
struct TegStepCoefficients
{
    /** flowCoupling(flow): junction dT fraction, 1 at reference. */
    double coupling = 1.0;
    /** Series device count as a double (the Eq. 7 multiplier). */
    double devices = 0.0;
    /** Per-device quadratic power-fit coefficients (Eq. 6). */
    double pfit_a = 0.0;
    double pfit_b = 0.0;
    double pfit_c = 0.0;
};

/**
 * A series string of identical TEGs sandwiched between two cold plates
 * (Fig. 5). Voltages add; internal resistances add; at matched load
 * the module power is n times the single-device power (Eq. 4/7).
 *
 * The module also models the flow-rate coupling observed in Fig. 7:
 * the effective junction dT is the coolant dT scaled by
 * R_teg / (R_teg + R_hot(f) + R_cold(f)), normalized to 1 at the
 * reference flow so the Eq. 3-7 fits are recovered exactly there.
 */
class TegModule
{
  public:
    /**
     * @param count Number of series devices (H2P uses 12 per server).
     * @param params Per-device characteristics.
     * @param plate Cold-plate model shared by both faces.
     */
    TegModule(size_t count, const TegParams &params = TegParams{},
              const ColdPlateParams &plate = ColdPlateParams{});

    /** Number of series devices. */
    size_t count() const { return count_; }

    /** Module internal resistance: n * R_device. */
    double resistance() const;

    /**
     * Module open-circuit voltage at coolant dT and flow rate, Eq. 4
     * plus the Fig. 7 flow coupling.
     */
    double openCircuitVoltage(double coolant_dt, double flow_lph) const;

    /** V_oc at the reference flow (pure Eq. 4). */
    double openCircuitVoltage(double coolant_dt) const;

    /**
     * Module maximum output power at matched load, Eq. 7 (empirical
     * per-device fit times n), at the reference flow.
     */
    double maxPower(double coolant_dt) const;

    /** Same with the Fig. 7 flow coupling applied. */
    double maxPower(double coolant_dt, double flow_lph) const;

    /**
     * Convenience: power from the warm-loop (CPU outlet) and cold-loop
     * temperatures, Eq. 2 + Eq. 7.
     */
    double powerFromTemps(double t_warm_out, double t_cold,
                          double flow_lph) const;

    /**
     * Same, for a degraded module with only @p active_devices of the
     * series string still contributing (fault model). A short-circuited
     * device drops out of the string electrically but leaves the rest
     * generating (the Fig. 8 scaling is linear in n); an open-circuited
     * device breaks the whole string, i.e. active_devices = 0 and the
     * module output is zero.
     */
    double powerFromTemps(double t_warm_out, double t_cold,
                          double flow_lph, size_t active_devices) const;

    /**
     * Fraction of the coolant dT that appears across the junctions at
     * @p flow_lph, normalized to 1 at the reference flow.
     */
    double flowCoupling(double flow_lph) const;

    /**
     * Hoist the flow-dependent fit coefficients for one cooling
     * setting so a block kernel can evaluate many servers without
     * re-deriving them (see cluster::ServerBlock).
     */
    TegStepCoefficients stepCoefficients(double flow_lph) const;

    const TegDevice &device() const { return device_; }

    const ColdPlate &plate() const { return plate_; }

  private:
    size_t count_;
    TegDevice device_;
    ColdPlate plate_;
    /** Un-normalized junction dT fraction at the reference flow. */
    double reference_fraction_;
};

} // namespace thermal
} // namespace h2p

#endif // H2P_THERMAL_TEG_H_
