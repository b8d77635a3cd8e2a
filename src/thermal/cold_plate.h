/**
 * @file
 * Liquid cold-plate model.
 *
 * Cold plates appear twice in H2P: pressing the CPU (4x4 cm) and
 * sandwiching the TEG modules (4x24 cm, Fig. 5/6). The model captures
 * the flow-dependent convective film via a Dittus-Boelter-like
 * correlation h ~ f^0.8, which is what makes both the CPU temperature
 * (Fig. 11) and the TEG coupling (Fig. 7) respond to flow rate.
 */

#ifndef H2P_THERMAL_COLD_PLATE_H_
#define H2P_THERMAL_COLD_PLATE_H_

namespace h2p {
namespace thermal {

/** Configuration of a liquid cold plate. */
struct ColdPlateParams
{
    /** Conduction + contact resistance of the metal path, K/W. */
    double base_resistance_kpw = 0.04;
    /**
     * Convective coefficient scale: the film resistance is
     * conv_scale / f^0.8 with f in L/H.
     */
    double conv_scale = 2.2;
    /** Exponent of the flow-rate dependence (turbulent ~ 0.8). */
    double flow_exponent = 0.8;

    /** Names every field once: INI keys and digests. */
    template <typename V>
    void visit(V &v)
    {
        v("base_resistance_kpw", base_resistance_kpw);
        v("conv_scale", conv_scale);
        v("flow_exponent", flow_exponent);
    }
};

/**
 * A liquid cold plate: heat flows from the attached surface into the
 * coolant stream across a flow-dependent thermal resistance.
 */
class ColdPlate
{
  public:
    ColdPlate() : ColdPlate(ColdPlateParams{}) {}

    explicit ColdPlate(const ColdPlateParams &params);

    /**
     * Total surface-to-coolant thermal resistance at volumetric flow
     * @p flow_lph (L/H), in K/W.
     */
    double resistance(double flow_lph) const;

    /** Parameters this plate was built with. */
    const ColdPlateParams &params() const { return params_; }

  private:
    ColdPlateParams params_;
};

} // namespace thermal
} // namespace h2p

#endif // H2P_THERMAL_COLD_PLATE_H_
