/**
 * @file
 * Chiller model (paper Eq. 10-11).
 *
 * The chiller removes heat from the facility water with a coefficient
 * of performance COP = heat removed / electrical energy consumed; the
 * paper assumes COP = 3.6 (after Jiang et al.). The energy to cool the
 * water of a circulation of n servers by dT over time t is
 *
 *   E_chiller = C_water * dT * n * f * t * rho / COP
 *
 * which this class exposes directly alongside instantaneous forms.
 */

#ifndef H2P_HYDRAULIC_CHILLER_H_
#define H2P_HYDRAULIC_CHILLER_H_

namespace h2p {
namespace hydraulic {

/** Chiller configuration. */
struct ChillerParams
{
    /** Coefficient of performance (heat removed / energy used). */
    double cop = 3.6;
};

/**
 * Vapor-compression chiller with a constant COP.
 */
class Chiller
{
  public:
    Chiller() : Chiller(ChillerParams{}) {}

    explicit Chiller(const ChillerParams &params);

    /** Electrical power to remove @p heat_w of heat, W. */
    double electricPower(double heat_w) const;

    /**
     * Eq. 10: electrical energy (J) to cool the stream of a
     * circulation with @p num_servers servers at @p flow_lph per
     * server by @p delta_t_c for @p seconds.
     */
    double energyToCool(double delta_t_c, int num_servers,
                        double flow_lph, double seconds) const;

    /** Heat-removal rate (W) to cool @p flow_lph of water by dT. */
    static double coolingLoad(double delta_t_c, double flow_lph);

    const ChillerParams &params() const { return params_; }

  private:
    ChillerParams params_;
};

} // namespace hydraulic
} // namespace h2p

#endif // H2P_HYDRAULIC_CHILLER_H_
