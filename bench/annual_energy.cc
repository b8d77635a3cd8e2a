/**
 * @file
 * Flagship integration: a full year of a 1,000-server H2P hall.
 *
 * Combines the climate model (hourly wet bulb), the synthetic
 * workload (diurnal + noise), the scheduling/cooling stack and the
 * TEG harvest into an annual energy balance, and reports the
 * datacenter-level metrics the paper frames its contribution with:
 * PUE, ERE (Sec. II-C) and the energy recycled.
 */

#include <iostream>

#include "bench/bench_common.h"
#include "core/h2p_system.h"
#include "econ/metrics.h"
#include "econ/tco.h"
#include "hydraulic/climate.h"
#include "hydraulic/plant.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/trace_gen.h"

int
main()
{
    using namespace h2p;

    const size_t servers = 1000;
    hydraulic::Climate climate = hydraulic::Climate::frankfurt();

    core::H2PConfig cfg;
    cfg.datacenter.num_servers = servers;
    cfg.datacenter.servers_per_circulation = 50;
    // Plan at the exact utilization, not a cached quantized one.
    cfg.perf.optimizer_cache_quantum = 0.0;

    // One representative day of utilization per month, at 1-h steps,
    // scaled to the year (full 5-min x 8760 h is possible but slow
    // for a bench).
    workload::TraceGenerator gen(2020);
    auto trace = gen.generate(
        workload::TraceGenParams::forProfile(
            workload::TraceProfile::Common),
        servers, 24.0 * 3600.0, 3600.0);

    TablePrinter table(
        "Annual energy balance - 1,000 servers, Frankfurt climate, "
        "common workload, TEG_LoadBalance");
    table.setHeader({"quantity", "value"});
    CsvTable csv({"it_mwh", "plant_mwh", "pump_mwh", "teg_mwh",
                  "pue", "ere", "free_cooling_pct"});

    double it_j = 0.0, plant_j = 0.0, pump_j = 0.0, teg_j = 0.0;
    size_t free_hours = 0, hours = 0;
    for (int h = 0; h < 8760; ++h) {
        size_t step = static_cast<size_t>(h % 24);
        std::vector<double> utils = trace.step(step);

        // One system per hour: the plant sees that hour's wet bulb.
        core::H2PConfig cfg_h = cfg;
        cfg_h.datacenter.plant.wet_bulb_c = climate.wetBulbAt(h);
        core::H2PSystem sys(cfg_h);
        auto state =
            sys.evaluateStep(utils, sched::Policy::TegLoadBalance);
        it_j += state.cpu_power_w * 3600.0;
        plant_j += state.plant_power_w * 3600.0;
        pump_j += state.pump_power_w * 3600.0;
        teg_j += state.teg_power_w * 3600.0;
        // Chiller state: infer from the plant's free-cooling limit.
        hydraulic::FacilityPlant plant(cfg_h.datacenter.plant);
        double min_supply = 1e9;
        for (const auto &cs : state.circulations)
            min_supply = std::min(min_supply, cs.setting.t_in_c);
        if (min_supply >= plant.freeCoolingLimit())
            ++free_hours;
        ++hours;
    }

    auto mwh = [](double j) { return j / 3.6e9; };
    econ::EnergyBreakdown e;
    e.it = it_j;
    e.cooling = plant_j + pump_j;
    e.lighting = 0.01 * it_j; // lighting ~1 % (Sec. VI-C2)
    e.reused = teg_j;

    table.addRow({"IT energy", strings::fixed(mwh(it_j), 1) + " MWh"});
    table.addRow({"plant (chiller+tower)",
                  strings::fixed(mwh(plant_j), 1) + " MWh"});
    table.addRow({"pumps", strings::fixed(mwh(pump_j), 1) + " MWh"});
    table.addRow({"TEG harvest (reused)",
                  strings::fixed(mwh(teg_j), 1) + " MWh"});
    table.addRow({"free-cooling hours",
                  strings::fixed(100.0 * free_hours / hours, 1) +
                      " %"});
    table.addRow({"PUE", strings::fixed(econ::pue(e), 4)});
    table.addRow({"ERE", strings::fixed(econ::ere(e), 4)});
    table.print(std::cout);
    csv.addRow({mwh(it_j), mwh(plant_j), mwh(pump_j), mwh(teg_j),
                econ::pue(e), econ::ere(e),
                100.0 * free_hours / hours});
    bench::saveCsv(csv, "annual_energy");

    std::cout << "\nERE sits below PUE by the recycled fraction "
                 "(Sec. II-C): H2P turns ~"
              << strings::fixed(100.0 * teg_j / it_j, 1)
              << " % of the IT energy back into electricity while "
                 "the warm setpoint keeps the chiller off most of "
                 "the year.\n";
    return 0;
}
