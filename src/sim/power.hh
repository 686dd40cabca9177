/**
 * @file
 * Activity-based power model.
 *
 * The paper reports measured per-layer chip power (Fig. 10); we
 * reproduce the *shape* with activity counting: the chip's lifetime
 * activity counters (MACCs, ALU ops, stream hops, SRAM accesses,
 * switched bytes, dispatches) are weighted by per-op energy
 * coefficients and added to static power over the elapsed cycles.
 * On this statically scheduled chip every count is an exact integer
 * that all three execution tiers reproduce, so energy is a pure
 * function of the counters and the clock, identical across tiers bit
 * for bit. Power over any window is the energy difference between two
 * reads divided by the window's duration. See DESIGN.md substitution
 * table.
 */

#ifndef TSP_SIM_POWER_HH
#define TSP_SIM_POWER_HH

#include <cstdint>

#include "arch/config.hh"

namespace tsp {

/** Cumulative activity counts of one chip. */
struct ActivityTotals
{
    std::uint64_t maccOps = 0;
    std::uint64_t vxmLaneOps = 0;
    std::uint64_t streamHops = 0;    ///< Flowing vectors (320 B each).
    std::uint64_t sramAccesses = 0;  ///< Port accesses (20 words each).
    std::uint64_t sxmBytes = 0;
    std::uint64_t icuDispatches = 0;
};

/** Energy over a number of cycles (what Chip::power() reports). */
class PowerReport
{
  public:
    PowerReport(double energy_j, Cycle cycles, double cycle_sec)
        : energyJ_(energy_j), cycles_(cycles), cycleSec_(cycle_sec)
    {
    }

    /** @return total energy in joules. */
    double totalEnergyJ() const { return energyJ_; }

    /** @return cycles accounted. */
    Cycle cycles() const { return cycles_; }

    /** @return average power in watts over all accounted cycles. */
    double averagePowerW() const;

  private:
    double energyJ_;
    Cycle cycles_;
    double cycleSec_;
};

/**
 * @return the energy of @p activity plus @p cycles of static power
 * under @p cfg's coefficients and clock.
 */
PowerReport energyOf(const ChipConfig &cfg, const ActivityTotals &activity,
                     Cycle cycles);

} // namespace tsp

#endif // TSP_SIM_POWER_HH
