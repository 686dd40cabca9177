#include "sim/power.hh"

namespace tsp {

double
PowerReport::averagePowerW() const
{
    if (cycles_ == 0)
        return 0.0;
    return energyJ_ / (static_cast<double>(cycles_) * cycleSec_);
}

PowerReport
energyOf(const ChipConfig &cfg, const ActivityTotals &activity,
         Cycle cycles)
{
    const PowerParams &p = cfg.power;
    const double pj =
        static_cast<double>(activity.maccOps) * p.mxmMaccPj +
        static_cast<double>(activity.vxmLaneOps) * p.vxmOpPj +
        static_cast<double>(activity.streamHops) * kLanes *
            p.streamHopPj +
        static_cast<double>(activity.sramAccesses) * kSuperlanes *
            p.sramWordPj +
        static_cast<double>(activity.sxmBytes) * p.sxmBytePj +
        static_cast<double>(activity.icuDispatches) * p.icuDispatchPj;
    const double static_w =
        p.uncoreStaticW + p.superlaneStaticW * cfg.activeSuperlanes;
    const double cycle_s = cfg.cyclePeriodSec();
    return {pj * 1e-12 + static_w * cycle_s * static_cast<double>(cycles),
            cycles, cycle_s};
}

} // namespace tsp
