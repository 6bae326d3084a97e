/**
 * @file
 * Run-farm knobs shared by the explorer, the benches, and machsim.
 */

#ifndef MACH_FARM_FARM_HH
#define MACH_FARM_FARM_HH

#include "farm/thread_pool.hh"

namespace mach::farm
{

/** How a campaign (probe batch, config sweep, seed batch) is run. */
struct FarmOptions
{
    /** Concurrent runs; 1 = the bit-exact serial path, no threads. */
    unsigned jobs = 1;

    /**
     * Options from the environment: MACH_FARM_JOBS (width, default
     * @p fallback_jobs).
     */
    static FarmOptions fromEnv(unsigned fallback_jobs = 1)
    {
        FarmOptions opt;
        opt.jobs = defaultJobs(fallback_jobs);
        return opt;
    }
};

} // namespace mach::farm

#endif // MACH_FARM_FARM_HH
