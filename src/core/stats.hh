/**
 * @file
 * Per-thread execution statistics collected by the SMT core.
 */

#ifndef RAT_CORE_STATS_HH
#define RAT_CORE_STATS_HH

#include <cstdint>

#include "common/counters.hh"

namespace rat::core {

/** Counters for one hardware thread. */
struct ThreadStats {
    /** Architecturally committed instructions (IPC numerator). */
    std::uint64_t committedInsts = 0;
    /**
     * Instructions actually executed (issued to a functional unit or
     * the memory system), in normal or runahead mode, including work
     * re-executed after a FLUSH squash or a runahead exit. Folded
     * (runahead-INV) instructions never execute and are not counted.
     * This is the ED^2 energy proxy of Section 5.3.
     */
    std::uint64_t executedInsts = 0;
    /** Instructions fetched. */
    std::uint64_t fetchedInsts = 0;
    /** Runahead pseudo-retired instructions. */
    std::uint64_t pseudoRetired = 0;
    /** Runahead-invalid (folded) instructions. */
    std::uint64_t invalidInsts = 0;
    /** Runahead episodes entered. */
    std::uint64_t runaheadEntries = 0;
    /**
     * Runahead episodes that issued no memory prefetch at all — pure
     * overhead (the efficiency concern Mutlu et al. [10] address).
     * Chasers (mcf-like) produce many; streamers few.
     */
    std::uint64_t uselessRunaheadEpisodes = 0;
    /** Cycles spent in runahead mode. */
    std::uint64_t runaheadCycles = 0;
    /** Cycles spent in normal mode. */
    std::uint64_t normalCycles = 0;
    /** Conditional branches resolved. */
    std::uint64_t branches = 0;
    /** Conditional branches mispredicted. */
    std::uint64_t branchMispredicts = 0;
    /** Loads squashed by the FLUSH policy or runahead exit. */
    std::uint64_t squashedInsts = 0;

    // Register-occupancy sampling for Fig. 5: sum over cycles of the
    // renaming registers this thread held, split by mode.
    std::uint64_t normalRegCycles = 0;
    std::uint64_t runaheadRegCycles = 0;

    /** Mean renaming registers held per normal-mode cycle. */
    double
    avgRegsNormal() const
    {
        return normalCycles
                   ? static_cast<double>(normalRegCycles) / normalCycles
                   : 0.0;
    }

    /** Mean renaming registers held per runahead-mode cycle. */
    double
    avgRegsRunahead() const
    {
        return runaheadCycles
                   ? static_cast<double>(runaheadRegCycles) /
                         runaheadCycles
                   : 0.0;
    }
};

/**
 * Every ThreadStats field (common/counters.hh). The four cycle
 * integrals are not digested: skipTo() integrates them span-at-once,
 * so their value at an interior boundary is a host-mode artifact.
 */
inline constexpr Counter<ThreadStats> kThreadStatsFields[] = {
    {"committedInsts", &ThreadStats::committedInsts},
    {"executedInsts", &ThreadStats::executedInsts},
    {"fetchedInsts", &ThreadStats::fetchedInsts},
    {"pseudoRetired", &ThreadStats::pseudoRetired},
    {"invalidInsts", &ThreadStats::invalidInsts},
    {"runaheadEntries", &ThreadStats::runaheadEntries},
    {"uselessRunaheadEpisodes", &ThreadStats::uselessRunaheadEpisodes},
    {"runaheadCycles", &ThreadStats::runaheadCycles, false},
    {"normalCycles", &ThreadStats::normalCycles, false},
    {"branches", &ThreadStats::branches},
    {"branchMispredicts", &ThreadStats::branchMispredicts},
    {"squashedInsts", &ThreadStats::squashedInsts},
    {"normalRegCycles", &ThreadStats::normalRegCycles, false},
    {"runaheadRegCycles", &ThreadStats::runaheadRegCycles, false},
};
static_assert(coversRecord(kThreadStatsFields));

} // namespace rat::core

#endif // RAT_CORE_STATS_HH
