/**
 * @file
 * Three-level memory hierarchy: split L1I/L1D, unified shared L2, fixed
 * main-memory latency — the Table 1 configuration of the paper.
 *
 * The hierarchy is functionally queried at access time and returns the
 * completion cycle. Runahead accesses use the same path flagged
 * speculative: they install lines (that is the prefetch) and are counted
 * separately. The Fig. 4 "no prefetch" ablation is served by
 * `probe()`, which classifies where an access would hit without touching
 * any state.
 */

#ifndef RAT_MEM_HIERARCHY_HH
#define RAT_MEM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <initializer_list>

#include "common/counters.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "obs/trace.hh"

namespace rat::mem {

/** Hierarchy-wide configuration (defaults = paper Table 1). */
struct MemConfig {
    CacheConfig l1i{"L1I", 64 * 1024, 4, 64, 1, 8};
    CacheConfig l1d{"L1D", 64 * 1024, 4, 64, 3, 64};
    CacheConfig l2{"L2", 1024 * 1024, 8, 64, 20, 128};
    /** Full L2-miss service latency in cycles. */
    unsigned memLatency = 400;
};

/** Where an access was (or would be) satisfied. */
enum class HitLevel : std::uint8_t { L1, L2, Memory };

/** Outcome of one hierarchy access. */
struct AccessResult {
    /** Cycle at which the data is available to the core. */
    Cycle completeAt = 0;
    /** Deepest level the access had to reach. */
    HitLevel level = HitLevel::L1;
    /** True if the access could not be started (MSHRs full); retry. */
    bool rejected = false;
};

/** Per-thread memory statistics. */
struct ThreadMemStats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t ifetchL1Misses = 0;
    std::uint64_t ifetchL2Misses = 0;
    /** Next-line instruction prefetches actually issued. */
    std::uint64_t ifetchPrefetches = 0;
    /** Runahead (speculative) accesses that reached main memory. */
    std::uint64_t raMemPrefetches = 0;
    /** Runahead accesses satisfied by L2 (warm L1 only). */
    std::uint64_t raL2Prefetches = 0;
};

/** Every ThreadMemStats field (common/counters.hh). */
inline constexpr Counter<ThreadMemStats> kThreadMemStatsFields[] = {
    {"loads", &ThreadMemStats::loads},
    {"stores", &ThreadMemStats::stores},
    {"l1dMisses", &ThreadMemStats::l1dMisses},
    {"l2DemandMisses", &ThreadMemStats::l2DemandMisses},
    {"ifetchL1Misses", &ThreadMemStats::ifetchL1Misses},
    {"ifetchL2Misses", &ThreadMemStats::ifetchL2Misses},
    {"ifetchPrefetches", &ThreadMemStats::ifetchPrefetches},
    {"raMemPrefetches", &ThreadMemStats::raMemPrefetches},
    {"raL2Prefetches", &ThreadMemStats::raL2Prefetches},
};
static_assert(coversRecord(kThreadMemStatsFields));

/**
 * The full memory system seen by the SMT core. All hardware threads share
 * every level (the paper's complete-resource-sharing organisation).
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemConfig &config);

    /**
     * Data read (load or runahead load).
     * @param tid         Requesting thread (for statistics).
     * @param addr        Byte address.
     * @param now         Current cycle.
     * @param speculative True for runahead-mode accesses (prefetches).
     */
    AccessResult readData(ThreadId tid, Addr addr, Cycle now,
                          bool speculative = false);

    /**
     * Data write at store commit. Write-allocate; the core does not wait
     * for the returned completion (write-buffer semantics), but rejection
     * back-pressures commit.
     */
    AccessResult writeData(ThreadId tid, Addr addr, Cycle now);

    /** Instruction fetch of the line containing @p pc. */
    AccessResult fetchInst(ThreadId tid, Addr pc, Cycle now);

    /**
     * Best-effort next-line instruction prefetch (stream-buffer style).
     * Skips silently when the line is present or MSHRs are busy.
     */
    void prefetchInst(ThreadId tid, Addr pc, Cycle now);

    /**
     * Classify where a read would hit, with no state change. Used by the
     * Fig. 4 no-prefetch ablation and by tests.
     */
    HitLevel probe(Addr addr, Cycle now) const;

    /** L1 data cache (tests and occupancy inspection). */
    Cache &l1d() { return l1d_; }
    /** L1 instruction cache. */
    Cache &l1i() { return l1i_; }
    /** Unified L2. */
    Cache &l2() { return l2_; }

    /** MSHR files (self-checking audits and digests; read-only). */
    const MshrFile &l1iMshrs() const { return l1iMshrs_; }
    const MshrFile &l1dMshrs() const { return l1dMshrs_; }
    const MshrFile &l2Mshrs() const { return l2Mshrs_; }

    /** Per-thread statistics. */
    const ThreadMemStats &threadStats(ThreadId tid) const
    {
        return stats_[tid];
    }

    /** Reset all statistics (cache contents are preserved). */
    void resetStats();

    /**
     * Completion cycle of the earliest outstanding line fill across
     * the three MSHR files (kNoCycle when nothing is in flight). Feeds
     * the core's quiescence horizon: no memory-side state the core can
     * observe changes before this cycle.
     */
    Cycle nextFillCompletion(Cycle now) const;

    /** Configured full-miss latency. */
    unsigned memLatency() const { return memLatency_; }

    /**
     * State enumeration (common/state_io.hh). Cache contents follow
     * Cache::visitState. The per-thread statistics and the MSHR files
     * are digested only: a checkpoint is taken with no fill in flight,
     * and a functional walk leaves the statistics at zero.
     */
    template <typename IO>
    void
    visitState(IO &io, Cycle now, unsigned numThreads)
    {
        for (ThreadId tid = 0; tid < numThreads; ++tid) {
            io.section("mem.thread");
            digestCounters(io, kThreadMemStatsFields, stats_[tid]);
        }
        io.section("mem.mshrs");
        for (const MshrFile *m : {&l1iMshrs_, &l1dMshrs_, &l2Mshrs_}) {
            io.digest("occupancy", m->occupancy(now));
            io.digest("earliestFill", m->earliestCompletion(now));
        }
        io.section("mem.l1i");
        l1i_.visitState(io);
        io.section("mem.l1d");
        l1d_.visitState(io);
        io.section("mem.l2");
        l2_.visitState(io);
    }

    /**
     * Attach/detach the event tracer (nullptr = off). Observation
     * only: misses are recorded as duration events and MSHR occupancy
     * as counters, with no effect on access outcomes. The enabled
     * category mask is cached so the detached fast path is a single
     * register test.
     */
    void
    setTracer(obs::Tracer *tracer)
    {
        tracer_ = tracer;
        traceMask_ = tracer ? (tracer->mask() & obs::kCatMem) : 0;
    }

  private:
    /** Test hook (MutationCheck) — corrupts MSHR index state. */
    friend class ::rat::check::Mutator;

    /** Record a miss-duration event plus the MSHR occupancy counter. */
    void traceMiss(ThreadId tid, Addr addr, Cycle now,
                   const AccessResult &result);

    /**
     * Common access path through one L1 plus the shared L2.
     * @param l1    Which L1 to use.
     * @param mshr1 That L1's MSHR file.
     */
    AccessResult accessThrough(Cache &l1, MshrFile &mshr1, Addr addr,
                               Cycle now);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    MshrFile l1iMshrs_;
    MshrFile l1dMshrs_;
    MshrFile l2Mshrs_;
    unsigned memLatency_;
    obs::Tracer *tracer_ = nullptr;
    unsigned traceMask_ = 0;

    std::array<ThreadMemStats, kMaxThreads> stats_{};
};

} // namespace rat::mem

#endif // RAT_MEM_HIERARCHY_HH
