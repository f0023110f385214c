/**
 * @file
 * RunaheadEngine: the Runahead Threads mechanism (the paper's
 * contribution, Section 3) extracted from the SMT core into its own
 * subsystem.
 *
 * Ownership split with the core:
 *
 *  - The **engine** owns per-thread episode state (the architectural
 *    checkpoint data: resume sequence, predictor-history snapshot,
 *    prefetch snapshot), the exit horizon, the runahead cache, the
 *    Fig. 4 suppression set, the episode policy (the runtime-selected
 *    efficiency variant, see runahead/policy.hh) and engine-level
 *    statistics.
 *  - The **core** keeps the pipeline machinery episodes ride on — INV
 *    folding and its cascade, pseudo-retirement, the exit squash and
 *    rename-map reset — and drives the engine through the narrow
 *    interface below: the entry trigger when a long-latency load
 *    blocks a thread's ROB head, the exit horizon consumed by
 *    `SmtCore::nextEventCycle()` (the cycle-skipping clamp), and the
 *    fold/retire hooks (pseudo-retired store lines, runahead-load
 *    lookups, executed-in-runahead accounting).
 *
 * The per-thread counters (`core::ThreadStats`) stay with the core;
 * `EngineStats` adds efficiency counters the variants and benches use.
 */

#ifndef RAT_RUNAHEAD_ENGINE_HH
#define RAT_RUNAHEAD_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/counters.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "runahead/policy.hh"
#include "runahead/racache.hh"
#include "trace/microop.hh"

namespace rat::check {
class Auditor;
}

namespace rat::runahead {

/**
 * Engine-level counters (`SimResult::engine`, reset with the core's
 * stats at the warmup -> measure boundary): emitted as the report's
 * `engine` block (report::engineStatsJson) and extrapolated by the
 * sampled merge, but not held by serialized results or cache cells.
 */
struct EngineStats {
    /** Episodes entered. */
    std::uint64_t episodes = 0;
    /** Episodes that generated no prefetch at all (pure overhead). */
    std::uint64_t uselessEpisodes = 0;
    /** Distinct blocking loads the variant vetoed an episode for. */
    std::uint64_t suppressedEntries = 0;
    /** Episodes entered fetch-gated (EntryDecision::DrainOnly). */
    std::uint64_t drainEpisodes = 0;
    /** Exits forced by a variant horizon before the blocking fill. */
    std::uint64_t cappedExits = 0;
    /** Instructions executed (issued) while their thread ran ahead. */
    std::uint64_t executedInRunahead = 0;
};

/** Every EngineStats field (common/counters.hh). */
inline constexpr Counter<EngineStats> kEngineStatsFields[] = {
    {"episodes", &EngineStats::episodes},
    {"uselessEpisodes", &EngineStats::uselessEpisodes},
    {"suppressedEntries", &EngineStats::suppressedEntries},
    {"drainEpisodes", &EngineStats::drainEpisodes},
    {"cappedExits", &EngineStats::cappedExits},
    {"executedInRunahead", &EngineStats::executedInRunahead},
};
static_assert(coversRecord(kEngineStatsFields));

/** The extracted Runahead Threads subsystem. */
class RunaheadEngine
{
  public:
    explicit RunaheadEngine(const core::RatConfig &cfg);
    ~RunaheadEngine();

    RunaheadEngine(const RunaheadEngine &) = delete;
    RunaheadEngine &operator=(const RunaheadEngine &) = delete;

    // --- hot-path queries -------------------------------------------------

    /** Is the thread running ahead? */
    bool inRunahead(ThreadId tid) const { return threads_[tid].active; }

    /**
     * Exit horizon of the thread's current episode: the episode ends at
     * the first cycle >= this value. Only meaningful while
     * inRunahead(tid); feeds `SmtCore::nextEventCycle()`.
     */
    Cycle exitAt(ThreadId tid) const { return threads_[tid].exitAt; }

    /**
     * Is the thread's current episode fetch-gated (DrainOnly)? The
     * core's fetch stage skips the thread while this holds, exactly
     * like the `noFetchInRunahead` ablation.
     */
    bool
    fetchSuppressed(ThreadId tid) const
    {
        return threads_[tid].active && threads_[tid].drainOnly;
    }

    // --- entry trigger ----------------------------------------------------

    /**
     * May an episode start for @p load (a long-latency load blocking
     * @p tid's ROB head)? Checks the Fig. 4 suppression set, then asks
     * the variant; a DrainOnly decision is remembered and applied by
     * the immediately following enter(). Called every cycle while the
     * load blocks commit.
     */
    bool mayEnter(ThreadId tid, const trace::MicroOp &load);

    /**
     * Begin an episode: record the checkpoint. @p fill_at is the
     * blocking load's fill-completion cycle, @p hist_checkpoint the
     * branch predictor's history register, @p prefetch_count the
     * thread's useful-prefetch total at entry.
     */
    void enter(ThreadId tid, const trace::MicroOp &load, Cycle now,
               Cycle fill_at, std::uint64_t hist_checkpoint,
               std::uint64_t prefetch_count);

    // --- exit -------------------------------------------------------------

    /** What the core must restore when an episode ends. */
    struct ExitOutcome {
        /** Trace position to resume fetching from (the blocking load). */
        InstSeq resumeSeq = 0;
        /** Predictor history captured at entry. */
        std::uint64_t histCheckpoint = 0;
        /** Episode generated zero prefetches (pure overhead). */
        bool useless = false;
    };

    /**
     * End the thread's episode: train the variant, clear the runahead
     * cache, and hand the checkpoint back. @p prefetch_count is the
     * thread's useful-prefetch total at exit.
     */
    ExitOutcome exit(ThreadId tid, std::uint64_t prefetch_count);

    // --- fold / retire hooks ----------------------------------------------

    /** A runahead store of @p tid pseudo-retired, writing @p line. */
    void
    notePseudoRetiredStore(ThreadId tid, Addr line, bool data_valid)
    {
        raCache_.write(tid, line, data_valid);
    }

    /** Runahead-cache lookup for a runahead load of @p tid. */
    bool
    lookupStoreLine(ThreadId tid, Addr line, bool &data_valid) const
    {
        return raCache_.lookup(tid, line, data_valid);
    }

    /** An instruction of a running-ahead thread started executing. */
    void noteExecutedInRunahead() { ++stats_.executedInRunahead; }

    /**
     * Bar @p seq from re-triggering runahead after recovery (the
     * Fig. 4 no-prefetch ablation's episode-length preservation).
     */
    void
    suppressLoad(ThreadId tid, InstSeq seq)
    {
        threads_[tid].suppressedLoads.insert(seq);
    }

    // --- introspection ----------------------------------------------------

    /**
     * State enumeration (common/state_io.hh) of threads [0, @p
     * numThreads): every episode field is carried, and all but the
     * veto dedup marker are also digested, the suppression set in
     * ascending order. The runahead-cache occupancy and the engine
     * counters are digested only: a checkpoint is taken outside any
     * episode, where both are empty. `SmtCore::visitState` drives this
     * for digests and checkpoints, and roundTrip() for `ratsim
     * verify`'s save/restore leg.
     */
    template <typename IO>
    void
    visitState(IO &io, unsigned numThreads)
    {
        for (ThreadId tid = 0; tid < numThreads; ++tid) {
            ThreadEpisode &t = threads_[tid];
            io.section("runahead.thread");
            io.both("active", t.active);
            io.both("drainOnly", t.drainOnly);
            io.both("pendingDrain", t.pendingDrain);
            io.both("exitAt", t.exitAt);
            io.both("fillAt", t.fillAt);
            io.both("resumeSeq", t.resumeSeq);
            io.both("entryPc", t.entryPc);
            io.both("histCheckpoint", t.histCheckpoint);
            io.both("prefetchSnapshot", t.prefetchSnapshot);
            io.carry(t.lastVetoSeq);
            io.sortedSet("suppressedLoads", t.suppressedLoads);
            io.digest("raCacheLines", raCache_.occupancy(tid));
        }
        io.section("runahead.stats");
        digestCounters(io, kEngineStatsFields, stats_);
    }

    /**
     * The save/restore leg of `ratsim verify`: write threads [0, @p
     * numThreads)' carried state with the checkpoint encoder, wipe
     * every episode, and read it back with the decoder. A field the
     * enumeration fails to carry comes back default, and the digest
     * stream shows where. False if the bytes did not read back whole.
     */
    bool roundTrip(unsigned numThreads);

    const EngineStats &stats() const { return stats_; }
    /** Reset engine counters (episode state is preserved). */
    void resetStats() { stats_ = {}; }
    /** The selected variant's canonical name. */
    const char *variantName() const;

  private:
    /** Reads episode and runahead-cache state for its invariants. */
    friend class ::rat::check::Auditor;

    struct ThreadEpisode {
        bool active = false;
        bool drainOnly = false;
        /** Decision of the last mayEnter, consumed by enter(). */
        bool pendingDrain = false;
        Cycle exitAt = 0;
        Cycle fillAt = 0;
        InstSeq resumeSeq = 0;
        Addr entryPc = 0;
        std::uint64_t histCheckpoint = 0;
        std::uint64_t prefetchSnapshot = 0;
        /** Last load.seq a veto was counted for (dedup per instance). */
        InstSeq lastVetoSeq = ~InstSeq{0};
        /** Loads barred from re-triggering runahead (Fig. 4 ablation). */
        std::unordered_set<InstSeq> suppressedLoads;
    };

    std::unique_ptr<RunaheadPolicy> policy_;
    RunaheadCache raCache_;
    std::array<ThreadEpisode, kMaxThreads> threads_{};
    EngineStats stats_;
};

} // namespace rat::runahead

#endif // RAT_RUNAHEAD_ENGINE_HH
