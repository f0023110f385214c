/**
 * @file
 * On-disk memoization of completed simulation cells.
 *
 * A cell is keyed by the canonical compact-JSON serialization of its
 * *effective* `SimConfig` (which already contains policy, RaT flags
 * and seed) plus the ordered program list — everything a run is a pure
 * function of (DESIGN.md, "Determinism and seeding"). The key string
 * is FNV-1a-hashed into the cell's file name; the file stores the full
 * key alongside the result, and a load only hits when the stored key
 * matches byte-for-byte, so hash collisions degrade to misses, never
 * to wrong results.
 *
 * Crash-safety contract (DESIGN.md, "Farm architecture"): a cell file
 * either holds a complete, verified write or does not exist. Writers
 * stream into a per-(pid, sequence) temp file, flush, verify stream
 * state, and only then rename into place under a directory-level
 * flock; any failure unlinks the temp instead of renaming garbage.
 * The cache is therefore safe for many processes (the farm's workers)
 * sharing one directory. Temp files orphaned by killed writers are
 * garbage-collected on open once they are old enough to be provably
 * dead.
 *
 * Self-healing contract (format v2): every cell carries an FNV-1a
 * checksum of its result payload, verified on load. A cell that fails
 * to parse, lacks its key, or fails verification is *quarantined* —
 * renamed to `<name>.bad` under the directory lock and counted in
 * CacheStats — so bit-rot and torn writes cost one re-simulation
 * instead of a warning on every open forever. v1 cells (no checksum)
 * have a different key string and therefore different file names;
 * they are plain misses, never quarantined.
 */

#ifndef RAT_REPORT_RESULT_CACHE_HH
#define RAT_REPORT_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace rat::report {

/** 64-bit FNV-1a over a byte string. */
std::uint64_t fnv1a64(const std::string &text);

/**
 * Subdirectory of a cache directory holding the shared post-prewarm
 * "ratck2" checkpoints (sim/checkpoint.hh, sim::checkpointDirFor).
 */
inline constexpr const char *kCheckpointSubdir = "ckpt";

/**
 * Temp name a writer publishing @p path streams into:
 * `<path>.<pid>.<seq>.tmp`, unique per (process, call), so concurrent
 * writers of one file — threads or farm workers — never share a temp.
 * Cell stores and checkpoint writes both use it; the open-time GC and
 * removeTmpFilesOfPid parse the pid field back out.
 */
std::string tmpPathFor(const std::string &path);

/** Point-in-time counters of one cache instance. */
struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t storeFailures = 0;
    std::uint64_t quarantined = 0; ///< cells renamed to *.bad
    std::uint64_t reapedTmpFiles = 0;
    std::uint64_t reapedBadFiles = 0;
};

class ResultCache
{
  public:
    /**
     * @param dir Cache directory; an empty string disables caching.
     * Opening an existing directory garbage-collects stale `*.tmp`
     * files left behind by killed writers — in the directory and its
     * checkpoint subdirectory — and `*.bad` quarantine files whose
     * post-mortem window has passed (both age-gated, so temps of
     * concurrently live writers — and freshly quarantined cells
     * someone may still want to inspect — are never touched).
     */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Canonical key string of one cell (configuration + programs). */
    static std::string keyFor(const sim::SimConfig &config,
                              const std::vector<std::string> &programs);

    /** File name (inside dir) a key maps to: <fnv1a-hex>.json. */
    static std::string fileNameFor(const std::string &key);

    /**
     * Look up a cell. Returns std::nullopt when disabled, absent,
     * from a different format version, or when the stored key differs
     * from @p key (collision). A cell that is present under the right
     * name but damaged — unparseable, key field missing, checksum
     * absent or mismatched, result malformed — is quarantined (renamed
     * to `<name>.bad`) and reported as a miss, so the caller
     * re-simulates and the next store heals the slot. Thread-safe.
     */
    std::optional<sim::SimResult> load(const std::string &key) const;

    /**
     * Persist a cell. Returns true once the cell is durably renamed
     * into place; false when disabled or on any write failure (short
     * write, unwritable directory, failed rename) — in which case no
     * partial cell is left behind. Safe for concurrent stores of the
     * same key from multiple threads *and* processes: each writer uses
     * a unique temp file and the rename is flock-guarded, so the cell
     * file always holds one writer's complete bytes.
     */
    bool store(const std::string &key, const sim::SimResult &result) const;

    /** Cells served from disk since construction. */
    std::uint64_t hits() const { return hits_.load(); }
    /** Failed lookups since construction. */
    std::uint64_t misses() const { return misses_.load(); }
    /** store() calls that failed since construction. */
    std::uint64_t storeFailures() const { return storeFailures_.load(); }
    /** Damaged cells quarantined to *.bad since construction. */
    std::uint64_t quarantined() const { return quarantined_.load(); }
    /** Stale temp files removed by the open-time GC. */
    std::uint64_t reapedTmpFiles() const { return reapedTmp_; }
    /** Aged-out quarantine (*.bad) files removed by the open-time GC. */
    std::uint64_t reapedBadFiles() const { return reapedBad_; }
    /** All counters in one snapshot. */
    CacheStats stats() const
    {
        return {hits(), misses(), storeFailures(), quarantined(),
                reapedTmpFiles(), reapedBadFiles()};
    }

    /**
     * Unlink every temp file written by process @p pid, regardless of
     * age — cell temps and checkpoint temps in the checkpoint
     * subdirectory alike. Only safe once @p pid is known dead — the
     * farm coordinator calls this for workers it just killed and
     * reaped on SIGINT, so an interrupted campaign leaves no
     * half-written cells behind.
     * Returns the number of files removed.
     */
    std::uint64_t removeTmpFilesOfPid(long pid) const;

  private:
    void gcStaleFiles();
    void quarantineCell(const std::string &path, const char *why) const;

    std::string dir_;
    std::uint64_t reapedTmp_ = 0;
    std::uint64_t reapedBad_ = 0;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> storeFailures_{0};
    mutable std::atomic<std::uint64_t> quarantined_{0};
};

} // namespace rat::report

#endif // RAT_REPORT_RESULT_CACHE_HH
