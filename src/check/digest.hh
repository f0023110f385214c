/**
 * @file
 * Deterministic state digests: an FNV-1a hash over the digested fields
 * of the core's one state enumeration (core/state.hh), sampled every
 * `--digest-window` cycles into the obs telemetry stream. The field
 * tags make the digest mode-invariant by construction (see
 * core/state.hh), so two runs of one configuration in any host mode
 * produce byte-identical digest streams — and `ratsim verify` bisects
 * the first window where they do not.
 */

#ifndef RAT_CHECK_DIGEST_HH
#define RAT_CHECK_DIGEST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "obs/sampler.hh"

namespace rat::core {
class SmtCore;
}

namespace rat::check {

/**
 * Digest and dump entry points over SmtCore::visitState; stateless.
 * The core is taken by non-const reference only because the one
 * enumeration also drives checkpoint restore; the digest and the dump
 * never write.
 */
class StateHasher
{
  public:
    /** FNV-1a digest of the core's digested state. */
    static std::uint64_t digest(core::SmtCore &core);

    /**
     * The same fields rendered as labelled text, one field per line —
     * the state dump `ratsim verify` prints for both sides of the first
     * divergent cycle.
     */
    static std::string describe(core::SmtCore &core);
};

/**
 * Collects a digest stream during the measured window. Driven by the
 * core exactly like the telemetry WindowSampler: `nextAt()` names the
 * next window-end boundary, `sampleAt()` records the digest when the
 * clock reaches (or skips across) it.
 */
class DigestCollector
{
  public:
    explicit DigestCollector(Cycle window) : window_(window) {}

    /** Arm at the start cycle of the measured window. */
    void
    reset(Cycle start)
    {
        nextAt_ = window_ ? start + window_ : kNoCycle;
        track_ = obs::DigestTrack{};
        track_.window = window_;
        capturedDump_.clear();
    }

    /** The next boundary at which a digest is due (kNoCycle if off). */
    Cycle nextAt() const { return nextAt_; }

    /** Digest the core for the window ending at nextAt(). */
    void sampleAt(core::SmtCore &core);

    /**
     * Also capture a full state dump at the boundary @p cycle (the
     * bisector's final pass). kNoCycle disables.
     */
    void setCaptureAt(Cycle cycle) { captureAt_ = cycle; }
    const std::string &capturedDump() const { return capturedDump_; }

    /** The accumulated digest stream (copied into SimResult). */
    const obs::DigestTrack &track() const { return track_; }

  private:
    Cycle window_;
    Cycle nextAt_ = kNoCycle;
    Cycle captureAt_ = kNoCycle;
    obs::DigestTrack track_;
    std::string capturedDump_;
};

} // namespace rat::check

#endif // RAT_CHECK_DIGEST_HH
