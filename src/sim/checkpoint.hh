/**
 * @file
 * Architectural checkpoint codec for sampled simulation and for the
 * post-prewarm state exact cells share through a cache directory
 * (sim/sampled.hh, simulateCell). Files are named `<fileKey>.ratck2`
 * (sim::checkpointPath); the byte layout inside is "ratck3".
 *
 * A checkpoint captures the *functional post-prewarm* state of one
 * simulation: the carried fields of the core's one state enumeration
 * (core/state.hh) — trace positions, return-address stacks, branch
 * predictor, BTB, all three cache levels and the runahead engine's
 * episode state. It deliberately captures nothing of the timing
 * pipeline — encoding is only legal when the pipeline is provably
 * empty (no in-flight instructions, no outstanding fills, no runahead
 * episodes), which is exactly the state `SmtCore::prewarm` leaves
 * behind. That restriction is what lets one checkpoint be restored
 * into simulators with *different* policy / ROB configurations: the
 * walk that builds it never touches the structures those knobs size.
 *
 * Drift-proofing: encode and restore are the checkpoint writer and
 * reader of common/state_io.hh walking that one enumeration, which
 * also feeds the state digest; the blob embeds the digest of the
 * source core. `restore()` recomputes the digest on the restored
 * target and refuses on mismatch — so the carried state and the
 * digested state cannot silently drift apart, and a failed restore
 * falls back to a (bit-identical) fresh functional walk instead of
 * corrupting a run.
 *
 * Format (every value a u64, little-endian):
 *   "ratck3" magic | carried fields of SmtCore::visitState, in
 *   enumeration order | StateHasher digest
 *
 * The writer and reader take a byte sink/source: a string for the
 * in-memory API (the sampled registry, tests) and a stdio stream for
 * the streamed API, which moves the ~1.6 MB blob through the file in
 * small chunks and never holds it whole.
 */

#ifndef RAT_SIM_CHECKPOINT_HH
#define RAT_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rat::sim {

struct SimConfig;
class Simulator;

/** Stateless encoder/decoder. */
class CheckpointCodec
{
  public:
    /**
     * Serialize @p sim's functional state. Returns the empty string if
     * the pipeline is not empty (in-flight instructions, outstanding
     * fills or an active runahead episode) — checkpoints are only
     * defined at functional fast-forward points.
     */
    static std::string encode(Simulator &sim);

    /**
     * Streamed encode: write the same bytes encode() returns to @p out.
     * Returns false if the pipeline is not empty or a write fails;
     * the caller closes the stream and must check that close too.
     */
    static bool encode(Simulator &sim, std::FILE *out);

    /**
     * Restore @p blob into a freshly constructed @p sim (before its
     * first run()). Returns false — leaving no partial state the
     * caller may rely on; fall back to a fresh prewarm walk — on a
     * malformed blob, a geometry mismatch, or an embedded-digest
     * mismatch. @p error (optional) receives a diagnostic.
     */
    static bool restore(Simulator &sim, const std::string &blob,
                        std::string *error = nullptr);

    /**
     * Streamed restore: as restore() above, reading the blob from
     * @p in, which must end exactly where the checkpoint does.
     */
    static bool restore(Simulator &sim, std::FILE *in,
                        std::string *error = nullptr);

    /**
     * Identity of the checkpoint a given configuration needs at trace
     * position @p position: a hash over everything the functional walk
     * (and the restore-time digest) depends on — programs, seed,
     * thread count, predictor and memory geometry, register-file sizes
     * and the position itself. Deliberately *excludes* the scheduling
     * policy, runahead variant and ROB size, so one walk serves a
     * whole policy sweep.
     */
    static std::uint64_t fileKey(const SimConfig &cfg,
                                 const std::vector<std::string> &programs,
                                 InstSeq position);
};

} // namespace rat::sim

#endif // RAT_SIM_CHECKPOINT_HH
