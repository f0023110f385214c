/**
 * @file
 * Checkpoint codec implementation. See checkpoint.hh for the format
 * and the drift-proofing contract.
 */

#include "sim/checkpoint.hh"

#include <cstddef>
#include <cstring>

#include "check/digest.hh"
#include "common/fnv.hh"
#include "common/state_io.hh"
#include "core/state.hh"
#include "mem/hierarchy.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

constexpr char kMagic[] = "ratck3";
constexpr std::size_t kMagicLen = 6;

/**
 * True when @p core / @p mem hold no transient pipeline state — the
 * precondition for a checkpoint to be restorable into a simulator with
 * a different policy / ROB / IQ configuration.
 */
bool
pipelineEmpty(const core::SmtCore &core, const mem::MemoryHierarchy &mem)
{
    for (ThreadId tid = 0; tid < core.numThreads(); ++tid) {
        if (core.icount(tid) != 0 || core.robOccupancy(tid) != 0 ||
            core.lsqOccupancy(tid) != 0 || core.inRunahead(tid)) {
            return false;
        }
    }
    const Cycle now = core.cycle();
    return mem.l1iMshrs().occupancy(now) == 0 &&
           mem.l1dMshrs().occupancy(now) == 0 &&
           mem.l2Mshrs().occupancy(now) == 0;
}

/** The one encode body: magic, carried fields, digest, into @p w. */
bool
encodeInto(Simulator &sim, state::Encoder &w)
{
    core::SmtCore &core = sim.smtCore();
    if (!pipelineEmpty(core, sim.memory()))
        return false;
    w.ok = w.stream.put(kMagic, kMagicLen);
    core.visitState(w);
    std::uint64_t digest = check::StateHasher::digest(core);
    return w.word(digest) && w.stream.flush();
}

/** The one restore body, reading from @p r. */
bool
restoreFrom(Simulator &sim, state::Decoder &&r, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    char magic[kMagicLen];
    if (!r.stream.get(magic, kMagicLen) ||
        std::memcmp(magic, kMagic, kMagicLen) != 0)
        return fail("not a ratck3 checkpoint");

    core::SmtCore &core = sim.smtCore();
    core.visitState(r);
    std::uint64_t want = 0;
    if (!r.word(want))
        return fail("truncated or geometry-mismatched checkpoint");
    if (!r.stream.atEnd())
        return fail("trailing bytes after checkpoint");

    // The drift guard: the restored target must hash to exactly the
    // digest the source hashed to at encode time. Any state the digest
    // covers but the checkpoint does not (or vice versa) fails here.
    if (check::StateHasher::digest(core) != want)
        return fail("state digest mismatch after restore");
    return true;
}

} // namespace

std::string
CheckpointCodec::encode(Simulator &sim)
{
    state::Encoder w{};
    return encodeInto(sim, w) ? std::move(w.stream.out) : std::string{};
}

bool
CheckpointCodec::encode(Simulator &sim, std::FILE *out)
{
    state::Encoder w{{out}};
    return encodeInto(sim, w);
}

bool
CheckpointCodec::restore(Simulator &sim, const std::string &blob,
                         std::string *error)
{
    return restoreFrom(sim, state::Decoder{state::Source::of(blob)}, error);
}

bool
CheckpointCodec::restore(Simulator &sim, std::FILE *in, std::string *error)
{
    return restoreFrom(sim, state::Decoder{{in}}, error);
}

std::uint64_t
CheckpointCodec::fileKey(const SimConfig &cfg,
                         const std::vector<std::string> &programs,
                         InstSeq position)
{
    Fnv64 h;
    h.u64(0x726174636B33ULL); // "ratck3" discriminator
    h.u64(position);
    h.u64(cfg.seed);
    h.u64(programs.size());
    for (const std::string &p : programs) {
        h.u64(p.size());
        for (char c : p)
            h.u64(static_cast<unsigned char>(c));
    }
    h.u64(cfg.core.predictor.tableEntries);
    h.u64(cfg.core.predictor.historyBits);
    h.u64(static_cast<std::uint64_t>(cfg.core.predictor.weightLimit));
    // The restore-time digest covers register-file free counts, so a
    // checkpoint is only digest-compatible with its own file sizes.
    h.u64(cfg.core.intRegs);
    h.u64(cfg.core.fpRegs);
    const auto foldCache = [&h](const mem::CacheConfig &c) {
        h.u64(c.sizeBytes);
        h.u64(c.ways);
        h.u64(c.lineBytes);
        h.u64(c.latency);
        h.u64(c.mshrs);
    };
    foldCache(cfg.mem.l1i);
    foldCache(cfg.mem.l1d);
    foldCache(cfg.mem.l2);
    h.u64(cfg.mem.memLatency);
    return h.value();
}

} // namespace rat::sim
