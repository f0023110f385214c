/**
 * @file
 * "ratck2" checkpoint codec implementation. See checkpoint.hh for the
 * format and the drift-proofing contract.
 */

#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "check/digest.hh"
#include "check/fnv.hh"
#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

constexpr char kMagic[] = "ratck2";
constexpr std::size_t kMagicLen = 6;

/**
 * Chunk size of the streamed encode/restore. The codec moves 8 bytes
 * at a time; batching them keeps per-call stdio overhead off the
 * ~200k values of a blob while holding only this much of it.
 */
constexpr std::size_t kStreamChunk = std::size_t{1} << 15;

/** Byte sink of the in-memory encode: appends to a string. */
struct StringSink {
    std::string &out;

    bool
    put(const char *p, std::size_t n)
    {
        out.append(p, n);
        return true;
    }

    bool flush() { return true; }
};

/** Byte sink of the streamed encode: chunked writes to a stdio stream. */
struct FileSink {
    std::FILE *f;
    std::string chunk = {};

    bool
    put(const char *p, std::size_t n)
    {
        chunk.append(p, n);
        return chunk.size() < kStreamChunk || flush();
    }

    bool
    flush()
    {
        const bool ok =
            std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
        chunk.clear();
        return ok;
    }
};

/**
 * Encode-side IO: writes every visited value as 8 little-endian bytes
 * (matching the digest subsystem's byte discipline — independent of
 * struct padding and host endianness) into @p Sink, so the in-memory
 * and streamed encodes share every byte-producing line.
 */
template <typename Sink>
struct CkptWriter {
    Sink sink;
    bool ok = true;

    void
    bytes(const char *p, std::size_t n)
    {
        if (ok && !sink.put(p, n))
            ok = false;
    }

    void
    raw64(std::uint64_t v)
    {
        char b[8];
        for (unsigned i = 0; i < 8; ++i)
            b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
        bytes(b, sizeof(b));
    }

    void size(std::size_t n) { raw64(n); }

    template <typename T>
    void
    scalar(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            raw64(v ? 1 : 0);
        } else {
            // Cast through the unsigned counterpart so negative values
            // round-trip portably (no implementation-defined narrowing).
            using U = std::make_unsigned_t<T>;
            raw64(static_cast<std::uint64_t>(static_cast<U>(v)));
        }
    }

    void
    blob(const std::string &s)
    {
        raw64(s.size());
        bytes(s.data(), s.size());
    }

    void fail() { ok = false; }
};

/** Byte source of the in-memory restore: reads a string. */
struct StringSource {
    const std::string &in;
    std::size_t pos = 0;

    bool
    get(char *p, std::size_t n)
    {
        if (n > in.size() - pos)
            return false;
        std::memcpy(p, in.data() + pos, n);
        pos += n;
        return true;
    }

    bool atEnd() const { return pos == in.size(); }
};

/** Byte source of the streamed restore: chunked reads of a stdio stream. */
struct FileSource {
    std::FILE *f;
    std::string chunk = {};
    std::size_t pos = 0;

    bool
    get(char *p, std::size_t n)
    {
        while (n > 0) {
            if (pos == chunk.size() && !refill())
                return false;
            const std::size_t k = std::min(n, chunk.size() - pos);
            std::memcpy(p, chunk.data() + pos, k);
            pos += k;
            p += k;
            n -= k;
        }
        return true;
    }

    bool atEnd() { return pos == chunk.size() && !refill(); }

  private:
    bool
    refill()
    {
        chunk.resize(kStreamChunk);
        chunk.resize(std::fread(chunk.data(), 1, kStreamChunk, f));
        pos = 0;
        return !chunk.empty();
    }
};

/**
 * Decode-side IO: the exact mirror of CkptWriter, reading from
 * @p Source. Any structural mismatch — truncation, a size() marker
 * that disagrees with the target's geometry, an explicit fail() —
 * clears `ok`; subsequent reads are no-ops so the caller checks once
 * at the end.
 */
template <typename Source>
struct CkptReader {
    Source src;
    bool ok = true;

    bool
    bytes(char *p, std::size_t n)
    {
        if (ok && !src.get(p, n))
            ok = false;
        return ok;
    }

    bool
    raw64(std::uint64_t &v)
    {
        v = 0;
        char b[8];
        if (!bytes(b, sizeof(b)))
            return false;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(std::uint8_t(b[i])) << (8 * i);
        return true;
    }

    void
    size(std::size_t n)
    {
        std::uint64_t v;
        if (raw64(v) && v != n)
            ok = false;
    }

    template <typename T>
    void
    scalar(T &v)
    {
        std::uint64_t raw;
        if (!raw64(raw))
            return;
        if constexpr (std::is_same_v<T, bool>) {
            v = raw != 0;
        } else {
            using U = std::make_unsigned_t<T>;
            v = static_cast<T>(static_cast<U>(raw));
        }
    }

    void
    blob(std::string &s)
    {
        std::uint64_t n;
        if (!raw64(n))
            return;
        // Chunked, so a corrupt length fails at the end of the input
        // instead of allocating n bytes up front.
        s.clear();
        char chunk[4096];
        while (n > 0) {
            const std::size_t k = static_cast<std::size_t>(
                std::min<std::uint64_t>(n, sizeof(chunk)));
            if (!bytes(chunk, k))
                return;
            s.append(chunk, k);
            n -= k;
        }
    }

    void fail() { ok = false; }
};

} // namespace

template <typename IO>
void
CheckpointCodec::visit(IO &io, core::SmtCore &core, mem::MemoryHierarchy &mem)
{
    io.scalar(core.cycle_);
    io.scalar(core.prewarmedInsts_);
    io.size(core.threads_.size());
    for (auto &t : core.threads_) {
        io.scalar(t.nextSeq);
        t.ras.ckptVisit(io);
    }
    core.predictor_.ckptVisit(io);
    core.btb_.ckptVisit(io);
    mem.l1i().ckptVisit(io);
    mem.l1d().ckptVisit(io);
    mem.l2().ckptVisit(io);
}

namespace {

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

} // namespace

template <typename Sink>
bool
CheckpointCodec::encodeInto(Simulator &sim, Sink sink)
{
    core::SmtCore &core = sim.smtCore();
    mem::MemoryHierarchy &mem = sim.memory();
    if (!pipelineEmpty(core, mem))
        return false;

    CkptWriter<Sink> w{sink};
    w.bytes(kMagic, kMagicLen);
    visit(w, core, mem);
    w.blob(core.raEngine_.encodeEpisodes());
    w.raw64(check::StateHasher::digest(core));
    return w.ok && w.sink.flush();
}

std::string
CheckpointCodec::encode(Simulator &sim)
{
    std::string out;
    if (!encodeInto(sim, StringSink{out}))
        return {};
    return out;
}

bool
CheckpointCodec::encode(Simulator &sim, std::FILE *out)
{
    return encodeInto(sim, FileSink{out});
}

template <typename Source>
bool
CheckpointCodec::restoreFrom(Simulator &sim, Source src, std::string *error)
{
    const auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    CkptReader<Source> r{src};
    char magic[kMagicLen];
    if (!r.bytes(magic, kMagicLen) ||
        std::memcmp(magic, kMagic, kMagicLen) != 0)
        return fail("not a ratck2 checkpoint");

    core::SmtCore &core = sim.smtCore();
    visit(r, core, sim.memory());
    std::string episodes;
    r.blob(episodes);
    std::uint64_t want = 0;
    r.raw64(want);
    if (!r.ok)
        return fail("truncated or geometry-mismatched checkpoint");
    if (!r.src.atEnd())
        return fail("trailing bytes after checkpoint");
    if (!core.raEngine_.decodeEpisodes(episodes))
        return fail("malformed episode blob");

    // The drift guard: the restored target must hash to exactly the
    // digest the source hashed to at encode time. Any state the digest
    // covers but the checkpoint does not (or vice versa) fails here.
    if (check::StateHasher::digest(core) != want)
        return fail("state digest mismatch after restore");
    return true;
}

bool
CheckpointCodec::restore(Simulator &sim, const std::string &blob,
                         std::string *error)
{
    return restoreFrom(sim, StringSource{blob}, error);
}

bool
CheckpointCodec::restore(Simulator &sim, std::FILE *in, std::string *error)
{
    return restoreFrom(sim, FileSource{in}, error);
}

std::uint64_t
CheckpointCodec::fileKey(const SimConfig &cfg,
                         const std::vector<std::string> &programs,
                         InstSeq position)
{
    check::Fnv64 h;
    h.u64(0x726174636B32ULL); // "ratck2" discriminator
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
