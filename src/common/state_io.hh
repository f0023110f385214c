/**
 * @file
 * The IO policies of the one state enumeration.
 *
 * Every stateful component (SmtCore, RunaheadEngine, MemoryHierarchy,
 * Cache, PerceptronPredictor, Btb, ReturnAddressStack) lists its
 * fields once, in a `visitState(IO &)` member template, tagging each
 * by the verb that visits it:
 *
 *  - `io.both(name, field)`   carried by checkpoints and digested;
 *  - `io.carry(field)`        carried only (bulk cache, predictor and
 *                             BTB contents, the host clock);
 *  - `io.digest(name, value)` digested only (derived values, and
 *                             pipeline state a checkpoint, taken with
 *                             an empty pipeline, never holds);
 *  - `io.size(n)`             carried geometry marker, checked on read;
 *  - `io.sortedSet(name, s)`  an unordered set, carried and digested as
 *                             its size plus its elements ascending;
 *  - `io.section(name)`       a heading of the text dump;
 *  - `io.fail()`              a carried value the target cannot take.
 *
 * Statistics records are visited through `digestCounters` over the
 * counter table beside each struct (common/counters.hh).
 *
 * Four users drive the enumeration: the FNV-1a digest and checkpoint
 * encode are one `Binary` writer over different byte sinks, checkpoint
 * restore is the same template over a byte source, and `TextDump`
 * renders the digested fields as labelled text. Every value travels as
 * 8 little-endian bytes, independent of struct padding and host
 * endianness. The binary policies ignore names, and every call
 * inlines; `kCarries` lets an enumeration skip a bulk carried-only
 * loop outright when the policy would ignore all of it.
 */

#ifndef RAT_COMMON_STATE_IO_HH
#define RAT_COMMON_STATE_IO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fnv.hh"

namespace rat::state {

/** Which tagged fields a binary policy sees. */
constexpr unsigned kCarried = 1;
constexpr unsigned kDigested = 2;

/** A field value as its canonical u64 (signed via its unsigned twin). */
template <typename T>
std::uint64_t
toWord(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? 1 : 0;
    } else if constexpr (std::is_enum_v<T>) {
        return toWord(static_cast<std::underlying_type_t<T>>(v));
    } else {
        using U = std::make_unsigned_t<T>;
        return static_cast<std::uint64_t>(static_cast<U>(v));
    }
}

/** The inverse of toWord(). */
template <typename T>
T
fromWord(std::uint64_t raw)
{
    if constexpr (std::is_same_v<T, bool>) {
        return raw != 0;
    } else {
        using U = std::make_unsigned_t<T>;
        return static_cast<T>(static_cast<U>(raw));
    }
}

/**
 * Chunk size of the file-backed sink and source: batching the 8-byte
 * values keeps per-call stdio overhead off the ~200k values of a
 * checkpoint while holding only this much of it.
 */
constexpr std::size_t kStreamChunk = std::size_t{1} << 15;

/**
 * Byte sink: collects the bytes in `out`, or, given a stdio stream,
 * writes them there in chunks.
 */
struct Sink {
    static constexpr bool kReads = false;
    std::FILE *f = nullptr;
    std::string out = {};

    bool
    put(const char *p, std::size_t n)
    {
        out.append(p, n);
        return !f || out.size() < kStreamChunk || flush();
    }

    bool
    flush()
    {
        if (!f)
            return true;
        const bool ok = std::fwrite(out.data(), 1, out.size(), f) ==
                        out.size();
        out.clear();
        return ok;
    }
};

/** Byte sink: folds the bytes into an FNV-1a hash. */
struct FnvSink {
    static constexpr bool kReads = false;
    Fnv64 hash = {};

    bool
    put(const char *p, std::size_t n)
    {
        hash.bytes(p, n);
        return true;
    }
};

/**
 * Byte source: reads the bytes [p, end), or, given a stdio stream,
 * reads it in chunks.
 */
struct Source {
    static constexpr bool kReads = true;
    std::FILE *f = nullptr;
    const char *p = nullptr;
    const char *end = nullptr;
    std::string chunk = {};

    static Source of(const std::string &s)
    {
        return {nullptr, s.data(), s.data() + s.size()};
    }

    bool
    get(char *out, std::size_t n)
    {
        if (n > static_cast<std::size_t>(end - p))
            return getAcrossChunks(out, n);
        std::memcpy(out, p, n);
        p += n;
        return true;
    }

    bool atEnd() { return p == end && !refill(); }

  private:
    /**
     * get()'s rare path, never inlined: it keeps get(), and with it
     * every field visit, small enough to inline into the bulk loops.
     */
    [[gnu::noinline]] bool
    getAcrossChunks(char *out, std::size_t n)
    {
        while (n > 0) {
            if (p == end && !refill())
                return false;
            const auto k = std::min(n, static_cast<std::size_t>(end - p));
            std::memcpy(out, p, k);
            p += k;
            out += k;
            n -= k;
        }
        return true;
    }

    bool
    refill()
    {
        if (!f)
            return false;
        chunk.resize(kStreamChunk);
        chunk.resize(std::fread(chunk.data(), 1, kStreamChunk, f));
        p = chunk.data();
        end = p + chunk.size();
        return p != end;
    }
};

/**
 * The binary policy: writes the fields tagged for @p Uses into a byte
 * sink, or — over a byte source — assigns them from it. Any failure (a
 * sink write, truncation, a size marker that disagrees with the
 * target's geometry, fail()) clears `ok`; later words are no-ops, so
 * the caller checks once at the end.
 */
template <typename Stream, unsigned Uses>
struct Binary {
    static constexpr bool kReads = Stream::kReads;
    static constexpr bool kCarries = (Uses & kCarried) != 0;
    static constexpr bool kDigests = (Uses & kDigested) != 0;

    Stream stream;
    bool ok = true;

    /** Move one word: write @p v, or read it into @p v. */
    bool
    word(std::uint64_t &v)
    {
        char b[8];
        if constexpr (kReads) {
            if (!ok || !stream.get(b, sizeof(b)))
                return ok = false;
            v = 0;
            for (unsigned i = 0; i < 8; ++i)
                v |= std::uint64_t(std::uint8_t(b[i])) << (8 * i);
        } else {
            for (unsigned i = 0; i < 8; ++i)
                b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
            if (!ok || !stream.put(b, sizeof(b)))
                return ok = false;
        }
        return true;
    }

    void section(const char *) {}

    template <typename T>
    void
    both(const char *, T &v)
    {
        if constexpr (kReads) {
            std::uint64_t w = 0;
            if (word(w))
                v = fromWord<T>(w);
        } else {
            std::uint64_t w = toWord(v);
            word(w);
        }
    }

    template <typename T>
    void
    carry(T &v)
    {
        if constexpr (kCarries)
            both(nullptr, v);
    }

    template <typename T>
    void
    digest(const char *, const T &v)
    {
        static_assert(!(kReads && kDigests), "digests are never read");
        if constexpr (kDigests) {
            std::uint64_t w = toWord(v);
            word(w);
        }
    }

    void
    size(std::size_t n)
    {
        std::uint64_t w = n;
        if (kCarries && word(w) && w != n)
            ok = false;
    }

    template <typename Set>
    void
    sortedSet(const char *, Set &s)
    {
        using T = typename Set::value_type;
        std::uint64_t n = s.size();
        if (!word(n))
            return;
        if constexpr (kReads) {
            // Element by element, so a corrupt count fails at the end
            // of the input instead of reserving that many up front.
            s.clear();
            for (std::uint64_t w = 0; n > 0 && word(w); --n)
                s.insert(fromWord<T>(w));
        } else {
            std::vector<T> sorted(s.begin(), s.end());
            std::sort(sorted.begin(), sorted.end());
            for (const T &v : sorted) {
                std::uint64_t w = toWord(v);
                word(w);
            }
        }
    }

    void fail() { ok = false; }
};

/** The state digest, checkpoint encode and checkpoint restore. */
using Hasher = Binary<FnvSink, kDigested>;
using Encoder = Binary<Sink, kCarried>;
using Decoder = Binary<Source, kCarried>;

/** The digested fields as labelled text, one field per line. */
struct TextDump {
    static constexpr bool kCarries = false;

    std::string text;

    void section(const char *name) { text.append(name).append(":\n"); }

    template <typename T>
    void
    both(const char *name, const T &v)
    {
        line(name, "", toWord(v));
    }

    template <typename T>
    void carry(const T &)
    {
    }

    template <typename T>
    void
    digest(const char *name, const T &v)
    {
        line(name, "", toWord(v));
    }

    void size(std::size_t) {}

    /** `name = <size>`, then one `name[] = <element>` line each. */
    template <typename Set>
    void
    sortedSet(const char *name, const Set &s)
    {
        std::vector<typename Set::value_type> sorted(s.begin(), s.end());
        std::sort(sorted.begin(), sorted.end());
        line(name, "", sorted.size());
        for (const auto &v : sorted)
            line(name, "[]", toWord(v));
    }

    void fail() {}

  private:
    void
    line(const char *name, const char *suffix, std::uint64_t v)
    {
        text.append("  ").append(name).append(suffix).append(" = ");
        text.append(std::to_string(v)).append("\n");
    }
};

} // namespace rat::state

#endif // RAT_COMMON_STATE_IO_HH
