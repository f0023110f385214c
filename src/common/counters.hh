/**
 * @file
 * Counter tables: each statistics record (core::ThreadStats,
 * mem::ThreadMemStats, runahead::EngineStats) names its fields once, in
 * a constexpr table beside the struct that the state enumeration, the
 * sampled merge and the JSON codec all walk. A
 * `static_assert(coversRecord(table))` beside each table fails the
 * build when a field has no entry.
 */

#ifndef RAT_COMMON_COUNTERS_HH
#define RAT_COMMON_COUNTERS_HH

#include <cstddef>
#include <cstdint>

namespace rat {

/** One 64-bit counter field of @p Record. */
template <typename Record>
struct Counter {
    /** JSON key and state-dump label. */
    const char *name;
    std::uint64_t Record::*member;
    /**
     * Part of the state digest. False only for the cycle integrals
     * that cycle skipping integrates span-at-once (core/state.hh).
     */
    bool digested = true;
};

/** One entry per 8-byte field of @p Record, and no member twice. */
template <typename Record, std::size_t N>
constexpr bool
coversRecord(const Counter<Record> (&table)[N])
{
    if (N * sizeof(std::uint64_t) != sizeof(Record))
        return false;
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = i + 1; j < N; ++j) {
            if (table[i].member == table[j].member)
                return false;
        }
    }
    return true;
}

/** Visit the digested counters of @p record (common/state_io.hh). */
template <typename IO, typename Record, std::size_t N>
void
digestCounters(IO &io, const Counter<Record> (&table)[N],
               const Record &record)
{
    for (const Counter<Record> &c : table) {
        if (c.digested)
            io.digest(c.name, record.*c.member);
    }
}

} // namespace rat

#endif // RAT_COMMON_COUNTERS_HH
