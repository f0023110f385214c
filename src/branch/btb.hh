/**
 * @file
 * Branch target buffer and per-thread return-address stack.
 *
 * The BTB is a set-associative, LRU, thread-shared structure holding
 * branch targets. A BTB miss on a taken branch costs a short front-end
 * redirect bubble rather than a full mispredict (the decoder discovers
 * the target). The RAS supplies return targets; over/underflow makes a
 * return behave like a BTB miss.
 */

#ifndef RAT_BRANCH_BTB_HH
#define RAT_BRANCH_BTB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rat::branch {

/** BTB geometry. */
struct BtbConfig {
    unsigned sets = 512;
    unsigned ways = 4;
};

/** Set-associative branch target buffer. */
class Btb
{
  public:
    explicit Btb(const BtbConfig &config = {});

    /**
     * Look up the target of the branch at @p pc.
     * @return true and sets @p target on hit.
     */
    bool lookup(Addr pc, Addr &target);

    /** Install/refresh the resolved target of the branch at @p pc. */
    void update(Addr pc, Addr target);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t misses() const { return misses_; }
    void resetStats();

    /**
     * State enumeration (common/state_io.hh): every entry, the LRU use
     * clock and the statistics counters, all carried only. The size
     * marker turns a geometry mismatch into a decode error.
     */
    template <typename IO>
    void
    visitState(IO &io)
    {
        if constexpr (IO::kCarries) {
            io.size(entries_.size());
            for (Entry &e : entries_) {
                io.carry(e.tag);
                io.carry(e.target);
                io.carry(e.lastUse);
                io.carry(e.valid);
            }
            io.carry(useClock_);
            io.carry(lookups_);
            io.carry(misses_);
        }
    }

  private:
    struct Entry {
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned setOf(Addr pc) const
    {
        return static_cast<unsigned>(((pc >> 2) ^ (pc >> 12)) %
                                     config_.sets);
    }

    BtbConfig config_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t misses_ = 0;
};

/** Fixed-depth per-thread return address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth = 16) : depth_(depth)
    {
        stack_.reserve(depth);
    }

    /** Push a return address (call). Oldest entry drops on overflow. */
    void push(Addr ret_addr);

    /**
     * Pop the predicted return target.
     * @return true and sets @p target when the stack was non-empty.
     */
    bool pop(Addr &target);

    /** Current depth. */
    unsigned size() const { return static_cast<unsigned>(stack_.size()); }

    /** Empty the stack (context squash). */
    void clear() { stack_.clear(); }

    /**
     * State enumeration (common/state_io.hh), carried only. The stack
     * is the only variable-length structure a checkpoint carries, so
     * its length is carried explicitly and validated against the fixed
     * depth on decode (io.fail() rejects a corrupt length).
     */
    template <typename IO>
    void
    visitState(IO &io)
    {
        if constexpr (IO::kCarries) {
            std::uint64_t n = stack_.size();
            io.carry(n);
            if (n > depth_) {
                io.fail();
                return;
            }
            stack_.resize(static_cast<std::size_t>(n));
            for (Addr &a : stack_)
                io.carry(a);
        }
    }

  private:
    unsigned depth_;
    std::vector<Addr> stack_;
};

} // namespace rat::branch

#endif // RAT_BRANCH_BTB_HH
