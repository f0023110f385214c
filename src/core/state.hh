/**
 * @file
 * SmtCore's state enumeration: the one list of the core's fields that
 * the state digest, the text dump, checkpoint encode and checkpoint
 * restore all walk (IO policies in common/state_io.hh). Included only
 * by the code that walks it: check::StateHasher and
 * sim::CheckpointCodec.
 *
 * The tags keep the digest mode-invariant by construction: it sees
 * only state that is bit-identical across the host-side grid (cycle
 * skipping on/off, the save/restore leg) at matched window boundaries.
 * So the host clock is carried, never digested (a skipped span samples
 * with the clock parked at the span start); physical register
 * *numbers* are never visited (which register a rename draws is a
 * free-list artifact — the maps are digested by entry kind and
 * producer readiness); the per-cycle integrals and rotation cursors
 * are never visited (skipTo integrates them span-at-once); nor are
 * instruction uids, issue-queue slots and scheduler links.
 *
 * Checkpoints are only encoded with an empty pipeline, so the
 * in-flight instructions, occupancies and statistics are digested
 * only: at a checkpoint they hold their reset values on both sides,
 * and the restore-time digest check confirms it.
 */

#ifndef RAT_CORE_STATE_HH
#define RAT_CORE_STATE_HH

#include "core/smt_core.hh"

namespace rat::core {

namespace detail {

/**
 * One live instruction's mode-invariant fields, digested only.
 * Deliberately omitted: uid and depStoreUid (allocation-order
 * artifacts), iqPos (queue slot assignment), physical register numbers
 * (free-list order), scheduler links (wakeup bookkeeping).
 */
template <typename IO>
void
visitInst(IO &io, const DynInst &inst)
{
    io.digest("seq", inst.op.seq);
    io.digest("op", inst.op.op);
    io.digest("status", inst.status);
    io.digest("inv", inst.inv);
    io.digest("runahead", inst.runahead);
    io.digest("folded", inst.folded);
    io.digest("renamed", inst.renamed);
    io.digest("hasDstReg", inst.hasDstReg);
    io.digest("memIssued", inst.memIssued);
    io.digest("longLatency", inst.longLatency);
    io.digest("forwarded", inst.forwarded);
    io.digest("countedL2Miss", inst.countedL2Miss);
    io.digest("inLsq", inst.inLsq);
    io.digest("predTaken", inst.predTaken);
    io.digest("mispredicted", inst.mispredicted);
    io.digest("completeAt", inst.completeAt);
    io.digest("numSrcs", inst.numSrcs);
    for (unsigned s = 0; s < inst.numSrcs; ++s)
        io.digest("srcState", inst.srcState[s]);
}

/** A rename map by entry kind and producer readiness, digested only. */
template <typename IO>
void
visitMap(IO &io, const RenameMap &map, const PhysRegFile &file)
{
    for (ArchReg a = 0; a < kNumArchRegs; ++a) {
        const MapEntry e = map.get(a);
        if (e == kMapArch)
            io.digest("map.arch", 0);
        else if (e == kMapInv)
            io.digest("map.inv", 1);
        else
            io.digest("map.phys",
                      2 + (file.isAllocated(e) && file.isReady(e)));
    }
}

} // namespace detail

template <typename IO>
void
SmtCore::visitState(IO &io)
{
    io.section("core");
    io.carry(cycle_);
    io.carry(prewarmedInsts_);
    io.digest("robUsed", rob_.used());
    io.digest("lsqUsed", lsq_.used());
    for (const IssueQueue &iq : iqs_)
        io.digest("iqSize", iq.size());
    io.digest("intFree", intRegs_.freeCount());
    io.digest("intAllocated", intRegs_.allocatedCount());
    io.digest("fpFree", fpRegs_.freeCount());
    io.digest("fpAllocated", fpRegs_.allocatedCount());

    io.size(threads_.size());
    for (ThreadId tid = 0; tid < threads_.size(); ++tid) {
        ThreadState &t = threads_[tid];
        io.section("thread");
        io.both("nextSeq", t.nextSeq);
        t.ras.visitState(io);
        io.digest("fetchBlockedUntil", t.fetchBlockedUntil);
        io.digest("waitingBranch", t.waitingBranch);
        io.digest("lastFetchLine", t.lastFetchLine);
        io.digest("icount", t.icount);
        for (unsigned count : t.iqCount)
            io.digest("iqCount", count);
        io.digest("intRegsHeld", t.intRegsHeld);
        io.digest("fpRegsHeld", t.fpRegsHeld);
        io.digest("pendingL2Misses", t.pendingL2Misses);
        io.digest("lastFpIssue", t.lastFpIssue);
        io.digest("lsqCount", lsq_.threadCount(tid));
        io.digest("lsqStores", lsq_.storeCount(tid));

        // normalCycles/runaheadCycles and the reg-cycle integrals are
        // deliberately absent: skipTo() integrates them span-at-once
        // before the boundary loop, so their value at an interior
        // boundary is a host-mode artifact. Any real divergence they
        // could witness stems from digested instantaneous state.
        io.section("thread.stats");
        const ThreadStats &st = stats_[tid];
        io.digest("committed", st.committedInsts);
        io.digest("executed", st.executedInsts);
        io.digest("fetched", st.fetchedInsts);
        io.digest("pseudoRetired", st.pseudoRetired);
        io.digest("invalidInsts", st.invalidInsts);
        io.digest("runaheadEntries", st.runaheadEntries);
        io.digest("uselessEpisodes", st.uselessRunaheadEpisodes);
        io.digest("branches", st.branches);
        io.digest("branchMispredicts", st.branchMispredicts);
        io.digest("squashed", st.squashedInsts);

        io.section("thread.maps");
        detail::visitMap(io, t.intMap, intRegs_);
        detail::visitMap(io, t.fpMap, fpRegs_);

        io.section("thread.fetchq");
        for (const DynInst *inst = t.fetchQueue.head(); inst;
             inst = inst->seqNext)
            detail::visitInst(io, *inst);
        io.section("thread.rob");
        for (const DynInst *inst = rob_.head(tid); inst;
             inst = inst->seqNext)
            detail::visitInst(io, *inst);
    }

    raEngine_.visitState(io, config_.numThreads);
    io.section("predictor");
    predictor_.visitState(io);
    btb_.visitState(io);
    mem_.visitState(io, cycle_, config_.numThreads);
}

} // namespace rat::core

#endif // RAT_CORE_STATE_HH
