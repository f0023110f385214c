#include "check/auditor.hh"

#include <sstream>
#include <vector>

#include "core/smt_core.hh"
#include "runahead/racache.hh"
#include "trace/microop.hh"

namespace rat::check {

namespace {

void
fail(AuditReport &report, Cycle cycle, int tid, const char *structure,
     std::string detail)
{
    report.failures.push_back(
        {cycle, tid, structure, std::move(detail)});
}

const char *
statusName(core::InstStatus s)
{
    switch (s) {
      case core::InstStatus::InFetchQueue: return "InFetchQueue";
      case core::InstStatus::InQueue: return "InQueue";
      case core::InstStatus::Executing: return "Executing";
      case core::InstStatus::Complete: return "Complete";
      case core::InstStatus::Retired: return "Retired";
    }
    return "?";
}

} // namespace

std::string
AuditReport::format() const
{
    std::ostringstream os;
    for (const AuditFailure &f : failures) {
        os << "cycle " << f.cycle << " tid " << f.tid << " ["
           << f.structure << "] " << f.detail << "\n";
    }
    return os.str();
}

void
Auditor::auditRob(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;
    unsigned total = 0;
    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        unsigned walked = 0;
        std::uint64_t prev_uid = 0;
        for (const core::DynInst *inst = core.rob_.head(tid); inst;
             inst = inst->seqNext) {
            ++walked;
            if (inst->tid != tid) {
                std::ostringstream os;
                os << "entry uid " << inst->uid << " belongs to tid "
                   << int{inst->tid} << " but sits on tid " << int{tid}
                   << "'s list";
                fail(report, now, tid, "rob", os.str());
                break;
            }
            if (inst->uid <= prev_uid) {
                std::ostringstream os;
                os << "age order violated: uid " << inst->uid
                   << " follows uid " << prev_uid;
                fail(report, now, tid, "rob", os.str());
                break;
            }
            prev_uid = inst->uid;
            if (inst->status == core::InstStatus::InFetchQueue ||
                inst->status == core::InstStatus::Retired) {
                std::ostringstream os;
                os << "entry uid " << inst->uid << " has status "
                   << statusName(inst->status);
                fail(report, now, tid, "rob", os.str());
            }
        }
        if (walked != core.rob_.threadCount(tid)) {
            std::ostringstream os;
            os << "list walk found " << walked
               << " entries but threadCount says "
               << core.rob_.threadCount(tid);
            fail(report, now, tid, "rob", os.str());
        }
        total += walked;
    }
    if (total != core.rob_.used() ||
        core.rob_.used() > core.rob_.capacity()) {
        std::ostringstream os;
        os << "per-thread lists hold " << total << " entries, used() says "
           << core.rob_.used() << " (capacity " << core.rob_.capacity()
           << ")";
        fail(report, now, -1, "rob", os.str());
    }
}

void
Auditor::auditOccupancy(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;

    // Recompute every per-thread tally from the instruction lists.
    unsigned iq_by_thread[kMaxThreads][core::kNumIqClasses] = {};
    for (unsigned cls = 0; cls < core::kNumIqClasses; ++cls) {
        for (const core::DynInst *inst : core.iqs_[cls].entries())
            ++iq_by_thread[inst->tid][cls];
    }

    std::size_t live_listed = 0;
    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        const auto &t = core.threads_[tid];
        unsigned in_queues = 0;
        for (unsigned cls = 0; cls < core::kNumIqClasses; ++cls) {
            in_queues += t.iqCount[cls];
            if (t.iqCount[cls] != iq_by_thread[tid][cls]) {
                std::ostringstream os;
                os << "iqCount[" << cls << "] = " << t.iqCount[cls]
                   << " but queue " << cls << " holds "
                   << iq_by_thread[tid][cls] << " of this thread's insts";
                fail(report, now, tid, "occupancy", os.str());
            }
        }
        if (t.icount != t.fetchQueue.size() + in_queues) {
            std::ostringstream os;
            os << "icount = " << t.icount << " but fetch queue ("
               << t.fetchQueue.size() << ") + issue queues (" << in_queues
               << ") = " << t.fetchQueue.size() + in_queues;
            fail(report, now, tid, "occupancy", os.str());
        }

        unsigned l2_counted = 0;
        for (const core::DynInst *inst = t.fetchQueue.head(); inst;
             inst = inst->seqNext) {
            ++live_listed;
            if (inst->countedL2Miss)
                ++l2_counted;
        }
        for (const core::DynInst *inst = core.rob_.head(tid); inst;
             inst = inst->seqNext) {
            ++live_listed;
            if (inst->countedL2Miss)
                ++l2_counted;
        }
        if (t.pendingL2Misses != l2_counted) {
            std::ostringstream os;
            os << "pendingL2Misses = " << t.pendingL2Misses << " but "
               << l2_counted << " live insts are flagged countedL2Miss";
            fail(report, now, tid, "occupancy", os.str());
        }
    }

    // Every live pooled instruction is on exactly one thread list
    // (fetch queue before rename, ROB after); a mismatch means a leak
    // or a double-listing.
    if (live_listed != core.pool_.liveCount()) {
        std::ostringstream os;
        os << "thread lists carry " << live_listed
           << " insts but the pool has " << core.pool_.liveCount()
           << " live";
        fail(report, now, -1, "pool", os.str());
    }
}

void
Auditor::auditRegisters(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;

    for (int fp = 0; fp < 2; ++fp) {
        const core::PhysRegFile &file =
            fp ? core.fpRegs_ : core.intRegs_;
        const char *cls = fp ? "fp" : "int";

        unsigned held = 0;
        for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
            held += fp ? core.threads_[tid].fpRegsHeld
                       : core.threads_[tid].intRegsHeld;
        }
        if (held != file.allocatedCount()) {
            std::ostringstream os;
            os << cls << " regsHeld over threads = " << held
               << " but the file has " << file.allocatedCount()
               << " allocated of " << file.size();
            fail(report, now, -1, "regfile", os.str());
        }

        // No duplicate renaming register across the per-thread maps of
        // one class, and no map entry naming a free register.
        std::vector<int> owner(file.size(), -1);
        for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
            const core::RenameMap &map =
                fp ? core.threads_[tid].fpMap : core.threads_[tid].intMap;
            for (ArchReg a = 0; a < kNumArchRegs; ++a) {
                const core::MapEntry e = map.get(a);
                if (!core::isPhysEntry(e))
                    continue;
                if (e >= file.size() || !file.isAllocated(e)) {
                    std::ostringstream os;
                    os << cls << " map[" << unsigned{a}
                       << "] names register " << e
                       << " which is not allocated (use-after-free)";
                    fail(report, now, tid, "map", os.str());
                    continue;
                }
                if (owner[e] != -1) {
                    std::ostringstream os;
                    os << cls << " register " << e
                       << " mapped twice (also by tid " << owner[e] << ")";
                    fail(report, now, tid, "map", os.str());
                }
                owner[e] = tid;
            }
        }
    }

    // Live instructions must reference only allocated registers: the
    // held destination, and the tag of every still-waiting source.
    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        for (const core::DynInst *inst = core.rob_.head(tid); inst;
             inst = inst->seqNext) {
            if (inst->hasDstReg) {
                const core::PhysRegFile &file =
                    inst->dstIsFp ? core.fpRegs_ : core.intRegs_;
                if (inst->dstPhys >= file.size() ||
                    !file.isAllocated(inst->dstPhys)) {
                    std::ostringstream os;
                    os << "uid " << inst->uid << " holds dst register "
                       << inst->dstPhys
                       << " which is not allocated (use-after-free)";
                    fail(report, now, tid, "regfile", os.str());
                }
            }
            // Source tags matter only while the instruction still sits
            // in an issue queue: a folded (runahead-INV) instruction
            // keeps stale Waiting srcStates — the wake path skips
            // non-InQueue waiters — after its producer's register was
            // legally freed early (Section 3.3 register control).
            if (inst->status != core::InstStatus::InQueue)
                continue;
            for (unsigned s = 0; s < inst->numSrcs; ++s) {
                if (inst->srcState[s] != core::SrcState::Waiting)
                    continue;
                const core::PhysRegFile &file =
                    inst->srcIsFp[s] ? core.fpRegs_ : core.intRegs_;
                if (inst->srcTag[s] >= file.size() ||
                    !file.isAllocated(inst->srcTag[s])) {
                    std::ostringstream os;
                    os << "uid " << inst->uid << " src " << s
                       << " waits on register " << inst->srcTag[s]
                       << " which is not allocated (use-after-free)";
                    fail(report, now, tid, "regfile", os.str());
                }
            }
        }
    }
}

void
Auditor::auditLsq(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;
    unsigned total = 0;
    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        unsigned walked = 0;
        std::uint64_t prev_uid = 0;
        std::vector<const core::DynInst *> stores;
        bool chain_ok = true;
        for (const core::DynInst *inst = core.lsq_.head(tid); inst;
             inst = inst->lsqNext) {
            ++walked;
            if (!inst->inLsq || inst->tid != tid) {
                std::ostringstream os;
                os << "chain entry uid " << inst->uid << " has inLsq="
                   << inst->inLsq << " tid=" << int{inst->tid};
                fail(report, now, tid, "lsq", os.str());
                chain_ok = false;
                break;
            }
            if (inst->uid <= prev_uid) {
                std::ostringstream os;
                os << "program order violated: uid " << inst->uid
                   << " follows uid " << prev_uid;
                fail(report, now, tid, "lsq", os.str());
                chain_ok = false;
                break;
            }
            prev_uid = inst->uid;
            if (trace::isStoreOp(inst->op.op))
                stores.push_back(inst);
        }
        if (!chain_ok)
            continue;
        if (walked != core.lsq_.threadCount(tid)) {
            std::ostringstream os;
            os << "chain walk found " << walked
               << " entries but threadCount says "
               << core.lsq_.threadCount(tid);
            fail(report, now, tid, "lsq", os.str());
        }
        total += walked;

        // The stores-only chain must be exactly the store subsequence
        // of the main chain, in the same order.
        std::size_t i = 0;
        const core::DynInst *s = core.lsq_.storeHead(tid);
        for (; s && i < stores.size() && s == stores[i];
             s = s->lsqStoreNext, ++i) {
        }
        if (s || i != stores.size()) {
            std::ostringstream os;
            os << "stores chain diverges from the store subsequence at "
               << "position " << i << " (main chain has " << stores.size()
               << " stores)";
            fail(report, now, tid, "lsq", os.str());
        }
        if (core.lsq_.storeCount(tid) != stores.size()) {
            std::ostringstream os;
            os << "storeCount = " << core.lsq_.storeCount(tid)
               << " but the chain holds " << stores.size() << " stores";
            fail(report, now, tid, "lsq", os.str());
        }
    }
    if (total != core.lsq_.used() ||
        core.lsq_.used() > core.lsq_.capacity()) {
        std::ostringstream os;
        os << "per-thread chains hold " << total << " entries, used() says "
           << core.lsq_.used() << " (capacity " << core.lsq_.capacity()
           << ")";
        fail(report, now, -1, "lsq", os.str());
    }
}

void
Auditor::auditIssueQueues(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;
    for (unsigned cls = 0; cls < core::kNumIqClasses; ++cls) {
        const auto &entries = core.iqs_[cls].entries();
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(entries.size()); ++i) {
            const core::DynInst *inst = entries[i];
            if (inst->iqPos != i) {
                std::ostringstream os;
                os << "queue " << cls << " slot " << i << " holds uid "
                   << inst->uid << " whose iqPos back-pointer says "
                   << inst->iqPos;
                fail(report, now, inst->tid, "iq", os.str());
            }
            if (inst->status != core::InstStatus::InQueue) {
                std::ostringstream os;
                os << "queue " << cls << " slot " << i << " holds uid "
                   << inst->uid << " with status "
                   << statusName(inst->status);
                fail(report, now, inst->tid, "iq", os.str());
            }
            if (static_cast<unsigned>(
                    core::iqClassOf(inst->op.op)) != cls) {
                std::ostringstream os;
                os << "queue " << cls << " slot " << i << " holds uid "
                   << inst->uid << " of the wrong op class";
                fail(report, now, inst->tid, "iq", os.str());
            }

            // schedLinkMask summary bits must mirror the actual links.
            const bool any_waiter =
                inst->onWaiterList[0] || inst->onWaiterList[1] ||
                inst->onWaiterList[2] || inst->onWaiterList[3];
            const bool mask_waiter =
                (inst->schedLinkMask & core::DynInst::kWaiterLinks) != 0;
            const bool mask_dep =
                (inst->schedLinkMask & core::DynInst::kDepLink) != 0;
            const bool mask_head =
                (inst->schedLinkMask & core::DynInst::kDepHead) != 0;
            if (mask_waiter != any_waiter || mask_dep != inst->onDepList ||
                mask_head != (inst->depHead != nullptr)) {
                std::ostringstream os;
                os << "uid " << inst->uid << " schedLinkMask "
                   << unsigned{inst->schedLinkMask}
                   << " disagrees with its links (waiter=" << any_waiter
                   << " dep=" << inst->onDepList
                   << " head=" << (inst->depHead != nullptr) << ")";
                fail(report, now, inst->tid, "sched", os.str());
            }
        }
    }
}

void
Auditor::auditMshrs(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;
    const struct {
        const char *name;
        const mem::MshrFile &file;
    } files[] = {
        {"L1I", core.mem_.l1iMshrs()},
        {"L1D", core.mem_.l1dMshrs()},
        {"L2", core.mem_.l2Mshrs()},
    };
    for (const auto &f : files) {
        std::string why;
        if (!f.file.auditIndexConsistent(&why))
            fail(report, now, -1, "mshr",
                 std::string(f.name) + ": " + why);
    }
}

void
Auditor::auditRunahead(const core::SmtCore &core, AuditReport &report)
{
    const Cycle now = core.cycle_;
    for (ThreadId tid = 0; tid < core.config_.numThreads; ++tid) {
        const auto &episode = core.raEngine_.threads_[tid];
        if (episode.drainOnly && !episode.active) {
            fail(report, now, tid, "runahead",
                 "episode marked drainOnly while inactive");
        }
        if (episode.active &&
            episode.resumeSeq > core.threads_[tid].nextSeq) {
            std::ostringstream os;
            os << "episode resumeSeq " << episode.resumeSeq
               << " is ahead of the fetch cursor "
               << core.threads_[tid].nextSeq;
            fail(report, now, tid, "runahead", os.str());
        }
        if (!episode.active) {
            // Outside an episode nothing speculative may survive: no
            // live runahead-flagged instruction, and an empty runahead
            // cache (cleared at exit).
            unsigned speculative = 0;
            for (const core::DynInst *inst =
                     core.threads_[tid].fetchQueue.head();
                 inst; inst = inst->seqNext) {
                if (inst->runahead)
                    ++speculative;
            }
            for (const core::DynInst *inst = core.rob_.head(tid); inst;
                 inst = inst->seqNext) {
                if (inst->runahead)
                    ++speculative;
            }
            if (speculative) {
                std::ostringstream os;
                os << speculative << " runahead-flagged insts survive "
                   << "outside an episode";
                fail(report, now, tid, "runahead", os.str());
            }
            if (core.raEngine_.raCache_.occupancy(tid)) {
                std::ostringstream os;
                os << "runahead cache holds "
                   << core.raEngine_.raCache_.occupancy(tid)
                   << " lines outside an episode";
                fail(report, now, tid, "runahead", os.str());
            }
        }
    }
}

AuditReport
Auditor::audit(const core::SmtCore &core)
{
    AuditReport report;
    auditRob(core, report);
    auditOccupancy(core, report);
    auditRegisters(core, report);
    auditLsq(core, report);
    auditIssueQueues(core, report);
    auditMshrs(core, report);
    auditRunahead(core, report);
    return report;
}

} // namespace rat::check
