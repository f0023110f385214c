#include "check/digest.hh"

#include "common/state_io.hh"
#include "core/state.hh"

namespace rat::check {

std::uint64_t
StateHasher::digest(core::SmtCore &core)
{
    state::Hasher hasher{};
    core.visitState(hasher);
    return hasher.stream.hash.value();
}

std::string
StateHasher::describe(core::SmtCore &core)
{
    state::TextDump dump;
    core.visitState(dump);
    return dump.text;
}

void
DigestCollector::sampleAt(core::SmtCore &core)
{
    obs::DigestSample s;
    s.cycle = nextAt_;
    s.digest = StateHasher::digest(core);
    track_.samples.push_back(s);
    if (nextAt_ == captureAt_)
        capturedDump_ = StateHasher::describe(core);
    nextAt_ += window_;
}

} // namespace rat::check
