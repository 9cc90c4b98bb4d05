#include "obs/timeline.hh"

#include <fstream>
#include <sstream>

#include "core/kernel.hh"
#include "core/stats.hh"

namespace obs {

RuleTimeline::RuleTimeline(const cmd::Kernel &k) : k_(k)
{
    bufs_.resize(k.domainCount() ? k.domainCount() : 1);
    const auto &sched = k.scheduleOrder();
    ruleNames_.reserve(sched.size());
    for (uint32_t i = 0; i < sched.size(); i++)
        ruleNames_.push_back(sched[i]->name());
}

void
RuleTimeline::record(const cmd::Rule &r, uint64_t cycle, uint32_t domain)
{
    // schedPos is the rule's elaborated schedule index — no lookup on
    // the per-fire path (this hook runs for every fired rule).
    const uint32_t pos = r.schedPos();
    if (pos >= ruleNames_.size())
        return; // rule added after elaboration snapshot; shouldn't happen
    if (domain >= bufs_.size())
        domain = 0;
    DomainBuf &b = bufs_[domain];
    if (b.events.size() >= kMaxEventsPerDomain) {
        b.droppedEvents++;
        return;
    }
    b.events.push_back({cycle, pos});
}

uint64_t
RuleTimeline::recorded() const
{
    uint64_t n = 0;
    for (const auto &b : bufs_)
        n += b.events.size();
    return n;
}

uint64_t
RuleTimeline::dropped() const
{
    uint64_t n = 0;
    for (const auto &b : bufs_)
        n += b.droppedEvents;
    return n;
}

bool
RuleTimeline::write(std::ostream &os) const
{
    // Trace-event JSON. Timestamps are synthetic: one kernel cycle is
    // 1000 "us" and the slot within the cycle (fire order) offsets
    // events so same-cycle fires on one track don't overlap.
    os << "{\"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const std::string &s) {
        if (!first)
            os << ",\n";
        first = false;
        os << "  " << s;
    };

    emit("{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"cmd-kernel\"}}");
    for (uint32_t d = 0; d < bufs_.size(); d++) {
        std::ostringstream m;
        m << "{\"ph\": \"M\", \"pid\": 0, \"tid\": " << (d + 1)
          << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
          << cmd::jsonEscape("domain " + std::to_string(d) + ": " +
                             k_.domainName(d))
          << "\"}}";
        emit(m.str());
    }

    for (uint32_t d = 0; d < bufs_.size(); d++) {
        const DomainBuf &b = bufs_[d];
        // Per-cycle fired counter for this domain (counter track),
        // plus one slice per event. Events are already in canonical
        // (cycle, slot) order — see file comment.
        size_t i = 0;
        while (i < b.events.size()) {
            size_t j = i;
            uint64_t cyc = b.events[i].cycle;
            while (j < b.events.size() && b.events[j].cycle == cyc) {
                const Ev &e = b.events[j];
                uint64_t ts = cyc * 1000 + (j - i);
                std::ostringstream s;
                s << "{\"ph\": \"X\", \"pid\": 0, \"tid\": " << (d + 1)
                  << ", \"ts\": " << ts << ", \"dur\": 1, \"name\": \""
                  << cmd::jsonEscape(ruleNames_[e.schedPos])
                  << "\", \"args\": {\"cycle\": " << cyc
                  << ", \"sched_pos\": " << e.schedPos << "}}";
                emit(s.str());
                j++;
            }
            std::ostringstream c;
            c << "{\"ph\": \"C\", \"pid\": 0, \"tid\": " << (d + 1)
              << ", \"ts\": " << (cyc * 1000) << ", \"name\": \"fired(domain "
              << d << ")\", \"args\": {\"fired\": " << (j - i) << "}}";
            emit(c.str());
            // Drop the counter back to zero before the next active
            // cycle so idle stretches render as idle.
            uint64_t nextCyc =
                j < b.events.size() ? b.events[j].cycle : cyc + 1;
            if (nextCyc > cyc + 1) {
                std::ostringstream z;
                z << "{\"ph\": \"C\", \"pid\": 0, \"tid\": " << (d + 1)
                  << ", \"ts\": " << ((cyc + 1) * 1000)
                  << ", \"name\": \"fired(domain " << d
                  << ")\", \"args\": {\"fired\": 0}}";
                emit(z.str());
            }
            i = j;
        }
        if (b.droppedEvents) {
            std::ostringstream s;
            s << "{\"ph\": \"M\", \"pid\": 0, \"tid\": " << (d + 1)
              << ", \"name\": \"dropped_events\", \"args\": {\"count\": "
              << b.droppedEvents << "}}";
            emit(s.str());
        }
    }
    os << "\n]}\n";
    return bool(os);
}

bool
RuleTimeline::writeFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    return write(os);
}

} // namespace obs
