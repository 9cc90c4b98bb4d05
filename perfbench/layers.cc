#include "layers.hh"

#include <chrono>
#include <cstdio>
#include <regex>

namespace perfbench {

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    spans_[span].endNs = nowNs();
    if (!open_.empty() && open_.back() == span)
        open_.pop_back();
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &metadataJson) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n\"metadata\": %s,\n"
                    "\"traceEvents\": [\n",
                 metadataJson.c_str());
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"run\": %u}}%s\n",
                     s.name.c_str(), double(s.startNs - t0) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3, i, s.parent,
                     s.run, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

namespace {

// Rule names are "<owner>.<rule>": per-core rules under hart<N>, the
// memory hierarchy under mem. One pattern per module; the self-test
// requires every rule to match exactly one of them.
const std::vector<std::regex> &
modulePatterns()
{
    static const std::vector<std::regex> pats = {
        // ooo: commit/flush, rename, the ALU and mul/div pipelines
        std::regex(R"(hart\d+\.(doFlush|doCommit|doRename|doIssue(\d+|Md)|)"
                   R"(doRegRead(\d+|Md)|doExec\d+|doRegWrite\d+|doMdWb|)"
                   R"((alu\d+|md)\.\w+\.compact))"),
        // frontend: fetch stages and the I-cache response
        std::regex(R"(hart\d+\.(doFetch\d+|doIcacheResp))"),
        // lsq: the memory pipeline, LSQ, store buffer and atomics
        std::regex(R"(hart\d+\.(doIssueMem|doRegReadMem|doAddrCalc|)"
                   R"(doUpdateLsq|doIssueLd|doRespLd\w+|doDeqLd|)"
                   R"(doIssueSt\w+|doRespSt\w+|doDeqStToSb|doSbIssue|)"
                   R"(doStPrefetch|doIssueAtomic|doRespAtomic|)"
                   R"(mem\.\w+\.compact))"),
        // tlb: L1 I/D TLBs and the shared L2 TLB / page walker
        std::regex(R"(hart\d+\.(itlb|dtlb|l2tlb)\.\w+)"),
        // cache: L1s, the monolithic L2 or its banks, bank routers
        std::regex(R"(mem\.(l1[di]\d+|l2|l2b\d+|rt\d+)\.\w+)"),
        // mem: the DRAM models
        std::regex(R"(mem\.(dram|dramctl)\.\w+)"),
    };
    return pats;
}

} // namespace

int
ruleModule(const std::string &name)
{
    int found = -1;
    const auto &pats = modulePatterns();
    for (int m = 0; m < kNumRuleModules; m++) {
        if (!std::regex_match(name, pats[m]))
            continue;
        if (found >= 0)
            return -2;
        found = m;
    }
    return found;
}

std::vector<std::string>
ruleMapErrors(const std::vector<std::string> &names)
{
    std::vector<std::string> errs;
    for (const std::string &n : names) {
        int m = ruleModule(n);
        if (m == -1)
            errs.push_back("rule " + n + " maps to no module");
        else if (m == -2)
            errs.push_back("rule " + n + " maps to more than one module");
    }
    return errs;
}

KvTimingShim::KvTimingShim(riscy::KvTraffic &inner, uint32_t harts)
    : inner_(inner), slots_(harts)
{
}

uint64_t
KvTimingShim::pop(uint32_t hart, uint64_t now)
{
    Counts &c = slots_[hart].c;
    uint64_t t0 = nowNs();
    uint64_t d = inner_.pop(hart, now);
    c.popNs += nowNs() - t0;
    c.pops++;
    if (d == 0)
        c.emptyPops++;
    return d;
}

void
KvTimingShim::done(uint32_t hart, uint64_t reqId, uint64_t now)
{
    inner_.done(hart, reqId, now);
}

KvTimingShim::Counts
KvTimingShim::total() const
{
    Counts t;
    for (const Slot &s : slots_) {
        t.pops += s.c.pops;
        t.emptyPops += s.c.emptyPops;
        t.popNs += s.c.popNs;
    }
    return t;
}

} // namespace perfbench
