#include "obs/pipeline.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace obs {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Fetch:
        return "F";
      case Stage::Decode:
        return "Dc";
      case Stage::Rename:
        return "Rn";
      case Stage::Issue:
        return "Is";
      case Stage::RegRead:
        return "RR";
      case Stage::Execute:
        return "Ex";
      case Stage::Mem:
        return "Mem";
      case Stage::Writeback:
        return "Wb";
      case Stage::Commit:
        return "Cm";
    }
    return "?";
}

uint64_t
PipelineTracer::create(uint64_t pc, const std::string &label,
                       uint64_t fetchCycle, uint64_t nowCycle)
{
    if (recs_.size() >= kMaxUops) {
        dropped_++;
        return 0;
    }
    recs_.emplace_back();
    Rec &r = recs_.back();
    r.pc = pc;
    r.label = label;
    r.stages.emplace_back(Stage::Fetch, fetchCycle);
    if (nowCycle > fetchCycle)
        r.stages.emplace_back(Stage::Decode, nowCycle);
    return recs_.size(); // 1-based
}

void
PipelineTracer::stage(uint64_t seq, Stage st, uint64_t cycle)
{
    Rec *r = rec(seq);
    if (!r || r->state != 0)
        return;
    // Ignore duplicate reports of the stage the uop is already in
    // (e.g. a load re-issued after a kill re-enters Mem).
    if (!r->stages.empty() && r->stages.back().first == st)
        return;
    r->stages.emplace_back(st, cycle);
}

void
PipelineTracer::setSpecMask(uint64_t seq, uint16_t mask)
{
    Rec *r = rec(seq);
    if (!r)
        return;
    r->specMask = mask;
    r->renamed = true;
}

void
PipelineTracer::mapLq(uint8_t idx, uint64_t seq)
{
    if (idx >= lqMap_.size())
        lqMap_.resize(idx + 1, 0);
    lqMap_[idx] = seq;
}

void
PipelineTracer::mapSq(uint8_t idx, uint64_t seq)
{
    if (idx >= sqMap_.size())
        sqMap_.resize(idx + 1, 0);
    sqMap_[idx] = seq;
}

void
PipelineTracer::finishRec(Rec &r, uint8_t state, uint64_t cycle)
{
    r.state = state;
    // Stages are open-ended until the uop dies; clamp so the last
    // stage has nonzero extent in the viewer.
    r.endCycle = cycle;
    if (!r.stages.empty() && r.endCycle <= r.stages.back().second)
        r.endCycle = r.stages.back().second + 1;
    if (state == 1)
        retired_++;
    else
        squashed_++;
}

void
PipelineTracer::retire(uint64_t seq, uint64_t cycle)
{
    Rec *r = rec(seq);
    if (!r || r->state != 0)
        return;
    if (r->stages.empty() || r->stages.back().first != Stage::Commit)
        r->stages.emplace_back(Stage::Commit, cycle);
    finishRec(*r, 1, cycle + 1);
    // Advance the live floor past a fully-finished prefix.
    while (liveFloor_ < recs_.size() && recs_[liveFloor_].state != 0)
        liveFloor_++;
}

void
PipelineTracer::squash(uint64_t seq, uint64_t cycle)
{
    Rec *r = rec(seq);
    if (!r || r->state != 0)
        return;
    finishRec(*r, 2, cycle + 1);
    while (liveFloor_ < recs_.size() && recs_[liveFloor_].state != 0)
        liveFloor_++;
}

void
PipelineTracer::squashMask(uint16_t deadMask, uint64_t cycle)
{
    for (size_t i = liveFloor_; i < recs_.size(); i++) {
        Rec &r = recs_[i];
        if (r.state == 0 && r.renamed && (r.specMask & deadMask))
            finishRec(r, 2, cycle + 1);
    }
    while (liveFloor_ < recs_.size() && recs_[liveFloor_].state != 0)
        liveFloor_++;
}

void
PipelineTracer::squashAll(uint64_t cycle)
{
    for (size_t i = liveFloor_; i < recs_.size(); i++) {
        if (recs_[i].state == 0)
            finishRec(recs_[i], 2, cycle + 1);
    }
    liveFloor_ = recs_.size();
}

namespace {

struct Ev {
    uint64_t cycle;
    uint64_t fid;
    // Within one (cycle, fid): I before L (Konata requires the id
    // line first), then stage events in pipeline order — S of stage k
    // is 2+2k and E of stage k is 3+2k, so a zero-width stage keeps
    // S before its own E while E of stage k still precedes S of stage
    // k+1 on a cycle tie — and R (255) last.
    uint8_t ord;
    std::string text;
};

} // namespace

bool
KonataWriter::write(std::ostream &os,
                    const std::vector<const PipelineTracer *> &cores)
{
    // Assign file ids in a canonical order independent of which core's
    // buffer we walk first: (creation cycle, hart, per-core seq).
    struct Slot {
        uint64_t createCycle;
        uint32_t hart;
        uint64_t seq;
        const PipelineTracer::Rec *rec;
    };
    std::vector<Slot> slots;
    uint64_t maxCycle = 0;
    for (const PipelineTracer *t : cores) {
        if (!t)
            continue;
        for (size_t i = 0; i < t->recs_.size(); i++) {
            const PipelineTracer::Rec &r = t->recs_[i];
            if (r.stages.empty())
                continue;
            slots.push_back({r.stages.front().second, t->hartId_, i + 1, &r});
            uint64_t end =
                r.state ? r.endCycle : r.stages.back().second + 1;
            maxCycle = std::max(maxCycle, end);
        }
    }
    std::sort(slots.begin(), slots.end(), [](const Slot &a, const Slot &b) {
        if (a.createCycle != b.createCycle)
            return a.createCycle < b.createCycle;
        if (a.hart != b.hart)
            return a.hart < b.hart;
        return a.seq < b.seq;
    });

    // Per-hart instruction ids (Konata's iid) and retire ids, both in
    // canonical order so the output never depends on buffer layout.
    std::vector<Ev> evs;
    evs.reserve(slots.size() * 8);
    std::vector<uint64_t> iidNext(64, 0), ridNext(64, 1);
    // Retire ids must follow commit order: (endCycle, hart, seq).
    std::vector<size_t> byEnd;
    for (size_t i = 0; i < slots.size(); i++) {
        if (slots[i].rec->state == 1)
            byEnd.push_back(i);
    }
    std::sort(byEnd.begin(), byEnd.end(), [&](size_t a, size_t b) {
        const Slot &sa = slots[a], &sb = slots[b];
        if (sa.rec->endCycle != sb.rec->endCycle)
            return sa.rec->endCycle < sb.rec->endCycle;
        if (sa.hart != sb.hart)
            return sa.hart < sb.hart;
        return sa.seq < sb.seq;
    });
    std::vector<uint64_t> rid(slots.size(), 0);
    for (size_t i : byEnd)
        rid[i] = ridNext[slots[i].hart % 64]++;

    char buf[128];
    for (size_t fi = 0; fi < slots.size(); fi++) {
        const Slot &s = slots[fi];
        const PipelineTracer::Rec &r = *s.rec;
        uint64_t iid = iidNext[s.hart % 64]++;
        std::snprintf(buf, sizeof(buf), "I\t%llu\t%llu\t%u",
                      (unsigned long long)fi, (unsigned long long)iid,
                      s.hart);
        evs.push_back({s.createCycle, fi, 0, buf});
        std::snprintf(buf, sizeof(buf), "L\t%llu\t0\t%llx: ",
                      (unsigned long long)fi, (unsigned long long)r.pc);
        evs.push_back({s.createCycle, fi, 1, buf + r.label});
        uint64_t end = r.state ? r.endCycle : maxCycle;
        for (size_t k = 0; k < r.stages.size(); k++) {
            uint64_t start = r.stages[k].second;
            uint64_t stop =
                k + 1 < r.stages.size() ? r.stages[k + 1].second : end;
            if (stop < start)
                stop = start;
            const char *nm = stageName(r.stages[k].first);
            const uint8_t sOrd = static_cast<uint8_t>(2 + 2 * k);
            std::snprintf(buf, sizeof(buf), "S\t%llu\t0\t%s",
                          (unsigned long long)fi, nm);
            evs.push_back({start, fi, sOrd, buf});
            std::snprintf(buf, sizeof(buf), "E\t%llu\t0\t%s",
                          (unsigned long long)fi, nm);
            evs.push_back({stop, fi, static_cast<uint8_t>(sOrd + 1), buf});
        }
        // Still-live uops at end of run are flushed so every I has a
        // matching R (viewers and the validator require closure).
        int type = r.state == 1 ? 0 : 1;
        std::snprintf(buf, sizeof(buf), "R\t%llu\t%llu\t%d",
                      (unsigned long long)fi,
                      (unsigned long long)rid[fi], type);
        evs.push_back({end, fi, 255, buf});
    }

    std::sort(evs.begin(), evs.end(), [](const Ev &a, const Ev &b) {
        if (a.cycle != b.cycle)
            return a.cycle < b.cycle;
        if (a.fid != b.fid)
            return a.fid < b.fid;
        return a.ord < b.ord;
    });

    os << "Kanata\t0004\n";
    uint64_t cur = evs.empty() ? 0 : evs.front().cycle;
    os << "C=\t" << cur << "\n";
    for (const Ev &e : evs) {
        if (e.cycle != cur) {
            os << "C\t" << (e.cycle - cur) << "\n";
            cur = e.cycle;
        }
        os << e.text << "\n";
    }
    return bool(os);
}

bool
KonataWriter::writeFile(const std::string &path,
                        const std::vector<const PipelineTracer *> &cores)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    return write(os, cores);
}

} // namespace obs
