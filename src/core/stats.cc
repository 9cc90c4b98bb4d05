#include "core/stats.hh"

#include <algorithm>
#include <cstdio>

namespace cmd {

Histogram::Histogram(uint64_t lo, uint64_t hi, uint32_t nbuckets)
    : lo_(lo), hi_(hi)
{
    if (nbuckets == 0)
        nbuckets = 1;
    if (hi_ <= lo_)
        hi_ = lo_ + nbuckets;
    width_ = std::max<uint64_t>(1, (hi_ - lo_) / nbuckets);
    // +1: the >= hi overflow bucket.
    buckets_.assign(nbuckets + 1, 0);
}

void
detail::StatStage::apply()
{
    for (const auto &[stat, n] : incs)
        stat->value_ += n;
    for (const Sample &s : samples)
        s.hist->record(s.value, s.n);
    drop();
}

void
Histogram::sample(uint64_t v, uint64_t n)
{
    if (detail::StatStage *st = detail::activeStats)
        st->samples.push_back({this, v, n});
    else
        record(v, n);
}

void
Histogram::record(uint64_t v, uint64_t n)
{
    uint64_t idx;
    if (v < lo_)
        idx = 0;
    else if (v >= hi_)
        idx = buckets_.size() - 1;
    else
        idx = std::min<uint64_t>((v - lo_) / width_, buckets_.size() - 2);
    buckets_[idx] += n;
    count_ += n;
    sum_ += v * n;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = sum_ = max_ = 0;
    min_ = ~0ull;
}

std::string
Histogram::summary() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "count=%llu mean=%.2f min=%llu max=%llu",
                  (unsigned long long)count_, mean(),
                  (unsigned long long)(count_ ? min_ : 0),
                  (unsigned long long)max_);
    return buf;
}

std::string
Histogram::json() const
{
    std::string out = "{\"count\": " + std::to_string(count_) +
                      ", \"sum\": " + std::to_string(sum_) +
                      ", \"min\": " + std::to_string(count_ ? min_ : 0) +
                      ", \"max\": " + std::to_string(max_) +
                      ", \"mean\": " + jsonDouble(mean()) +
                      ", \"lo\": " + std::to_string(lo_) +
                      ", \"hi\": " + std::to_string(hi_) +
                      ", \"buckets\": [";
    for (size_t i = 0; i < buckets_.size(); i++) {
        if (i)
            out += ", ";
        out += std::to_string(buckets_[i]);
    }
    out += "]}";
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
jsonDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    // JSON has no inf/nan literals; clamp to null.
    if (buf[0] != '-' && (buf[0] < '0' || buf[0] > '9'))
        return "null";
    if (buf[0] == '-' && (buf[1] < '0' || buf[1] > '9'))
        return "null";
    return buf;
}

Stat &
StatGroup::counter(const std::string &name)
{
    auto it = stats_.find(name);
    if (it == stats_.end()) {
        it = stats_.emplace(name, Stat{}).first;
        order_.emplace_back(name, &it->second);
    }
    return it->second;
}

Histogram &
StatGroup::histogram(const std::string &name, uint64_t lo, uint64_t hi,
                     uint32_t nbuckets)
{
    auto it = histos_.find(name);
    if (it == histos_.end()) {
        it = histos_.emplace(name, Histogram(lo, hi, nbuckets)).first;
        histoOrder_.emplace_back(name, &it->second);
    }
    return it->second;
}

void
StatGroup::formula(const std::string &name, std::function<double()> fn)
{
    for (auto &kv : formulas_) {
        if (kv.first == name) {
            kv.second = std::move(fn);
            return;
        }
    }
    formulas_.emplace_back(name, std::move(fn));
}

bool
StatGroup::has(const std::string &name) const
{
    return stats_.count(name) != 0;
}

uint64_t
StatGroup::get(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0 : it->second.value();
}

const Histogram *
StatGroup::getHistogram(const std::string &name) const
{
    auto it = histos_.find(name);
    return it == histos_.end() ? nullptr : &it->second;
}

double
StatGroup::getFormula(const std::string &name) const
{
    for (const auto &kv : formulas_) {
        if (kv.first == name)
            return kv.second();
    }
    return 0;
}

void
StatGroup::resetAll()
{
    for (auto &kv : order_)
        kv.second->reset();
    for (auto &kv : histoOrder_)
        kv.second->reset();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    for (const auto &kv : order_) {
        os << prefix << '.' << kv.first << ' ' << kv.second->value()
           << '\n';
    }
    for (const auto &kv : histoOrder_) {
        os << prefix << '.' << kv.first << ' ' << kv.second->summary()
           << '\n';
    }
    for (const auto &kv : formulas_)
        os << prefix << '.' << kv.first << ' ' << kv.second() << '\n';
}

std::string
StatGroup::json() const
{
    std::string out = "{";
    bool first = true;
    auto key = [&](const std::string &name) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + jsonEscape(name) + "\": ";
    };
    for (const auto &kv : order_) {
        key(kv.first);
        out += std::to_string(kv.second->value());
    }
    for (const auto &kv : histoOrder_) {
        key(kv.first);
        out += kv.second->json();
    }
    for (const auto &kv : formulas_) {
        key(kv.first);
        out += jsonDouble(kv.second());
    }
    out += "}";
    return out;
}

} // namespace cmd
