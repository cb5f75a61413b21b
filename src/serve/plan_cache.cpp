#include "serve/plan_cache.hpp"

#include "common/log.hpp"
#include "common/table.hpp"

namespace feather {
namespace serve {

std::string
PlanCache::scopedKey(const std::string &base, const std::string &scope)
{
    return scope.empty() ? base : strCat(base, "|@", scope);
}

std::string
PlanCache::key(sim::EngineMode mode, sim::DataflowKind kind,
               const LayerSpec &layer, int aw, int ah,
               const std::string &scope)
{
    // Shape-only key: two layers with equal shapes plan identically, their
    // names notwithstanding. The engine mode is part of the key so the two
    // tiers never share entries.
    if (layer.type == OpType::Gemm) {
        return scopedKey(strCat("gemm|", layer.gemm.m, "x", layer.gemm.n,
                                "x", layer.gemm.k, "|", toString(kind), "|",
                                aw, "x", ah, "|", toString(mode)),
                         scope);
    }
    const ConvShape &c = layer.conv;
    return scopedKey(strCat(toString(layer.type), "|", c.n, ",", c.c, ",",
                            c.h, ",", c.w, ",", c.m, ",", c.r, ",", c.s,
                            ",s", c.stride, ",p", c.pad, "|", toString(kind),
                            "|", aw, "x", ah, "|", toString(mode)),
                     scope);
}

std::optional<sim::LayerPlan>
PlanCache::getOrPlan(sim::EngineMode mode, sim::DataflowKind kind,
                     const LayerSpec &layer, int aw, int ah,
                     std::string *error, const std::string &scope)
{
    const std::string k = key(mode, kind, layer, aw, ah, scope);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(k);
    if (it == map_.end()) {
        ++misses_;
        Entry entry;
        entry.plan = sim::planLayer(kind, layer, aw, ah, &entry.error, mode);
        it = map_.emplace(k, std::move(entry)).first;
    } else {
        ++hits_;
    }
    if (!it->second.plan && error) *error = it->second.error;
    return it->second.plan;
}

sim::PlanFn
PlanCache::planFn(const std::string &scope)
{
    return [this, scope](sim::EngineMode mode, sim::DataflowKind kind,
                         const LayerSpec &layer, int aw, int ah,
                         std::string *error) {
        return getOrPlan(mode, kind, layer, aw, ah, error, scope);
    };
}

std::optional<LayerStats>
PlanCache::findStats(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end() || !it->second.stats) return std::nullopt;
    ++memo_hits_;
    return it->second.stats;
}

void
PlanCache::storeStats(const std::string &key, const LayerStats &stats)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return;
    std::optional<LayerStats> &memo = it->second.stats;
    FEATHER_CHECK(!memo || *memo == stats,
                  "plan cache: two runs of ", key, " disagree (",
                  memo->toString(), " vs ", stats.toString(), ")");
    memo = stats;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = map_.size();
    s.memo_hits = memo_hits_;
    return s;
}

std::string
PlanCache::Stats::toJson() const
{
    return jsonObject({numberField("hits", hits),
                       numberField("misses", misses),
                       numberField("entries", entries)});
}

std::string
PlanCache::Stats::toString() const
{
    return strCat("plan cache: ", hits, " hit(s), ", misses, " miss(es), ",
                  entries, " entr(y/ies)");
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
    memo_hits_ = 0;
}

} // namespace serve
} // namespace feather
